"""The package's public surface: its export list and its argument checks."""

import numpy as np
import pytest

import recical
from recical.crlb import CrlbInputs
from recical.downlink import DownlinkScenario
from recical.estimators import EmSettings
from recical.frontend import FrontEnd, random_frontend
from recical.geometry import CouplingModel, build_geometry, coupling_gain_db, full_mask, reduced_mask
from recical.sounding import sound
from recical.wideband import ks_critical

# names that left the library: deleted, or moved to the test oracles
REMOVED = ("em_fixed_point_residuals", "equivalent_channel", "pair_distance_polarization", "pair_statistics",
           "WidebandParams")


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from recical import *", namespace)
    assert set(recical.__all__) <= namespace.keys()
    assert len(recical.__all__) == len(set(recical.__all__))
    assert not set(REMOVED) & set(recical.__all__)
    assert not any(hasattr(recical, name) for name in REMOVED)


def _crlb_inputs(sigma2, noise_var):
    fe = FrontEnd(np.ones(2, complex), np.ones(2, complex), 0)
    return CrlbInputs(fe, np.full((2, 2), 0.1 + 0j), sigma2, noise_var, full_mask(2))


NAN_ARGUMENTS = {
    "sound.noise_var": lambda: sound(
        np.zeros((2, 2), complex), FrontEnd(np.ones(2, complex), np.ones(2, complex), 0), np.nan, np.random.default_rng(0)
    ),
    "CouplingModel.sigma2": lambda: CouplingModel(-10.0, -12.0, -10.0, -15.0, np.nan),
    "coupling_gain_db.distance": lambda: coupling_gain_db(CouplingModel(-10.0, -12.0, -10.0, -15.0, 0.0), np.nan, "co"),
    "EmSettings.epsilon": lambda: EmSettings(epsilon=np.nan),
    "build_geometry.spacing": lambda: build_geometry(2, 2, np.nan),
    "reduced_mask.radius": lambda: reduced_mask(build_geometry(2, 2), np.nan),
    "CrlbInputs.sigma2": lambda: _crlb_inputs(np.nan, 1e-6),
    "CrlbInputs.noise_var": lambda: _crlb_inputs(1e-6, np.nan),
    "DownlinkScenario.noise_var": lambda: DownlinkScenario(np.ones((2, 1)), np.ones((1, 2)), np.ones(1), np.ones(1), np.nan),
}


@pytest.mark.parametrize("where", NAN_ARGUMENTS)
def test_nan_argument_refused(where):
    # every check is written so that NaN fails it, as a negative value does
    with pytest.raises(ValueError, match=">= 0|> 0|positive"):
        NAN_ARGUMENTS[where]()


# arguments bounded on both sides, each with its own message
NAN_RANGE_ARGUMENTS = {
    "random_frontend.spread": (lambda: random_frontend(4, 0, np.nan, np.random.default_rng(0)), r"spread must lie in \[0, 1\)"),
    "ks_critical.alpha": (lambda: ks_critical(100, np.nan), r"significance level must be in \(0, 1\)"),
}


@pytest.mark.parametrize("where", NAN_RANGE_ARGUMENTS)
def test_nan_range_argument_refused(where):
    call, message = NAN_RANGE_ARGUMENTS[where]
    with pytest.raises(ValueError, match=message):
        call()
