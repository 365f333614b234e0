"""Mutual-coupling reciprocity calibration for TDD massive MIMO arrays.

The package simulates pairwise sounding between base-station antennas,
estimates the per-antenna calibration coefficients (moment-matching and
penalized-ML/EM estimators, plus a sequential closed form for linear
arrays), computes the matching Cramer-Rao bound, evaluates calibrated
downlink precoding, and models the coefficients across OFDM subcarriers.
"""

__version__ = "0.1.0"

from .crlb import CrlbInputs, CrlbReport, crlb_coefficients, fisher_information
from .downlink import (
    DownlinkScenario,
    calibrated_downlink,
    mrt_precoder,
    sum_rate,
    zf_precoder,
)
from .errors import AliasingError, DegeneracyError, IdentifiabilityError, SingularSystemError
from .estimators import (
    CalibrationEstimate,
    EmSettings,
    em_calibrate,
    em_iterates,
    gmm_estimate,
    linear_array_ml,
    score_mse,
)
from .frontend import FrontEnd, deterministic_frontend, random_frontend, true_coefficients
from .geometry import (
    ArrayGeometry,
    CouplingModel,
    build_geometry,
    coupling_gain_db,
    draw_channel,
    draw_coupling,
    full_mask,
    reduced_mask,
)
from .sounding import SoundingData, sound
from .wideband import (
    PcaResult,
    ks_gaussianity,
    pca,
    per_subcarrier_estimate,
    synth_wideband,
    wideband_fit,
    wideband_record,
)

__all__ = [
    "__version__",
    "AliasingError",
    "ArrayGeometry",
    "CalibrationEstimate",
    "CouplingModel",
    "CrlbInputs",
    "CrlbReport",
    "DegeneracyError",
    "DownlinkScenario",
    "EmSettings",
    "FrontEnd",
    "IdentifiabilityError",
    "PcaResult",
    "SingularSystemError",
    "SoundingData",
    "build_geometry",
    "calibrated_downlink",
    "coupling_gain_db",
    "crlb_coefficients",
    "deterministic_frontend",
    "draw_channel",
    "draw_coupling",
    "em_calibrate",
    "em_iterates",
    "fisher_information",
    "full_mask",
    "gmm_estimate",
    "ks_gaussianity",
    "linear_array_ml",
    "mrt_precoder",
    "pca",
    "per_subcarrier_estimate",
    "random_frontend",
    "reduced_mask",
    "score_mse",
    "sound",
    "sum_rate",
    "synth_wideband",
    "true_coefficients",
    "wideband_fit",
    "wideband_record",
    "zf_precoder",
]
