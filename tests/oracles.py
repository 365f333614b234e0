"""Independent reference computations shared by the test modules."""

import numpy as np

from recical.crlb import CrlbInputs, pair_derivatives, pair_statistics
from recical.estimators import moment_matrix
from recical.frontend import FrontEnd
from recical.sounding import SoundingData


def perturbed_frontend(fe: FrontEnd, antenna: int, component: int, step: float) -> FrontEnd:
    """Shift one real parameter component: 0/1 = Re/Im t, 2/3 = Re/Im r."""
    tx = fe.tx.copy()
    rx = fe.rx.copy()
    bump = step if component % 2 == 0 else 1j * step
    if component < 2:
        tx[antenna] += bump
    else:
        rx[antenna] += bump
    return FrontEnd(tx, rx, fe.ref)


def finite_difference_worst_error(inputs: CrlbInputs, n: int, m: int, step: float = 1e-6) -> float:
    """Worst relative mismatch of the analytic pair derivatives vs central differences.

    The analytic side is the derivative stack the bound itself assembles
    (:func:`recical.crlb.pair_derivatives`); the numeric side differentiates
    the scalar :func:`recical.crlb.pair_statistics`.  Components belonging
    to the reference antenna are skipped: they are not part of the estimated
    parameter vector (the reference gains are pinned), and perturbing them
    would break the unit-reference invariant.
    """
    _, dv, dcov = pair_derivatives(inputs, np.array([n]), np.array([m]))
    dmu, dcov = inputs.coupling_mean[n, m] * dv[0], dcov[0]
    worst = 0.0
    for local, (antenna, component) in enumerate(
        [(n, 0), (n, 1), (n, 2), (n, 3), (m, 0), (m, 1), (m, 2), (m, 3)]
    ):
        if antenna == inputs.frontend.ref:
            continue
        plus = CrlbInputs(
            perturbed_frontend(inputs.frontend, antenna, component, step),
            inputs.coupling_mean,
            inputs.sigma2,
            inputs.noise_var,
            inputs.mask,
        )
        minus = CrlbInputs(
            perturbed_frontend(inputs.frontend, antenna, component, -step),
            inputs.coupling_mean,
            inputs.sigma2,
            inputs.noise_var,
            inputs.mask,
        )
        mu_p, cov_p = pair_statistics(plus, n, m)
        mu_m, cov_m = pair_statistics(minus, n, m)
        fd_mu = (mu_p - mu_m) / (2.0 * step)
        fd_cov = (cov_p - cov_m) / (2.0 * step)
        scale_mu = max(np.abs(dmu[local]).max(), 1e-12)
        scale_cov = max(np.abs(dcov[local]).max(), 1e-12)
        worst = max(worst, np.abs(fd_mu - dmu[local]).max() / scale_mu)
        worst = max(worst, np.abs(fd_cov - dcov[local]).max() / scale_cov)
    return worst


def random_crlb_instance(n_antennas: int, seed: int, sigma2: float = 1e-4, noise_var: float = 1e-3):
    """Small random setup with unit reference gains and full coupling."""
    from recical.frontend import random_frontend
    from recical.geometry import full_mask

    rng = np.random.default_rng(seed)
    ref = int(rng.integers(n_antennas))
    fe = random_frontend(n_antennas, ref, 0.3, rng)
    mag = 0.05 + 0.1 * rng.uniform(size=(n_antennas, n_antennas))
    phase = rng.uniform(size=(n_antennas, n_antennas))
    hbar = np.triu(mag * np.exp(2j * np.pi * phase), k=1)
    hbar = hbar + hbar.T
    return CrlbInputs(fe, hbar, sigma2, noise_var, full_mask(n_antennas))


def scatter_add_at(blocks: np.ndarray, gidx: np.ndarray, dim: int) -> np.ndarray:
    """Fisher information assembled with ``np.add.at`` from per-pair blocks.

    ``blocks`` and ``gidx`` are what :func:`recical.crlb.pair_information_blocks`
    returns; slot ``dim`` is the reference antenna's scratch slot.
    """
    fim = np.zeros((dim + 1, dim + 1))
    np.add.at(fim, (gidx[:, :, None], gidx[:, None, :]), blocks)
    return fim[:dim, :dim]


def unit_norm_gmm_full_eigh(data: SoundingData, ref: int | None) -> np.ndarray:
    """Unit-norm GMM from the full spectrum: smallest eigenvector, anchor rotated real positive."""
    _, vecs = np.linalg.eigh(moment_matrix(data))
    c = vecs[:, 0]
    anchor = ref if ref is not None else int(np.argmax(np.abs(c)))
    if np.abs(c[anchor]) > 0:
        c = c * (np.abs(c[anchor]) / c[anchor])
    return c
