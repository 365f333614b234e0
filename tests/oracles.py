"""Independent reference computations shared by the test modules."""

import numpy as np
import scipy.linalg

from recical.crlb import (
    PAIR_CHANNELS,
    CrlbInputs,
    coefficient_jacobian,
    fisher_information,
    pair_derivatives,
    pair_statistics,
)
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

    The analytic side is what the bound itself reads: the weights of
    :func:`recical.crlb.pair_derivatives`, placed in the entry of v that
    :data:`recical.crlb.PAIR_CHANNELS` names, give the mean derivatives
    hbar dv and the covariance derivatives sigma2 (dv v^H + v dv^H); the
    numeric side differentiates the scalar :func:`recical.crlb.pair_statistics`.
    Components belonging to the reference antenna are skipped: they are not
    part of the estimated parameter vector (the reference gains are pinned),
    and perturbing them would break the unit-reference invariant.
    """
    v, w = pair_derivatives(inputs, np.array([n]), np.array([m]))
    v, w = v[:, 0], w[:, 0]
    dv = np.zeros((8, 2), dtype=complex)
    dv[0::2][np.arange(4), PAIR_CHANNELS] = w
    dv[1::2][np.arange(4), PAIR_CHANNELS] = 1j * w
    dmu = inputs.coupling_mean[n, m] * dv
    dcov = inputs.sigma2 * (dv[:, :, None] * v.conj() + v[:, None] * dv.conj()[:, None, :])
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


def pair_information_blocks_einsum(inputs: CrlbInputs) -> np.ndarray:
    """Per-pair 8x8 information blocks of every measured pair, term by term.

    The generic complex Gaussian information
    tr(S^-1 dS_i S^-1 dS_j) + 2 Re(dmu_i^H S^-1 dmu_j), evaluated with
    ``einsum`` over full (P, 8, 2) and (P, 8, 2, 2) derivative stacks built
    here from the front-end, for comparison with the closed form of
    :func:`recical.crlb.pair_information_blocks` (same shape and pair order).
    """
    n_idx, m_idx = measured_pairs(inputs)
    t, r = inputs.frontend.tx, inputs.frontend.rx
    v = np.stack([r[n_idx] * t[m_idx], r[m_idx] * t[n_idx]], axis=1)
    dv = np.zeros((n_idx.size, 8, 2), dtype=complex)
    dv[:, 0, 1] = r[m_idx]       # d b / d Re t_n
    dv[:, 1, 1] = 1j * r[m_idx]
    dv[:, 2, 0] = t[m_idx]       # d a / d Re r_n
    dv[:, 3, 0] = 1j * t[m_idx]
    dv[:, 4, 0] = r[n_idx]       # d a / d Re t_m
    dv[:, 5, 0] = 1j * r[n_idx]
    dv[:, 6, 1] = t[n_idx]       # d b / d Re r_m
    dv[:, 7, 1] = 1j * t[n_idx]
    # extended precision, because the trace term cancels by about s2 |v|^2 / n0;
    # det S written as aa bb - |ab|^2 would cancel as much, so it is n0 (n0 + s2 |v|^2)
    v, dv = v.astype(np.clongdouble), dv.astype(np.clongdouble)
    s2, n0 = np.longdouble(inputs.sigma2), np.longdouble(inputs.noise_var)
    ds = s2 * (np.einsum("pic,pd->picd", dv, v.conj()) + np.einsum("pc,pid->picd", v, dv.conj()))
    aa = s2 * np.abs(v[:, 0]) ** 2 + n0
    bb = s2 * np.abs(v[:, 1]) ** 2 + n0
    ab = s2 * v[:, 0] * v[:, 1].conj()
    det = n0 * (n0 + s2 * (np.abs(v[:, 0]) ** 2 + np.abs(v[:, 1]) ** 2))
    sinv = np.stack([np.stack([bb, -ab], axis=1), np.stack([-ab.conj(), aa], axis=1)], axis=1) / det[:, None, None]
    habs2 = np.abs(inputs.coupling_mean[n_idx, m_idx]) ** 2
    g = np.einsum("pic,pcd,pjd->pij", dv.conj(), sinv, dv)
    tmat = np.einsum("pcd,pide->pice", sinv, ds)
    blocks = 2 * habs2[:, None, None] * g.real + np.einsum("picd,pjdc->pij", tmat, tmat).real
    return blocks.astype(float)


def measured_pairs(inputs: CrlbInputs) -> tuple[np.ndarray, np.ndarray]:
    """Antennas (n, m), n < m, of every bidirectionally measured pair, in row order."""
    return np.nonzero(np.triu(inputs.mask & inputs.mask.T, k=1))


def pair_global_slots(inputs: CrlbInputs) -> np.ndarray:
    """Slot of each measured pair's eight components in the stacked real parameters.

    Shape (P, 8), components as in :data:`recical.crlb.PAIR_PARAMS`; the
    reference antenna's components go to the scratch slot ``4 * (M - 1)``.
    """
    fe = inputs.frontend
    dim = 4 * (fe.n_antennas - 1)
    slots = []
    for antenna in measured_pairs(inputs):
        first = 4 * (antenna - (antenna > fe.ref))
        slots.append(np.where(antenna[:, None] == fe.ref, dim, first[:, None] + np.arange(4)))
    return np.concatenate(slots, axis=1)


def scatter_add_at(blocks: np.ndarray, gidx: np.ndarray, dim: int) -> np.ndarray:
    """Fisher information assembled with ``np.add.at`` from per-pair blocks.

    ``gidx`` is :func:`pair_global_slots`; slot ``dim`` is the reference
    antenna's scratch slot, sliced away.
    """
    fim = np.zeros((dim + 1, dim + 1))
    np.add.at(fim, (gidx[:, :, None], gidx[:, None, :]), blocks)
    return fim[:dim, :dim]


def coefficient_jacobian_loop(frontend: FrontEnd) -> np.ndarray:
    """Complex Jacobian of c_m = t_m / r_m, filled antenna by antenna with scalars."""
    M, ref = frontend.n_antennas, frontend.ref
    t, r = frontend.tx, frontend.rx
    jac = np.zeros((M, 4 * (M - 1)), dtype=complex)
    for m in range(M):
        if m == ref:
            continue
        base = 4 * (m - (m > ref))
        jac[m, base + 0] = 1.0 / r[m]
        jac[m, base + 1] = 1j / r[m]
        jac[m, base + 2] = -t[m] / r[m] ** 2
        jac[m, base + 3] = -1j * t[m] / r[m] ** 2
    return jac


def crlb_bound_complex_solve(inputs: CrlbInputs) -> np.ndarray:
    """Coefficient bounds diag(J F^-1 J^H) by a complex Cholesky solve, NaN at the reference.

    J is :func:`recical.crlb.coefficient_jacobian` and F the Fisher
    information; the solve runs on the complex J^H as it is, for comparison
    with the real triangular solve of :func:`recical.crlb.crlb_coefficients`.
    """
    jac = coefficient_jacobian(inputs.frontend)
    solved = scipy.linalg.cho_solve(scipy.linalg.cho_factor(fisher_information(inputs)), jac.conj().T)
    bound = np.einsum("md,dm->m", jac, solved).real
    bound[inputs.frontend.ref] = np.nan
    return bound


def unit_norm_gmm_full_eigh(data: SoundingData, ref: int | None) -> np.ndarray:
    """Unit-norm GMM from the full spectrum: smallest eigenvector, anchor rotated real positive."""
    _, vecs = np.linalg.eigh(data.moments)
    c = vecs[:, 0]
    anchor = ref if ref is not None else int(np.argmax(np.abs(c)))
    if np.abs(c[anchor]) > 0:
        c = c * (np.abs(c[anchor]) / c[anchor])
    return c
