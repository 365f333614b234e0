"""Cramer-Rao lower bound for the calibration coefficients.

The real parameter vector stacks [Re t, Im t, Re r, Im r] for every antenna
except the reference (whose gains are pinned to one, which is what makes the
Fisher information invertible).  The observation of one unordered pair
(n, m) is the 2-vector [y[n, m], y[m, n]] which is complex Gaussian with

    mean  = hbar[n, m] * [r_n t_m, r_m t_n]
    cov   = sigma2 * v v^H + noise_var * I,   v = [r_n t_m, r_m t_n]

so the Fisher information is a sum of independent per-pair contributions,
each touching at most eight parameter components.  The bound on each
coefficient follows by transforming the inverse information through the
Jacobian of c_m = t_m / r_m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import IdentifiabilityError
from .frontend import FrontEnd

# local parameter order of the derivative stacks for one pair (n, m)
PAIR_PARAMS = ("re_t_n", "im_t_n", "re_r_n", "im_r_n", "re_t_m", "im_t_m", "re_r_m", "im_r_m")

_REF_GAIN_TOL = 1e-12


@dataclass
class CrlbInputs:
    """Everything the bound is allowed to know about the setup.

    The coupling mean matrix enters only through its squared magnitude, so
    any symmetric complex matrix with the right magnitudes gives the same
    bound.  The front-end must carry unit gains at its reference antenna.
    """

    frontend: FrontEnd
    coupling_mean: np.ndarray
    sigma2: float
    noise_var: float
    mask: np.ndarray

    def __post_init__(self) -> None:
        fe = self.frontend
        if (
            abs(fe.tx[fe.ref] - 1.0) > _REF_GAIN_TOL
            or abs(fe.rx[fe.ref] - 1.0) > _REF_GAIN_TOL
        ):
            raise ValueError(
                "the bound requires unit transmit/receive gains at the reference "
                "antenna; normalize the front-end first"
            )
        if self.sigma2 < 0 or self.noise_var < 0:
            raise ValueError("variances must be >= 0")


@dataclass
class CrlbReport:
    """Per-antenna variance lower bounds (NaN at the reference antenna).

    ``fim_condition`` is the FIM's 2-norm condition number, the ratio of the
    FIM's extreme eigenvalues.
    """

    bound: np.ndarray
    ref: int
    fim_condition: float


def pair_statistics(inputs: CrlbInputs, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix of the pair observation [y_nm, y_mn]."""
    if n == m:
        raise ValueError("pair statistics need two distinct antennas")
    t, r = inputs.frontend.tx, inputs.frontend.rx
    v = np.array([r[n] * t[m], r[m] * t[n]])
    mu = inputs.coupling_mean[n, m] * v
    cov = inputs.sigma2 * np.outer(v, v.conj()) + inputs.noise_var * np.eye(2)
    return mu, cov


def pair_derivatives(
    inputs: CrlbInputs, n_idx: np.ndarray, m_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic derivatives of the observations of the pairs (n_idx[p], m_idx[p]).

    Returns ``(v, dv, dcov)`` with shapes (P, 2), (P, 8, 2) and (P, 8, 2, 2):
    the gain vector v = [r_n t_m, r_m t_n] of each pair, its derivatives
    ordered as in :data:`PAIR_PARAMS`, and the covariance derivatives
    sigma2 (dv v^H + v dv^H).  The mean derivatives are hbar[n, m] * dv.
    """
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
    dcov = inputs.sigma2 * (
        np.einsum("pic,pd->picd", dv, v.conj()) + np.einsum("pc,pid->picd", v, dv.conj())
    )
    return v, dv, dcov


def _theta_slot(antenna: int, ref: int) -> int:
    """First of the four consecutive parameter slots owned by an antenna."""
    return 4 * (antenna - (antenna > ref))


def pair_information_blocks(inputs: CrlbInputs) -> tuple[np.ndarray, np.ndarray]:
    """Every measured pair's 8x8 information block and its global indices.

    For every bidirectionally measured pair the complex Gaussian information
    formula

        I_ij = tr(S^-1 dS_i S^-1 dS_j) + 2 Re(dmu_i^H S^-1 dmu_j)

    is evaluated on the eight parameter components the pair touches, ordered
    as in :data:`PAIR_PARAMS`.  Returns ``(blocks, gidx)`` with shapes
    (P, 8, 8) and (P, 8): ``gidx`` maps each local component to its slot in
    the stacked real parameter vector of dimension ``4 * (M - 1)``, and
    components of the reference antenna to the scratch slot ``4 * (M - 1)``.
    """
    if inputs.noise_var <= 0:
        # the rank-one multipath term alone leaves the 2x2 covariance singular
        raise ValueError("fisher information needs noise_var > 0 for an invertible covariance")
    fe = inputs.frontend
    M = fe.n_antennas
    ref = fe.ref
    pair_mask = inputs.mask & inputs.mask.T
    n_idx, m_idx = np.nonzero(np.triu(pair_mask, k=1))
    if n_idx.size == 0:
        raise IdentifiabilityError("no bidirectionally measured pair; the information is empty")

    P = n_idx.size
    v, dv, ds = pair_derivatives(inputs, n_idx, m_idx)
    a, b = v[:, 0], v[:, 1]
    habs2 = np.abs(inputs.coupling_mean[n_idx, m_idx]) ** 2

    s2, n0 = inputs.sigma2, inputs.noise_var
    aa = s2 * np.abs(a) ** 2 + n0
    bb = s2 * np.abs(b) ** 2 + n0
    ab = s2 * a * b.conj()
    det = aa * bb - np.abs(ab) ** 2
    sinv = np.empty((P, 2, 2), dtype=complex)
    sinv[:, 0, 0] = bb / det
    sinv[:, 1, 1] = aa / det
    sinv[:, 0, 1] = -ab / det
    sinv[:, 1, 0] = -ab.conj() / det

    # mean term: 2 |hbar|^2 Re(dv_i^H S^-1 dv_j)
    g = np.einsum("pic,pcd,pjd->pij", dv.conj(), sinv, dv)
    fim_pair = 2.0 * habs2[:, None, None] * g.real

    if s2 > 0:
        tmat = np.einsum("pcd,pide->pice", sinv, ds)
        fim_pair += np.einsum("picd,pjdc->pij", tmat, tmat).real

    dim = 4 * (M - 1)
    offsets = np.arange(4)
    slot_n = np.where(n_idx == ref, dim, _theta_slot(n_idx, ref))
    slot_m = np.where(m_idx == ref, dim, _theta_slot(m_idx, ref))
    gidx = np.concatenate(
        [
            np.minimum(slot_n[:, None] + offsets, dim),
            np.minimum(slot_m[:, None] + offsets, dim),
        ],
        axis=1,
    )
    return fim_pair, gidx


def fisher_information(inputs: CrlbInputs) -> np.ndarray:
    """Fisher information of the stacked real parameters, all pairs summed.

    Assembled pairwise from :func:`pair_information_blocks`: each pair's 8x8
    block is scattered into the global matrix, with the reference antenna's
    parameters routed to a scratch slot that is sliced away afterwards.  The
    blocks are added in pair order, so the result is bit-reproducible.
    """
    fim_pair, gidx = pair_information_blocks(inputs)
    dim = 4 * (inputs.frontend.n_antennas - 1)
    flat = (gidx[:, :, None] * (dim + 1) + gidx[:, None, :]).ravel()
    fim = np.bincount(flat, weights=fim_pair.ravel(), minlength=(dim + 1) ** 2)
    return fim.reshape(dim + 1, dim + 1)[:dim, :dim]


def coefficient_jacobian(frontend: FrontEnd) -> np.ndarray:
    """Complex Jacobian of c_m = t_m / r_m w.r.t. the stacked real parameters."""
    M = frontend.n_antennas
    ref = frontend.ref
    t, r = frontend.tx, frontend.rx
    jac = np.zeros((M, 4 * (M - 1)), dtype=complex)
    for m in range(M):
        if m == ref:
            continue
        base = _theta_slot(m, ref)
        jac[m, base + 0] = 1.0 / r[m]
        jac[m, base + 1] = 1j / r[m]
        jac[m, base + 2] = -t[m] / r[m] ** 2
        jac[m, base + 3] = -1j * t[m] / r[m] ** 2
    return jac


def crlb_coefficients(inputs: CrlbInputs) -> CrlbReport:
    """Variance lower bound on every non-reference calibration coefficient."""
    fim = fisher_information(inputs)
    try:
        factor = scipy.linalg.cho_factor(fim)
    except scipy.linalg.LinAlgError as exc:
        raise IdentifiabilityError(
            "the Fisher information is not positive definite; without unit "
            "reference gains the parameter map is non-injective and the bound "
            "does not exist -- check the mask connectivity and the reference "
            "convention"
        ) from exc
    jac = coefficient_jacobian(inputs.frontend)
    solved = scipy.linalg.cho_solve(factor, jac.conj().T)
    bound = np.einsum("md,dm->m", jac, solved).real
    bound[inputs.frontend.ref] = np.nan
    # the Cholesky factorisation proved the FIM positive definite, so its
    # singular values are its eigenvalues
    eigs = scipy.linalg.eigvalsh(fim)
    return CrlbReport(bound, inputs.frontend.ref, float(eigs[-1] / eigs[0]))
