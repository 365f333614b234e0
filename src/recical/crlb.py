"""Cramer-Rao lower bound for the calibration coefficients.

The real parameter vector stacks [Re t, Im t, Re r, Im r] for every antenna
except the reference (whose gains are pinned to one, which is what makes the
Fisher information invertible).  The observation of one unordered pair
(n, m) is the 2-vector [y[n, m], y[m, n]] which is complex Gaussian with

    mean  = hbar[n, m] * [r_n t_m, r_m t_n]
    cov   = sigma2 * v v^H + noise_var * I,   v = [r_n t_m, r_m t_n]

so the Fisher information is a sum of independent per-pair contributions,
each touching at most eight parameter components.  Each contribution has a
closed form (:func:`pair_information_blocks`): S is 2x2, and every parameter
moves a single entry of v, so the covariance term tr(S^-1 dS_i S^-1 dS_j)
with dS_i = sigma2 (dv_i v^H + v dv_i^H) reduces to products of scalars.
The bound on c_m = t_m / r_m reads only antenna m's 4x4 diagonal block B
of F^-1: with the gradient a + i b of c_m by that antenna's four real
parameters it is a^T B a + b^T B b (:func:`crlb_coefficients`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import IdentifiabilityError
from .frontend import FrontEnd
from .geometry import connected_pairs

# local parameter order of the information block of one pair (n, m)
PAIR_PARAMS = ("re_t_n", "im_t_n", "re_r_n", "im_r_n", "re_t_m", "im_t_m", "re_r_m", "im_r_m")
# entry of v = [r_n t_m, r_m t_n] that each complex gain t_n, r_n, t_m, r_m enters
PAIR_CHANNELS = np.array([1, 0, 0, 1])

_REF_GAIN_TOL = 1e-12
# pairs per Fisher-assembly chunk: a chunk's (P, 8, 8) blocks take 512 KB.
# Below 4096 pairs no (4, P) complex temporary reaches the 256 KB at which
# numpy reuses it as the output of a multiply, with the operands swapped and
# so rounded otherwise; a pair's block then does not depend on its chunk
FIM_CHUNK_PAIRS = 1024


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
        if not (self.sigma2 >= 0 and self.noise_var >= 0):
            raise ValueError("variances must be >= 0")
        shape = (fe.n_antennas, fe.n_antennas)
        for name, matrix in (("mask", self.mask), ("coupling_mean", self.coupling_mean)):
            if np.shape(matrix) != shape:
                raise ValueError(f"{name} shape {np.shape(matrix)} does not match the front-end's {shape}")


@dataclass
class CrlbReport:
    """Per-antenna variance lower bounds (NaN at the reference antenna).

    ``fim_condition`` is the FIM's 2-norm condition number, the ratio of the
    FIM's extreme eigenvalues.
    """

    bound: np.ndarray
    fim_condition: float


def pair_derivatives(
    inputs: CrlbInputs, n_idx: np.ndarray, m_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic derivatives of the observations of the pairs (n_idx[p], m_idx[p]).

    Returns ``(v, w)`` with shapes (2, P) and (4, P), pairs along the last
    axis: the gain vector v = [r_n t_m, r_m t_n] of each pair, and the
    derivative weights of its four complex gains t_n, r_n, t_m, r_m.  Gain k
    enters only entry c_k = ``PAIR_CHANNELS[k]`` of v, so the derivative of
    v by its real part is dv = w[k] e_{c_k} and by its imaginary part
    1j * w[k] e_{c_k} (local order :data:`PAIR_PARAMS`).  The mean
    derivatives are hbar[n, m] dv and the covariance derivatives
    sigma2 (dv v^H + v dv^H).
    """
    t, r = inputs.frontend.tx, inputs.frontend.rx
    v = np.stack([r[n_idx] * t[m_idx], r[m_idx] * t[n_idx]])
    w = np.stack([r[m_idx], t[m_idx], r[n_idx], t[n_idx]])
    return v, w


def _theta_slot(antenna: int, ref: int) -> int:
    """First of the four consecutive parameter slots owned by an antenna."""
    return 4 * (antenna - (antenna > ref))


def pair_information_blocks(inputs: CrlbInputs, n_idx: np.ndarray, m_idx: np.ndarray) -> np.ndarray:
    """The 8x8 information block of every pair (n_idx[p], m_idx[p]).

    For a bidirectionally measured pair the complex Gaussian information

        I_ij = tr(X dS_i X dS_j) + 2 Re(dmu_i^H X dmu_j),   X = S^-1,

    with dS_i = sigma2 (dv_i v^H + v dv_i^H) and dmu_i = hbar dv_i, is taken
    in closed form.  With u = X v and the real q = v^H X v the trace expands
    to 2 sigma2^2 (q Re(dv_i^H X dv_j) + Re((u^H dv_i)(u^H dv_j))), and each
    dv_i = w_i e_{c_i} has a single nonzero entry (:func:`pair_derivatives`), so

        I_ij = 2 (|hbar|^2 + sigma2^2 q) Re(conj(w_i) X[c_i, c_j] w_j)
               + 2 sigma2^2 Re(z_i z_j),   z_i = w_i conj(u_{c_i}).

    The imaginary-part weights are 1j times the real-part ones, so two 4x4
    complex products per pair, A = 2 (|hbar|^2 + sigma2^2 q) conj(w_k)
    X[c_k, c_l] w_l and B = 2 sigma2^2 z_k z_l, give the whole block:
    (Re, Re) = Re(A + B), (Re, Im) = -Im(A + B), (Im, Re) = Im(A - B) and
    (Im, Im) = Re(A - B).  Components are ordered as in :data:`PAIR_PARAMS`.

    Returns the blocks with shape (P, 8, 8).
    """
    if inputs.noise_var <= 0:
        # the rank-one multipath term alone leaves the 2x2 covariance singular
        raise ValueError("fisher information needs noise_var > 0 for an invertible covariance")
    P = n_idx.size
    v, w = pair_derivatives(inputs, n_idx, m_idx)
    a2, b2 = np.abs(v) ** 2
    habs2 = np.abs(inputs.coupling_mean[n_idx, m_idx]) ** 2

    # S = s2 v v^H + n0 I has det S = n0 g and S v = g v with g = n0 + s2 |v|^2;
    # written this way nothing cancels when s2 |v|^2 >> n0
    s2, n0 = inputs.sigma2, inputs.noise_var
    with np.errstate(over="ignore"):
        gain = n0 + s2 * (a2 + b2)
        det = n0 * gain
    # det S is at least n0^2, which overflows past n0 of about 1.3e154 (an
    # infinite gain makes it infinite too); dividing by it would zero the
    # information and fail the bound as if the mask were disconnected
    if not np.isfinite(det).all():
        raise ValueError(
            f"noise_var = {n0:g} is too large for the Fisher information to be represented: "
            "det S = n0 (n0 + sigma2 |v|^2) overflows"
        )
    off = -s2 * v[0] * v[1].conj() / det
    sinv = np.array([[(s2 * b2 + n0) / det, off], [off.conj(), (s2 * a2 + n0) / det]])
    u = v / gain  # S^-1 v
    q = (a2 + b2) / gain  # v^H S^-1 v

    # pairs run along the last axis, so every product loops over P contiguously
    chan = PAIR_CHANNELS
    z = w * u[chan].conj()
    a_kl = (2.0 * (habs2 + s2 * s2 * q) * w.conj())[:, None] * sinv[chan[:, None], chan] * w
    b_kl = (2.0 * s2 * s2 * z)[:, None] * z
    blocks = np.empty((4, 2, 4, 2, P))  # (k, Re/Im of gain k, l, Re/Im of gain l, pair)
    blocks[:, 0, :, 0] = a_kl.real + b_kl.real
    blocks[:, 0, :, 1] = -(a_kl.imag + b_kl.imag)
    blocks[:, 1, :, 0] = a_kl.imag - b_kl.imag
    blocks[:, 1, :, 1] = a_kl.real - b_kl.real
    return blocks.reshape(8, 8, P).transpose(2, 0, 1)


def fisher_information(inputs: CrlbInputs) -> np.ndarray:
    """Fisher information of the stacked real parameters, all pairs summed.

    The bidirectionally measured pairs are taken in row order, at most
    :data:`FIM_CHUNK_PAIRS` at a time.  Each chunk's 8x8 blocks
    (:func:`pair_information_blocks`) are added with the unbuffered
    ``np.add.at`` straight into a Fortran-ordered matrix, the layout LAPACK
    reads; the reference antenna's components are not parameters and are
    dropped.  Every entry is summed in pair order, so the result is
    bit-reproducible, and the working memory is the matrix plus one chunk.
    """
    fe = inputs.frontend
    ref = fe.ref
    # an empty mask, or a component without the reference, leaves the FIM
    # singular, which the Cholesky factorisation may miss by rounding
    pair_mask = connected_pairs(inputs.mask)
    n_all, m_all = np.nonzero(np.triu(pair_mask, k=1))
    dim = 4 * (fe.n_antennas - 1)
    # column-major storage: entry (i, j) sits at i + dim * j
    fim = np.zeros(dim * dim)
    local = np.tile(np.arange(4), 2)
    for start in range(0, n_all.size, FIM_CHUNK_PAIRS):
        n_idx = n_all[start : start + FIM_CHUNK_PAIRS]
        m_idx = m_all[start : start + FIM_CHUNK_PAIRS]
        blocks = pair_information_blocks(inputs, n_idx, m_idx)
        # the antenna and the global slot of each pair's eight components
        owner = np.repeat(np.stack([n_idx, m_idx], axis=1), 4, axis=1)
        slots = _theta_slot(owner, ref) + local
        is_param = owner != ref
        keep = is_param[:, :, None] & is_param[:, None, :]
        flat = slots[:, :, None] + dim * slots[:, None, :]
        np.add.at(fim, flat[keep], blocks[keep])
    return fim.reshape((dim, dim), order="F")


def crlb_coefficients(inputs: CrlbInputs) -> CrlbReport:
    """Variance lower bound on every non-reference calibration coefficient.

    c_m = t_m / r_m depends only on antenna m's four real parameters, whose
    gradient is a + i b = [1/r_m, i/r_m, -t_m/r_m^2, -i t_m/r_m^2].  F is
    real and symmetric, so the bound on c_m is a^T B a + b^T B b, where B is
    antenna m's 4x4 diagonal block of F^-1.  With the Cholesky factor
    F = U^T U and X = U^-1, B = X_m X_m^T for the antenna's four rows X_m of
    X, so the bound is the sum of squares ||X_m^T a||^2 + ||X_m^T b||^2.
    Formed from B itself, the quadratic forms cancel: t_m and r_m are known
    far worse than their ratio, and at -100 dB on an 8x25 array they lost up
    to 4e-12 relative.

    The work happens inside the matrix :func:`fisher_information` returns.
    U and then X overwrite its upper triangle and diagonal; the strict lower
    triangle stays F's, so once the diagonal is written back the eigenvalues
    for ``fim_condition`` come from F itself.
    """
    fim = fisher_information(inputs)
    diagonal = fim.diagonal().copy()
    trtri = scipy.linalg.get_lapack_funcs("trtri", (fim,))
    try:
        # checks that F is finite without copying it; potrf and trtri read
        # and write only the upper triangle of the Fortran-ordered matrix
        scipy.linalg.cho_factor(fim, lower=False, overwrite_a=True)
        _, info = trtri(fim, lower=0, overwrite_c=1)
        if info != 0:
            raise scipy.linalg.LinAlgError(f"trtri failed with info = {info}")
    except scipy.linalg.LinAlgError as exc:
        raise IdentifiabilityError(
            "the Fisher information is not positive definite; without unit "
            "reference gains the parameter map is non-injective and the bound "
            "does not exist -- check the mask connectivity and the reference "
            "convention"
        ) from exc
    fe = inputs.frontend
    antennas = np.flatnonzero(np.arange(fe.n_antennas) != fe.ref)
    t, r = fe.tx[antennas], fe.rx[antennas]
    # np.power takes the complex power elementwise, as a scalar r ** 2 does;
    # an array's r ** 2 squares by a vectorised multiply that rounds otherwise
    r2 = np.power(r, 2)
    grad = np.stack([1.0 / r, 1j / r, -t / r2, -1j * t / r2], axis=1)
    parts = np.stack([grad.real, grad.imag], axis=1)  # a and b of each antenna
    bound = np.full(fe.n_antennas, np.nan)
    for antenna, part in zip(antennas, parts):
        # X_m from its diagonal on; below the diagonal the matrix holds F.
        # einsum, not a BLAS product: with OpenBLAS a 2x4 by 4xn dgemm per
        # antenna faults in pages that raised an M=200 crlb-map run's peak
        # RSS by 0.3-0.5 MB
        first = _theta_slot(antenna, fe.ref)
        whitened = np.einsum("ij,jk->ik", part, np.triu(fim[first : first + 4, first:]))
        bound[antenna] = np.einsum("ij,ij->", whitened, whitened)
    # the connected mask and the Cholesky factorisation make F positive
    # definite, so its singular values are its eigenvalues
    np.fill_diagonal(fim, diagonal)
    eigs = scipy.linalg.eigvalsh(fim, overwrite_a=True, check_finite=False)
    return CrlbReport(bound, float(eigs[-1] / eigs[0]))
