"""Calibration-coefficient estimators: GMM, EM, and the linear-array chain.

All estimators work from a :class:`~recical.sounding.SoundingData` object and
only ever touch ordered pairs that were measured in both directions.  The
moment identity y[n, m] * c_n = y[m, n] * c_m (exact in the noiseless case)
underlies the GMM cost; the EM algorithm alternates closed-form regularized
least-squares updates of the coefficients and of the equivalent channel and
converges to a joint penalized-ML stationary point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DegeneracyError, IdentifiabilityError, SingularSystemError
from .sounding import SoundingData

GMM = "gmm"
EM = "em"
LINEAR_ML = "linear-ml"

REF_ONE = "ref-one"
UNIT_NORM = "unit-norm"
NONE = "none"

# a coefficient vector shrinking below this fraction of its starting norm has
# collapsed onto the all-zero attractor of the unregularized updates
_DEGENERACY_FRACTION = 1e-12


@dataclass
class EmHistory:
    """Per-iteration trace of an EM run (kept only on request)."""

    coefficients: list[np.ndarray] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)


@dataclass
class CalibrationEstimate:
    """Estimated coefficient vector plus method metadata."""

    c_hat: np.ndarray
    method: str
    constraint: str
    ref: int | None = None
    iterations: int = 0
    epsilon: float = 0.0
    converged: bool = True
    history: EmHistory | None = None


@dataclass
class EmSettings:
    """Knobs of the EM iteration.

    ``init`` is "gmm" (default; the unit-norm GMM estimate seeds the
    iteration -- unlike the reference-pinned variant it stays bounded at any
    noise level, which roughly halves the iteration count), "random"
    (unit-magnitude entries with i.i.d. uniform phases, requires an rng), or
    an explicit start vector -- pass the true coefficients for oracle runs.
    ``max_iter`` defaults to 50 * M as a safety bound.
    """

    epsilon: float = 0.0
    delta_ml: float = 1e-6
    max_iter: int | None = None
    init: str | np.ndarray = GMM
    ref: int | None = None
    keep_history: bool = False

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if not self.delta_ml > 0:
            raise ValueError(f"delta_ml must be > 0, got {self.delta_ml}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


def _check_connected(pair_mask: np.ndarray, ref: int | None) -> None:
    """At least one pair is measured both ways, and every antenna reaches every other through such pairs."""
    if not pair_mask.any():
        raise IdentifiabilityError("mask contains no bidirectionally measured pair")
    reached = np.zeros(pair_mask.shape[0], dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = pair_mask[frontier].any(axis=0) & ~reached
        reached |= frontier
    if not reached.all():
        anchor = "the reference antenna" if ref is not None else "each other"
        raise IdentifiabilityError(
            f"measurement graph splits into {int(reached.sum())} + "
            f"{int((~reached).sum())} antennas; coefficients cannot all be "
            f"related to {anchor}"
        )


def _masked_measurements(data: SoundingData) -> tuple[np.ndarray, np.ndarray]:
    """Bidirectional pair mask and the measurement matrix zeroed outside it."""
    pair_mask = data.pair_mask()
    y = np.where(pair_mask, data.matrix, 0.0 + 0.0j)
    return pair_mask, y


def moment_matrix(data: SoundingData) -> np.ndarray:
    """Hermitian PSD matrix Q with c^H Q c = sum of squared moment conditions.

    Each unordered measured pair {n, m} contributes
    |y[n, m] c_n - y[m, n] c_m|^2 to the quadratic form.
    """
    _, y = _masked_measurements(data)
    q = np.conj(y)
    q *= y.T
    np.subtract(0.0, q, out=q)  # 0 - x, not -x: unmeasured pairs stay +0
    q[np.diag_indices_from(q)] += np.sum(np.abs(y) ** 2, axis=1)
    return q


def gmm_estimate(data: SoundingData, constraint: str = REF_ONE, ref: int | None = None) -> CalibrationEstimate:
    """Closed-form moment-matching estimate under a non-degeneracy constraint.

    With ``ref-one`` the reference coefficient is pinned to exactly 1 and the
    remaining entries solve the stationarity system of the quadratic cost.
    With ``unit-norm`` the estimate is the unit eigenvector of the smallest
    eigenvalue of the moment matrix, rotated so the anchor entry (``ref`` if
    given, else the largest-magnitude one) is real positive.  Only that
    smallest eigenpair is computed (LAPACK's MRRR solver after the cubic
    tridiagonal reduction), not the whole spectrum.
    """
    _check_connected(data.pair_mask(), ref if constraint == REF_ONE else None)
    q = moment_matrix(data)
    M = data.n_antennas
    if (ref is None and constraint == REF_ONE) or (ref is not None and not 0 <= ref < M):
        raise ValueError(f"{constraint} constraint needs a reference index in 0..{M - 1}, got {ref}")

    if constraint == REF_ONE:
        others = np.arange(M) != ref
        q_oo = q[np.ix_(others, others)]
        q_or = q[others, ref]
        try:
            c_others = scipy.linalg.solve(q_oo, -q_or, assume_a="her")
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise SingularSystemError(
                f"reduced moment system is singular (M={M}, ref={ref}); "
                "the measurements do not determine the remaining coefficients"
            ) from exc
        c = np.empty(M, dtype=complex)
        c[others] = c_others
        c[ref] = 1.0
        return CalibrationEstimate(c, GMM, REF_ONE, ref=ref)

    if constraint == UNIT_NORM:
        _, vecs = scipy.linalg.eigh(q, subset_by_index=[0, 0])
        c = vecs[:, 0]
        anchor = ref if ref is not None else int(np.argmax(np.abs(c)))
        if np.abs(c[anchor]) > 0:
            c = c * (np.abs(c[anchor]) / c[anchor])
        return CalibrationEstimate(c, GMM, UNIT_NORM, ref=ref)

    raise ValueError(f"constraint must be '{REF_ONE}' or '{UNIT_NORM}', got {constraint!r}")


def _em_objective(y, pair_mask, psi, c, epsilon) -> float:
    """Penalized least-squares objective over the measured entries."""
    resid = np.where(pair_mask, y - psi * c[None, :], 0.0)
    pen = epsilon * (np.sum(np.abs(c) ** 2) + np.sum(np.abs(psi) ** 2))
    return float(np.sum(np.abs(resid) ** 2) + pen)


def _em_psi_step(y, yt, off_mask, c, epsilon) -> np.ndarray:
    """Equivalent-channel update: exact regularized minimizer given c.

    psi_nm = (conj(c)_n y_mn + conj(c)_m y_nm) / (|c_n|^2 + |c_m|^2 + 2 eps)
    on the measured pairs and zero on ``off_mask``; ``yt`` is y transposed
    (the EM loop passes a contiguous copy made once).
    """
    cc = np.abs(c) ** 2
    psi = yt * np.conj(c)[:, None]
    psi += y * np.conj(c)[None, :]
    den = cc[:, None] + cc[None, :]
    den += 2.0 * epsilon
    psi /= den
    psi[off_mask] = 0.0
    return psi


def _em_c_step(y, psi, epsilon) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient update c = num / den, the exact regularized minimizer given psi.

    num_m = sum_n conj(psi)_nm y_nm and den_m = eps + sum_n |psi_nm|^2.
    """
    num = np.sum(np.conj(psi) * y, axis=0)
    den = epsilon + np.sum(psi.real * psi.real + psi.imag * psi.imag, axis=0)
    return num, den


def em_calibrate(
    data: SoundingData,
    settings: EmSettings | None = None,
    rng: np.random.Generator | None = None,
) -> CalibrationEstimate:
    """Joint penalized-ML estimate via alternating closed-form updates.

    Each iteration updates every equivalent-channel entry from the current
    coefficients and then every coefficient from the updated channel, both in
    scalar closed form, so one iteration costs O(number of measured pairs).
    Iteration stops when the squared step ||c_new - c_old||^2 drops below
    ``settings.delta_ml`` or ``settings.max_iter`` is reached (the latter is
    flagged through ``converged=False``).
    """
    settings = settings or EmSettings()
    pair_mask, y = _masked_measurements(data)
    _check_connected(pair_mask, None)
    M = data.n_antennas
    max_iter = settings.max_iter if settings.max_iter is not None else 50 * M
    if settings.ref is not None and not 0 <= settings.ref < M:
        raise ValueError(f"EM needs a reference index in 0..{M - 1}, got {settings.ref}")

    if isinstance(settings.init, np.ndarray):
        c = settings.init.astype(complex).copy()
        if c.shape != (M,):
            raise ValueError(f"explicit init must have shape ({M},), got {c.shape}")
    elif settings.init == GMM:
        c = gmm_estimate(data, UNIT_NORM, ref=settings.ref).c_hat
    elif settings.init == "random":
        if rng is None:
            raise ValueError("random init requires an rng")
        c = np.exp(2j * np.pi * rng.uniform(size=M))
    else:
        raise ValueError(f"unknown init {settings.init!r}")

    eps = settings.epsilon
    init_norm = float(np.linalg.norm(c))
    history = EmHistory() if settings.keep_history else None
    converged = False
    iterations = 0
    yt = np.ascontiguousarray(y.T)
    off_mask = ~pair_mask
    for iterations in range(1, max_iter + 1):
        psi = _em_psi_step(y, yt, off_mask, c, eps)
        num, den = _em_c_step(y, psi, eps)
        with np.errstate(invalid="ignore", divide="ignore"):
            c_new = num / den
        if not np.all(np.isfinite(c_new)):
            raise DegeneracyError(
                "coefficient update produced non-finite values; with epsilon=0 "
                "this happens when the equivalent channel collapses to zero"
            )
        delta = float(np.sum(np.abs(c_new - c) ** 2))
        c = c_new
        if np.linalg.norm(c) < _DEGENERACY_FRACTION * init_norm:
            raise DegeneracyError(
                "coefficients drifted to the all-zero solution "
                f"(norm fell below {_DEGENERACY_FRACTION} of the initial norm)"
            )
        if history is not None:
            history.coefficients.append(c.copy())
            history.deltas.append(delta)
            history.objectives.append(_em_objective(y, pair_mask, psi, c, eps))
        if delta < settings.delta_ml:
            converged = True
            break
    return CalibrationEstimate(
        c,
        EM,
        NONE,
        ref=settings.ref,
        iterations=iterations,
        epsilon=settings.epsilon,
        converged=converged,
        history=history,
    )


def em_fixed_point_residuals(data: SoundingData, estimate: CalibrationEstimate) -> tuple[float, float]:
    """Re-substitution residuals of both EM update equations at an estimate.

    Returns ``(||psi' - psi''||, ||c' - c_hat||)`` where psi' is the channel
    update evaluated at ``c_hat``, c' the coefficient update evaluated at
    psi', and psi'' the channel update evaluated at c'.  Both vanish at a
    joint stationary point.
    """
    pair_mask, y = _masked_measurements(data)
    eps = estimate.epsilon
    psi = _em_psi_step(y, y.T, ~pair_mask, estimate.c_hat, eps)
    num, den = _em_c_step(y, psi, eps)
    c_next = num / den
    psi_next = _em_psi_step(y, y.T, ~pair_mask, c_next, eps)
    return (
        float(np.linalg.norm(psi_next - psi)),
        float(np.linalg.norm(c_next - estimate.c_hat)),
    )


def em_coefficient_gradient(data: SoundingData, estimate: CalibrationEstimate) -> np.ndarray:
    """Gradient of the penalized objective w.r.t. conj(c) at the estimate.

    The equivalent channel is first refreshed by its own exact update, so a
    converged run must make this vanish up to the convergence threshold.
    """
    pair_mask, y = _masked_measurements(data)
    psi = _em_psi_step(y, y.T, ~pair_mask, estimate.c_hat, estimate.epsilon)
    num, den = _em_c_step(y, psi, estimate.epsilon)
    return den * estimate.c_hat - num


def _chain_mask(n_antennas: int) -> np.ndarray:
    mask = np.zeros((n_antennas, n_antennas), dtype=bool)
    idx = np.arange(n_antennas - 1)
    mask[idx, idx + 1] = True
    mask[idx + 1, idx] = True
    return mask


def linear_array_ml(data: SoundingData) -> CalibrationEstimate:
    """Sequential closed-form ML for a chain measured between neighbours only.

    Starting from c_0 = 1, each next coefficient follows from the
    bidirectional measurement of one adjacent pair:
    c_{l+1} = c_l * conj(y[l+1, l]) * y[l, l+1] / |y[l+1, l]|^2.
    """
    M = data.n_antennas
    expected = _chain_mask(M)
    if not np.array_equal(data.mask, expected):
        raise ValueError("linear-array ML needs exactly the adjacent-pair mask of a 1xM chain")
    down = data.matrix[np.arange(1, M), np.arange(M - 1)]   # y[l+1, l]
    up = data.matrix[np.arange(M - 1), np.arange(1, M)]     # y[l, l+1]
    mag2 = np.abs(down) ** 2
    if np.any(mag2 == 0):
        raise DegeneracyError("a chain measurement has zero magnitude; the ratio is undefined")
    ratios = np.conj(down) * up / mag2
    c = np.concatenate([[1.0 + 0.0j], np.cumprod(ratios)])
    return CalibrationEstimate(c, LINEAR_ML, REF_ONE, ref=0)


@dataclass
class MseScore:
    """Per-antenna mean squared error after removing the scalar ambiguity."""

    mse: np.ndarray
    trials_used: int
    trials_excluded: int


def score_mse(estimates: list[CalibrationEstimate], c_true: np.ndarray, ref: int) -> MseScore:
    """Average |c_m - c_hat_m / c_hat_ref|^2 over trials.

    Every estimate is re-normalized by its reference entry, so methods that
    use no reference internally are scored on the same footing.  Trials with
    an exactly-zero (or non-finite) reference entry are excluded and counted.
    """
    if not estimates:
        raise ValueError("need at least one estimate to score")
    total = np.zeros(c_true.shape[0])
    used = 0
    excluded = 0
    for est in estimates:
        pivot = est.c_hat[ref]
        if pivot == 0 or not np.isfinite(pivot):
            excluded += 1
            continue
        total += np.abs(c_true - est.c_hat / pivot) ** 2
        used += 1
    if used == 0:
        raise DegeneracyError("every trial had a zero reference coefficient")
    return MseScore(total / used, used, excluded)
