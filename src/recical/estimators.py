"""Calibration-coefficient estimators: GMM, EM, and the linear-array chain.

All estimators work from a :class:`~recical.sounding.SoundingData` object and
only ever touch ordered pairs that were measured in both directions.  The
moment identity y[n, m] * c_n = y[m, n] * c_m (exact in the noiseless case)
underlies the GMM cost; the EM algorithm alternates closed-form regularized
least-squares updates of the coefficients and of the equivalent channel and
converges to a joint penalized-ML stationary point.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegeneracyError, SingularSystemError
from .geometry import build_geometry, reduced_mask
from .sounding import SoundingData

# LAPACK's Bunch-Kaufman factorisation of a complex Hermitian matrix, its
# optimal workspace query and the solve with its factor
_HETRF, _HETRF_LWORK, _HETRS = scipy.linalg.get_lapack_funcs(("hetrf", "hetrf_lwork", "hetrs"), dtype=np.complex128)

REF_ONE = "ref-one"
UNIT_NORM = "unit-norm"

# a coefficient vector shrinking below this fraction of its starting norm has
# collapsed onto the all-zero attractor of the unregularized updates
_DEGENERACY_FRACTION = 1e-12


@dataclass
class CalibrationEstimate:
    """EM's result: the coefficient vector, the steps run and whether the last met ``delta_ml``.

    The closed forms (:func:`gmm_estimate`, :func:`linear_array_ml`) run no
    iteration and return the bare vector.
    """

    c_hat: np.ndarray
    iterations: int
    converged: bool


@dataclass
class EmSettings:
    """Knobs of the EM iteration.

    ``init`` is the start vector.  None (the default) starts from the
    sounding's unit-norm GMM estimate anchored at ``ref``: unlike the
    reference-pinned variant it stays bounded at any noise level, which
    roughly halves the iteration count.  An array of M entries starts there
    instead (the true coefficients for oracle runs, unit-magnitude random
    phases for a cold start).  ``max_iter`` defaults to 50 * M as a safety
    bound.
    """

    epsilon: float = 0.0
    delta_ml: float = 1e-6
    max_iter: int | None = None
    init: np.ndarray | None = None
    ref: int | None = None

    def __post_init__(self) -> None:
        if self.init is not None and not isinstance(self.init, np.ndarray):
            raise TypeError(f"init must be None or a start vector, got {self.init!r}")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if not self.delta_ml > 0:
            raise ValueError(f"delta_ml must be > 0, got {self.delta_ml}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


def gmm_estimate(data: SoundingData, constraint: str = REF_ONE, ref: int | None = None) -> np.ndarray:
    """Closed-form moment-matching estimate under a non-degeneracy constraint.

    With ``ref-one`` the reference coefficient is pinned to exactly 1 and the
    remaining entries solve the stationarity system Q_oo c_o = -q_or of the
    quadratic cost, by LAPACK's Bunch-Kaufman factorisation of Q_oo's upper
    triangle (``zhetrf``, then ``zhetrs``): the factor and solve of
    ``scipy.linalg.solve(..., assume_a="her")``, bit for bit, without its
    condition estimate, so an ill-conditioned system gives no warning.  A
    zero pivot (the measurements do not determine the remaining
    coefficients) or a non-finite moment raises ``SingularSystemError``.
    With ``unit-norm`` the estimate is the unit eigenvector of the smallest
    eigenvalue of the moment matrix (the sounding's
    ``smallest_eigenvector``), rotated so the anchor entry (``ref`` if given,
    else the largest-magnitude one) is real positive.
    """
    if constraint not in (REF_ONE, UNIT_NORM):
        raise ValueError(f"constraint must be '{REF_ONE}' or '{UNIT_NORM}', got {constraint!r}")
    M = data.n_antennas
    if (ref is None and constraint == REF_ONE) or (ref is not None and not 0 <= ref < M):
        raise ValueError(f"{constraint} constraint needs a reference index in 0..{M - 1}, got {ref}")

    if constraint == REF_ONE:
        q = data.moments
        others = np.arange(M) != ref
        q_oo = q[np.ix_(others, others)]
        q_or = q[others, ref]
        if not (np.isfinite(q_oo).all() and np.isfinite(q_or).all()):
            raise SingularSystemError(
                f"reduced moment system has non-finite entries (M={M}, ref={ref}); "
                "a measured pair is NaN or infinite"
            )
        lwork, _ = _HETRF_LWORK(M - 1)
        factor, pivots, info = _HETRF(q_oo, lwork=int(lwork.real))
        if info > 0:
            raise SingularSystemError(
                f"reduced moment system is singular (M={M}, ref={ref}); "
                "the measurements do not determine the remaining coefficients"
            )
        c = np.empty(M, dtype=complex)
        c[others] = _HETRS(factor, pivots, -q_or)[0]
        c[ref] = 1.0
        return c

    c = data.smallest_eigenvector
    anchor = ref if ref is not None else int(np.argmax(np.abs(c)))
    # a fresh vector either way: the sounding keeps its eigenvector
    rotation = np.abs(c[anchor]) / c[anchor] if np.abs(c[anchor]) > 0 else 1.0
    return c * rotation


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


def em_iterates(data: SoundingData, settings: EmSettings | None = None) -> Iterator[tuple[np.ndarray, np.ndarray, float]]:
    """EM's iterates ``(c, psi, delta)``, one after each step.

    A step updates the equivalent channel ``psi`` from ``c``, then ``c`` from
    ``psi``, entry by entry in closed form.  It works on dense M x M arrays,
    with ``psi`` held at zero on the unmeasured pairs, so a step costs O(M^2)
    whatever the mask.  ``delta`` is the squared step ||c_new - c_old||^2.
    The iterates end after the first step whose delta is below
    ``settings.delta_ml``, or after ``settings.max_iter`` steps.
    """
    settings = settings or EmSettings()
    y = data.measured
    M = data.n_antennas
    max_iter = settings.max_iter if settings.max_iter is not None else 50 * M
    if settings.ref is not None and not 0 <= settings.ref < M:
        raise ValueError(f"EM needs a reference index in 0..{M - 1}, got {settings.ref}")

    if settings.init is None:
        c = gmm_estimate(data, UNIT_NORM, ref=settings.ref)
    else:
        c = settings.init.astype(complex)
        if c.shape != (M,):
            raise ValueError(f"explicit init must have shape ({M},), got {c.shape}")

    eps = settings.epsilon
    init_norm = float(np.linalg.norm(c))
    yt = np.ascontiguousarray(y.T)
    off_mask = ~data.pairs
    for _ in range(max_iter):
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
        yield c, psi, delta
        if delta < settings.delta_ml:
            return


def em_calibrate(data: SoundingData, settings: EmSettings | None = None) -> CalibrationEstimate:
    """Joint penalized-ML estimate: the last of :func:`em_iterates`.

    A run that ends at ``settings.max_iter`` steps without meeting
    ``settings.delta_ml`` is flagged through ``converged=False``.
    """
    settings = settings or EmSettings()
    for iterations, (c, _, delta) in enumerate(em_iterates(data, settings), 1):
        pass
    return CalibrationEstimate(c, iterations, delta < settings.delta_ml)


def linear_array_ml(data: SoundingData) -> np.ndarray:
    """Sequential closed-form ML for a chain measured between neighbours only.

    Starting from c_0 = 1, each next coefficient follows from the
    bidirectional measurement of one adjacent pair:
    c_{l+1} = c_l * conj(y[l+1, l]) * y[l, l+1] / |y[l+1, l]|^2.
    """
    M = data.n_antennas
    if not np.array_equal(data.mask, reduced_mask(build_geometry(1, M, 1.0), 1.0)):
        raise ValueError("linear-array ML needs exactly the adjacent-pair mask of a 1xM chain")
    down = data.matrix[np.arange(1, M), np.arange(M - 1)]   # y[l+1, l]
    up = data.matrix[np.arange(M - 1), np.arange(1, M)]     # y[l, l+1]
    mag2 = np.abs(down) ** 2
    if np.any(mag2 == 0):
        raise DegeneracyError("a chain measurement has zero magnitude; the ratio is undefined")
    ratios = np.conj(down) * up / mag2
    return np.concatenate([[1.0 + 0.0j], np.cumprod(ratios)])


@dataclass
class MseScore:
    """Per-antenna mean squared error after removing the scalar ambiguity."""

    mse: np.ndarray
    trials_used: int
    trials_excluded: int


def score_mse(estimates: list[np.ndarray], c_true: np.ndarray, ref: int) -> MseScore:
    """Average |c_m - c_hat_m / c_hat_ref|^2 over trials, one ``c_hat`` per trial.

    Every estimate is re-normalized by its reference entry, so methods that
    use no reference internally are scored on the same footing.  Trials with
    an exactly-zero (or non-finite) reference entry are excluded and counted.
    """
    if not estimates:
        raise ValueError("need at least one estimate to score")
    total = np.zeros(c_true.shape[0])
    used = 0
    excluded = 0
    for c_hat in estimates:
        pivot = c_hat[ref]
        if pivot == 0 or not np.isfinite(pivot):
            excluded += 1
            continue
        total += np.abs(c_true - c_hat / pivot) ** 2
        used += 1
    if used == 0:
        raise DegeneracyError("every trial had a zero reference coefficient")
    return MseScore(total / used, used, excluded)
