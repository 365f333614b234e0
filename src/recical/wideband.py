"""Calibration coefficients across OFDM subcarriers as a stochastic process.

Per-antenna coefficients drift slowly across frequency: a small linear
magnitude slope and a small linear phase slope, plus one arbitrary phase per
power-up of the local oscillator.  That structure is the complex exponential
kernel A * exp((gamma + j*2*pi*xi) * k) in the subcarrier index k, and
fitting it to the per-subcarrier estimates averages the narrowband
calibration error across the band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import AliasingError
from .estimators import EmSettings, em_calibrate
from .frontend import FrontEnd
from .geometry import ArrayGeometry, CouplingModel, draw_channel
from .sounding import sound

# fewest samples the asymptotic KS critical value is used for
KS_MIN_SAMPLES = 50

# leading eigenvectors kept per antenna by the PCA
PCA_COMPONENTS = 10


def synth_wideband(
    n_antennas: int,
    n_subcarriers: int,
    realizations: int,
    rng: np.random.Generator,
    *,
    offset_range: tuple[float, float],
    mag_slope_max: float,
    phase_slope_max: float,
) -> np.ndarray:
    """True wideband coefficients, (R, M, N) complex: realization, antenna, subcarrier.

    truth[r, m, k] = A_m * exp((gamma_m + j*2*pi*xi_m) * k) * exp(j*2*pi*zeta_rm)

    The kernel parameters are drawn once, in this order: the complex offset
    A (magnitude uniform in ``offset_range``, phase uniform), then the
    slopes gamma and xi, uniform within +-``mag_slope_max`` and
    +-``phase_slope_max``.  The oscillator phase zeta, uniform in [0, 1),
    is drawn per realization, one antenna vector each.
    """
    if realizations < 1:
        raise ValueError(f"need at least one realization, got {realizations}")
    k = np.arange(n_subcarriers)
    lo, hi = offset_range
    offsets = rng.uniform(lo, hi, size=n_antennas) * np.exp(
        2j * np.pi * rng.uniform(size=n_antennas)
    )
    gamma = rng.uniform(-mag_slope_max, mag_slope_max, size=n_antennas)
    xi = rng.uniform(-phase_slope_max, phase_slope_max, size=n_antennas)
    kernel = offsets[:, None] * np.exp((gamma + 2j * np.pi * xi)[:, None] * k[None, :])
    out = np.empty((realizations, n_antennas, n_subcarriers), dtype=complex)
    for r in range(realizations):
        zeta = rng.uniform(size=n_antennas)
        out[r] = kernel * np.exp(2j * np.pi * zeta)[:, None]
    return out


def per_subcarrier_estimate(
    truth: np.ndarray,
    geom: ArrayGeometry,
    coupling: CouplingModel,
    noise_var: float,
    ref: int,
    rng: np.random.Generator,
    em_settings: EmSettings | None = None,
) -> np.ndarray:
    """Estimate the coefficients independently at every subcarrier of one realization.

    ``truth`` is that realization's (M, N) slice of :func:`synth_wideband`.
    Each subcarrier gets a front-end realizing the true coefficient column
    (transmit gains equal to the coefficients, unit receive gains), one
    sounding round with independent noise, and EM under ``em_settings``
    (unpenalized by default) seeded by the GMM estimate; the wideband
    experiment passes the run's ``estimator`` settings.  Results are
    normalized to the reference antenna, so the noiseless output is exactly
    truth[:, k] / truth[ref, k].

    The channel, shared by all subcarriers, is drawn from ``rng`` with no
    coupling matrix, so each call (each wideband realization) draws its own
    coupling phases as well as its diffuse term.  The other experiments hold
    the coupling phases fixed across trials, drawn from the run's shared
    stream.
    """
    M, N = truth.shape
    if M != geom.n_antennas:
        raise ValueError("truth and geometry disagree on the antenna count")
    settings = em_settings or EmSettings(ref=ref)
    h = draw_channel(geom, coupling, rng)
    ones = np.ones(M, dtype=complex)
    out = np.empty_like(truth)
    for k in range(N):
        fe = FrontEnd(truth[:, k].copy(), ones, ref)
        data = sound(h, fe, noise_var, rng)
        est = em_calibrate(data, settings)
        out[:, k] = est.c_hat / est.c_hat[ref]
    return out


@dataclass
class PcaResult:
    """Principal components of one antenna's per-subcarrier process.

    Eigenvalues are those of the no-mean-subtraction sample covariance
    (the oscillator phase already zero-means the process); eigenvalues beyond
    ``len(eigenvalues)`` are exactly zero because the covariance is built
    from finitely many realizations.
    """

    eigenvalues: np.ndarray  # descending, length min(R, N)
    components: np.ndarray   # (N, PCA_COMPONENTS at most), unit columns


def pca(estimates: np.ndarray) -> list[PcaResult]:
    """Per-antenna PCA of stacked per-subcarrier estimates, shape (R, M, N).

    It keeps every eigenvalue and the leading ``PCA_COMPONENTS``
    eigenvectors.  The sample covariance K_m = (1/R) sum_r c_r c_r^H is
    never formed; its eigenpairs come from an SVD of the R x N data matrix.
    """
    if estimates.ndim != 3:
        raise ValueError("estimates must be stacked as (realizations, antennas, subcarriers)")
    R = estimates.shape[0]
    if R < 2:
        raise ValueError("principal components need at least two realizations")
    results = []
    for m in range(estimates.shape[1]):
        x = estimates[:, m, :]
        _, svals, vh = np.linalg.svd(x, full_matrices=False)
        results.append(PcaResult(svals**2 / R, vh[:PCA_COMPONENTS].conj().T))
    return results


@dataclass
class WidebandFit:
    """Kernel parameters fitted to one antenna's per-subcarrier estimates."""

    offset: complex
    mag_slope: float
    phase_slope: float
    fitted: np.ndarray


def _kernel(mag_slope: float, phase_slope: float, k: np.ndarray) -> np.ndarray:
    return np.exp((mag_slope + 2j * np.pi * phase_slope) * k)


def _solve_offset(row: np.ndarray, kernel: np.ndarray) -> complex:
    return complex(np.vdot(kernel, row) / np.sum(np.abs(kernel) ** 2))


def wideband_fit(row: np.ndarray) -> WidebandFit:
    """Fit A * exp((gamma + j*2*pi*xi) * k) to one coefficient row.

    The magnitude slope comes from a linear regression of log|row| on k and
    the phase slope from a regression of the unwrapped phase; the complex
    offset then has a closed form, and a single Gauss-Newton pass on the two
    slopes (offset re-solved afterwards) polishes the linearized solution.

    The phase slope is only identifiable modulo one cycle per subcarrier.
    Every step of the unwrapped phase lies in (-pi, pi], so its
    least-squares slope lies strictly inside the canonical branch
    |xi| < 1/2, onto which any faster true slope folds exactly, with no
    error; the wideband config bounds the drawn slopes so that none folds.
    A Gauss-Newton step that carries the slope to the edge raises
    :class:`AliasingError`.
    """
    row = np.asarray(row, dtype=complex)
    n = row.size
    if n < 3:
        raise ValueError("kernel fit needs at least three subcarriers")
    if np.any(row == 0) or not np.all(np.isfinite(row)):
        raise ValueError("kernel fit needs nonzero, finite samples")
    k = np.arange(n, dtype=float)

    gamma = float(np.polyfit(k, np.log(np.abs(row)), 1)[0])
    xi = float(np.polyfit(k, np.unwrap(np.angle(row)), 1)[0]) / (2.0 * np.pi)
    kernel = _kernel(gamma, xi, k)
    offset = _solve_offset(row, kernel)

    # one Gauss-Newton step on (gamma, xi) with the offset held fixed
    resid = row - offset * kernel
    d_gamma = offset * k * kernel
    jac = np.column_stack([d_gamma, 2j * np.pi * d_gamma])
    normal = (jac.conj().T @ jac).real
    rhs = (jac.conj().T @ resid).real
    try:
        step = np.linalg.solve(normal, rhs)
    except np.linalg.LinAlgError:
        step = np.zeros(2)
    gamma += float(step[0])
    xi += float(step[1])
    if abs(xi) >= 0.5:
        raise AliasingError(
            f"refined phase slope {xi:.3f} cycles/subcarrier is aliased"
        )
    kernel = _kernel(gamma, xi, k)
    offset = _solve_offset(row, kernel)
    return WidebandFit(offset, gamma, xi, offset * kernel)


@dataclass
class WidebandRecord:
    """Kernel fits of per-subcarrier estimates and their residuals."""

    fits: list[WidebandFit]
    residuals: np.ndarray    # (M, N) estimates - fitted


def wideband_record(estimates: np.ndarray) -> WidebandRecord:
    """Fit every antenna row and collect the wideband residuals."""
    fits = [wideband_fit(row) for row in estimates]
    return WidebandRecord(fits, estimates - np.stack([f.fitted for f in fits]))


@dataclass
class KsTest:
    """One-sample Kolmogorov-Smirnov verdict against a zero-mean Gaussian."""

    statistic: float
    critical: float
    passed: bool


def ks_critical(n: int, alpha: float) -> float:
    """The asymptotic KS critical value c(alpha)/sqrt(n) for n samples, with c(0.05) = 1.358."""
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"KS verdict needs at least {KS_MIN_SAMPLES} samples, got {n}")
    if not (0 < alpha < 1):
        raise ValueError(f"significance level must be in (0, 1), got {alpha}")
    try:
        # float(n) rounds as numpy's integer-to-float cast does
        n = float(n)
    except OverflowError:
        raise ValueError(f"KS verdict needs a sample count within the float range, got {n}") from None
    return float(np.sqrt(-0.5 * np.log(alpha / 2.0)) / np.sqrt(n))


def ks_gaussianity(samples: np.ndarray, alpha: float = 0.05) -> KsTest:
    """Test real samples against a zero-mean Gaussian of matching variance.

    The model variance is the zero-mean maximum-likelihood one (mean of the
    squared samples).  The verdict compares the exceedance statistic against
    ``ks_critical(n, alpha)``.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    critical = ks_critical(n, alpha)
    scale = float(np.sqrt(np.mean(samples**2)))
    if scale == 0:
        raise ValueError("degenerate (all-zero) sample; the model variance vanishes")
    model = ndtr(np.sort(samples) / scale)
    grid = np.arange(1, n + 1) / n
    statistic = float(np.max(np.maximum(grid - model, model - (grid - 1.0 / n))))
    return KsTest(statistic, critical, statistic <= critical)
