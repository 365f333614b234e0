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


@dataclass(frozen=True)
class OfdmGrid:
    """High-level OFDM numerology; only the used-subcarrier count matters here."""

    n_fft: int = 2048
    n_subcarriers: int = 1200

    def __post_init__(self) -> None:
        if self.n_subcarriers > self.n_fft:
            raise ValueError("cannot use more subcarriers than the FFT size")


@dataclass(frozen=True)
class WidebandParams:
    """Ranges for the per-antenna kernel parameters of synthetic truth."""

    offset_range: tuple[float, float] = (0.9, 1.1)
    mag_slope_max: float = 5e-5
    phase_slope_max: float = 1e-4


@dataclass
class WidebandTruth:
    """One realization of the true wideband coefficients of all antennas.

    values[m, k] = offsets[m] * exp((mag_slopes[m] + j*2*pi*phase_slopes[m]) * k)
                   * exp(j*2*pi*phases[m])
    where only ``phases`` changes between realizations.
    """

    values: np.ndarray        # (M, N) complex
    offsets: np.ndarray       # (M,) complex
    mag_slopes: np.ndarray    # (M,)
    phase_slopes: np.ndarray  # (M,)
    phases: np.ndarray        # (M,) uniform in [0, 1), per realization

    @property
    def n_antennas(self) -> int:
        return self.values.shape[0]

    @property
    def n_subcarriers(self) -> int:
        return self.values.shape[1]


def synth_wideband(
    n_antennas: int,
    grid: OfdmGrid,
    params: WidebandParams,
    realizations: int,
    rng: np.random.Generator,
) -> list[WidebandTruth]:
    """Draw kernel parameters once and realize the oscillator phase per run."""
    if realizations < 1:
        raise ValueError(f"need at least one realization, got {realizations}")
    k = np.arange(grid.n_subcarriers)
    lo, hi = params.offset_range
    offsets = rng.uniform(lo, hi, size=n_antennas) * np.exp(
        2j * np.pi * rng.uniform(size=n_antennas)
    )
    gamma = rng.uniform(-params.mag_slope_max, params.mag_slope_max, size=n_antennas)
    xi = rng.uniform(-params.phase_slope_max, params.phase_slope_max, size=n_antennas)
    kernel = offsets[:, None] * np.exp((gamma + 2j * np.pi * xi)[:, None] * k[None, :])
    out = []
    for _ in range(realizations):
        zeta = rng.uniform(size=n_antennas)
        values = kernel * np.exp(2j * np.pi * zeta)[:, None]
        out.append(WidebandTruth(values, offsets, gamma, xi, zeta))
    return out


def per_subcarrier_estimate(
    truth: WidebandTruth,
    geom: ArrayGeometry,
    coupling: CouplingModel,
    noise_var: float,
    ref: int,
    rng: np.random.Generator,
    em_settings: EmSettings | None = None,
) -> np.ndarray:
    """Estimate the coefficients independently at every subcarrier.

    Each subcarrier gets a front-end realizing the true coefficient column
    (transmit gains equal to the coefficients, unit receive gains), one
    sounding round with independent noise, and an unpenalized EM run seeded
    by the GMM estimate.  Results are normalized to the reference antenna,
    so the noiseless output is exactly values[:, k] / values[ref, k].
    """
    if truth.n_antennas != geom.n_antennas:
        raise ValueError("truth and geometry disagree on the antenna count")
    settings = em_settings or EmSettings(ref=ref)
    h = draw_channel(geom, coupling, rng)
    ones = np.ones(truth.n_antennas, dtype=complex)
    out = np.empty_like(truth.values)
    for k in range(truth.n_subcarriers):
        fe = FrontEnd(truth.values[:, k].copy(), ones, ref)
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
    components: np.ndarray   # (N, n_components), unit columns


def pca(estimates: np.ndarray, n_components: int = 10) -> list[PcaResult]:
    """Per-antenna PCA of stacked per-subcarrier estimates, shape (R, M, N).

    The sample covariance K_m = (1/R) sum_r c_r c_r^H is never formed; its
    eigenpairs come from an SVD of the R x N data matrix.
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
        keep = min(n_components, vh.shape[0])
        results.append(PcaResult(svals**2 / R, vh[:keep].conj().T))
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

    The phase slope is only identifiable modulo one cycle per subcarrier;
    unwrapping returns the canonical branch |xi| < 1/2, onto which any
    faster true slope folds exactly.  A fitted slope reaching the Nyquist
    edge raises :class:`AliasingError` instead of returning a fold.
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
    if abs(xi) >= 0.5:
        raise AliasingError(
            f"phase slope {xi:.3f} cycles/subcarrier is not resolvable by unwrapping"
        )

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
    """Per-subcarrier estimates with their kernel fits and residuals."""

    estimates: np.ndarray    # (M, N)
    fits: list[WidebandFit]
    fitted: np.ndarray       # (M, N)
    residuals: np.ndarray    # (M, N) estimates - fitted


def wideband_record(estimates: np.ndarray) -> WidebandRecord:
    """Fit every antenna row and collect the wideband residuals."""
    fits = [wideband_fit(row) for row in estimates]
    fitted = np.stack([f.fitted for f in fits])
    return WidebandRecord(estimates, fits, fitted, estimates - fitted)


@dataclass
class KsTest:
    """One-sample Kolmogorov-Smirnov verdict against a zero-mean Gaussian."""

    statistic: float
    critical: float
    passed: bool


def ks_gaussianity(samples: np.ndarray, alpha: float = 0.05) -> KsTest:
    """Test real samples against a zero-mean Gaussian of matching variance.

    The model variance is the zero-mean maximum-likelihood one (mean of the
    squared samples).  The verdict compares the exceedance statistic against
    the asymptotic critical value c(alpha)/sqrt(n) with c(0.05) = 1.358.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"KS verdict needs at least {KS_MIN_SAMPLES} samples, got {n}")
    if not (0 < alpha < 1):
        raise ValueError(f"significance level must be in (0, 1), got {alpha}")
    scale = float(np.sqrt(np.mean(samples**2)))
    if scale == 0:
        raise ValueError("degenerate (all-zero) sample; the model variance vanishes")
    model = ndtr(np.sort(samples) / scale)
    grid = np.arange(1, n + 1) / n
    statistic = float(np.max(np.maximum(grid - model, model - (grid - 1.0 / n))))
    critical = float(np.sqrt(-0.5 * np.log(alpha / 2.0)) / np.sqrt(n))
    return KsTest(statistic, critical, statistic <= critical)
