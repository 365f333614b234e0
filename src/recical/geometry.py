"""Planar array geometry and the reciprocal inter-antenna channel model.

Antennas sit on a rows x cols rectangular grid with half-wavelength default
spacing and are numbered row-major, ``index = cols * row + col`` with rows,
columns and indices all starting at zero.  The channel between two antennas
is a deterministic mutual-coupling term (linear-in-dB decay with distance,
uniform random phase) plus a reciprocal diffuse multipath term.

The diagonal of every channel matrix is undefined and stored as NaN so that
an accidental read poisons the result instead of passing silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CO = "co"
CROSS = "cross"

# relative slack when comparing pair distances against a mask radius; absorbs
# last-ulp rounding so e.g. the diagonal neighbours stay inside a 1/sqrt(2) ring
_RADIUS_RTOL = 1e-9


@dataclass(frozen=True)
class ArrayGeometry:
    """Rectangular antenna grid with checkerboard polarization.

    Adjacent elements (one grid step apart) carry opposite polarization
    labels, so nearest neighbours are always cross-polarized.
    """

    rows: int
    cols: int
    spacing: float
    positions: np.ndarray     # (M, 2) coordinates in wavelengths
    polarization: np.ndarray  # (M,) 0/1 checkerboard labels

    @property
    def n_antennas(self) -> int:
        return self.rows * self.cols

    def index_of(self, row: int, col: int) -> int:
        """Antenna index of the element at (row, col), all zero-based."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"(row, col) = ({row}, {col}) outside {self.rows}x{self.cols} grid")
        return self.cols * row + col


@dataclass(frozen=True)
class CouplingModel:
    """Linear-in-dB coupling fit plus diffuse multipath variance.

    Slopes are in dB per wavelength, intercepts in dB, one branch per
    polarization pairing.  ``sigma2`` is the variance (linear scale) of the
    reciprocal diffuse term added on top of the coupling.
    """

    co_slope: float
    co_intercept: float
    cross_slope: float
    cross_intercept: float
    sigma2: float

    def __post_init__(self) -> None:
        if self.sigma2 < 0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")


def build_geometry(rows: int, cols: int, spacing: float = 0.5) -> ArrayGeometry:
    """Build a rows x cols planar array with the given spacing in wavelengths."""
    if rows < 1 or cols < 1:
        raise ValueError(f"array dimensions must be positive, got {rows}x{cols}")
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    r, c = np.divmod(np.arange(rows * cols), cols)
    positions = spacing * np.column_stack([c, r]).astype(float)
    polarization = ((r + c) % 2).astype(np.int8)
    return ArrayGeometry(rows, cols, spacing, positions, polarization)


def pair_distance_polarization(geom: ArrayGeometry, m: int, n: int) -> tuple[float, str]:
    """Distance in wavelengths and polarization pairing ('co' or 'cross')."""
    M = geom.n_antennas
    if not (0 <= m < M and 0 <= n < M):
        raise IndexError(f"antenna index out of range for M={M}: ({m}, {n})")
    if m == n:
        raise ValueError(f"pair requires two distinct antennas, got m = n = {m}")
    dist = float(np.linalg.norm(geom.positions[m] - geom.positions[n]))
    pol = CO if geom.polarization[m] == geom.polarization[n] else CROSS
    return dist, pol


def coupling_gain_db(model: CouplingModel, distance: float | np.ndarray, pol: str) -> float | np.ndarray:
    """Coupling gain in dB at the given distance (scalar or array) for one polarization branch."""
    if np.any(np.asarray(distance) <= 0):
        raise ValueError(f"distance must be positive, got {distance}")
    if pol == CO:
        return model.co_intercept + model.co_slope * distance
    if pol == CROSS:
        return model.cross_intercept + model.cross_slope * distance
    raise ValueError(f"polarization must be '{CO}' or '{CROSS}', got {pol!r}")


def _pair_geometry(geom: ArrayGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise distance matrix and a boolean co-polarization matrix."""
    delta = geom.positions[:, None, :] - geom.positions[None, :, :]
    dist = np.linalg.norm(delta, axis=-1)
    co = geom.polarization[:, None] == geom.polarization[None, :]
    return dist, co


def _mirror_upper(values: np.ndarray) -> np.ndarray:
    """Symmetric matrix built from the strict upper triangle of ``values``."""
    upper = np.triu(values, k=1)
    return upper + upper.T


def coupling_magnitudes(geom: ArrayGeometry, model: CouplingModel) -> np.ndarray:
    """Deterministic |coupling| amplitude for every antenna pair (NaN diagonal)."""
    dist, co = _pair_geometry(geom)
    gain_db = np.full(dist.shape, np.nan)
    for pol, branch in ((CO, co & (dist > 0)), (CROSS, ~co)):
        gain_db[branch] = coupling_gain_db(model, dist[branch], pol)
    return 10.0 ** (gain_db / 20.0)


def draw_coupling(geom: ArrayGeometry, model: CouplingModel, rng: np.random.Generator) -> np.ndarray:
    """Mutual-coupling matrix: deterministic amplitude, one uniform phase per pair."""
    amp = coupling_magnitudes(geom, model)
    phase = _mirror_upper(rng.uniform(size=amp.shape))
    hbar = amp * np.exp(2j * np.pi * phase)
    np.fill_diagonal(hbar, np.nan + 1j * np.nan)
    return hbar


def draw_channel(
    geom: ArrayGeometry,
    model: CouplingModel,
    rng: np.random.Generator,
    coupling: np.ndarray | None = None,
) -> np.ndarray:
    """Draw the reciprocal inter-antenna channel H = coupling + diffuse.

    The diffuse term is circularly-symmetric complex Gaussian with variance
    ``model.sigma2``, drawn once per unordered pair and mirrored so the
    result is exactly symmetric.  A precomputed ``coupling`` matrix (from
    :func:`draw_coupling`) can be passed to hold the coupling realization
    fixed while redrawing only the diffuse part.
    """
    if coupling is None:
        coupling = draw_coupling(geom, model, rng)
    M = geom.n_antennas
    scale = np.sqrt(model.sigma2 / 2.0)
    diffuse = scale * (rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M)))
    h = coupling + _mirror_upper(diffuse)
    np.fill_diagonal(h, np.nan + 1j * np.nan)
    return h


def full_mask(n_antennas: int) -> np.ndarray:
    """Measurement mask containing every ordered off-diagonal pair."""
    mask = np.ones((n_antennas, n_antennas), dtype=bool)
    np.fill_diagonal(mask, False)
    return mask


def reduced_mask(geom: ArrayGeometry, radius: float) -> np.ndarray:
    """Mask keeping ordered pairs whose elements are at most ``radius`` apart."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    dist, _ = _pair_geometry(geom)
    mask = dist <= radius * (1.0 + _RADIUS_RTOL)
    np.fill_diagonal(mask, False)
    return mask
