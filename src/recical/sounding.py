"""Inter-antenna sounding: measuring all ordered antenna pairs of the array.

When antenna m transmits the symbol s and antenna n listens, the baseband
observation is y[n, m] = r_n * h[n, m] * t_m * s + noise.  The matrix Y is in
general not symmetric because the front-ends are not reciprocal; its diagonal
and any entry outside the measurement mask are undefined (stored as NaN).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .frontend import FrontEnd
from .geometry import connected_pairs, draw_complex_normal, full_mask


@dataclass(frozen=True)
class SoundingData:
    """One round of pairwise measurements plus the mask that was measured.

    The estimators read ``pairs``, ``measured``, ``moments`` and
    ``smallest_eigenvector``, each derived on first use and kept, so the
    arrays must not be changed after the first estimator call on a sounding.
    """

    matrix: np.ndarray      # (M, M) complex, NaN outside the mask
    mask: np.ndarray        # (M, M) bool, ordered pairs actually measured

    @property
    def n_antennas(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def pairs(self) -> np.ndarray:
        """Ordered pairs measured in both directions; they must connect every antenna."""
        return connected_pairs(self.mask)

    @cached_property
    def measured(self) -> np.ndarray:
        """The measurement matrix, zero outside ``pairs``."""
        return np.where(self.pairs, self.matrix, 0.0 + 0.0j)

    @cached_property
    def moments(self) -> np.ndarray:
        """Hermitian PSD matrix Q with c^H Q c = sum of squared moment conditions.

        Each unordered measured pair {n, m} contributes
        |y[n, m] c_n - y[m, n] c_m|^2 to the quadratic form.
        """
        y = self.measured
        q = np.conj(y)
        q *= y.T
        np.subtract(0.0, q, out=q)  # 0 - x, not -x: unmeasured pairs stay +0
        q[np.diag_indices_from(q)] += np.sum(np.abs(y) ** 2, axis=1)
        return q

    @cached_property
    def smallest_eigenvector(self) -> np.ndarray:
        """Unit eigenvector of the smallest eigenvalue of ``moments``.

        The unit-norm GMM and EM's default start both read it, so a sounding
        runs one eigensolve.  Only that eigenpair is computed, not the whole
        spectrum: after the cubic tridiagonal reduction, LAPACK's ``zheevr``
        finds one eigenvalue by bisection and its eigenvector by inverse
        iteration (``dstebz``, then ``zstein``); its MRRR branch runs only
        for the whole spectrum.
        """
        return scipy.linalg.eigh(self.moments, subset_by_index=[0, 0])[1][:, 0]


def sound(
    channel: np.ndarray,
    frontend: FrontEnd,
    noise_var: float,
    rng: np.random.Generator,
    mask: np.ndarray | None = None,
    *,
    unit_noise: np.ndarray | None = None,
) -> SoundingData:
    """Measure the masked ordered pairs of the array once.

    Noise is circularly-symmetric complex Gaussian with variance
    ``noise_var``, independent across ordered pairs, so y[n, m] and y[m, n]
    carry independent noise even though the channel itself is reciprocal.
    It is ``unit_noise`` scaled by sqrt(noise_var / 2); when that is not
    given, :func:`~recical.geometry.draw_complex_normal` draws it from
    ``rng``.  Soundings of one channel at several noise levels may share one
    draw.
    """
    if not noise_var >= 0:
        raise ValueError(f"noise variance must be >= 0, got {noise_var}")
    M = channel.shape[0]
    if mask is None:
        mask = full_mask(M)
    if mask.shape != channel.shape:
        raise ValueError("mask shape does not match the channel matrix")
    if np.any(np.diag(mask)):
        raise ValueError("mask must not include diagonal (self) pairs")
    if unit_noise is None:
        unit_noise = draw_complex_normal(rng, channel.shape)
    elif unit_noise.shape != channel.shape:
        raise ValueError(f"unit_noise shape {unit_noise.shape} does not match the channel's {channel.shape}")
    noise = np.sqrt(noise_var / 2.0) * unit_noise
    clean = frontend.rx[:, None] * channel * frontend.tx[None, :]
    y = np.where(mask, clean + noise, np.nan + 1j * np.nan)
    return SoundingData(y, mask.copy())
