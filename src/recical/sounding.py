"""Inter-antenna sounding: measuring all ordered antenna pairs of the array.

When antenna m transmits the symbol s and antenna n listens, the baseband
observation is y[n, m] = r_n * h[n, m] * t_m * s + noise.  The matrix Y is in
general not symmetric because the front-ends are not reciprocal; its diagonal
and any entry outside the measurement mask are undefined (stored as NaN).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontend import FrontEnd
from .geometry import full_mask


@dataclass
class SoundingData:
    """One round of pairwise measurements plus the mask that was measured."""

    matrix: np.ndarray      # (M, M) complex, NaN outside the mask
    mask: np.ndarray        # (M, M) bool, ordered pairs actually measured
    noise_var: float

    @property
    def n_antennas(self) -> int:
        return self.matrix.shape[0]

    def pair_mask(self) -> np.ndarray:
        """Ordered pairs measured in both directions (usable for moments)."""
        return self.mask & self.mask.T


def sound(
    channel: np.ndarray,
    frontend: FrontEnd,
    noise_var: float,
    rng: np.random.Generator,
    mask: np.ndarray | None = None,
) -> SoundingData:
    """Measure the masked ordered pairs of the array once.

    Noise is circularly-symmetric complex Gaussian with variance
    ``noise_var``, independent across ordered pairs, so y[n, m] and y[m, n]
    carry independent noise even though the channel itself is reciprocal.
    """
    if noise_var < 0:
        raise ValueError(f"noise variance must be >= 0, got {noise_var}")
    M = channel.shape[0]
    if mask is None:
        mask = full_mask(M)
    if mask.shape != channel.shape:
        raise ValueError("mask shape does not match the channel matrix")
    if np.any(np.diag(mask)):
        raise ValueError("mask must not include diagonal (self) pairs")
    scale = np.sqrt(noise_var / 2.0)
    noise = scale * (rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M)))
    clean = frontend.rx[:, None] * channel * frontend.tx[None, :]
    y = np.where(mask, clean + noise, np.nan + 1j * np.nan)
    return SoundingData(y, mask.copy(), noise_var)


def equivalent_channel(channel: np.ndarray, frontend: FrontEnd) -> np.ndarray:
    """Receive-side equivalent channel psi[n, m] = r_n h[n, m] r_m (symmetric)."""
    return frontend.rx[:, None] * channel * frontend.rx[None, :]
