"""Non-reciprocal transceiver front-ends and true calibration coefficients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FrontEnd:
    """Per-antenna transmit/receive chain gains with a reference antenna.

    The constructors below divide both gain vectors by their reference
    entry, which pins the calibration coefficient of the reference to
    exactly 1; a front-end built directly keeps the gains it is given.
    """

    tx: np.ndarray
    rx: np.ndarray
    ref: int

    def __post_init__(self) -> None:
        if self.tx.shape != self.rx.shape or self.tx.ndim != 1:
            raise ValueError("tx and rx must be 1-D vectors of equal length")
        if not (np.isfinite(self.tx).all() and np.isfinite(self.rx).all()):
            raise ValueError("transmit and receive gains must be finite")
        if not (0 <= self.ref < self.tx.size):
            raise IndexError(f"reference index {self.ref} out of range for M={self.tx.size}")
        if np.any(self.rx == 0):
            raise ValueError("receive gains must be nonzero everywhere")
        if self.tx[self.ref] == 0:
            raise ValueError("transmit gain at the reference must be nonzero")

    @property
    def n_antennas(self) -> int:
        return self.tx.size


def deterministic_frontend(n_antennas: int, ref: int) -> FrontEnd:
    """Fixed transceiver setting with ~10% magnitude spread and a phase ramp.

    With m running 1..M, the raw gains are t_m = 0.9 + 0.2 (m/M) e^{-j2pi m/M}
    and r_m = 0.9 + 0.2 ((M-m)/M) e^{+j2pi m/M}; both vectors are then divided
    by their reference entry.
    """
    m = np.arange(1, n_antennas + 1)
    t = 0.9 + 0.2 * m / n_antennas * np.exp(-2j * np.pi * m / n_antennas)
    r = 0.9 + 0.2 * (n_antennas - m) / n_antennas * np.exp(2j * np.pi * m / n_antennas)
    return FrontEnd(t / t[ref], r / r[ref], ref)


def _raw_gains(n_antennas: int, spread: float, rng: np.random.Generator) -> np.ndarray:
    """Unnormalized gains: magnitude 1 + U[-spread, +spread], uniform phase."""
    mag = 1.0 + rng.uniform(-spread, spread, size=n_antennas)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n_antennas)
    return mag * np.exp(1j * phase)


def random_frontend(n_antennas: int, ref: int, spread: float, rng: np.random.Generator) -> FrontEnd:
    """Random transceiver gains with bounded magnitude spread around one."""
    if not (0 <= spread < 1):
        raise ValueError(f"spread must lie in [0, 1), got {spread}")
    t = _raw_gains(n_antennas, spread, rng)
    r = _raw_gains(n_antennas, spread, rng)
    return FrontEnd(t / t[ref], r / r[ref], ref)


def true_coefficients(frontend: FrontEnd) -> np.ndarray:
    """Calibration coefficients c_m = t_m / r_m (c_ref = 1 by normalization)."""
    return frontend.tx / frontend.rx
