"""Downlink precoding evaluation with calibrated uplink channel estimates.

The base station applies the estimated calibration coefficients to the known
uplink radio channel to obtain the precoding matrix input G; a zero-forcing
or maximum-ratio precoder built from G then serves K single-antenna users.
Sum rates treat inter-user interference as noise.

This module holds scenarios, precoders and sum rates only; the capacity
trial that sounds, calibrates and scores runs in :mod:`recical.experiments`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontend import FrontEnd

UNCALIBRATED = "uncalibrated"
GMM_VARIANT = "gmm"
EM_VARIANT = "em"
PERFECT = "perfect"
TRUE_CSI = "true-downlink-csi"
VARIANTS = (UNCALIBRATED, GMM_VARIANT, EM_VARIANT, PERFECT, TRUE_CSI)

ZF = "zf"
MRT = "mrt"
PRECODERS = (ZF, MRT)


@dataclass
class DownlinkScenario:
    """One realization of the user-facing channels and user front-ends.

    ``h_dl`` is derived from the same propagation draw as ``h_up`` (never
    drawn independently), so calibration quality is the only thing that
    separates the precoding variants.
    """

    h_up: np.ndarray     # (M, K) uplink radio channel
    h_dl: np.ndarray     # (K, M) downlink radio channel
    user_tx: np.ndarray  # (K,) user transmit gains
    user_rx: np.ndarray  # (K,) user receive gains
    noise_var: float = 1.0

    def __post_init__(self) -> None:
        if self.noise_var <= 0:
            raise ValueError(f"downlink noise variance must be > 0, got {self.noise_var}")
        if self.n_users > self.h_up.shape[0]:
            raise ValueError("more users than base-station antennas")

    @property
    def n_users(self) -> int:
        return self.h_up.shape[1]

    @property
    def power(self) -> float:
        """Total transmit power: one unit per user."""
        return float(self.n_users)


def draw_scenario(
    frontend: FrontEnd,
    n_users: int,
    rng: np.random.Generator,
    noise_var: float = 1.0,
    reciprocal_users: bool = True,
) -> DownlinkScenario:
    """Draw an i.i.d. Rayleigh propagation channel and wrap it in front-ends.

    User chain gains are copied from the first K base-station transmit gains;
    with ``reciprocal_users`` the user receive gains equal their transmit
    gains, which makes precoding on perfectly calibrated uplink CSI exactly
    equivalent to precoding on the true downlink channel.
    """
    M = frontend.n_antennas
    if n_users > M:
        raise ValueError("more users than base-station antennas")
    h_p = np.sqrt(0.5) * (rng.standard_normal((M, n_users)) + 1j * rng.standard_normal((M, n_users)))
    user_tx = frontend.tx[:n_users].copy()
    user_rx = user_tx.copy() if reciprocal_users else frontend.rx[:n_users].copy()
    h_up = frontend.rx[:, None] * h_p * user_tx[None, :]
    h_dl = user_rx[:, None] * h_p.T * frontend.tx[None, :]
    return DownlinkScenario(h_up, h_dl, user_tx, user_rx, noise_var=noise_var)


def calibrated_downlink(h_up: np.ndarray, c_hat: np.ndarray) -> np.ndarray:
    """Precoding input G = (diag(c_hat) @ h_up)^T, a K x M matrix."""
    return (c_hat[:, None] * h_up).T


def zf_precoder(g: np.ndarray, power: float) -> np.ndarray:
    """Zero-forcing precoder: scaled right pseudo-inverse of G."""
    u, s, vh = np.linalg.svd(g, full_matrices=False)
    if s[-1] <= s[0] * 1e-12:
        raise np.linalg.LinAlgError("zero-forcing needs a full-row-rank channel matrix")
    p = (vh.conj().T / s) @ u.conj().T
    return p * (np.sqrt(power) / np.linalg.norm(p))


def mrt_precoder(g: np.ndarray, power: float) -> np.ndarray:
    """Maximum-ratio precoder: scaled conjugate transpose of G."""
    p = g.conj().T
    norm = np.linalg.norm(p)
    if norm == 0:
        raise ValueError("cannot normalize an all-zero channel matrix")
    return p * (np.sqrt(power) / norm)


def sum_rate(h_dl: np.ndarray, precoder: np.ndarray, noise_var: float) -> float:
    """Sum of per-user log2(1 + SINR) with interference treated as noise."""
    s = h_dl @ precoder
    power = np.abs(s) ** 2
    signal = np.diag(power)
    interference = power.sum(axis=1) - signal
    return float(np.sum(np.log2(1.0 + signal / (interference + noise_var))))


def evm(received: np.ndarray, sent: np.ndarray) -> float:
    """Error vector magnitude: mean of |r - s|^2 / |s|^2."""
    received = np.asarray(received)
    sent = np.asarray(sent)
    if received.shape != sent.shape:
        raise ValueError("received and sent sample vectors must have equal shape")
    if np.any(sent == 0):
        raise ValueError("EVM is undefined for zero reference symbols")
    return float(np.mean(np.abs(received - sent) ** 2 / np.abs(sent) ** 2))


def variant_sum_rates(scenario: DownlinkScenario, coefficients: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Sum rates of every calibration variant under every precoder of :data:`PRECODERS`.

    ``coefficients`` maps variant names to coefficient vectors; the
    ``true-downlink-csi`` baseline ignores calibration and precodes on the
    true downlink channel directly.
    """
    rates: dict[str, dict[str, float]] = {}
    for variant, c in coefficients.items():
        g = scenario.h_dl if variant == TRUE_CSI else calibrated_downlink(scenario.h_up, c)
        rates[variant] = {}
        for kind in PRECODERS:
            p = zf_precoder(g, scenario.power) if kind == ZF else mrt_precoder(g, scenario.power)
            rates[variant][kind] = sum_rate(scenario.h_dl, p, scenario.noise_var)
    return rates

