"""Experiment configuration: JSON schema, defaults, and validation.

Antenna numbers in configuration files and CSV outputs are 1-based
(row-major over the grid, matching the usual array-hardware numbering);
the library itself indexes antennas from zero.  The loader converts once.

All powers and variances given in dB use 10*log10(linear).
"""

from __future__ import annotations

import json
import math
import types
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

EXPERIMENTS = (
    "mse-sweep",
    "convergence",
    "capacity",
    "wideband",
    "crlb-map",
    "reduced-set",
)

CAPACITY_VARIANTS = ("uncalibrated", "gmm", "em", "perfect", "true-downlink-csi")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


class ConfigError(ValueError):
    """A configuration file failed validation."""


@dataclass
class ArraySection:
    rows: int = 4
    cols: int = 25
    spacing: float = 0.5
    ref: int = 38  # 1-based antenna number

    def validate(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"array dimensions must be positive, got {self.rows}x{self.cols}")
        if self.spacing <= 0:
            raise ConfigError(f"array spacing must be positive, got {self.spacing}")
        if not (1 <= self.ref <= self.rows * self.cols):
            raise ConfigError(
                f"reference antenna {self.ref} outside 1..{self.rows * self.cols}"
            )

    @property
    def ref_index(self) -> int:
        return self.ref - 1


@dataclass
class CouplingSection:
    co_slope_db: float = -10.0
    co_intercept_db: float = -12.0
    cross_slope_db: float = -10.0
    cross_intercept_db: float = -15.0
    sigma2_db: float = -60.0

    def validate(self) -> None:
        if not all(
            math.isfinite(v)
            for v in (
                self.co_slope_db,
                self.co_intercept_db,
                self.cross_slope_db,
                self.cross_intercept_db,
                self.sigma2_db,
            )
        ):
            raise ConfigError("coupling parameters must be finite")


@dataclass
class FrontendSection:
    kind: str = "deterministic"  # or "random"
    spread: float = 0.1

    def validate(self) -> None:
        if self.kind not in ("deterministic", "random"):
            raise ConfigError(f"frontend kind must be deterministic or random, got {self.kind!r}")
        if not (0 <= self.spread < 1):
            raise ConfigError(f"frontend spread must lie in [0, 1), got {self.spread}")


@dataclass
class EstimatorSection:
    epsilon: float = 0.0
    epsilon_grid: list[float] = field(default_factory=lambda: [0.0, 0.01, 0.1, 1.0])
    delta_ml: float = 1e-6
    max_iter: int | None = None
    gmm_constraint: str = "ref-one"

    def validate(self) -> None:
        if self.epsilon < 0 or any(e < 0 for e in self.epsilon_grid):
            raise ConfigError("regularization constants must be >= 0")
        if not self.epsilon_grid:
            raise ConfigError("epsilon_grid must not be empty")
        if not self.delta_ml > 0:
            raise ConfigError(f"delta_ml must be > 0, got {self.delta_ml}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.gmm_constraint not in ("ref-one", "unit-norm"):
            raise ConfigError(f"gmm_constraint must be ref-one or unit-norm, got {self.gmm_constraint!r}")


@dataclass
class MseSweepSection:
    n0_grid_db: list[float] = field(
        default_factory=lambda: [-100.0, -90.0, -80.0, -70.0, -60.0, -50.0, -45.0, -40.0, -35.0, -30.0]
    )
    antennas: list[int] = field(default_factory=lambda: [1, 39])  # 1-based
    reduced_radius: float = 0.7071067811865476

    def validate(self, n_antennas: int) -> None:
        if not self.n0_grid_db:
            raise ConfigError("n0_grid_db must not be empty")
        if not self.antennas:
            raise ConfigError("at least one antenna must be tracked")
        for a in self.antennas:
            if not (1 <= a <= n_antennas):
                raise ConfigError(f"tracked antenna {a} outside 1..{n_antennas}")
        if self.reduced_radius <= 0:
            raise ConfigError("reduced_radius must be positive")


@dataclass
class ConvergenceSection:
    n0_db: float = -40.0
    track_iterations: int = 50

    def validate(self) -> None:
        if self.track_iterations < 1:
            raise ConfigError("track_iterations must be >= 1")


@dataclass
class CapacitySection:
    n_users: int = 10
    cal_n0_db: float = -40.0
    dl_noise_db: float = 0.0  # N_w = 1
    variants: list[str] = field(default_factory=lambda: list(CAPACITY_VARIANTS))
    gmm_constraint: str = "unit-norm"
    reciprocal_users: bool = True

    def validate(self, n_antennas: int) -> None:
        if not (1 <= self.n_users <= n_antennas):
            raise ConfigError(f"n_users must lie in 1..{n_antennas}, got {self.n_users}")
        unknown = set(self.variants) - set(CAPACITY_VARIANTS)
        if unknown:
            raise ConfigError(f"unknown capacity variants: {sorted(unknown)}")
        if not self.variants:
            raise ConfigError("at least one capacity variant required")
        if self.gmm_constraint not in ("ref-one", "unit-norm"):
            raise ConfigError(f"gmm_constraint must be ref-one or unit-norm, got {self.gmm_constraint!r}")


@dataclass
class WidebandSection:
    carrier_hz: float = 3.7e9
    sample_rate_hz: float = 7.68e6
    n_fft: int = 2048
    n_subcarriers: int = 1200
    realizations: int = 20
    n0_db: float = -80.0
    offset_range: list[float] = field(default_factory=lambda: [0.9, 1.1])
    mag_slope_max: float = 5e-5
    phase_slope_max: float = 1e-4
    ks_alpha: float = 0.05

    def validate(self) -> None:
        if self.n_subcarriers > self.n_fft:
            raise ConfigError("n_subcarriers cannot exceed n_fft")
        if self.n_subcarriers < 3:
            raise ConfigError("need at least three subcarriers")
        if self.realizations < 2:
            raise ConfigError("wideband experiment needs at least two realizations")
        if len(self.offset_range) != 2 or not (0 < self.offset_range[0] <= self.offset_range[1]):
            raise ConfigError("offset_range must be [lo, hi] with 0 < lo <= hi")
        if not (0 < self.ks_alpha < 1):
            raise ConfigError("ks_alpha must lie in (0, 1)")


@dataclass
class CrlbMapSection:
    n0_grid_db: list[float] = field(default_factory=lambda: [-80.0, -60.0, -40.0])

    def validate(self) -> None:
        if not self.n0_grid_db:
            raise ConfigError("n0_grid_db must not be empty")


@dataclass
class ReducedSetSection:
    n0_db: float = -80.0
    radius: float = 0.7071067811865476

    def validate(self) -> None:
        if self.radius <= 0:
            raise ConfigError("radius must be positive")


_SECTION_TYPES = {
    "array": ArraySection,
    "coupling": CouplingSection,
    "frontend": FrontendSection,
    "estimator": EstimatorSection,
    "mse_sweep": MseSweepSection,
    "convergence": ConvergenceSection,
    "capacity": CapacitySection,
    "wideband": WidebandSection,
    "crlb_map": CrlbMapSection,
    "reduced_set": ReducedSetSection,
}


@dataclass
class ExperimentConfig:
    experiment: str = "mse-sweep"
    seed: int = 12345
    trials: int = 1000
    out_dir: str = "out"
    workers: int = 1
    array: ArraySection = field(default_factory=ArraySection)
    coupling: CouplingSection = field(default_factory=CouplingSection)
    frontend: FrontendSection = field(default_factory=FrontendSection)
    estimator: EstimatorSection = field(default_factory=EstimatorSection)
    mse_sweep: MseSweepSection = field(default_factory=MseSweepSection)
    convergence: ConvergenceSection = field(default_factory=ConvergenceSection)
    capacity: CapacitySection = field(default_factory=CapacitySection)
    wideband: WidebandSection = field(default_factory=WidebandSection)
    crlb_map: CrlbMapSection = field(default_factory=CrlbMapSection)
    reduced_set: ReducedSetSection = field(default_factory=ReducedSetSection)

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {', '.join(EXPERIMENTS)}; got {self.experiment!r}"
            )
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        self.array.validate()
        self.coupling.validate()
        self.frontend.validate()
        self.estimator.validate()
        # only the active experiment's section is validated, so defaults for
        # the 4x25 array do not block other experiments on smaller arrays
        n = self.array.rows * self.array.cols
        if self.experiment == "mse-sweep":
            self.mse_sweep.validate(n)
        elif self.experiment == "convergence":
            self.convergence.validate()
        elif self.experiment == "capacity":
            self.capacity.validate(n)
        elif self.experiment == "wideband":
            self.wideband.validate()
        elif self.experiment == "crlb-map":
            self.crlb_map.validate()
        elif self.experiment == "reduced-set":
            self.reduced_set.validate()

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _matches(value: Any, hint: Any) -> bool:
    """Whether a JSON value fits an annotation: int rejects bool and float, float takes int, null needs ``| None``."""
    if get_origin(hint) is types.UnionType:
        return any(_matches(value, h) for h in get_args(hint))
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_matches(v, get_args(hint)[0]) for v in value)
    allowed = (int, float) if hint is float else hint
    return isinstance(value, allowed) and (hint is bool or not isinstance(value, bool))


def _widen(value: Any, hint: Any) -> Any:
    """A value that fits ``hint``, with JSON integers in float positions made floats."""
    if get_origin(hint) is list:
        return [_widen(v, get_args(hint)[0]) for v in value]
    return float(value) if hint is float else value


def _typed(prefix: str, cls, values: dict[str, Any]) -> dict[str, Any]:
    """Check ``values`` against the field annotations of ``cls`` and widen ints to float.

    The widening makes ``-60`` and ``-60.0`` configure the same run, down to
    the bytes of the CSVs and of the manifest's config echo.
    """
    hints = get_type_hints(cls)
    typed = dict(values)
    for f in fields(cls):
        if f.name in values:
            if not _matches(values[f.name], hints[f.name]):
                raise ConfigError(f"{prefix}{f.name} must be {f.type}, got {values[f.name]!r}")
            typed[f.name] = _widen(values[f.name], hints[f.name])
    return typed


def _build_section(name: str, cls, payload: Any):
    if not isinstance(payload, dict):
        raise ConfigError(f"section {name!r} must be an object")
    known = {f for f in cls.__dataclass_fields__}
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
    return cls(**_typed(f"{name}.", cls, payload))


def config_from_dict(payload: dict[str, Any]) -> ExperimentConfig:
    """Build, type-check against the field annotations, and validate a config from parsed JSON."""
    if not isinstance(payload, dict):
        raise ConfigError("configuration root must be a JSON object")
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for key, value in payload.items():
        if key in _SECTION_TYPES:
            kwargs[key] = _build_section(key, _SECTION_TYPES[key], value)
        else:
            kwargs[key] = value
    cfg = ExperimentConfig(**_typed("", ExperimentConfig, kwargs))
    cfg.validate()
    return cfg


def load_config(path: str | Path, experiment: str | None = None) -> ExperimentConfig:
    """Load and validate a JSON configuration file; ``experiment`` replaces the one it names."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if experiment is not None and isinstance(payload, dict):
        payload = {**payload, "experiment": experiment}
    return config_from_dict(payload)


def default_config(experiment: str = "mse-sweep") -> ExperimentConfig:
    """The documented default configuration for one experiment kind."""
    cfg = ExperimentConfig(experiment=experiment)
    cfg.validate()
    return cfg
