"""Experiment configuration: JSON schema, defaults, and validation.

Antenna numbers in configuration files and CSV outputs are 1-based
(row-major over the grid, matching the usual array-hardware numbering);
the library itself indexes antennas from zero.  The loader converts once.

All powers and variances given in dB use 10*log10(linear).
"""

from __future__ import annotations

import json
import sys
import types
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

from .downlink import VARIANTS
from .estimators import REF_ONE, UNIT_NORM
from .wideband import KS_MIN_SAMPLES

# the ids are part of the seed contract: every random stream is derived from
# (master seed, experiment id), so renumbering one changes all its outputs
EXPERIMENT_IDS = {
    "mse-sweep": 1,
    "convergence": 2,
    "capacity": 3,
    "wideband": 4,
    "crlb-map": 5,
    "reduced-set": 6,
}
EXPERIMENTS = tuple(EXPERIMENT_IDS)

GMM_CONSTRAINTS = (REF_ONE, UNIT_NORM)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


class ConfigError(ValueError):
    """A configuration file failed validation."""


def _check_db(name: str, *values: float) -> None:
    """Refuse dB values whose linear value overflows a float (those above about 3082 dB)."""
    for value in values:
        try:
            db_to_linear(value)
        except OverflowError:
            raise ConfigError(f"{name} must be at most about 3082 dB, got {value!r}") from None


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
        if not (1 <= self.ref <= self.n_antennas):
            raise ConfigError(f"reference antenna {self.ref} outside 1..{self.n_antennas}")

    @property
    def n_antennas(self) -> int:
        return self.rows * self.cols

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
    gmm_constraint: str = REF_ONE

    def validate(self) -> None:
        if self.epsilon < 0 or any(e < 0 for e in self.epsilon_grid):
            raise ConfigError("regularization constants must be >= 0")
        if not self.epsilon_grid:
            raise ConfigError("epsilon_grid must not be empty")
        if not self.delta_ml > 0:
            raise ConfigError(f"delta_ml must be > 0, got {self.delta_ml}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.gmm_constraint not in GMM_CONSTRAINTS:
            raise ConfigError(f"gmm_constraint must be {' or '.join(GMM_CONSTRAINTS)}, got {self.gmm_constraint!r}")


@dataclass
class MseSweepSection:
    n0_grid_db: list[float] = field(
        default_factory=lambda: [-100.0, -90.0, -80.0, -70.0, -60.0, -50.0, -45.0, -40.0, -35.0, -30.0]
    )
    antennas: list[int] = field(default_factory=lambda: [1, 39])  # 1-based
    reduced_radius: float = 0.7071067811865476

    def validate(self, array: ArraySection) -> None:
        if not self.n0_grid_db:
            raise ConfigError("n0_grid_db must not be empty")
        _check_db("mse_sweep.n0_grid_db", *self.n0_grid_db)
        if not self.antennas:
            raise ConfigError("at least one antenna must be tracked")
        for a in self.antennas:
            if not (1 <= a <= array.n_antennas):
                raise ConfigError(f"tracked antenna {a} outside 1..{array.n_antennas}")
            if a == array.ref:
                raise ConfigError(f"tracked antenna {a} is the reference, whose coefficient is pinned to one")
        if self.reduced_radius <= 0:
            raise ConfigError("reduced_radius must be positive")


@dataclass
class ConvergenceSection:
    n0_db: float = -40.0
    track_iterations: int = 50

    def validate(self, array: ArraySection) -> None:
        _check_db("convergence.n0_db", self.n0_db)
        if self.track_iterations < 1:
            raise ConfigError("track_iterations must be >= 1")


@dataclass
class CapacitySection:
    n_users: int = 10
    cal_n0_db: float = -40.0
    dl_noise_db: float = 0.0  # N_w = 1
    variants: list[str] = field(default_factory=lambda: list(VARIANTS))
    gmm_constraint: str = UNIT_NORM
    reciprocal_users: bool = True

    def validate(self, array: ArraySection) -> None:
        if not (1 <= self.n_users <= array.n_antennas):
            raise ConfigError(f"n_users must lie in 1..{array.n_antennas}, got {self.n_users}")
        _check_db("capacity.cal_n0_db", self.cal_n0_db)
        _check_db("capacity.dl_noise_db", self.dl_noise_db)
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ConfigError(f"unknown capacity variants: {sorted(unknown)}")
        if not self.variants:
            raise ConfigError("at least one capacity variant required")
        if self.gmm_constraint not in GMM_CONSTRAINTS:
            raise ConfigError(f"gmm_constraint must be {' or '.join(GMM_CONSTRAINTS)}, got {self.gmm_constraint!r}")


@dataclass
class WidebandSection:
    n_fft: int = 2048
    n_subcarriers: int = 1200
    realizations: int = 20
    n0_db: float = -80.0
    offset_range: list[float] = field(default_factory=lambda: [0.9, 1.1])
    mag_slope_max: float = 5e-5
    phase_slope_max: float = 1e-4
    ks_alpha: float = 0.05

    def validate(self, array: ArraySection) -> None:
        if self.n_subcarriers > self.n_fft:
            raise ConfigError("n_subcarriers cannot exceed n_fft")
        if self.n_subcarriers < KS_MIN_SAMPLES:
            # each antenna's residual over the subcarriers feeds one KS test
            raise ConfigError(f"need at least {KS_MIN_SAMPLES} subcarriers for the KS tests, got {self.n_subcarriers}")
        if self.realizations < 2:
            raise ConfigError("wideband experiment needs at least two realizations")
        _check_db("wideband.n0_db", self.n0_db)
        if len(self.offset_range) != 2 or not (0 < self.offset_range[0] <= self.offset_range[1]):
            raise ConfigError("offset_range must be [lo, hi] with 0 < lo <= hi")
        if self.mag_slope_max < 0 or self.phase_slope_max < 0:
            raise ConfigError("mag_slope_max and phase_slope_max must be >= 0")
        if not (0 < self.ks_alpha < 1):
            raise ConfigError("ks_alpha must lie in (0, 1)")


@dataclass
class CrlbMapSection:
    n0_grid_db: list[float] = field(default_factory=lambda: [-80.0, -60.0, -40.0])

    def validate(self, array: ArraySection) -> None:
        if not self.n0_grid_db:
            raise ConfigError("n0_grid_db must not be empty")
        _check_db("crlb_map.n0_grid_db", *self.n0_grid_db)


@dataclass
class ReducedSetSection:
    n0_db: float = -80.0
    radius: float = 0.7071067811865476

    def validate(self, array: ArraySection) -> None:
        if self.radius <= 0:
            raise ConfigError("radius must be positive")
        _check_db("reduced_set.n0_db", self.n0_db)


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
        _check_db("coupling.sigma2_db", self.coupling.sigma2_db)
        self.array.validate()
        self.frontend.validate()
        self.estimator.validate()
        # only the active experiment's section, named after it, is validated,
        # so defaults for the 4x25 array do not block other experiments on
        # smaller arrays
        getattr(self, self.experiment.replace("-", "_")).validate(self.array)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _matches(value: Any, hint: Any) -> bool:
    """Whether a JSON value fits an annotation: int rejects bool and float, float takes finite numbers, null needs ``| None``."""
    if get_origin(hint) is types.UnionType:
        return any(_matches(value, h) for h in get_args(hint))
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_matches(v, get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        # refuses NaN, Infinity and integers past the float range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def _widen(value: Any, hint: Any) -> Any:
    """A value that fits ``hint``, with JSON integers in float positions made floats."""
    if get_origin(hint) is list:
        return [_widen(v, get_args(hint)[0]) for v in value]
    return float(value) if hint is float else value


def _build(cls, payload: Any, prefix: str = ""):
    """An instance of the dataclass ``cls`` from parsed JSON, its dataclass-typed fields built as sections.

    Every value is checked against its field annotation, and JSON integers
    in float positions are widened, so ``-60`` and ``-60.0`` configure the
    same run, down to the bytes of the CSVs and of the manifest's config echo.
    """
    section = prefix.rstrip(".")
    if not isinstance(payload, dict):
        raise ConfigError(f"section {section!r} must be an object" if section else "configuration root must be a JSON object")
    unknown = set(payload) - {f.name for f in fields(cls)}
    if unknown:
        where = f"keys in section {section!r}" if section else "top-level keys"
        raise ConfigError(f"unknown {where}: {sorted(unknown)}")
    hints = get_type_hints(cls)
    values: dict[str, Any] = {}
    for f in fields(cls):
        if f.name not in payload:
            continue
        value, hint = payload[f.name], hints[f.name]
        if is_dataclass(hint):
            values[f.name] = _build(hint, value, f"{prefix}{f.name}.")
        elif _matches(value, hint):
            values[f.name] = _widen(value, hint)
        else:
            finite = " (finite)" if "float" in f.type else ""
            raise ConfigError(f"{prefix}{f.name} must be {f.type}{finite}, got {value!r}")
    return cls(**values)


def config_from_dict(payload: Any) -> ExperimentConfig:
    """Build, type-check against the field annotations, and validate a config from parsed JSON."""
    cfg = _build(ExperimentConfig, payload)
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
