"""Experiment configuration: the schema, its defaults, and validation.

The dataclass annotations are the schema, and they declare the rules that
repeat across keys: ``Literal`` names, ``Db`` powers (the linear value must
fit a float) and non-empty lists.  ``validate`` widens integers in number
positions to floats and checks the schema on the config object, every
section, then the owned and relational rules of the shared sections and of
the experiment that runs.  It returns what those checks built: the array's
geometry and the running experiment's reduced mask (None where it has no
radius), which the run then uses in place of building them again.  The
checks read the annotations from ``dataclasses.fields``, so this module
keeps them live objects: it does not import ``annotations`` from
``__future__``.

Antenna numbers in configuration files and CSV outputs are 1-based
(row-major over the grid, matching the usual array-hardware numbering);
the library itself indexes antennas from zero.  The loader keeps the
1-based numbers.  They are converted where they are used: the reference
by ``ArraySection.ref_index``, mse-sweep's tracked antennas by
``run_mse_sweep`` (``antenna - 1``), and every runner writes ``m + 1``
into its CSV rows.

All powers and variances given in dB use 10*log10(linear).
"""

import json
import math
import sys
import types
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Literal, NewType, get_args, get_origin

import numpy as np

from .downlink import VARIANTS
from .estimators import REF_ONE, UNIT_NORM, EmSettings
from .geometry import ArrayGeometry, build_geometry, connected_pairs, reduced_mask
from .wideband import ks_critical

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

Db = NewType("Db", float)  # a power in dB whose linear value fits a float: at most about 3082 dB


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


class ConfigError(ValueError):
    """A configuration file failed validation."""


def _owned(keys: str, check: Callable[..., Any], *args: Any) -> Any:
    """``check(*args)``, from the code that owns the values of ``keys``; its refusal becomes a ConfigError led by ``keys``."""
    try:
        return check(*args)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{keys}: {exc}") from exc


def _at_least(key: str, value: float, low: float) -> None:
    if value < low:
        raise ConfigError(f"{key} must be >= {low}, got {value}")


def _connected_mask(key: str, geometry: ArrayGeometry, radius: float) -> np.ndarray:
    """The pairs within ``radius``, checked as the bound checks its mask; refused under ``key``."""
    return _owned(key, connected_pairs, _owned(key, reduced_mask, geometry, radius))


@dataclass
class ArraySection:
    rows: int = 4
    cols: int = 25
    spacing: float = 0.5
    ref: int = 38  # 1-based antenna number

    def validate(self) -> ArrayGeometry:
        geometry = _owned("array.rows, array.cols, array.spacing", build_geometry, self.rows, self.cols, self.spacing)
        if not (1 <= self.ref <= geometry.n_antennas):
            raise ConfigError(f"array.ref must be a reference antenna in 1..{geometry.n_antennas}, got {self.ref}")
        if geometry.n_antennas < 2:
            raise ConfigError(f"array.rows, array.cols must be a grid of at least 2 antennas, got {self.rows}x{self.cols}")
        return geometry

    @property
    def ref_index(self) -> int:
        return self.ref - 1


@dataclass
class CouplingSection:
    co_slope_db: float = -10.0
    co_intercept_db: float = -12.0
    cross_slope_db: float = -10.0
    cross_intercept_db: float = -15.0
    sigma2_db: Db = -60.0


@dataclass
class FrontendSection:
    kind: Literal["deterministic", "random"] = "deterministic"
    spread: float = 0.1

    def validate(self) -> None:
        if not (0 <= self.spread < 1):
            raise ConfigError(f"frontend.spread must be in [0, 1), got {self.spread}")


@dataclass
class EstimatorSection:
    epsilon: float = 0.0
    epsilon_grid: list[float] = field(default_factory=lambda: [0.0, 0.01, 0.1, 1.0])
    delta_ml: float = 1e-6
    max_iter: int | None = None
    gmm_constraint: Literal[GMM_CONSTRAINTS] = REF_ONE

    def validate(self) -> None:
        for key, eps in [("epsilon", self.epsilon)] + [("epsilon_grid", e) for e in self.epsilon_grid]:
            _owned(f"estimator.{key}, estimator.delta_ml, estimator.max_iter", EmSettings, eps, self.delta_ml, self.max_iter)


@dataclass
class MseSweepSection:
    n0_grid_db: list[Db] = field(
        default_factory=lambda: [-100.0, -90.0, -80.0, -70.0, -60.0, -50.0, -45.0, -40.0, -35.0, -30.0]
    )
    antennas: list[int] = field(default_factory=lambda: [1, 39])  # 1-based
    reduced_radius: float = 0.7071067811865476

    def validate(self, array: ArraySection, geometry: ArrayGeometry) -> np.ndarray:
        for a in self.antennas:
            if not (1 <= a <= geometry.n_antennas):
                raise ConfigError(f"mse_sweep.antennas: tracked antenna {a} outside 1..{geometry.n_antennas}")
            if a == array.ref:
                raise ConfigError(f"mse_sweep.antennas: tracked antenna {a} is the reference, whose coefficient is pinned to one")
        return _connected_mask("mse_sweep.reduced_radius", geometry, self.reduced_radius)


@dataclass
class ConvergenceSection:
    n0_db: Db = -40.0
    track_iterations: int = 50

    def validate(self, array: ArraySection, geometry: ArrayGeometry) -> None:
        _at_least("convergence.track_iterations", self.track_iterations, 1)


@dataclass
class CapacitySection:
    n_users: int = 10
    cal_n0_db: Db = -40.0
    dl_noise_db: Db = 0.0  # N_w = 1
    variants: list[Literal[VARIANTS]] = field(default_factory=lambda: list(VARIANTS))
    gmm_constraint: Literal[GMM_CONSTRAINTS] = UNIT_NORM
    reciprocal_users: bool = True

    def validate(self, array: ArraySection, geometry: ArrayGeometry) -> None:
        if not (1 <= self.n_users <= geometry.n_antennas):
            raise ConfigError(f"capacity.n_users must be in 1..{geometry.n_antennas}, got {self.n_users}")


@dataclass
class WidebandSection:
    n_subcarriers: int = 1200
    realizations: int = 20
    n0_db: Db = -80.0
    offset_range: list[float] = field(default_factory=lambda: [0.9, 1.1])
    mag_slope_max: float = 5e-5
    phase_slope_max: float = 1e-4
    ks_alpha: float = 0.05

    def validate(self, array: ArraySection, geometry: ArrayGeometry) -> None:
        # each antenna's residual over the subcarriers feeds one KS test
        _owned("wideband.n_subcarriers, wideband.ks_alpha", ks_critical, self.n_subcarriers, self.ks_alpha)
        _at_least("wideband.realizations", self.realizations, 2)
        if len(self.offset_range) != 2 or not (0 < self.offset_range[0] <= self.offset_range[1]):
            raise ConfigError(f"wideband.offset_range must be [lo, hi] with 0 < lo <= hi, got {self.offset_range}")
        _at_least("wideband.mag_slope_max", self.mag_slope_max, 0)
        _at_least("wideband.phase_slope_max", self.phase_slope_max, 0)
        if self.phase_slope_max >= 0.25:
            # the fit sees slopes relative to the reference, up to twice this
            # bound, and unwrapping folds any slope onto (-1/2, 1/2) cycles
            raise ConfigError(f"wideband.phase_slope_max must be below 0.25 cycles/subcarrier, got {self.phase_slope_max}")


@dataclass
class CrlbMapSection:
    n0_grid_db: list[Db] = field(default_factory=lambda: [-80.0, -60.0, -40.0])

    def validate(self, array: ArraySection, geometry: ArrayGeometry) -> None:
        """Nothing beyond the schema: the grid's rules are all declared by its annotation."""


@dataclass
class ReducedSetSection:
    n0_db: Db = -80.0
    radius: float = 0.7071067811865476

    def validate(self, array: ArraySection, geometry: ArrayGeometry) -> np.ndarray:
        return _connected_mask("reduced_set.radius", geometry, self.radius)


@dataclass
class ExperimentConfig:
    experiment: Literal[EXPERIMENTS] = "mse-sweep"
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

    def validate(self) -> tuple[ArrayGeometry, np.ndarray | None]:
        """Check every rule; the geometry and the running experiment's reduced mask (None without a radius) it built."""
        _check_schema(self)
        _at_least("seed", self.seed, 0)
        _at_least("trials", self.trials, 1)
        _at_least("workers", self.workers, 1)
        geometry = self.array.validate()
        self.frontend.validate()
        self.estimator.validate()
        # only the active experiment's section, named after it, is validated
        # beyond the schema, so defaults for the 4x25 array do not block
        # other experiments on smaller arrays
        return geometry, getattr(self, self.experiment.replace("-", "_")).validate(self.array, geometry)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _matches(value: Any, hint: Any) -> bool:
    """Whether a value fits an annotation: int refuses bool and float, float takes finite floats, null needs ``| None``.

    A ``Literal`` takes only its names, a ``Db`` value must have a finite
    linear value, and a list must be non-empty.
    """
    if get_origin(hint) is types.UnionType:
        return any(_matches(value, h) for h in get_args(hint))
    if get_origin(hint) is Literal:
        return isinstance(value, str) and value in get_args(hint)
    if get_origin(hint) is list:
        return isinstance(value, list) and len(value) > 0 and all(_matches(v, get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is Db:
        try:  # float() so that a numpy value overflows as a Python float does
            return _matches(value, float) and math.isfinite(db_to_linear(float(value)))
        except OverflowError:
            return False
    if hint is float:
        # refuses NaN, Infinity and the integers past the float range that widening left
        return isinstance(value, float) and math.isfinite(value)
    return isinstance(value, hint)


def _describe(hint: Any) -> str:
    """How a refusal names an annotation: in its own notation, with the rules it carries spelled out."""
    if get_origin(hint) is Literal:
        return " | ".join(map(repr, get_args(hint)))
    if get_origin(hint) is list:
        return f"non-empty list[{_describe(get_args(hint)[0])}]"
    if get_origin(hint) is types.UnionType:
        return " | ".join(map(_describe, get_args(hint)))
    if is_dataclass(hint):
        return "an object"
    return {float: "float (finite)", Db: "dB (finite, at most about 3082)", type(None): "None"}.get(hint, hint.__name__)


def _widened(value: Any, hint: Any) -> Any:
    """``value`` with the integers in float or dB positions made floats where they fit: ``-60`` configures as ``-60.0``."""
    if get_origin(hint) is list and isinstance(value, list):
        return [_widened(v, get_args(hint)[0]) for v in value]
    if hint in (float, Db) and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    return value


def _check_schema(obj: Any, prefix: str = "") -> None:
    """Widen each value of the config object ``obj``, refuse the first that does not fit its annotation, led by its key."""
    for f in fields(obj):
        value = _widened(getattr(obj, f.name), f.type)
        if not _matches(value, f.type):
            raise ConfigError(f"{prefix}{f.name} must be {_describe(f.type)}, got {value!r}")
        setattr(obj, f.name, value)
        if is_dataclass(f.type):
            _check_schema(value, f"{prefix}{f.name}.")


def _build(cls, payload: dict[str, Any], prefix: str = ""):
    """The dataclass ``cls`` from a parsed JSON object, its sections built too; only unknown keys are refused here."""
    hints = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(payload) - set(hints))
    if unknown:
        raise ConfigError(f"{', '.join(prefix + key for key in unknown)}: not a key of the schema")
    sections = {name: _build(hints[name], value, f"{prefix}{name}.") for name, value in payload.items()
                if is_dataclass(hints[name]) and isinstance(value, dict)}
    return cls(**{**payload, **sections})


def config_from_dict(payload: Any) -> ExperimentConfig:
    """Build a config from parsed JSON and validate it, schema first."""
    if not isinstance(payload, dict):
        raise ConfigError("configuration root must be a JSON object")
    cfg = _build(ExperimentConfig, payload)
    cfg.validate()
    return cfg


def load_config(path: str | Path, overrides: dict[str, Any] | None = None) -> ExperimentConfig:
    """Load and validate a JSON configuration file; the top-level keys in ``overrides`` replace the file's."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if overrides and isinstance(payload, dict):
        payload = {**payload, **overrides}
    return config_from_dict(payload)
