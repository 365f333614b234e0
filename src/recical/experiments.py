"""Monte-Carlo experiment runners with reproducible seeding and CSV output.

Every experiment derives one stream per trial from the triple
(master seed, experiment id, trial index) and a shared stream from
(master seed, experiment id) for the draws held fixed across trials
(coupling phases, wideband kernel parameters).  A random front-end draws
from its own child of the shared sequence, so it never reuses the coupling
or kernel draws.

Each runner maps a config to its tables, ``{csv name: (header, rows)}``.
:func:`run_experiment` makes the output directory and writes the tables and
the manifest only after the whole computation has succeeded, so a run that
raises leaves nothing behind.

A run opens at most one worker pool, and every task mapped over it is one
trial (a realization, in wideband).  The mse-sweep, convergence and capacity
trials share one sounding step: a trial draws its channel once and covers
all of its noise levels (mse-sweep) or epsilons (convergence), each level
sounded from the stream position right after the channel draw, so it sees
the draws a freshly seeded trial stream would give it alone.  A capacity
trial sounds once, when a calibrating variant asks for it, and then draws
its downlink scenario from the same stream.
Results are reduced in trial order and floats are written with shortest
round-trip formatting, so a fixed seed gives byte-identical CSV files no
matter how many workers run.
"""

from __future__ import annotations

import csv
import ctypes
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import EXPERIMENT_IDS, ExperimentConfig, db_to_linear
from .crlb import CrlbInputs, CrlbReport, crlb_coefficients
from .downlink import EM_VARIANT, GMM_VARIANT, PERFECT, PRECODERS, TRUE_CSI, UNCALIBRATED, draw_scenario, variant_sum_rates
from .estimators import UNIT_NORM, CalibrationEstimate, EmSettings, em_calibrate, gmm_estimate, score_mse
from .frontend import FrontEnd, deterministic_frontend, random_frontend, true_coefficients
from .geometry import ArrayGeometry, CouplingModel, build_geometry, draw_channel, draw_coupling, full_mask, reduced_mask
from .sounding import sound
from .wideband import (
    OfdmGrid,
    WidebandParams,
    WidebandTruth,
    ks_gaussianity,
    pca,
    per_subcarrier_estimate,
    synth_wideband,
    wideband_record,
)

SEED_SCHEME = (
    "numpy SeedSequence((master_seed, experiment_id, trial)); coupling phases and the wideband kernel use "
    "(master_seed, experiment_id); a random front-end uses SeedSequence((master_seed, experiment_id), spawn_key=(0,))"
)


def trial_rng(master_seed: int, experiment: str, trial: int) -> np.random.Generator:
    """Independent stream for one Monte-Carlo trial of one experiment."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, EXPERIMENT_IDS[experiment], trial)))


def shared_rng(master_seed: int, experiment: str) -> np.random.Generator:
    """Stream for the coupling phases or wideband kernel, held fixed across all trials."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, EXPERIMENT_IDS[experiment])))


def frontend_rng(master_seed: int, experiment: str) -> np.random.Generator:
    """Stream for a random front-end: a child of the shared sequence.

    The spawn key is appended after the entropy padded to the pool size, so
    the child's assembled entropy equals that of no
    (master_seed, experiment_id, trial) sequence: it is clear of every trial
    and of the shared stream.
    """
    seq = np.random.SeedSequence((master_seed, EXPERIMENT_IDS[experiment]), spawn_key=(0,))
    return np.random.default_rng(seq)


@dataclass
class RunManifest:
    """Record of one experiment run; written next to the CSV outputs."""

    experiment: str
    config: dict
    version: str
    master_seed: int
    wall_time_s: float
    outputs: list[str]
    seed_ledger: dict = field(default_factory=dict)
    allocator: dict = field(default_factory=dict)

    def write(self, out_dir: Path) -> Path:
        path = out_dir / "manifest.json"
        path.write_text(json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n")
        return path


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with path.open("w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def build_setup(config: ExperimentConfig) -> tuple[ArrayGeometry, CouplingModel, FrontEnd]:
    """Geometry, coupling model, and front-end described by a config."""
    arr = config.array
    geom = build_geometry(arr.rows, arr.cols, arr.spacing)
    cpl = config.coupling
    model = CouplingModel(
        cpl.co_slope_db,
        cpl.co_intercept_db,
        cpl.cross_slope_db,
        cpl.cross_intercept_db,
        db_to_linear(cpl.sigma2_db),
    )
    if config.frontend.kind == "deterministic":
        fe = deterministic_frontend(geom.n_antennas, arr.ref_index)
    else:
        fe = random_frontend(
            geom.n_antennas,
            arr.ref_index,
            config.frontend.spread,
            frontend_rng(config.seed, config.experiment),
        )
    return geom, model, fe


def _em_settings(config: ExperimentConfig, epsilon: float | None = None) -> EmSettings:
    est = config.estimator
    return EmSettings(
        epsilon=est.epsilon if epsilon is None else epsilon,
        delta_ml=est.delta_ml,
        max_iter=est.max_iter,
        ref=config.array.ref_index,
    )


def _db(x: float) -> float:
    return 10.0 * np.log10(x)


# one runner's output: CSV file name -> (header, rows)
Tables = dict[str, tuple[list[str], list[tuple]]]


# glibc's mallopt parameters (malloc.h) and the values the program runs with.
# Left to glibc, the mmap threshold starts at 128 KiB and rises only as large
# blocks are freed, so a large temporary (an M x M complex matrix is 640 KB
# at M=200, the FIM 5 MB) may land on fresh pages, and an estimator's cost
# depends on what ran before it in the process.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
ALLOCATOR_THRESHOLDS = {"mmap_threshold": 64 << 20, "trim_threshold": 256 << 20}


def _mallopt():
    """The C library's ``mallopt``, or None where it has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def set_allocator_thresholds() -> dict:
    """Fix the allocator's mmap and trim thresholds in this process; what was applied.

    Blocks below 64 MiB come from the heap and freed memory stays there up
    to 256 MiB, so temporaries reuse pages already touched.  Where the C
    library has no ``mallopt`` the allocator is left as it is.  No result
    depends on it, only the time and the page faults.
    """
    mallopt = _mallopt()
    if mallopt is None:
        return {"mallopt": "skipped: the C library has no mallopt"}
    status = [mallopt(_M_MMAP_THRESHOLD, ALLOCATOR_THRESHOLDS["mmap_threshold"]),
              mallopt(_M_TRIM_THRESHOLD, ALLOCATOR_THRESHOLDS["trim_threshold"])]
    if status != [1, 1]:
        return {"mallopt": f"failed: returned {status}"}
    return {"mallopt": "applied", **ALLOCATOR_THRESHOLDS}


# ---------------------------------------------------------------------------
# worker-pool plumbing: the context is installed once per worker process and
# tasks are mapped in order so the reduction is schedule-independent

_CTX = None


def _init_worker(ctx) -> None:
    global _CTX
    _CTX = ctx
    set_allocator_thresholds()


def _run_trials(worker, ctx, trials: int) -> list:
    """``worker(t)`` for every trial ``t``, results in trial order.

    Trials run in order here, or in the run's one pool of at most one worker
    per trial (``ctx.config.workers`` at most).
    """
    workers = min(ctx.config.workers, trials)
    if workers <= 1:
        _init_worker(ctx)
        return [worker(t) for t in range(trials)]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(ctx,)) as ex:
        return list(ex.map(worker, range(trials), chunksize=max(1, trials // (8 * workers))))


@dataclass
class _TrialContext:
    """What every task of one run shares; ``truths`` holds the wideband realizations."""

    config: ExperimentConfig
    geometry: ArrayGeometry
    model: CouplingModel
    frontend: FrontEnd
    coupling_mean: np.ndarray | None = None
    truths: list[WidebandTruth] | None = None

    def trial_stream(self, t: int) -> np.random.Generator:
        return trial_rng(self.config.seed, self.config.experiment, t)

    def soundings(self, n0s: list[float], rng: np.random.Generator):
        """A channel drawn from ``rng`` once around the coupling mean, sounded at each noise in ``n0s``.

        Every sounding starts from the stream position right after the
        channel draw, so each one equals a sounding at that noise alone, and
        the last leaves ``rng`` where that sounding alone would.
        """
        h = draw_channel(self.geometry, self.model, rng, coupling=self.coupling_mean)
        after_channel = rng.bit_generator.state
        for n0 in n0s:
            rng.bit_generator.state = after_channel
            yield sound(h, self.frontend, n0, rng)

    def bound(self, n0: float, mask: np.ndarray) -> CrlbReport:
        """The Cramer-Rao bound at noise ``n0`` over the pairs in ``mask``."""
        return crlb_coefficients(CrlbInputs(self.frontend, self.coupling_mean, self.model.sigma2, n0, mask))


def _context(config: ExperimentConfig) -> _TrialContext:
    """The set-up, built once per run, with the coupling mean drawn from the shared stream."""
    geom, model, fe = build_setup(config)
    hbar = draw_coupling(geom, model, shared_rng(config.seed, config.experiment))
    return _TrialContext(config, geom, model, fe, hbar)


def _mse_trial(t: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The GMM and EM estimates of trial ``t`` at every noise point."""
    config = _CTX.config
    settings = _em_settings(config)
    n0s = [db_to_linear(n0_db) for n0_db in config.mse_sweep.n0_grid_db]
    return [
        (gmm_estimate(data, config.estimator.gmm_constraint, ref=_CTX.frontend.ref).c_hat,
         em_calibrate(data, settings).c_hat)
        for data in _CTX.soundings(n0s, _CTX.trial_stream(t))
    ]


def run_mse_sweep(config: ExperimentConfig) -> Tables:
    """Per-antenna MSE of both estimators against the bound over a noise grid."""
    ctx = _context(config)
    geom, fe = ctx.geometry, ctx.frontend
    c_true = true_coefficients(fe)
    ref = fe.ref
    mask = full_mask(geom.n_antennas)
    rmask = reduced_mask(geom, config.mse_sweep.reduced_radius)
    n0s = [db_to_linear(n0_db) for n0_db in config.mse_sweep.n0_grid_db]
    bounds = [[ctx.bound(n0, m).bound for m in (mask, rmask)] for n0 in n0s]
    # per point, the trials' results in trial order
    per_point = zip(*_run_trials(_mse_trial, ctx, config.trials))

    rows = []
    for n0_db, (bound, bound_r), results in zip(config.mse_sweep.n0_grid_db, bounds, per_point):
        score_g = score_mse([CalibrationEstimate(g, "gmm", "", ref=ref) for g, _ in results], c_true, ref)
        score_e = score_mse([CalibrationEstimate(e, "em", "", ref=ref) for _, e in results], c_true, ref)
        for antenna in config.mse_sweep.antennas:
            a = antenna - 1
            for method, score in (("gmm", score_g), ("em", score_e)):
                rows.append(
                    (n0_db, antenna, method, _db(score.mse[a]), _db(bound[a]), _db(bound_r[a]), score.trials_used)
                )
    return {"mse_sweep.csv": (["n0_db", "antenna", "method", "mse_db", "crlb_db", "crlb_reduced_db", "trials"], rows)}


def _convergence_trial(t: int) -> list[np.ndarray]:
    """Per epsilon, rows of EM's per-iteration MSE and step over the tracked iterations.

    Every epsilon runs on the trial's one sounding from one unit-norm GMM
    estimate, the start EM's default init computes; a converged run holds
    its final values.
    """
    ctx = _CTX
    config = ctx.config
    (data,) = ctx.soundings([db_to_linear(config.convergence.n0_db)], ctx.trial_stream(t))
    ref = ctx.frontend.ref
    init = gmm_estimate(data, UNIT_NORM, ref=ref).c_hat
    track = config.convergence.track_iterations
    others = np.arange(ctx.geometry.n_antennas) != ref
    c_others = true_coefficients(ctx.frontend)[others]
    results = []
    for eps in config.estimator.epsilon_grid:
        settings = _em_settings(config, epsilon=eps)
        settings.init = init
        settings.keep_history = True
        history = em_calibrate(data, settings).history
        coeffs = np.array(history.coefficients[:track])
        errors = c_others - coeffs[:, others] / coeffs[:, ref, None]
        # one mean per row: a mean along axis 1 sums in another order
        mse = [np.mean(np.abs(e) ** 2) for e in errors]
        traces = np.stack([mse, history.deltas[:track]])
        results.append(np.pad(traces, ((0, 0), (0, track - traces.shape[1])), mode="edge"))
    return results


def run_convergence(config: ExperimentConfig) -> Tables:
    """Per-iteration MSE and step size of the EM run for each regularization."""
    per_epsilon = zip(*_run_trials(_convergence_trial, _context(config), config.trials))
    rows = []
    for eps, results in zip(config.estimator.epsilon_grid, per_epsilon):
        # summed in trial order, so the bytes do not depend on the schedule
        mse, delta = sum(results) / len(results)
        rows += [(eps, i + 1, _db(m), d) for i, (m, d) in enumerate(zip(mse, delta))]
    return {"convergence.csv": (["epsilon", "iteration", "mse_db", "delta"], rows)}


def _capacity_trial(t: int) -> dict[str, dict[str, float]]:
    """Trial ``t``'s sum rate for every variant and precoder.

    The trial's stream draws the channel and sounds it, only when a
    calibrating variant asks for it, then draws the downlink scenario.  The
    GMM and EM estimates are normalized to the reference before precoding.
    """
    ctx = _CTX
    cap = ctx.config.capacity
    ref = ctx.frontend.ref
    rng = ctx.trial_stream(t)
    c_true = true_coefficients(ctx.frontend)
    # the true-CSI baseline precodes on the downlink channel and ignores its entry
    coefficients = {UNCALIBRATED: np.ones_like(c_true), PERFECT: c_true, TRUE_CSI: c_true}
    if {GMM_VARIANT, EM_VARIANT} & set(cap.variants):
        (data,) = ctx.soundings([db_to_linear(cap.cal_n0_db)], rng)
        estimates = {}
        if GMM_VARIANT in cap.variants:
            estimates[GMM_VARIANT] = gmm_estimate(data, cap.gmm_constraint, ref=ref).c_hat
        if EM_VARIANT in cap.variants:
            estimates[EM_VARIANT] = em_calibrate(data, _em_settings(ctx.config)).c_hat
        coefficients.update({variant: c / c[ref] for variant, c in estimates.items()})
    scenario = draw_scenario(
        ctx.frontend, cap.n_users, rng, noise_var=db_to_linear(cap.dl_noise_db), reciprocal_users=cap.reciprocal_users
    )
    return variant_sum_rates(scenario, {v: coefficients[v] for v in cap.variants})


def run_capacity(config: ExperimentConfig) -> Tables:
    """Sum-rate samples per calibration variant and precoder."""
    cap = config.capacity
    results = _run_trials(_capacity_trial, _context(config), config.trials)
    rows = [
        (variant, precoder, t, rates[variant][precoder])
        for variant in cap.variants
        for precoder in PRECODERS
        for t, rates in enumerate(results)
    ]
    return {"capacity.csv": (["variant", "precoder", "trial", "sum_rate_bits_per_hz"], rows)}


def _wideband_realization(r: int) -> np.ndarray:
    ctx = _CTX
    return per_subcarrier_estimate(
        ctx.truths[r], ctx.geometry, ctx.model, db_to_linear(ctx.config.wideband.n0_db), ctx.frontend.ref,
        ctx.trial_stream(r),
        em_settings=_em_settings(ctx.config),
    )


def run_wideband(config: ExperimentConfig) -> Tables:
    """Subcarrier-process study: PCA spectra, kernel fits, residual KS tests."""
    geom, model, fe = build_setup(config)
    wb = config.wideband
    grid = OfdmGrid(wb.n_fft, wb.n_subcarriers)
    params = WidebandParams(tuple(wb.offset_range), wb.mag_slope_max, wb.phase_slope_max)
    truths = synth_wideband(geom.n_antennas, grid, params, wb.realizations, shared_rng(config.seed, config.experiment))
    ctx = _TrialContext(config, geom, model, fe, truths=truths)
    estimates = np.stack(_run_trials(_wideband_realization, ctx, wb.realizations))

    spectra_rows = [
        (m + 1, i + 1, lam / res.eigenvalues[0])
        for m, res in enumerate(pca(estimates))
        for i, lam in enumerate(res.eigenvalues[: res.components.shape[1]])
    ]
    record = wideband_record(estimates[0])
    fit_rows = [
        (m + 1, f.offset.real, f.offset.imag, f.mag_slope, f.phase_slope)
        for m, f in enumerate(record.fits)
    ]
    ks_rows = []
    for m, residual in enumerate(record.residuals):
        if m == fe.ref:
            continue  # the reference row is identically one; its residual is void
        for part, values in (("re", residual.real), ("im", residual.imag)):
            result = ks_gaussianity(values, wb.ks_alpha)
            ks_rows.append((m + 1, part, result.statistic, result.critical, result.passed))
    return {
        "wideband_spectra.csv": (["antenna", "component", "eigenvalue_normalized"], spectra_rows),
        "wideband_fits.csv": (["antenna", "offset_re", "offset_im", "mag_slope", "phase_slope"], fit_rows),
        "wideband_ks.csv": (["antenna", "part", "statistic", "critical", "passed"], ks_rows),
    }


def run_crlb_map(config: ExperimentConfig) -> Tables:
    """Per-antenna bound across the noise grid (full measurement set)."""
    ctx = _context(config)
    geom, fe = ctx.geometry, ctx.frontend
    mask = full_mask(geom.n_antennas)
    rows = []
    for n0_db in config.crlb_map.n0_grid_db:
        report = ctx.bound(db_to_linear(n0_db), mask)
        for m in range(geom.n_antennas):
            if m == fe.ref:
                continue
            rows.append((n0_db, m + 1, _db(report.bound[m]), report.fim_condition))
    return {"crlb_map.csv": (["n0_db", "antenna", "crlb_db", "fim_condition"], rows)}


def run_reduced_set(config: ExperimentConfig) -> Tables:
    """Bound inflation when only short-range pairs are measured."""
    ctx = _context(config)
    geom, fe = ctx.geometry, ctx.frontend
    n0 = db_to_linear(config.reduced_set.n0_db)
    full = ctx.bound(n0, full_mask(geom.n_antennas)).bound
    reduced = ctx.bound(n0, reduced_mask(geom, config.reduced_set.radius)).bound
    rows = []
    for m in range(geom.n_antennas):
        if m == fe.ref:
            continue
        rows.append((m + 1, _db(full[m]), _db(reduced[m]), _db(reduced[m]) - _db(full[m])))
    return {"reduced_set.csv": (["antenna", "crlb_full_db", "crlb_reduced_db", "delta_db"], rows)}


_RUNNERS = {
    "mse-sweep": run_mse_sweep,
    "convergence": run_convergence,
    "capacity": run_capacity,
    "wideband": run_wideband,
    "crlb-map": run_crlb_map,
    "reduced-set": run_reduced_set,
}


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None) -> RunManifest:
    """Run one experiment end to end, then write its CSVs plus a manifest.

    Nothing is written, not even the output directory, until the whole
    computation has succeeded, so a run that raises leaves nothing behind.
    """
    config.validate()
    out = Path(out_dir if out_dir is not None else config.out_dir)
    start = time.perf_counter()
    allocator = set_allocator_thresholds()
    tables = _RUNNERS[config.experiment](config)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        write_csv(out / name, header, rows)
    manifest = RunManifest(
        experiment=config.experiment,
        config=config.to_dict(),
        version=__version__,
        master_seed=config.seed,
        wall_time_s=time.perf_counter() - start,
        outputs=list(tables),
        seed_ledger={
            "scheme": SEED_SCHEME,
            "experiment_id": EXPERIMENT_IDS[config.experiment],
            "master_seed": config.seed,
        },
        allocator=allocator,
    )
    manifest.write(out)
    return manifest
