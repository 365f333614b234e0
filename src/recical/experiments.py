"""Monte-Carlo experiment runners with reproducible seeding and CSV output.

Every experiment derives one stream per trial from the triple
(master seed, experiment id, trial index) and a shared stream from
(master seed, experiment id) for the draws held fixed across trials
(coupling phases, wideband kernel parameters).  A random front-end draws
from its own child of the shared sequence, so it never reuses the coupling
or kernel draws.

A run opens at most one worker pool.  Every independent unit of work is one
task mapped over it: a (noise point, trial) pair in mse-sweep, an
(epsilon, trial) pair in convergence, a trial in capacity and a realization
in wideband.  Results are reduced in task order and floats are written with
shortest round-trip formatting, so a fixed seed gives byte-identical CSV
files no matter how many workers run.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import EXPERIMENT_IDS, ExperimentConfig, db_to_linear
from .crlb import CrlbInputs, crlb_coefficients
from .downlink import capacity_trial
from .estimators import CalibrationEstimate, EmSettings, em_calibrate, gmm_estimate, score_mse
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


# ---------------------------------------------------------------------------
# worker-pool plumbing: the context is installed once per worker process and
# tasks are mapped in order so the reduction is schedule-independent

_CTX = None


def _init_worker(ctx) -> None:
    global _CTX
    _CTX = ctx


def _run_trials(worker, ctx, tasks: list, workers: int) -> list:
    """``worker`` over ``tasks`` in order: here, or in the run's one pool of at most ``len(tasks)`` workers."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        global _CTX
        _CTX = ctx
        return [worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(ctx,)) as ex:
        chunk = max(1, len(tasks) // (8 * workers))
        return list(ex.map(worker, tasks, chunksize=chunk))


@dataclass
class _TrialContext:
    """What every task of one run shares; ``truths`` holds the wideband realizations."""

    config: ExperimentConfig
    geometry: ArrayGeometry
    model: CouplingModel
    frontend: FrontEnd
    coupling_mean: np.ndarray | None = None
    truths: list[WidebandTruth] | None = None


def _context(config: ExperimentConfig) -> _TrialContext:
    """The set-up, built once per run, with the coupling mean drawn from the shared stream."""
    geom, model, fe = build_setup(config)
    hbar = draw_coupling(geom, model, shared_rng(config.seed, config.experiment))
    return _TrialContext(config, geom, model, fe, hbar)


def _mse_trial(task: tuple[float, int]):
    n0, t = task
    ctx = _CTX
    config = ctx.config
    fe = ctx.frontend
    rng = trial_rng(config.seed, "mse-sweep", t)
    h = draw_channel(ctx.geometry, ctx.model, rng, coupling=ctx.coupling_mean)
    data = sound(h, fe, n0, rng)
    gmm = gmm_estimate(data, config.estimator.gmm_constraint, ref=fe.ref)
    em = em_calibrate(data, _em_settings(config))
    return gmm.c_hat, em.c_hat


def run_mse_sweep(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Per-antenna MSE of both estimators against the bound over a noise grid."""
    ctx = _context(config)
    geom, fe, hbar, sigma2 = ctx.geometry, ctx.frontend, ctx.coupling_mean, ctx.model.sigma2
    c_true = true_coefficients(fe)
    ref = fe.ref
    mask = full_mask(geom.n_antennas)
    rmask = reduced_mask(geom, config.mse_sweep.reduced_radius)
    antennas = [a - 1 for a in config.mse_sweep.antennas]
    n0s = [db_to_linear(n0_db) for n0_db in config.mse_sweep.n0_grid_db]
    # bounds before trials: their large temporaries raise glibc's dynamic
    # mmap threshold, which keeps the trials' M x M temporaries off fresh
    # mmap pages, in the pool's forked workers too (trials first took 6x the
    # minor page faults and 7% longer at M=100)
    bounds = [[crlb_coefficients(CrlbInputs(fe, hbar, sigma2, n0, m)).bound for m in (mask, rmask)] for n0 in n0s]
    trials = config.trials
    tasks = [(n0, t) for n0 in n0s for t in range(trials)]
    all_results = _run_trials(_mse_trial, ctx, tasks, config.workers)

    rows = []
    for i, (n0_db, (bound, bound_r)) in enumerate(zip(config.mse_sweep.n0_grid_db, bounds)):
        results = all_results[i * trials : (i + 1) * trials]
        gmm_estimates = [CalibrationEstimate(g, "gmm", "", ref=ref) for g, _ in results]
        em_estimates = [CalibrationEstimate(e, "em", "", ref=ref) for _, e in results]
        score_g = score_mse(gmm_estimates, c_true, ref)
        score_e = score_mse(em_estimates, c_true, ref)
        for antenna_1b, a in zip(config.mse_sweep.antennas, antennas):
            for method, score in (("gmm", score_g), ("em", score_e)):
                rows.append(
                    (
                        n0_db,
                        antenna_1b,
                        method,
                        _db(score.mse[a]),
                        _db(bound[a]),
                        _db(bound_r[a]),
                        score.trials_used,
                    )
                )
    path = out_dir / "mse_sweep.csv"
    write_csv(path, ["n0_db", "antenna", "method", "mse_db", "crlb_db", "crlb_reduced_db", "trials"], rows)
    return [path]


def _convergence_trial(task: tuple[float, int]):
    eps, t = task
    ctx = _CTX
    config = ctx.config
    rng = trial_rng(config.seed, "convergence", t)
    h = draw_channel(ctx.geometry, ctx.model, rng, coupling=ctx.coupling_mean)
    data = sound(h, ctx.frontend, db_to_linear(config.convergence.n0_db), rng)
    settings = _em_settings(config, epsilon=eps)
    settings.keep_history = True
    est = em_calibrate(data, settings)
    return est.c_hat, est.history.coefficients, est.history.deltas, est.iterations, est.converged


def run_convergence(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Per-iteration MSE and step size of the EM run for each regularization."""
    ctx = _context(config)
    c_true = true_coefficients(ctx.frontend)
    ref = ctx.frontend.ref
    others = np.arange(ctx.geometry.n_antennas) != ref
    track = config.convergence.track_iterations
    trials = config.trials
    tasks = [(eps, t) for eps in config.estimator.epsilon_grid for t in range(trials)]
    all_results = _run_trials(_convergence_trial, ctx, tasks, config.workers)

    rows = []
    for i, eps in enumerate(config.estimator.epsilon_grid):
        results = all_results[i * trials : (i + 1) * trials]
        mse_acc = np.zeros(track)
        delta_acc = np.zeros(track)
        for _, coeffs, deltas, _, _ in results:
            # converged trials hold their final value on later iterations
            per_iter_mse = []
            for c in coeffs[:track]:
                normalized = c / c[ref]
                per_iter_mse.append(float(np.mean(np.abs(c_true[others] - normalized[others]) ** 2)))
            last_mse = per_iter_mse[-1]
            last_delta = deltas[min(len(deltas), track) - 1]
            for i in range(track):
                mse_acc[i] += per_iter_mse[i] if i < len(per_iter_mse) else last_mse
                delta_acc[i] += deltas[i] if i < len(deltas) else last_delta
        n = len(results)
        for i in range(track):
            rows.append((eps, i + 1, _db(mse_acc[i] / n), delta_acc[i] / n))
    path = out_dir / "convergence.csv"
    write_csv(path, ["epsilon", "iteration", "mse_db", "delta"], rows)
    return [path]


def _capacity_trial(t: int):
    ctx = _CTX
    config = ctx.config
    cap = config.capacity
    rng = trial_rng(config.seed, "capacity", t)
    return capacity_trial(
        ctx.geometry,
        ctx.model,
        ctx.frontend,
        db_to_linear(cap.cal_n0_db),
        cap.n_users,
        tuple(cap.variants),
        rng,
        coupling_mean=ctx.coupling_mean,
        em_settings=_em_settings(config),
        gmm_constraint=cap.gmm_constraint,
        dl_noise_var=db_to_linear(cap.dl_noise_db),
        reciprocal_users=cap.reciprocal_users,
    )


def run_capacity(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Sum-rate samples per calibration variant and precoder."""
    results = _run_trials(_capacity_trial, _context(config), list(range(config.trials)), config.workers)
    rows = []
    for variant in config.capacity.variants:
        for precoder in ("zf", "mrt"):
            for t, rates in enumerate(results):
                rows.append((variant, precoder, t, rates[variant][precoder]))
    path = out_dir / "capacity.csv"
    write_csv(path, ["variant", "precoder", "trial", "sum_rate_bits_per_hz"], rows)
    return [path]


def _wideband_realization(r: int) -> np.ndarray:
    ctx = _CTX
    config = ctx.config
    n0 = db_to_linear(config.wideband.n0_db)
    rng = trial_rng(config.seed, "wideband", r)
    return per_subcarrier_estimate(
        ctx.truths[r], ctx.geometry, ctx.model, n0, ctx.frontend.ref, rng, em_settings=_em_settings(config)
    )


def run_wideband(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Subcarrier-process study: PCA spectra, kernel fits, residual KS tests."""
    geom, model, fe = build_setup(config)
    ref = fe.ref
    wb = config.wideband
    grid = OfdmGrid(wb.n_fft, wb.n_subcarriers)
    params = WidebandParams(tuple(wb.offset_range), wb.mag_slope_max, wb.phase_slope_max)
    truths = synth_wideband(geom.n_antennas, grid, params, wb.realizations, shared_rng(config.seed, "wideband"))
    ctx = _TrialContext(config, geom, model, fe, truths=truths)
    estimates = np.stack(_run_trials(_wideband_realization, ctx, list(range(wb.realizations)), config.workers))

    spectra_rows = []
    for m, res in enumerate(pca(estimates)):
        lead = res.eigenvalues[0]
        for i, lam in enumerate(res.eigenvalues[: min(10, res.eigenvalues.size)]):
            spectra_rows.append((m + 1, i + 1, lam / lead))
    spectra = out_dir / "wideband_spectra.csv"
    write_csv(spectra, ["antenna", "component", "eigenvalue_normalized"], spectra_rows)

    record = wideband_record(estimates[0])
    fit_rows = [
        (m + 1, f.offset.real, f.offset.imag, f.mag_slope, f.phase_slope)
        for m, f in enumerate(record.fits)
    ]
    fits = out_dir / "wideband_fits.csv"
    write_csv(fits, ["antenna", "offset_re", "offset_im", "mag_slope", "phase_slope"], fit_rows)

    ks_rows = []
    for m in range(geom.n_antennas):
        if m == ref:
            continue  # the reference row is identically one; its residual is void
        for part, values in (("re", record.residuals[m].real), ("im", record.residuals[m].imag)):
            result = ks_gaussianity(values, wb.ks_alpha)
            ks_rows.append((m + 1, part, result.statistic, result.critical, result.passed))
    ks = out_dir / "wideband_ks.csv"
    write_csv(ks, ["antenna", "part", "statistic", "critical", "passed"], ks_rows)
    return [spectra, fits, ks]


def run_crlb_map(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Per-antenna bound across the noise grid (full measurement set)."""
    ctx = _context(config)
    geom, fe, hbar, sigma2 = ctx.geometry, ctx.frontend, ctx.coupling_mean, ctx.model.sigma2
    mask = full_mask(geom.n_antennas)
    rows = []
    for n0_db in config.crlb_map.n0_grid_db:
        report = crlb_coefficients(CrlbInputs(fe, hbar, sigma2, db_to_linear(n0_db), mask))
        for m in range(geom.n_antennas):
            if m == fe.ref:
                continue
            rows.append((n0_db, m + 1, _db(report.bound[m]), report.fim_condition))
    path = out_dir / "crlb_map.csv"
    write_csv(path, ["n0_db", "antenna", "crlb_db", "fim_condition"], rows)
    return [path]


def run_reduced_set(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Bound inflation when only short-range pairs are measured."""
    ctx = _context(config)
    geom, fe, hbar, sigma2 = ctx.geometry, ctx.frontend, ctx.coupling_mean, ctx.model.sigma2
    n0 = db_to_linear(config.reduced_set.n0_db)
    full = crlb_coefficients(CrlbInputs(fe, hbar, sigma2, n0, full_mask(geom.n_antennas))).bound
    reduced = crlb_coefficients(
        CrlbInputs(fe, hbar, sigma2, n0, reduced_mask(geom, config.reduced_set.radius))
    ).bound
    rows = []
    for m in range(geom.n_antennas):
        if m == fe.ref:
            continue
        rows.append((m + 1, _db(full[m]), _db(reduced[m]), _db(reduced[m]) - _db(full[m])))
    path = out_dir / "reduced_set.csv"
    write_csv(path, ["antenna", "crlb_full_db", "crlb_reduced_db", "delta_db"], rows)
    return [path]


_RUNNERS = {
    "mse-sweep": run_mse_sweep,
    "convergence": run_convergence,
    "capacity": run_capacity,
    "wideband": run_wideband,
    "crlb-map": run_crlb_map,
    "reduced-set": run_reduced_set,
}


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None) -> RunManifest:
    """Run one experiment end to end and write its CSVs plus a manifest."""
    config.validate()
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    outputs = _RUNNERS[config.experiment](config, out)
    wall = time.perf_counter() - start
    manifest = RunManifest(
        experiment=config.experiment,
        config=config.to_dict(),
        version=__version__,
        master_seed=config.seed,
        wall_time_s=wall,
        outputs=[p.name for p in outputs],
        seed_ledger={
            "scheme": SEED_SCHEME,
            "experiment_id": EXPERIMENT_IDS[config.experiment],
            "master_seed": config.seed,
        },
    )
    manifest.write(out)
    for p in outputs:
        if not p.exists() or p.stat().st_size == 0:
            raise RuntimeError(f"output {p} missing or empty after a successful run")
    return manifest
