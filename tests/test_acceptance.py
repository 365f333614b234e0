"""Acceptance suite: one test per headline requirement, tolerances pinned.

Each test prints a single ``ACCEPTANCE nn <name>: PASS/FAIL`` line with the
measured numbers (run pytest with ``-s`` to see the lines for passing tests)
and then asserts the stated tolerance.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import em_fixed_point_residuals, finite_difference_worst_error, random_crlb_instance

from recical.config import config_from_dict
from recical.crlb import CrlbInputs, crlb_coefficients
from recical.estimators import (
    EmSettings,
    em_calibrate,
    gmm_estimate,
    linear_array_ml,
    score_mse,
)
from recical.experiments import run_capacity
from recical.frontend import deterministic_frontend, random_frontend, true_coefficients
from recical.geometry import (
    CouplingModel,
    build_geometry,
    draw_channel,
    draw_coupling,
    full_mask,
    reduced_mask,
)
from recical.sounding import sound
from recical.wideband import (
    ks_gaussianity,
    per_subcarrier_estimate,
    synth_wideband,
    wideband_fit,
    wideband_record,
)

# the kernel ranges of the wideband config's defaults
KERNEL_RANGES = {"offset_range": (0.9, 1.1), "mag_slope_max": 5e-5, "phase_slope_max": 1e-4}

EDGE = 0        # corner of the 4x25 grid
ADJACENT = 38   # right neighbour of the reference antenna
REF = 37

DEFAULT_COUPLING = CouplingModel(
    co_slope=-10.0, co_intercept=-12.0, cross_slope=-10.0, cross_intercept=-15.0, sigma2=1e-6
)


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def setup():
    geom = build_geometry(4, 25)
    fe = deterministic_frontend(100, REF)
    hbar = draw_coupling(geom, DEFAULT_COUPLING, np.random.default_rng(31))
    return geom, fe, true_coefficients(fe), hbar


def run_estimators(setup, n0, trials, em_epsilon=0.0, seed_tag=0):
    """GMM (reference-pinned) and EM estimates over independent trials."""
    geom, fe, c_true, hbar = setup
    gmm_runs, em_runs = [], []
    for t in range(trials):
        rng = np.random.default_rng((seed_tag, t))
        h = draw_channel(geom, DEFAULT_COUPLING, rng, coupling=hbar)
        data = sound(h, fe, n0, rng)
        gmm_runs.append(gmm_estimate(data, ref=REF))
        em_runs.append(em_calibrate(data, EmSettings(epsilon=em_epsilon, ref=REF)).c_hat)
    c = true_coefficients(fe)
    return score_mse(gmm_runs, c, REF), score_mse(em_runs, c, REF), em_runs


def test_01_crlb_closure(setup):
    geom, fe, c_true, hbar = setup
    n0 = 1e-8
    start = time.perf_counter()
    score_gmm, score_em, _ = run_estimators(setup, n0, trials=1000, seed_tag=80)
    elapsed = time.perf_counter() - start
    bound = crlb_coefficients(CrlbInputs(fe, hbar, DEFAULT_COUPLING.sigma2, n0, full_mask(100))).bound
    gaps = {}
    for method, score in (("gmm", score_gmm), ("em", score_em)):
        for label, antenna in (("edge", EDGE), ("adjacent", ADJACENT)):
            gaps[f"{method}/{label}"] = 10 * np.log10(score.mse[antenna] / bound[antenna])
    ok = all(abs(g) <= 1.0 for g in gaps.values()) and elapsed < 600
    detail = ", ".join(f"{k} {v:+.2f} dB" for k, v in gaps.items()) + f"; {elapsed:.0f}s/1000 trials"
    report(1, "crlb-closure", ok, detail)
    assert elapsed < 600
    for key, gap in gaps.items():
        assert abs(gap) <= 1.0, f"{key} is {gap:+.2f} dB from the bound (limit 1 dB)"


def test_02_em_gain_over_gmm(setup):
    grid_db = (-50.0, -45.0, -40.0, -35.0)
    worst_gain = np.inf
    best_gain = -np.inf
    ordered = True
    for i, n0_db in enumerate(grid_db):
        score_gmm, score_em, _ = run_estimators(setup, 10 ** (n0_db / 10), trials=400, seed_tag=200 + i)
        for antenna in (EDGE, ADJACENT):
            gain = 10 * np.log10(score_gmm.mse[antenna] / score_em.mse[antenna])
            ordered &= score_em.mse[antenna] <= score_gmm.mse[antenna]
            worst_gain = min(worst_gain, gain)
            best_gain = max(best_gain, gain)
    ok = ordered and best_gain >= 5.0
    report(2, "em-gain", ok, f"EM <= GMM everywhere: {ordered}; gains {worst_gain:.1f}..{best_gain:.1f} dB (need peak >= 5)")
    assert ordered
    assert best_gain >= 5.0


def test_03_convergence(setup):
    geom, fe, c_true, hbar = setup
    n0 = 1e-4
    iters = []
    for t in range(201):
        rng = np.random.default_rng((300, t))
        h = draw_channel(geom, DEFAULT_COUPLING, rng, coupling=hbar)
        data = sound(h, fe, n0, rng)
        iters.append(em_calibrate(data, EmSettings(epsilon=0.1, ref=REF)).iterations)
    median_gmm_init = float(np.median(iters))

    medians = {}
    for rows, cols in ((2, 10), (2, 25), (4, 25)):
        m = rows * cols
        g = build_geometry(rows, cols)
        fe_m = deterministic_frontend(m, m // 2)
        hb = draw_coupling(g, DEFAULT_COUPLING, np.random.default_rng(3))
        runs = []
        for t in range(15):
            rng = np.random.default_rng((310, m, t))
            h = draw_channel(g, DEFAULT_COUPLING, rng, coupling=hb)
            data = sound(h, fe_m, n0, rng)
            est = em_calibrate(data, EmSettings(init=np.exp(2j * np.pi * rng.uniform(size=m)), epsilon=0.1))
            runs.append(est.iterations)
        medians[m] = float(np.median(runs))
    linear_growth = medians[50] >= (50 / 20) * medians[20] and medians[100] >= (100 / 20) * medians[20]
    ok = median_gmm_init <= 8 and linear_growth
    report(
        3,
        "convergence",
        ok,
        f"median iterations {median_gmm_init:.0f} (<= 8); random-init medians "
        f"M=20:{medians[20]:.0f} M=50:{medians[50]:.0f} M=100:{medians[100]:.0f}",
    )
    assert median_gmm_init <= 8
    assert linear_growth, f"random-init iteration medians {medians} grow slower than linearly"


def test_04_reduced_set_bound(setup):
    geom, fe, c_true, hbar = setup
    n0 = 1e-8
    full = crlb_coefficients(CrlbInputs(fe, hbar, DEFAULT_COUPLING.sigma2, n0, full_mask(100))).bound
    reduced = crlb_coefficients(
        CrlbInputs(fe, hbar, DEFAULT_COUPLING.sigma2, n0, reduced_mask(geom, 1 / np.sqrt(2)))
    ).bound
    deltas = {
        "adjacent": 10 * np.log10(reduced[ADJACENT] / full[ADJACENT]),
        "edge": 10 * np.log10(reduced[EDGE] / full[EDGE]),
    }
    ok = all(0.5 <= d <= 6.0 for d in deltas.values())
    report(4, "reduced-set-bound", ok, ", ".join(f"{k} +{v:.2f} dB" for k, v in deltas.items()))
    for key, delta in deltas.items():
        assert 0.5 <= delta <= 6.0, f"{key} bound inflation {delta:.2f} dB outside [0.5, 6]"


def chain_data(n, seed):
    rng = np.random.default_rng(seed)
    geom = build_geometry(1, n)
    h = draw_channel(geom, DEFAULT_COUPLING, rng)
    fe = random_frontend(n, 0, 0.2, rng)
    mask = np.zeros((n, n), dtype=bool)
    idx = np.arange(n - 1)
    mask[idx, idx + 1] = True
    mask[idx + 1, idx] = True
    return sound(h, fe, 1e-3, rng, mask=mask)


def test_05_linear_array_oracle():
    worst = 0.0
    for n in (3, 10, 50):
        for instance in range(100):
            data = chain_data(n, seed=(500, n, instance))
            ml = linear_array_ml(data)
            candidates = {
                "gmm-ref": gmm_estimate(data, ref=0),
                "gmm-unit": gmm_estimate(data, constraint="unit-norm"),
                "em": em_calibrate(data, EmSettings(epsilon=0.0)).c_hat,
            }
            for c in candidates.values():
                rel = np.abs(c / c[0] - ml) / np.maximum(np.abs(ml), 1e-12)
                worst = max(worst, rel.max())
    ok = worst < 1e-8
    report(5, "linear-array-oracle", ok, f"worst relative disagreement {worst:.2e} over 300 noisy chains")
    assert worst < 1e-8


def test_06_capacity_ordering():
    # the default 4x25 array, reference 38 and coupling; calibration at
    # N0 = -40 dB, 10 users
    variants = ("uncalibrated", "gmm", "em", "perfect", "true-downlink-csi")
    config = config_from_dict({
        "experiment": "capacity", "seed": 600, "trials": 1000,
        "capacity": {"n_users": 10, "cal_n0_db": -40.0, "variants": list(variants)},
    })
    (_, rows), = run_capacity(config, *config.validate()).values()
    zf = {v: np.array([rate for variant, precoder, _, rate in rows if (variant, precoder) == (v, "zf")])
          for v in variants}
    deciles = np.arange(0.1, 1.0, 0.1)
    q = {v: np.quantile(zf[v], deciles) for v in variants}
    ordered = (
        np.all(q["perfect"] >= q["em"] - 1e-12)
        and np.all(q["em"] >= q["gmm"] - 1e-12)
        and np.all(q["gmm"] >= q["uncalibrated"] - 1e-12)
    )
    median_gap = abs(np.median(zf["perfect"]) - np.median(zf["true-downlink-csi"]))
    ok = ordered and median_gap < 1e-6
    report(
        6,
        "capacity-ordering",
        ok,
        f"ZF decile ordering perfect>=em>=gmm>=uncalibrated: {ordered}; "
        f"perfect vs true-CSI median gap {median_gap:.2e}",
    )
    assert ordered
    assert median_gap < 1e-6


def test_07_fisher_derivative_oracle():
    worst = 0.0
    for instance in range(20):
        m = 3 + (instance % 2)
        inputs = random_crlb_instance(m, seed=700 + instance)
        for n in range(m):
            for j in range(n + 1, m):
                worst = max(worst, finite_difference_worst_error(inputs, n, j))
    ok = worst < 1e-5
    report(7, "fisher-derivatives", ok, f"worst relative error vs central differences {worst:.2e}")
    assert worst < 1e-5


def test_08_em_fixed_point(setup):
    geom, fe, c_true, hbar = setup
    worst = 0.0
    for n0, tag in ((1e-8, 1), (1e-6, 2), (1e-4, 3)):
        rng = np.random.default_rng((800, tag))
        h = draw_channel(geom, DEFAULT_COUPLING, rng, coupling=hbar)
        data = sound(h, fe, n0, rng)
        est = em_calibrate(data, EmSettings(epsilon=0.0, ref=REF, delta_ml=1e-22))
        assert est.converged
        y_norm = np.linalg.norm(np.where(data.pairs, data.matrix, 0))
        psi_res, c_res = em_fixed_point_residuals(data, est, 0.0)
        worst = max(worst, psi_res / y_norm, c_res / y_norm)
    ok = worst < 1e-6
    report(8, "em-fixed-point", ok, f"worst re-substitution residual {worst:.2e} of ||Y||")
    assert worst < 1e-6


def test_09_wideband_averaging():
    rng = np.random.default_rng(900)
    n = 1200
    k = np.arange(n)
    ratios = []
    for _ in range(200):
        offset = (0.9 + 0.2 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        gamma = rng.uniform(-5e-5, 5e-5)
        xi = rng.uniform(-1e-4, 1e-4)
        truth = offset * np.exp((gamma + 2j * np.pi * xi) * k)
        v = 1e-3 * np.mean(np.abs(truth) ** 2)
        noise = np.sqrt(v / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        fit = wideband_fit(truth + noise)
        ratios.append(np.mean(np.abs(noise) ** 2) / np.mean(np.abs(fit.fitted - truth) ** 2))
    gain_db = 10 * np.log10(np.mean(ratios))
    target = 10 * np.log10(n)
    ok = abs(gain_db - target) <= 1.5
    report(9, "wideband-averaging", ok, f"gain {gain_db:.2f} dB vs 10log10({n}) = {target:.2f} dB (+-1.5)")
    assert gain_db == pytest.approx(target, abs=1.5)


def test_10_residual_gaussianity():
    geom = build_geometry(4, 25)
    rng = np.random.default_rng(1000)
    truth = synth_wideband(100, 1200, 1, rng, **KERNEL_RANGES)[0]
    c_hat = per_subcarrier_estimate(truth, geom, DEFAULT_COUPLING, 1e-8, REF, rng)
    record = wideband_record(c_hat)
    passes = 0
    total = 0
    for m in range(100):
        if m == REF:
            continue
        re_ok = ks_gaussianity(record.residuals[m].real).passed
        im_ok = ks_gaussianity(record.residuals[m].imag).passed
        passes += re_ok and im_ok
        total += 1
    fraction = passes / total

    control_rng = np.random.default_rng(1001)
    control_fails = sum(
        not ks_gaussianity(control_rng.uniform(-1, 1, 1200)).passed for _ in range(1000)
    )
    control_rate = control_fails / 1000
    ok = fraction >= 0.9 and control_rate > 0.99
    report(
        10,
        "residual-gaussianity",
        ok,
        f"KS pass {passes}/{total} antennas ({fraction:.0%}); uniform control fails {control_rate:.1%}",
    )
    assert fraction >= 0.9
    assert control_rate > 0.99


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_BLAS_THREADS = 1


def test_11_complexity_contract():
    # The contract is about operation counts, so the timed region runs on a
    # pinned BLAS thread count: at M=100 a threaded eigensolve pays a
    # synchronisation cost that does not grow with M and would hide the cubic
    # growth.  The thread variables only take effect before numpy loads,
    # hence the child process.
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARIABLES, str(PINNED_BLAS_THREADS))}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("complexity_timing.py"))],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    timing = json.loads(proc.stdout)
    gmm, em = timing["gmm_s"], timing["em_s_per_iter"]
    em_ratio = em["200"] / em["100"]
    gmm_ratio = gmm["200"] / gmm["100"]
    ok = 3.0 <= em_ratio <= 6.0 and gmm_ratio > 4.0
    report(
        11,
        "complexity-contract",
        ok,
        f"BLAS threads {PINNED_BLAS_THREADS}, sizes interleaved, "
        f"min of {timing['em_rounds']} EM / {timing['gmm_rounds']} GMM rounds; "
        f"EM per-iteration {em['100'] * 1e3:.3f} -> {em['200'] * 1e3:.3f} ms, "
        f"ratio M=200/M=100 = {em_ratio:.2f} (need [3, 6]); "
        f"unit-norm GMM {gmm['100'] * 1e3:.2f} -> {gmm['200'] * 1e3:.2f} ms, "
        f"ratio {gmm_ratio:.2f} (need > 4, cubic eigensolve)",
    )
    assert 3.0 <= em_ratio <= 6.0
    assert gmm_ratio > 4.0


TINY_RUNS = {
    "mse-sweep": {"trials": 2, "mse_sweep": {"n0_grid_db": [-80.0], "antennas": [1, 39]}},
    "convergence": {"trials": 2, "estimator": {"epsilon_grid": [0.1]}, "convergence": {"track_iterations": 6}},
    "capacity": {"trials": 2},
    "wideband": {
        "array": {"rows": 2, "cols": 4, "ref": 4},
        "wideband": {"n_subcarriers": 64, "realizations": 2},
    },
    "crlb-map": {"array": {"rows": 2, "cols": 5, "ref": 3}, "crlb_map": {"n0_grid_db": [-60.0]}},
    "reduced-set": {"array": {"rows": 2, "cols": 5, "ref": 3}},
}


def test_12_cli_determinism(tmp_path):
    identical = True
    details = []
    for experiment, overrides in TINY_RUNS.items():
        payload = {"experiment": experiment, "seed": 77, **overrides}
        cfg = tmp_path / f"{experiment}.json"
        cfg.write_text(json.dumps(payload))
        outputs = []
        for run in ("x", "y"):
            out = tmp_path / f"{experiment}-{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "recical.cli", experiment, "--config", str(cfg), "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            manifest = json.loads((out / "manifest.json").read_text())
            outputs.append({name: (out / name).read_bytes() for name in manifest["outputs"]})
        same = outputs[0] == outputs[1]
        identical &= same
        details.append(f"{experiment}:{'ok' if same else 'DIFFERS'}")
    report(12, "cli-determinism", identical, "; ".join(details))
    assert identical
