"""Tests of the benchmark itself: python3 -m pytest perfbench/tests

Every workload runs at a reduced size and must pass its output check; the
self-time arithmetic and the reference comparison are checked on synthetic
inputs.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
from tracing import LAYER_UNITS, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# small enough that one run takes well under a second after imports
REDUCED = {
    "mse-sweep": {"trials": 4, "mse_sweep": {"n0_grid_db": [-80.0], "antennas": [1, 39]}},
    "wideband": {
        "array": {"rows": 2, "cols": 4, "ref": 4},
        "wideband": {"n_subcarriers": 50, "realizations": 2},
    },
    "crlb-map": {"array": {"rows": 2, "cols": 5, "ref": 3}, "crlb_map": {"n0_grid_db": [-60.0, -40.0]}},
}


def _spans(*rows):
    return [Span(name, start, end, parent) for name, start, end, parent in rows]


def test_self_time_subtracts_covered_child_time():
    spans = _spans(
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 8.0, 0),
        ("c", 7.0, 11.0, 0),  # overlaps b and runs past its parent's end
    )
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 5.0, 2.0, 1.0, 3.0, 4.0])


def test_tracer_nests_spans_and_keeps_results_and_errors():
    tracer = Tracer()

    def solve(x):
        if x < 0:
            raise ArithmeticError("negative")
        return x * 2

    traced = tracer.wrap(solve, "solve", lambda span, args, kwargs, result: span.attrs.update(out=result))
    with tracer.span("outer"):
        assert traced(3) == 6
        with pytest.raises(ArithmeticError):
            traced(-1)
    outer, ok, bad = tracer.spans
    assert (outer.parent, ok.parent, bad.parent) == (None, 0, 0)
    assert ok.attrs == {"out": 6} and bad.attrs == {"error": "ArithmeticError"}
    assert all(s.end >= s.start for s in tracer.spans)


def test_layer_metrics_on_a_synthetic_em_trace():
    spans = _spans(
        ("experiments.run_experiment", 0.0, 1.0, None),
        ("estimators.em_calibrate", 0.1, 0.4, 0),
        ("estimators.gmm_unit_norm", 0.1, 0.2, 1),
        ("estimators.em_calibrate", 0.5, 0.9, 0),
        ("estimators.gmm_unit_norm", 0.5, 0.7, 3),
    )
    spans[1].attrs.update(iterations=1, converged=True, m=100)
    spans[3].attrs.update(iterations=3, converged=False, m=100)
    out = layer_metrics(spans, {"pools_opened": 2})
    assert out["experiments.self_s"] == pytest.approx(0.3)
    assert out["experiments.pools_opened"] == 2
    assert out["estimators.em_calibrate.calls"] == 2
    assert out["estimators.em_calibrate.self_s"] == pytest.approx(0.4)
    assert out["estimators.em.iterations"] == 4 and out["estimators.em.iterations_max"] == 3
    assert out["estimators.em.self_ms_per_iter"] == pytest.approx(100.0)
    assert out["estimators.em.nonconverged"] == 1
    assert out["estimators.eigensolves_per_solve"] == 1.0
    assert out["estimators.gmm_unit_norm.p50_ms"] == pytest.approx(150.0)
    assert out["crlb.crlb_coefficients.calls"] == 0


def test_benchmark_json_names_every_reported_metric():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == [w.name for w in WORKLOADS.values() if w.gated]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reduced_workload_completes_and_passes_its_check(name, tmp_path):
    workload = WORKLOADS[name]
    config = copy.deepcopy(workload.experiment_config(DEFAULT_SEED + 100))
    config.update(copy.deepcopy(REDUCED[config["experiment"]]))
    runs = run.measure(workload, config, seconds=0.1, trace=True, run_dir=tmp_path)
    assert [r["problems"] for r in runs] == [[], []]
    layers = run.per_layer(runs)
    assert set(layers) == set(LAYER_UNITS)
    # one pool per grid point of a parallel sweep; wideband ignores workers
    pools = 1 if workload.workers > 1 and config["experiment"] == "mse-sweep" else 0
    assert layers["experiments.pools_opened"] == pools
    e2e = run.end_to_end(workload, config, runs)
    assert e2e["ok_frac"] == 1.0 and e2e["work_per_s"] > 0


def _reference(workload):
    ref_dir = check.REFERENCE_DIR / workload
    config = json.loads((ref_dir / "config.json").read_text())
    return config, {n: check.read_csv(ref_dir / n) for n in check.OUTPUTS[config["experiment"]]}


@pytest.mark.parametrize("workload", ["mse-m100", "wideband-m200", "crlb-m200"])
def test_reference_matches_itself(workload):
    config, tables = _reference(workload)
    assert check.reference_for(config) == check.REFERENCE_DIR / workload
    for name, table in tables.items():
        assert check.compare(name, table, table) == []
    assert check._STRUCTURE[config["experiment"]](config, tables) == []


def test_every_gated_workload_has_a_reference_at_the_default_seed():
    for workload in WORKLOADS.values():
        if workload.gated:
            assert check.reference_for(workload.experiment_config(DEFAULT_SEED)) is not None, workload.name


def test_gmm_in_place_of_em_fails_the_check():
    config, tables = _reference("mse-m100")
    header, rows = tables["mse_sweep.csv"]
    mse = header.index("mse_db")
    wrong = [list(r) for r in rows]
    for em_row, gmm_row in zip(wrong[1::2], rows[0::2]):
        em_row[mse] = gmm_row[mse]
    assert check.compare("mse_sweep.csv", (header, wrong), (header, rows))
    assert check._check_mse(config, {"mse_sweep.csv": (header, wrong)})


def test_noisier_wideband_estimates_fail_the_check():
    _, tables = _reference("wideband-m200")
    header, rows = tables["wideband_spectra.csv"]
    col = header.index("eigenvalue_normalized")
    noisier = [r[:col] + [repr(float(r[col]) * (1.0 if r[col] == "1.0" else 2.3))] for r in rows]
    assert check.compare("wideband_spectra.csv", (header, noisier), (header, rows))


def test_ks_verdict_may_flip_only_near_the_critical_value():
    header = ["antenna", "part", "statistic", "critical", "passed"]
    ref = [["1", "re", "0.10", "0.19", "true"], ["1", "im", "0.185", "0.19", "true"]]
    near = [ref[0], ["1", "im", "0.195", "0.19", "false"]]
    far = [["1", "re", "0.10", "0.19", "false"], ref[1]]
    assert check.compare("wideband_ks.csv", (header, near), (header, ref)) == []
    assert check.compare("wideband_ks.csv", (header, far), (header, ref))


def test_without_the_source_tree_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "mse-m100", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
