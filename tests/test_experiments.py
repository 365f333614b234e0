"""Configuration, experiment runners, CSV/manifest output, and the CLI."""

import csv
import importlib
import json
import math
import multiprocessing
import re
import subprocess
import sys
import types
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recical import cli, experiments, wideband
from recical import config as config_module
from recical.config import (
    EXPERIMENT_IDS, ArraySection, ConfigError, ConvergenceSection, CrlbMapSection, EstimatorSection,
    ExperimentConfig, config_from_dict, load_config,
)
from recical.estimators import EmSettings
from recical.experiments import run_experiment
from recical.geometry import build_geometry, connected_pairs, draw_channel, reduced_mask
from recical.sounding import sound
from recical.wideband import ks_critical


def tiny_mse_config(out_dir, **overrides):
    payload = {
        "experiment": "mse-sweep",
        "seed": 11,
        "trials": 4,
        "out_dir": str(out_dir),
        "mse_sweep": {"n0_grid_db": [-80.0], "antennas": [1, 39]},
    }
    payload.update(overrides)
    return config_from_dict(payload)


TINY_ARRAY = {"rows": 2, "cols": 5, "ref": 3}
# a wideband run small enough to repeat: 10 antennas, 50 subcarriers (the KS
# test's minimum), three realizations
TINY_WIDEBAND = {"array": TINY_ARRAY, "wideband": {"n_subcarriers": 50, "realizations": 3}}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# configs and CSVs of three bound-computing experiments, written by the
# term-by-term einsum evaluation of the Fisher blocks; the closed form must
# reproduce them
GOLDEN_DIR = Path(__file__).parent / "golden"
# relative tolerance of the columns that carry a bound; every other column
# must match byte for byte
GOLDEN_REL_TOL = {
    "crlb_db": 1e-12,
    "crlb_full_db": 1e-12,
    "crlb_reduced_db": 1e-12,
    "delta_db": 1e-12,
    "fim_condition": 1e-9,
}


class TestConfig:
    def test_defaults_are_valid_for_every_experiment(self):
        for experiment in ("mse-sweep", "convergence", "capacity", "wideband", "crlb-map", "reduced-set"):
            config_from_dict({"experiment": experiment}).validate()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match=r"^typo: not a key of the schema$"):
            config_from_dict({"experiment": "capacity", "typo": 1})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match=r"^array\.colunms: not a key of the schema$"):
            config_from_dict({"array": {"rows": 4, "colunms": 25}})

    def test_reference_bounds_checked(self):
        with pytest.raises(ConfigError, match="reference antenna"):
            config_from_dict({"array": {"rows": 2, "cols": 2, "ref": 5}})

    def test_tracked_antenna_bounds_checked(self):
        with pytest.raises(ConfigError, match="tracked antenna"):
            config_from_dict(
                {"experiment": "mse-sweep", "array": {"rows": 2, "cols": 2, "ref": 1},
                 "mse_sweep": {"antennas": [9]}}
            )

    def test_small_array_fine_for_other_experiments(self):
        cfg = config_from_dict({"experiment": "wideband", "array": {"rows": 2, "cols": 2, "ref": 1}})
        assert cfg.array.rows == 2

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    @pytest.mark.parametrize("payload", [[], None, "mse-sweep"])
    def test_root_must_be_an_object(self, payload):
        with pytest.raises(ConfigError, match="^configuration root must be a JSON object$"):
            config_from_dict(payload)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"seed": -1})

    def test_variant_names_checked(self):
        with pytest.raises(ConfigError, match=r"^capacity\.variants must be .*, got \['dirty-paper'\]$"):
            config_from_dict({"experiment": "capacity", "capacity": {"variants": ["dirty-paper"]}})

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"array": {"rows": "4"}}, "array.rows"),
            ({"array": {"rows": 4.0}}, "array.rows"),
            ({"seed": None}, "seed"),
            ({"trials": 2.5}, "trials"),
            ({"workers": True}, "workers"),
            ({"experiment": 5}, "experiment"),
            ({"estimator": {"epsilon_grid": 0.1}}, "estimator.epsilon_grid"),
            ({"estimator": {"epsilon_grid": [0.1, "1"]}}, "estimator.epsilon_grid"),
            ({"estimator": {"max_iter": 2.0}}, "estimator.max_iter"),
            ({"capacity": {"variants": "gmm"}}, "capacity.variants"),
            ({"capacity": {"reciprocal_users": 1}}, "capacity.reciprocal_users"),
            ({"coupling": {"sigma2_db": None}}, "coupling.sigma2_db"),
            # JSON's NaN and Infinity, and integers past the float range
            ({"capacity": {"dl_noise_db": float("nan")}}, "capacity.dl_noise_db"),
            ({"capacity": {"dl_noise_db": float("inf")}}, "capacity.dl_noise_db"),
            ({"coupling": {"sigma2_db": float("-inf")}}, "coupling.sigma2_db"),
            ({"wideband": {"mag_slope_max": float("nan")}}, "wideband.mag_slope_max"),
            ({"estimator": {"epsilon_grid": [0.1, float("inf")]}}, "estimator.epsilon_grid"),
            ({"array": {"spacing": 10**400}}, "array.spacing"),
            # dB values whose linear value, 10 ** (dB / 10), overflows a float
            ({"coupling": {"sigma2_db": 3100.0}}, "coupling.sigma2_db"),
            ({"mse_sweep": {"n0_grid_db": [-80.0, 3100.0]}}, "mse_sweep.n0_grid_db"),
            ({"experiment": "convergence", "convergence": {"n0_db": 4000}}, "convergence.n0_db"),
            ({"experiment": "capacity", "capacity": {"cal_n0_db": 4000}}, "capacity.cal_n0_db"),
            ({"experiment": "capacity", "capacity": {"dl_noise_db": 1e300}}, "capacity.dl_noise_db"),
            ({"experiment": "wideband", "wideband": {"n0_db": 3083.0}}, "wideband.n0_db"),
            ({"experiment": "crlb-map", "crlb_map": {"n0_grid_db": [5000.0]}}, "crlb_map.n0_grid_db"),
            ({"experiment": "reduced-set", "reduced_set": {"n0_db": 3500.0}}, "reduced_set.n0_db"),
        ],
    )
    def test_wrong_json_type_rejected(self, payload, field):
        with pytest.raises(ConfigError, match=rf"^{field} must be "):
            config_from_dict(payload)

    @pytest.mark.parametrize(
        "payload, key, shown",
        [
            # schema rules: names, non-empty lists, dB values and section
            # objects, checked in every section
            ({"experiment": "urban-macro"}, "experiment", "'urban-macro'"),
            ({"frontend": {"kind": "rand"}}, "frontend.kind", "'rand'"),
            ({"estimator": {"gmm_constraint": "unit"}}, "estimator.gmm_constraint", "'unit'"),
            ({"capacity": {"gmm_constraint": "unit"}}, "capacity.gmm_constraint", "'unit'"),
            ({"estimator": {"epsilon_grid": []}}, "estimator.epsilon_grid", "[]"),
            ({"mse_sweep": {"n0_grid_db": []}}, "mse_sweep.n0_grid_db", "[]"),
            ({"mse_sweep": {"antennas": []}}, "mse_sweep.antennas", "[]"),
            ({"capacity": {"variants": []}}, "capacity.variants", "[]"),
            ({"crlb_map": {"n0_grid_db": []}}, "crlb_map.n0_grid_db", "[]"),
            ({"wideband": {"offset_range": []}}, "wideband.offset_range", "[]"),
            ({"experiment": "capacity", "wideband": {"n0_db": 3083}}, "wideband.n0_db", "3083.0"),
            ({"array": 5}, "array", "5"),
            ({"capacity": ["gmm"]}, "capacity", "['gmm']"),
            # the other rules, of the shared sections and the running experiment's
            ({"seed": -1}, "seed", "-1"),
            ({"trials": 0}, "trials", "0"),
            ({"workers": 0}, "workers", "0"),
            ({"array": {"ref": 101}}, "array.ref", "101"),
            ({"frontend": {"spread": 1.0}}, "frontend.spread", "1.0"),
            ({"experiment": "convergence", "convergence": {"track_iterations": 0}}, "convergence.track_iterations", "0"),
            ({"experiment": "capacity", "capacity": {"n_users": 101}}, "capacity.n_users", "101"),
            ({"experiment": "wideband", "wideband": {"realizations": 1}}, "wideband.realizations", "1"),
            ({"experiment": "wideband", "wideband": {"offset_range": [1.1, 0.9]}}, "wideband.offset_range", "[1.1, 0.9]"),
            ({"experiment": "wideband", "wideband": {"offset_range": [0.9, 1.0, 1.1]}}, "wideband.offset_range",
             "[0.9, 1.0, 1.1]"),
            ({"experiment": "wideband", "wideband": {"mag_slope_max": -1}}, "wideband.mag_slope_max", "-1.0"),
            # one antenna has no pair to sound: refused when loaded, for every experiment
            ({"experiment": "crlb-map", "array": {"rows": 1, "cols": 1, "ref": 1}}, "array.rows, array.cols", "1x1"),
            ({"experiment": "capacity", "array": {"rows": 1, "cols": 1, "ref": 1},
              "capacity": {"n_users": 1, "variants": ["uncalibrated", "perfect"]}}, "array.rows, array.cols", "1x1"),
        ],
    )
    def test_refusal_names_key_and_value(self, payload, key, shown):
        with pytest.raises(ConfigError) as refused:
            config_from_dict(payload)
        message = str(refused.value)
        assert message.startswith(f"{key} must be ") and message.endswith(f", got {shown}"), message

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "workers", "2"),
            ("array", "rows", 4.0),
            ("estimator", "max_iter", 2.5),
            ("frontend", "kind", "rand"),
            ("capacity", "variants", ["gmm", "zero-forcing"]),
            ("coupling", "sigma2_db", 3083.0),
            # numpy's power returns inf where Python's raises
            ("reduced_set", "n0_db", np.float64(4000.0)),
            (None, "estimator", {"epsilon": 0.0}),
        ],
    )
    def test_python_built_config_checked_by_validate(self, tmp_path, section, key, value):
        # a config changed in Python after it was loaded meets the schema
        # that JSON meets, and a run refuses it before any output
        cfg = tiny_mse_config(tmp_path / "out")
        setattr(cfg if section is None else getattr(cfg, section), key, value)
        name = key if section is None else f"{section}.{key}"
        pattern = rf"^{re.escape(name)} must be .*, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=pattern):
            cfg.validate()
        with pytest.raises(ConfigError, match=pattern):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_db_values_within_float_range_accepted(self):
        # the largest whole dB value still converts; a very negative one converts to zero
        cfg = config_from_dict({"coupling": {"sigma2_db": 3082}, "mse_sweep": {"n0_grid_db": [-4000.0, 3082.0]}})
        assert cfg.coupling.sigma2_db == 3082.0

    def test_json_types_that_fit_accepted(self):
        cfg = config_from_dict(
            {"array": {"spacing": 1}, "estimator": {"max_iter": None, "epsilon_grid": [0, 0.5]},
             "capacity": {"reciprocal_users": False}, "mse_sweep": {"reduced_radius": 1.0}}
        )
        assert cfg.array.spacing == 1 and cfg.estimator.max_iter is None
        # integers in float fields are widened, so they echo as floats
        assert type(cfg.array.spacing) is float
        assert [type(e) for e in cfg.estimator.epsilon_grid] == [float, float]

    def test_reference_not_tracked(self):
        # the reference coefficient is pinned to one: it has no error and no bound
        with pytest.raises(ConfigError, match="tracked antenna 3 is the reference"):
            config_from_dict(
                {"experiment": "mse-sweep", "array": TINY_ARRAY, "mse_sweep": {"antennas": [1, 3]}}
            )

    def test_wideband_needs_ks_sample_count(self):
        # each residual KS test runs over the subcarriers; fewer than 50 must
        # fail here, before any EM solve or CSV
        with pytest.raises(ConfigError, match=r"^wideband\.n_subcarriers, .*KS verdict needs at least 50 samples, got 20$"):
            config_from_dict({"experiment": "wideband", "array": TINY_ARRAY, "wideband": {"n_subcarriers": 20}})
        config_from_dict({"experiment": "wideband", **TINY_WIDEBAND})

    def test_wideband_sample_count_beyond_float_range_refused(self):
        with pytest.raises(ConfigError, match=r"^wideband\.n_subcarriers, .*within the float range, got 1000"):
            config_from_dict({"experiment": "wideband", "array": TINY_ARRAY, "wideband": {"n_subcarriers": 10**400}})

    @pytest.mark.parametrize(
        "key, payload, owner",
        [
            ("array.rows", {"array": {"rows": 0}}, lambda: build_geometry(0, 25, 0.5)),
            ("array.cols", {"array": {"cols": -2}}, lambda: build_geometry(4, -2, 0.5)),
            ("array.spacing", {"array": {"spacing": -0.5}}, lambda: build_geometry(4, 25, -0.5)),
            ("estimator.epsilon", {"estimator": {"epsilon": -0.5}}, lambda: EmSettings(-0.5)),
            ("estimator.epsilon_grid", {"estimator": {"epsilon_grid": [0.1, -0.5]}}, lambda: EmSettings(-0.5)),
            ("estimator.delta_ml", {"estimator": {"delta_ml": -1e-3}}, lambda: EmSettings(delta_ml=-1e-3)),
            ("estimator.max_iter", {"estimator": {"max_iter": 0}}, lambda: EmSettings(max_iter=0)),
            ("mse_sweep.reduced_radius", {"mse_sweep": {"reduced_radius": -0.5}},
             lambda: reduced_mask(build_geometry(4, 25), -0.5)),
            ("reduced_set.radius", {"experiment": "reduced-set", "reduced_set": {"radius": -0.5}},
             lambda: reduced_mask(build_geometry(4, 25), -0.5)),
            ("wideband.n_subcarriers", {"experiment": "wideband", "wideband": {"n_subcarriers": 20}},
             lambda: ks_critical(20, 0.05)),
            ("wideband.ks_alpha", {"experiment": "wideband", "wideband": {"ks_alpha": 1.5}},
             lambda: ks_critical(1200, 1.5)),
            # radii that leave no measured pair: the bound's own connectivity check
            ("mse_sweep.reduced_radius", {"array": {"spacing": 1.0}},
             lambda: connected_pairs(reduced_mask(build_geometry(4, 25, 1.0), 0.7071067811865476))),
            ("mse_sweep.reduced_radius", {"mse_sweep": {"reduced_radius": 0.3}},
             lambda: connected_pairs(reduced_mask(build_geometry(4, 25), 0.3))),
            ("reduced_set.radius", {"experiment": "reduced-set", "reduced_set": {"radius": 0.3}},
             lambda: connected_pairs(reduced_mask(build_geometry(4, 25), 0.3))),
        ],
    )
    def test_owner_check_refuses_value(self, key, payload, owner):
        # the config keeps no copy of these checks: the refusal is the owning
        # code's, led by the keys whose values its call received
        with pytest.raises(ConfigError) as refused:
            config_from_dict(payload)
        with pytest.raises(ValueError) as direct:
            owner()
        keys, _, message = str(refused.value).partition(": ")
        assert key in keys.split(", ")
        assert message == str(direct.value)

    def test_wideband_slopes_non_negative(self):
        # a negative bound would reach the kernel draw as an empty uniform range
        for key in ("mag_slope_max", "phase_slope_max"):
            with pytest.raises(ConfigError, match="must be >= 0"):
                config_from_dict({"experiment": "wideband", "array": TINY_ARRAY,
                                  "wideband": {"n_subcarriers": 50, key: -1e-5}})

    @pytest.mark.parametrize("bound", [0.25, 0.45])
    def test_wideband_phase_slope_below_quarter_cycle(self, bound):
        # slopes relative to the reference reach twice the bound, and a
        # relative slope past 1/2 would fold silently in the kernel fit
        with pytest.raises(ConfigError, match="phase_slope_max must be below 0.25"):
            config_from_dict({"experiment": "wideband", "array": TINY_ARRAY,
                              "wideband": {"n_subcarriers": 50, "phase_slope_max": bound}})
        config_from_dict({"experiment": "wideband", "array": TINY_ARRAY,
                          "wideband": {"n_subcarriers": 50, "phase_slope_max": 0.2499}})

    def test_every_experiment_has_a_runner_and_a_section(self):
        # the active section is looked up by the experiment's name
        sections = {f.name for f in fields(ExperimentConfig)}
        assert set(experiments._RUNNERS) == set(EXPERIMENT_IDS)
        for name in EXPERIMENT_IDS:
            assert name.replace("-", "_") in sections, name


class TestRunners:
    def test_mse_sweep_outputs_and_manifest(self, tmp_path):
        cfg = tiny_mse_config(tmp_path / "run")
        manifest = run_experiment(cfg)
        rows = read_csv(tmp_path / "run" / "mse_sweep.csv")
        assert len(rows) == 4  # one N0, two antennas, two methods
        assert set(rows[0]) == {"n0_db", "antenna", "method", "mse_db", "crlb_db", "crlb_reduced_db", "trials"}
        assert {r["method"] for r in rows} == {"gmm", "em"}
        payload = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert payload["experiment"] == "mse-sweep"
        assert payload["outputs"] == ["mse_sweep.csv"]
        assert payload["config"]["seed"] == 11
        assert payload["seed_ledger"]["experiment_id"] == 1
        assert manifest.wall_time_s > 0

    def test_byte_identical_reruns(self, tmp_path):
        cfg1 = tiny_mse_config(tmp_path / "a")
        cfg2 = tiny_mse_config(tmp_path / "b")
        run_experiment(cfg1)
        run_experiment(cfg2)
        assert (tmp_path / "a" / "mse_sweep.csv").read_bytes() == (tmp_path / "b" / "mse_sweep.csv").read_bytes()

    def test_worker_pool_matches_serial_bytes(self, tmp_path):
        # every runner that maps tasks over the pool, one tiny config each
        runs = {
            "mse-sweep": {"trials": 6, "mse_sweep": {"n0_grid_db": [-80.0, -40.0], "antennas": [1, 39]}},
            "convergence": {"trials": 4, "estimator": {"epsilon_grid": [0.0, 0.1]},
                            "convergence": {"track_iterations": 6}},
            "capacity": {"trials": 4, "array": {"rows": 2, "cols": 10, "ref": 3}, "capacity": {"n_users": 4}},
            "wideband": TINY_WIDEBAND,
        }
        for experiment, overrides in runs.items():
            outputs = []
            for workers in (1, 2):
                out = tmp_path / f"{experiment}-{workers}"
                payload = {"experiment": experiment, "seed": 11, "workers": workers, "out_dir": str(out)}
                manifest = run_experiment(config_from_dict({**payload, **overrides}))
                outputs.append({name: (out / name).read_bytes() for name in manifest.outputs})
            assert outputs[0] == outputs[1], experiment

    def test_one_pool_per_run(self, tmp_path, monkeypatch):
        # every trial and every realization is one task of the run's one
        # pool, which never has more workers than tasks
        opened = []

        class CountingPool(experiments.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
        # overrides and the task count of each run
        runs = {
            "mse-sweep": ({"trials": 2, "array": TINY_ARRAY,
                           "mse_sweep": {"n0_grid_db": [-80.0, -40.0], "antennas": [1, 2]}}, 2),
            "convergence": ({"trials": 2, "array": TINY_ARRAY, "estimator": {"epsilon_grid": [0.0, 0.1]},
                             "convergence": {"track_iterations": 3}}, 2),
            "wideband": (TINY_WIDEBAND, 3),
        }
        for experiment, (overrides, tasks) in runs.items():
            for workers in (1, 2, 4):
                opened.clear()
                payload = {"experiment": experiment, "seed": 3, "workers": workers,
                           "out_dir": str(tmp_path / f"{experiment}-{workers}")}
                run_experiment(config_from_dict({**payload, **overrides}))
                assert opened == ([] if workers == 1 else [min(workers, tasks)]), (experiment, workers)

    @pytest.mark.parametrize(
        "experiment", ["crlb-map", "reduced-set", "mse-sweep", "convergence", "capacity", "wideband"]
    )
    def test_matches_golden_csv(self, tmp_path, experiment):
        golden = GOLDEN_DIR / experiment
        payload = json.loads((golden / "config.json").read_text())
        manifest = run_experiment(config_from_dict({**payload, "out_dir": str(tmp_path)}))
        assert sorted(manifest.outputs) == sorted(p.name for p in golden.glob("*.csv"))
        for name in manifest.outputs:
            expected, got = read_csv(golden / name), read_csv(tmp_path / name)
            assert len(got) == len(expected) and list(got[0]) == list(expected[0]), name
            for row, (want, have) in enumerate(zip(expected, got)):
                for column, text in want.items():
                    rel = GOLDEN_REL_TOL.get(column)
                    if rel is None:
                        assert have[column] == text, (name, row, column)
                    else:
                        assert math.isclose(float(have[column]), float(text), rel_tol=rel), (name, row, column)

    def test_failed_run_writes_no_csv(self, tmp_path, monkeypatch):
        # the KS tests run after the spectra and fits are computed; their
        # failure must leave none of the three tables behind
        def fail(*args, **kwargs):
            raise RuntimeError("KS test failed")

        monkeypatch.setattr(experiments, "ks_gaussianity", fail)
        out = tmp_path / "run"
        with pytest.raises(RuntimeError, match="KS test failed"):
            run_experiment(config_from_dict({"experiment": "wideband", "out_dir": str(out), **TINY_WIDEBAND}))
        assert not out.exists()

    def test_bound_failure_while_pool_runs_writes_no_csv(self, tmp_path, monkeypatch):
        # mse-sweep's bounds are computed after the pool has every trial;
        # their failure must still fail the run and leave nothing behind
        def fail(*args, **kwargs):
            raise ValueError("bound failed")

        monkeypatch.setattr(experiments, "crlb_coefficients", fail)
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="bound failed"):
            run_experiment(tiny_mse_config(out, trials=40, workers=2, array=TINY_ARRAY,
                                           mse_sweep={"n0_grid_db": [-80.0], "antennas": [1, 2]}))
        assert not out.exists()

    @settings(max_examples=5)  # each example forks a pool
    @given(
        experiment=st.sampled_from(["mse-sweep", "convergence", "capacity"]),
        trials=st.integers(1, 4),
        points=st.integers(1, 3),
        cols=st.integers(2, 5),
        kind=st.sampled_from(["deterministic", "random"]),
        seed=st.integers(0, 2**16),
    )
    def test_worker_count_keeps_bytes(self, tmp_path, experiment, trials, points, cols, kind, seed):
        """One and two workers write the same bytes for small random mse-sweep, convergence and capacity runs."""
        payload = {
            "experiment": experiment, "seed": seed, "trials": trials, "frontend": {"kind": kind},
            "array": {"rows": 2, "cols": cols, "ref": 1},
            "mse_sweep": {"n0_grid_db": [-80.0, -60.0, -40.0][:points], "antennas": [2]},
            "estimator": {"epsilon_grid": [0.0, 0.01, 0.1][:points]},
            "convergence": {"track_iterations": 5},
            "capacity": {"n_users": points + 1},  # at most 4 users on at least 4 antennas
        }
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"{experiment}-{trials}-{points}-{cols}-{kind}-{seed}-{workers}"
            manifest = run_experiment(config_from_dict({**payload, "workers": workers, "out_dir": str(out)}))
            outputs.append({name: (out / name).read_bytes() for name in manifest.outputs})
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(experiments._mallopt() is None, reason="the C library has no mallopt")
    def test_manifest_records_allocator_thresholds(self, tmp_path):
        run_experiment(tiny_mse_config(tmp_path))
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert payload["allocator"] == {"mallopt": "applied", "mmap_threshold": 64 << 20, "trim_threshold": 256 << 20}

    def test_run_without_mallopt_keeps_bytes(self, tmp_path, monkeypatch):
        run_experiment(tiny_mse_config(tmp_path / "with"))

        def no_libc(name):
            raise OSError("no C library")

        monkeypatch.setattr(experiments.ctypes, "CDLL", no_libc)
        run_experiment(tiny_mse_config(tmp_path / "without"))
        payload = json.loads((tmp_path / "without" / "manifest.json").read_text())
        assert payload["allocator"] == {"mallopt": "skipped: the C library has no mallopt"}
        assert (tmp_path / "with" / "mse_sweep.csv").read_bytes() == (
            tmp_path / "without" / "mse_sweep.csv"
        ).read_bytes()

    def test_refused_mallopt_reported(self, monkeypatch):
        # mallopt returns 0 for a setting it refuses; here the trim threshold
        monkeypatch.setattr(experiments, "_mallopt", lambda: lambda param, value: int(param == experiments._M_MMAP_THRESHOLD))
        assert experiments.set_allocator_thresholds() == {"mallopt": "failed: returned [1, 0]"}

    def test_worker_init_sets_allocator_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(experiments, "_mallopt", lambda: mallopt)
        monkeypatch.setattr(experiments, "_CTX", None)
        experiments._init_worker("context")
        assert experiments._CTX == "context"
        assert calls == [(experiments._M_MMAP_THRESHOLD, 64 << 20), (experiments._M_TRIM_THRESHOLD, 256 << 20)]

    def test_one_worker_run_unbinds_its_context(self, tmp_path):
        # a wideband context holds every realization's truth
        run_experiment(config_from_dict({"experiment": "wideband", "seed": 5, "out_dir": str(tmp_path), **TINY_WIDEBAND}))
        assert experiments._CTX is None

    def test_failed_one_worker_run_unbinds_its_context(self):
        ctx = types.SimpleNamespace(config=types.SimpleNamespace(workers=1))
        seen = []

        def failing_trial(t):
            seen.append(experiments._CTX)
            raise RuntimeError("trial failed")

        with pytest.raises(RuntimeError, match="trial failed"):
            experiments._run_trials(failing_trial, ctx, 3)
        assert seen == [ctx]
        assert experiments._CTX is None

    def test_different_seeds_differ(self, tmp_path):
        run_experiment(tiny_mse_config(tmp_path / "s1", seed=1))
        run_experiment(tiny_mse_config(tmp_path / "s2", seed=2))
        assert (tmp_path / "s1" / "mse_sweep.csv").read_bytes() != (
            tmp_path / "s2" / "mse_sweep.csv"
        ).read_bytes()

    def test_convergence_run(self, tmp_path):
        cfg = config_from_dict(
            {
                "experiment": "convergence",
                "seed": 5,
                "trials": 3,
                "out_dir": str(tmp_path),
                "estimator": {"epsilon_grid": [0.0, 0.1]},
                "convergence": {"track_iterations": 12},
            }
        )
        run_experiment(cfg)
        rows = read_csv(tmp_path / "convergence.csv")
        assert len(rows) == 2 * 12
        assert set(rows[0]) == {"epsilon", "iteration", "mse_db", "delta"}
        # step sizes shrink along each trace
        for eps in ("0.0", "0.1"):
            deltas = [float(r["delta"]) for r in rows if r["epsilon"] == eps]
            assert deltas[-1] < deltas[0]

    def test_capacity_run(self, tmp_path):
        cfg = config_from_dict(
            {"experiment": "capacity", "seed": 5, "trials": 3, "out_dir": str(tmp_path)}
        )
        run_experiment(cfg)
        rows = read_csv(tmp_path / "capacity.csv")
        assert len(rows) == 5 * 2 * 3  # variants x precoders x trials
        variants = {r["variant"] for r in rows}
        assert variants == {"uncalibrated", "gmm", "em", "perfect", "true-downlink-csi"}

    def test_capacity_rates_do_not_depend_on_other_variants(self, tmp_path):
        # every trial sounds, so the downlink scenario comes from the same
        # stream position whether or not a calibrating variant is listed
        shared = ["uncalibrated", "perfect", "true-downlink-csi"]
        rates = []
        for name, variants in (("all", ["uncalibrated", "gmm", "em", "perfect", "true-downlink-csi"]), ("shared", shared)):
            cfg = config_from_dict(
                {"experiment": "capacity", "seed": 5, "trials": 3, "out_dir": str(tmp_path / name),
                 "array": TINY_ARRAY, "capacity": {"n_users": 3, "variants": variants}}
            )
            run_experiment(cfg)
            rates.append([r for r in read_csv(tmp_path / name / "capacity.csv") if r["variant"] in shared])
        assert len(rates[1]) == 3 * 2 * 3  # variants x precoders x trials
        assert rates[0] == rates[1]

    def test_wideband_run(self, tmp_path):
        cfg = config_from_dict(
            {
                "experiment": "wideband",
                "seed": 5,
                "trials": 1,
                "out_dir": str(tmp_path),
                "array": {"rows": 2, "cols": 4, "ref": 4},
                "wideband": {"n_subcarriers": 64, "realizations": 3},
            }
        )
        manifest = run_experiment(cfg)
        assert sorted(manifest.outputs) == ["wideband_fits.csv", "wideband_ks.csv", "wideband_spectra.csv"]
        ks_rows = read_csv(tmp_path / "wideband_ks.csv")
        # the reference antenna is skipped: its residual is identically zero
        assert {r["antenna"] for r in ks_rows} == {str(a) for a in range(1, 9) if a != 4}
        spectra = read_csv(tmp_path / "wideband_spectra.csv")
        assert max(int(r["component"]) for r in spectra) <= 10

    def test_wideband_reads_no_frontend_from_config(self, tmp_path):
        # each subcarrier's front-end realizes a column of the synthesized
        # truths; the run's front-end gives only its reference index
        outputs = []
        for kind in ("deterministic", "random"):
            cfg = config_from_dict(
                {"experiment": "wideband", "seed": 3, "out_dir": str(tmp_path / kind),
                 "array": {"rows": 2, "cols": 4, "ref": 4}, "frontend": {"kind": kind, "spread": 0.5},
                 "wideband": {"n_subcarriers": 64, "realizations": 2}}
            )
            manifest = run_experiment(cfg)
            outputs.append({name: (tmp_path / kind / name).read_bytes() for name in manifest.outputs})
        assert outputs[0] == outputs[1]

    def test_wideband_fits_use_the_estimator_epsilon(self, tmp_path):
        # each subcarrier's EM runs under the run's estimator settings, so a
        # penalty moves the kernel fits
        fits = []
        for eps in (0.0, 0.5):
            out = tmp_path / str(eps)
            cfg = config_from_dict(
                {"experiment": "wideband", "seed": 3, "out_dir": str(out), "estimator": {"epsilon": eps}, **TINY_WIDEBAND}
            )
            run_experiment(cfg)
            fits.append(read_csv(out / "wideband_fits.csv"))
        assert len(fits[0]) == len(fits[1]) == 10
        assert fits[0] != fits[1]

    def test_every_em_run_gets_the_estimator_settings(self, tmp_path, monkeypatch):
        # every EM call of every runner sees the run's estimator settings;
        # convergence runs each grid epsilon in turn in their place
        seen = []

        def record(owner, name):
            original = getattr(owner, name)

            def recorded(data, em_settings):
                seen.append(em_settings)
                return original(data, em_settings)

            monkeypatch.setattr(owner, name, recorded)

        record(experiments, "em_calibrate")
        record(experiments, "em_iterates")
        record(wideband, "em_calibrate")
        estimator = {"epsilon": 0.2, "delta_ml": 1e-5, "max_iter": 7, "epsilon_grid": [0.0, 0.3]}
        runs = {  # overrides, and the epsilon of each EM call in order
            "mse-sweep": ({"trials": 2, "mse_sweep": {"n0_grid_db": [-60.0, -40.0], "antennas": [1, 2]}}, [0.2] * 4),
            "convergence": ({"trials": 2, "convergence": {"track_iterations": 3}}, [0.0, 0.3] * 2),
            "capacity": ({"trials": 2, "capacity": {"n_users": 2}}, [0.2] * 2),
            "wideband": ({"wideband": TINY_WIDEBAND["wideband"]}, [0.2] * 3 * 50),
        }
        for experiment, (overrides, epsilons) in runs.items():
            seen.clear()
            payload = {"experiment": experiment, "seed": 3, "workers": 1, "array": TINY_ARRAY, "estimator": estimator,
                       "out_dir": str(tmp_path / experiment), **overrides}
            run_experiment(config_from_dict(payload))
            assert [s.epsilon for s in seen] == epsilons, experiment
            for s in seen:
                assert (s.delta_ml, s.max_iter, s.ref, s.init) == (1e-5, 7, TINY_ARRAY["ref"] - 1, None), experiment

    def test_crlb_map_and_reduced_set(self, tmp_path):
        cfg = config_from_dict(
            {"experiment": "crlb-map", "seed": 5, "out_dir": str(tmp_path / "map"),
             "array": {"rows": 2, "cols": 5, "ref": 3}, "crlb_map": {"n0_grid_db": [-80.0, -60.0]}}
        )
        run_experiment(cfg)
        rows = read_csv(tmp_path / "map" / "crlb_map.csv")
        assert len(rows) == 2 * 9  # two noise levels, nine non-reference antennas
        cfg2 = config_from_dict(
            {"experiment": "reduced-set", "seed": 5, "out_dir": str(tmp_path / "red"),
             "array": {"rows": 2, "cols": 5, "ref": 3}}
        )
        run_experiment(cfg2)
        rows = read_csv(tmp_path / "red" / "reduced_set.csv")
        assert len(rows) == 9
        for r in rows:
            assert float(r["delta_db"]) == pytest.approx(
                float(r["crlb_reduced_db"]) - float(r["crlb_full_db"]), abs=1e-9
            )
            assert float(r["delta_db"]) >= -1e-9

    @pytest.mark.parametrize("experiment", list(EXPERIMENT_IDS))
    def test_one_setup_per_validation(self, tmp_path, monkeypatch, capsys, experiment):
        # a validation builds the geometry once and each radius's mask once,
        # and the run uses what its validation built in place of building them again
        overrides = {
            "mse-sweep": {"trials": 2, "mse_sweep": {"n0_grid_db": [-60.0], "antennas": [1, 2]}},
            "convergence": {"trials": 1, "estimator": {"epsilon_grid": [0.1]}, "convergence": {"track_iterations": 3}},
            "capacity": {"trials": 1, "capacity": {"n_users": 2}},
            "wideband": TINY_WIDEBAND,
            "crlb-map": {"crlb_map": {"n0_grid_db": [-60.0]}},
            "reduced-set": {},
        }[experiment]
        radii = int(experiment in ("mse-sweep", "reduced-set"))
        calls = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for name in ("build_geometry", "reduced_mask", "connected_pairs"):
            count(config_module, name)
        count(ExperimentConfig, "validate")
        assert not hasattr(experiments, "reduced_mask") and not hasattr(experiments, "build_geometry")
        once = Counter(validate=1, build_geometry=1, reduced_mask=radii, connected_pairs=radii)

        payload = {"experiment": experiment, "seed": 3, "array": TINY_ARRAY, **overrides}
        cfg = config_from_dict({**payload, "out_dir": str(tmp_path / "library")})
        assert calls == once
        calls.clear()
        run_experiment(cfg)
        assert calls == once
        calls.clear()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        # the CLI's config_from_dict refuses a payload, run_experiment a config built in Python
        assert cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "cli")]) == 0, capsys.readouterr().err
        assert calls == once + once

    @pytest.mark.parametrize(
        "method", [method for method in ("spawn", "forkserver") if method in multiprocessing.get_all_start_methods()]
    )
    def test_start_method_keeps_bytes(self, tmp_path, method):
        # pool workers started afresh get the run's context pickled; a pooled
        # golden run in a child under that start method writes the bytes of a
        # one-worker run in this process
        payload = json.loads((GOLDEN_DIR / "mse-sweep" / "config.json").read_text())
        serial, pooled = tmp_path / "serial", tmp_path / method
        run_experiment(config_from_dict({**payload, "workers": 1, "out_dir": str(serial)}))
        child = (
            "import json, multiprocessing, sys\n"
            "from recical.config import config_from_dict\n"
            "from recical.experiments import run_experiment\n"
            "multiprocessing.set_start_method(sys.argv[1], force=True)\n"
            "run_experiment(config_from_dict(json.loads(sys.argv[2])))\n"
        )
        config = json.dumps({**payload, "workers": 2, "out_dir": str(pooled)})
        result = subprocess.run([sys.executable, "-c", child, method, config], capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert (pooled / "mse_sweep.csv").read_bytes() == (serial / "mse_sweep.csv").read_bytes()

    @pytest.mark.parametrize(
        "experiment, csv_name, section, key, make_section",
        [
            ("crlb-map", "crlb_map.csv", "crlb_map", "n0_grid_db", lambda: CrlbMapSection(n0_grid_db=[-60])),
            ("convergence", "convergence.csv", "estimator", "epsilon_grid",
             lambda: EstimatorSection(epsilon_grid=[0, 0.1])),
        ],
        ids=["crlb-map", "convergence"],
    )
    def test_integers_configure_as_floats_however_built(self, tmp_path, experiment, csv_name, section, key, make_section):
        # an integer in a number key configures the run its float does, read
        # from JSON or set in Python: same CSV bytes, same config echo
        built = make_section()  # validate() writes the widened floats back into it
        common = {"experiment": experiment, "seed": 5, "trials": 2}
        grid = getattr(built, key)
        configs = [
            config_from_dict({**common, "array": TINY_ARRAY, "convergence": {"track_iterations": 4}, section: {key: g}})
            for g in (grid, [float(v) for v in grid])
        ]
        configs.append(ExperimentConfig(**common, array=ArraySection(**TINY_ARRAY),
                                        convergence=ConvergenceSection(track_iterations=4), **{section: built}))
        outputs = []
        for i, cfg in enumerate(configs):
            out = tmp_path / str(i)
            run_experiment(cfg, out)
            echo = json.loads((out / "manifest.json").read_text())["config"]
            outputs.append(((out / csv_name).read_bytes(), json.dumps(echo, sort_keys=True)))
        assert outputs[0] == outputs[1] == outputs[2]


class TestSeeding:
    def test_random_frontend_shares_no_draw(self, tmp_path, monkeypatch):
        """The random front-end's stream overlaps no other stream of its run.

        Every generator handed to the front-end, the coupling draw, the
        wideband kernel and the trials is recorded as it starts; the first
        draws of the front-end's stream must appear in none of the others.
        """
        starts = {}

        def record(role, rng):
            starts.setdefault(role, []).append(dict(rng.bit_generator.state))

        def takes_rng(role, fn, position):
            def wrapper(*args, **kwargs):
                record(role, args[position])  # before the call draws from it
                return fn(*args, **kwargs)
            return wrapper

        def makes_rng(fn):
            def wrapper(*args):
                rng = fn(*args)
                record("trials", rng)
                return rng
            return wrapper

        monkeypatch.setattr(experiments, "random_frontend", takes_rng("frontend", experiments.random_frontend, 3))
        monkeypatch.setattr(experiments, "draw_coupling", takes_rng("coupling", experiments.draw_coupling, 2))
        monkeypatch.setattr(experiments, "synth_wideband", takes_rng("kernel", experiments.synth_wideband, 3))
        monkeypatch.setattr(experiments, "trial_rng", makes_rng(experiments.trial_rng))

        def first_draws(state, n=2048):
            bits = np.random.PCG64()
            bits.state = state
            return set(bits.random_raw(n).tolist())

        runs = {
            "mse-sweep": {"trials": 2, "mse_sweep": {"n0_grid_db": [-60.0], "antennas": [1, 2]}},
            "convergence": {"trials": 2, "estimator": {"epsilon_grid": [0.1]}, "convergence": {"track_iterations": 3}},
            "capacity": {"trials": 2, "capacity": {"n_users": 2}},
            "wideband": {"wideband": {"n_subcarriers": 50, "realizations": 2}},
            "crlb-map": {"crlb_map": {"n0_grid_db": [-60.0]}},
            "reduced-set": {},
        }
        for seed in (0, 5, 77):
            for experiment, overrides in runs.items():
                starts.clear()
                payload = {"experiment": experiment, "seed": seed, "array": TINY_ARRAY,
                           "frontend": {"kind": "random"}, "out_dir": str(tmp_path / experiment)}
                run_experiment(config_from_dict({**payload, **overrides}))
                (frontend,) = starts.pop("frontend")
                assert starts, experiment
                drawn = first_draws(frontend)
                for role, states in starts.items():
                    for state in states:
                        assert not drawn & first_draws(state), (seed, experiment, role)

    @given(
        cols=st.integers(2, 4),
        levels_db=st.lists(st.integers(-100, -30), min_size=1, max_size=4),
        spread=st.sampled_from([0.0, 0.1, 0.5]),
        trial=st.integers(0, 5),
        seed=st.integers(0, 2**16),
    )
    def test_trial_soundings_match_fresh_streams(self, cols, levels_db, spread, trial, seed):
        """A trial draws its channel once, yet each level's sounding is the one a freshly seeded trial stream gives."""
        config = config_from_dict({"experiment": "convergence", "seed": seed,
                                   "array": {"rows": 2, "cols": cols, "ref": 1},
                                   "frontend": {"kind": "random", "spread": spread}})
        ctx = experiments._context(config, config.validate()[0])
        n0s = [10.0 ** (db / 10.0) for db in levels_db]
        stream = ctx.trial_stream(trial)
        for n0, data in zip(n0s, ctx.soundings(n0s, stream), strict=True):
            rng = experiments.trial_rng(seed, "convergence", trial)
            h = draw_channel(ctx.geometry, ctx.model, rng, coupling=ctx.coupling_mean)
            fresh = sound(h, ctx.frontend, n0, rng)
            assert data.matrix.tobytes() == fresh.matrix.tobytes()
        # later draws of the trial continue where the last level's sounding alone leaves off
        assert stream.bit_generator.state == rng.bit_generator.state


class TestCli:
    def run_cli(self, *args):
        """``recical ARGS`` in a fresh interpreter, through the module's entry point."""
        return subprocess.run(
            [sys.executable, "-m", "recical.cli", *args],
            capture_output=True,
            text=True,
        )

    @staticmethod
    def run_main(capsys, *args):
        """``recical ARGS`` in this process: its exit code and what it printed, as ``run_cli`` reports them."""
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        return types.SimpleNamespace(returncode=code, stdout=out, stderr=err)

    def test_experiment_runs_and_reports(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 3, "trials": 2,
            "mse_sweep": {"n0_grid_db": [-80.0], "antennas": [1, 39]},
        }))
        out = tmp_path / "out"
        result = self.run_main(capsys, "mse-sweep", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert (out / "mse_sweep.csv").exists()
        assert (out / "manifest.json").exists()
        assert "mse_sweep.csv" in result.stdout
        assert result.stdout.rstrip().endswith("(seed 3, 2 trials)")

    def test_bound_only_run_reports_no_trials(self, tmp_path, capsys):
        # crlb-map draws only the coupling phases; config.trials plays no part
        out = tmp_path / "out"
        result = self.run_main(capsys, "crlb-map", "--trials", "7", "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert result.stdout.rstrip().endswith("(seed 12345)")

    def test_wideband_run_reports_realizations(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"array": TINY_ARRAY, "wideband": {"n_subcarriers": 50, "realizations": 2}}))
        out = tmp_path / "out"
        result = self.run_main(capsys, "wideband", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert result.stdout.rstrip().endswith("(seed 12345, 2 realizations)")

    def test_overrides_applied(self, tmp_path, capsys):
        out = tmp_path / "o"
        result = self.run_main(capsys, "reduced-set", "--seed", "9", "--out", str(out))
        assert result.returncode == 0, result.stderr
        payload = json.loads((out / "manifest.json").read_text())
        assert payload["master_seed"] == 9

    @pytest.mark.parametrize(
        "experiment, text, args, error",
        [
            ("capacity", json.dumps({"trials": 0}), [], "trials must be >= 1, got 0"),
            # a value refused by the library's own check
            ("mse-sweep", json.dumps({"array": {"spacing": -0.5}}), [],
             "array.rows, array.cols, array.spacing: spacing must be positive, got -0.5"),
            ("mse-sweep", json.dumps({"array": {"rows": "4"}}), [], "array.rows must be int, got '4'"),
            # Python's json reads the literal NaN; the config must refuse it
            ("capacity", '{"capacity": {"dl_noise_db": NaN}}', [],
             "capacity.dl_noise_db must be dB (finite, at most about 3082), got nan"),
            # 10 ** (dB / 10) overflows
            ("capacity", json.dumps({"capacity": {"cal_n0_db": 4000}}), [],
             "capacity.cal_n0_db must be dB (finite, at most about 3082), got 4000.0"),
            ("mse-sweep", json.dumps({"mse_sweep": {"n0_grid_db": [3100.0]}}), [],
             "mse_sweep.n0_grid_db must be non-empty list[dB (finite, at most about 3082)], got [3100.0]"),
            ("wideband", json.dumps({"array": TINY_ARRAY, "wideband": {"n_subcarriers": 50, "phase_slope_max": 0.45}}),
             [], "wideband.phase_slope_max must be below 0.25 cycles/subcarrier, got 0.45"),
            ("wideband", json.dumps({"array": TINY_ARRAY, "wideband": {"n_subcarriers": 64, "n_fft": 128}}), [],
             "wideband.n_fft: not a key of the schema"),
            ("wideband", json.dumps({"array": TINY_ARRAY, "wideband": {"n_subcarriers": 10**400}}), [],
             "wideband.n_subcarriers, wideband.ks_alpha: KS verdict needs a sample count within the float range, "
             f"got {10**400}"),
            # the default radius leaves no measured pair at this spacing:
            # refused before the pool starts a trial
            ("mse-sweep", json.dumps({"array": {"spacing": 1.0}}), ["--workers", "2"],
             "mse_sweep.reduced_radius: mask contains no bidirectionally measured pair"),
            # refused command-line overrides
            ("mse-sweep", json.dumps({}), ["--workers", "0"], "workers must be >= 1, got 0"),
            ("crlb-map", json.dumps({}), ["--seed", "-1"], "seed must be >= 0, got -1"),
        ],
        ids=["trials", "owner-refusal", "wrong-json-type", "non-finite", "huge-db", "huge-db-list", "folding-phase-slope",
             "removed-n-fft", "sample-count-past-float-range", "radius-without-pairs", "workers-override", "seed-override"],
    )
    def test_refusal_gives_one_line_error_json(self, tmp_path, capsys, experiment, text, args, error):
        # every refusal is one line of JSON led by its key, and no output directory is made
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert cli.main([experiment, "--config", str(cfg), "--out", str(out), *args]) == 1
        stderr = capsys.readouterr().err
        assert len(stderr.splitlines()) == 1
        assert json.loads(stderr) == {"error": error, "type": "ConfigError"}
        assert not out.exists()

    def test_integer_and_float_json_write_same_bytes(self, tmp_path, capsys):
        # -60 and -60.0 configure the same run: same CSV bytes, same config echo
        out = tmp_path / "out"
        outputs = []
        for grid in ([-60], [-60.0]):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(
                {"experiment": "crlb-map", "array": {"rows": 2, "cols": 5, "ref": 3}, "crlb_map": {"n0_grid_db": grid}}
            ))
            result = self.run_main(capsys, "crlb-map", "--config", str(cfg), "--out", str(out))
            assert result.returncode == 0, result.stderr
            echo = json.loads((out / "manifest.json").read_text())["config"]
            outputs.append(((out / "crlb_map.csv").read_bytes(), json.dumps(echo, sort_keys=True)))
        assert outputs[0] == outputs[1]

    def test_positional_experiment_validates_the_file(self, tmp_path, capsys):
        # the file names no experiment; it must be checked as crlb-map, which
        # tracks no antenna, not as the default mse-sweep
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"array": {"rows": 2, "cols": 5, "ref": 3}}))
        out = tmp_path / "out"
        result = self.run_main(capsys, "crlb-map", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert json.loads((out / "manifest.json").read_text())["experiment"] == "crlb-map"

    def test_os_errors_give_error_json(self, tmp_path, capsys):
        # a directory as --config, an existing file as --out
        taken = tmp_path / "taken"
        taken.write_text("")
        for args, error in ((["--config", str(tmp_path)], "IsADirectoryError"), (["--out", str(taken)], "FileExistsError")):
            result = self.run_main(capsys, "reduced-set", *args)
            assert result.returncode == 1, args
            assert json.loads(result.stderr)["type"] == error

    def test_unknown_experiment_rejected(self):
        result = self.run_cli("urban-macro")
        assert result.returncode == 2
        assert "invalid choice" in result.stderr

    def test_cli_reruns_byte_identical(self, tmp_path):
        args = ["reduced-set", "--seed", "4"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_cli(*args, "--out", str(a)).returncode == 0
        assert self.run_cli(*args, "--out", str(b)).returncode == 0
        assert (a / "reduced_set.csv").read_bytes() == (b / "reduced_set.csv").read_bytes()


class TestBenchmarkTracing:
    @staticmethod
    def load_tracing(monkeypatch):
        # the benchmark's tracing wraps names where they are looked up; its
        # source is read and run here, nothing under perfbench/ is written
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        tracing = types.ModuleType("perfbench_tracing")
        monkeypatch.setitem(sys.modules, tracing.__name__, tracing)
        exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
        return tracing

    def test_traced_names_exist(self, monkeypatch):
        tracing = self.load_tracing(monkeypatch)
        assert tracing._SITES
        missing = [
            f"recical.{module}.{attr}"
            for module, attr in tracing._SITES
            if not hasattr(importlib.import_module(f"recical.{module}"), attr)
        ]
        assert missing == []

    def test_hooks_read_what_the_calls_give(self, tmp_path, monkeypatch):
        # the hooks read EM's result and sounding, the bound's mask and the
        # score's exclusions; one traced one-worker run of every experiment
        # must record each span with its attributes
        tracing = self.load_tracing(monkeypatch)
        for module, attr in tracing._SITES:
            mod = importlib.import_module(f"recical.{module}")
            monkeypatch.setattr(mod, attr, getattr(mod, attr))  # undone after the test
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", experiments.ProcessPoolExecutor)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        runs = {
            "mse-sweep": {"trials": 2, "mse_sweep": {"n0_grid_db": [-60.0], "antennas": [1, 2]}},
            "convergence": {"trials": 1, "estimator": {"epsilon_grid": [0.0]}, "convergence": {"track_iterations": 3}},
            "capacity": {"trials": 1, "capacity": {"n_users": 2}},
            "wideband": TINY_WIDEBAND,
            "crlb-map": {"crlb_map": {"n0_grid_db": [-60.0]}},
            "reduced-set": {},
        }
        for experiment, overrides in runs.items():
            payload = {"experiment": experiment, "seed": 3, "workers": 1, "array": TINY_ARRAY,
                       "out_dir": str(tmp_path / experiment)}
            run_experiment(config_from_dict({**payload, **overrides}))

        spans: dict[str, list] = {}
        for span in tracer.spans:
            spans.setdefault(span.name, []).append(span)
        labels = {name for name, _ in tracing._SITES.values() if isinstance(name, str)}
        assert set(spans) == labels | {"estimators.gmm_ref_one", "estimators.gmm_unit_norm"}
        assert not [span.name for span in tracer.spans if "error" in span.attrs]
        assert tracer.counters == {}
        for span in spans["estimators.em_calibrate"]:
            assert span.attrs["iterations"] >= 1
            assert isinstance(span.attrs["converged"], bool)
            assert span.attrs["m"] == 10
        # full-mask bounds measure all 45 pairs of 10 antennas, the reduced-set bound fewer
        pairs = {span.attrs["pairs"] for span in spans["crlb.fisher_information"]}
        assert 45 in pairs and min(pairs) > 0
        assert [span.attrs["excluded"] for span in spans["estimators.score_mse"]] == [0, 0]
