"""Configuration, experiment runners, CSV/manifest output, and the CLI."""

import csv
import json
import math
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recical import experiments
from recical.config import EXPERIMENT_IDS, ConfigError, ExperimentConfig, config_from_dict, default_config, load_config
from recical.experiments import run_experiment
from recical.geometry import draw_channel
from recical.sounding import sound


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
            default_config(experiment).validate()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            config_from_dict({"experiment": "capacity", "typo": 1})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys in section"):
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

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"seed": -1})

    def test_variant_names_checked(self):
        with pytest.raises(ConfigError, match="unknown capacity variants"):
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

    def test_db_values_within_float_range_accepted(self):
        # the largest whole dB value still converts; a very negative one converts to zero
        cfg = config_from_dict({"coupling": {"sigma2_db": 3082}, "mse_sweep": {"n0_grid_db": [-4000.0, 3082.0]}})
        assert cfg.coupling.sigma2_db == 3082.0

    def test_json_types_that_fit_accepted(self):
        cfg = config_from_dict(
            {"array": {"spacing": 1}, "estimator": {"max_iter": None, "epsilon_grid": [0, 0.5]},
             "capacity": {"reciprocal_users": False}}
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
        with pytest.raises(ConfigError, match="at least 50 subcarriers"):
            config_from_dict({"experiment": "wideband", "array": TINY_ARRAY, "wideband": {"n_subcarriers": 20}})
        config_from_dict({"experiment": "wideband", **TINY_WIDEBAND})

    def test_wideband_slopes_non_negative(self):
        # a negative bound would reach the kernel draw as an empty uniform range
        for key in ("mag_slope_max", "phase_slope_max"):
            with pytest.raises(ConfigError, match="must be >= 0"):
                config_from_dict({"experiment": "wideband", "array": TINY_ARRAY,
                                  "wideband": {"n_subcarriers": 50, key: -1e-5}})

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

    def test_wideband_run(self, tmp_path):
        cfg = config_from_dict(
            {
                "experiment": "wideband",
                "seed": 5,
                "trials": 1,
                "out_dir": str(tmp_path),
                "array": {"rows": 2, "cols": 4, "ref": 4},
                "wideband": {"n_subcarriers": 64, "n_fft": 128, "realizations": 3},
            }
        )
        manifest = run_experiment(cfg)
        assert sorted(manifest.outputs) == ["wideband_fits.csv", "wideband_ks.csv", "wideband_spectra.csv"]
        ks_rows = read_csv(tmp_path / "wideband_ks.csv")
        # the reference antenna is skipped: its residual is identically zero
        assert {r["antenna"] for r in ks_rows} == {str(a) for a in range(1, 9) if a != 4}
        spectra = read_csv(tmp_path / "wideband_spectra.csv")
        assert max(int(r["component"]) for r in spectra) <= 10

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
        monkeypatch.setattr(experiments, "synth_wideband", takes_rng("kernel", experiments.synth_wideband, 4))
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
        ctx = experiments._context(config)
        n0s = [10.0 ** (db / 10.0) for db in levels_db]
        stream = ctx.trial_stream(trial)
        for n0, data in zip(n0s, ctx.soundings(n0s, stream), strict=True):
            rng = experiments.trial_rng(seed, "convergence", trial)
            h = draw_channel(ctx.geometry, ctx.model, rng, coupling=ctx.coupling_mean)
            fresh = sound(h, ctx.frontend, n0, rng)
            assert data.matrix.tobytes() == fresh.matrix.tobytes()
            assert data.noise_var == fresh.noise_var
        # later draws of the trial continue where the last level's sounding alone leaves off
        assert stream.bit_generator.state == rng.bit_generator.state


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "recical.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_experiment_runs_and_reports(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 3, "trials": 2,
            "mse_sweep": {"n0_grid_db": [-80.0], "antennas": [1, 39]},
        }))
        out = tmp_path / "out"
        result = self.run_cli("mse-sweep", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert (out / "mse_sweep.csv").exists()
        assert (out / "manifest.json").exists()
        assert "mse_sweep.csv" in result.stdout

    def test_overrides_applied(self, tmp_path):
        out = tmp_path / "o"
        result = self.run_cli("reduced-set", "--seed", "9", "--out", str(out))
        assert result.returncode == 0, result.stderr
        payload = json.loads((out / "manifest.json").read_text())
        assert payload["master_seed"] == 9

    def test_invalid_config_gives_error_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 0}))
        result = self.run_cli("capacity", "--config", str(cfg))
        assert result.returncode == 1
        payload = json.loads(result.stderr)
        assert payload["type"] == "ConfigError"
        assert "trials" in payload["error"]

    def test_wrong_json_type_gives_error_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"array": {"rows": "4"}}))
        result = self.run_cli("mse-sweep", "--config", str(cfg))
        assert result.returncode == 1
        payload = json.loads(result.stderr)
        assert payload["type"] == "ConfigError"
        assert "array.rows" in payload["error"]

    def test_non_finite_number_gives_error_json(self, tmp_path):
        # Python's json reads the literal NaN; the config must refuse it
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"capacity": {"dl_noise_db": NaN}}')
        out = tmp_path / "out"
        result = self.run_cli("capacity", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 1
        payload = json.loads(result.stderr)
        assert payload["type"] == "ConfigError"
        assert "capacity.dl_noise_db" in payload["error"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, payload, field",
        [
            ("capacity", {"capacity": {"cal_n0_db": 4000}}, "capacity.cal_n0_db"),
            ("mse-sweep", {"mse_sweep": {"n0_grid_db": [3100.0]}}, "mse_sweep.n0_grid_db"),
        ],
    )
    def test_huge_db_value_gives_error_json(self, tmp_path, experiment, payload, field):
        # 10 ** (dB / 10) overflows: refused before any output directory is made
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "out"
        result = self.run_cli(experiment, "--config", str(cfg), "--out", str(out))
        assert result.returncode == 1
        payload = json.loads(result.stderr)
        assert payload["type"] == "ConfigError"
        assert field in payload["error"]
        assert not out.exists()

    def test_integer_and_float_json_write_same_bytes(self, tmp_path):
        # -60 and -60.0 configure the same run: same CSV bytes, same config echo
        out = tmp_path / "out"
        outputs = []
        for grid in ([-60], [-60.0]):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(
                {"experiment": "crlb-map", "array": {"rows": 2, "cols": 5, "ref": 3}, "crlb_map": {"n0_grid_db": grid}}
            ))
            result = self.run_cli("crlb-map", "--config", str(cfg), "--out", str(out))
            assert result.returncode == 0, result.stderr
            echo = json.loads((out / "manifest.json").read_text())["config"]
            outputs.append(((out / "crlb_map.csv").read_bytes(), json.dumps(echo, sort_keys=True)))
        assert outputs[0] == outputs[1]

    def test_positional_experiment_validates_the_file(self, tmp_path):
        # the file names no experiment; it must be checked as crlb-map, which
        # tracks no antenna, not as the default mse-sweep
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"array": {"rows": 2, "cols": 5, "ref": 3}}))
        out = tmp_path / "out"
        result = self.run_cli("crlb-map", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert json.loads((out / "manifest.json").read_text())["experiment"] == "crlb-map"

    def test_os_errors_give_error_json(self, tmp_path):
        # a directory as --config, an existing file as --out
        taken = tmp_path / "taken"
        taken.write_text("")
        for args, error in ((["--config", str(tmp_path)], "IsADirectoryError"), (["--out", str(taken)], "FileExistsError")):
            result = self.run_cli("reduced-set", *args)
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
