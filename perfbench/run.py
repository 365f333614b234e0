"""Benchmark of the recical experiment runners.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run of the workload's experiment happens in a fresh process with a
fresh output directory, and its outputs are checked (see check.py). Runs
repeat until the next one would end after ``--seconds``. With ``--trace 0``
the end-to-end metrics are reported as medians over the runs; with
``--trace 1`` untraced and traced runs alternate and the per-layer metrics
come from the traced ones. Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from check import check_run  # noqa: E402
from tracing import LAYER_UNITS, Span, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "work_per_s": "items/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
# A run that takes longer is killed and counts as failed; no run may carry
# the whole invocation past INVOCATION_LIMIT_S after it started.
CHILD_TIMEOUT_S = 150.0
INVOCATION_LIMIT_S = 170.0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class RunFailed(Exception):
    pass


def launch(workload, config_path: Path, out_dir: Path, trace: bool, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run the experiment once in a fresh process; its measurements."""
    out_dir.mkdir(parents=True)
    request = out_dir.parent / f"{out_dir.name}.request.json"
    result = out_dir.parent / f"{out_dir.name}.result.json"
    request.write_text(
        json.dumps(
            {
                "src": str(SRC),
                "config": str(config_path),
                "out_dir": str(out_dir),
                "result": str(result),
                "trace": trace,
            }
        )
    )
    env = workload.child_env(os.environ, str(SRC))
    start = _now()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "program.py"), str(request)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers
        proc.communicate()
        raise RunFailed(f"run exceeded {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    wall = _now() - start
    if proc.returncode != 0:
        raise RunFailed(f"exit code {proc.returncode}: {stderr.strip()[-400:]}")
    measured = json.loads(result.read_text())
    measured["setup_s"] = measured["ready"] - start
    measured["wall_s"] = wall
    return measured


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the machine since boot, from /proc/stat."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"  # and never look above the checkout
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(workload, program_env: dict, steal_frac: float) -> dict:
    """Machine, library and thread settings a measurement depends on.

    ``host_steal_frac`` is the share of the machine's CPU time the hypervisor
    gave to other guests while this invocation ran; it inflates wall times.
    """
    return {
        "nproc": os.cpu_count(),
        "host_steal_frac": round(steal_frac, 4),
        **program_env,
        "blas_threads": workload.blas_env(),
        "workers": workload.workers,
        "git_commit": _git_commit(),
    }


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=2))
    return path


def measure(workload, config: dict, seconds: float, trace: bool, run_dir: Path) -> list[dict]:
    """All runs of one benchmark invocation and the checks of their outputs."""
    deadline = _now() + INVOCATION_LIMIT_S

    def timeout() -> float:
        return max(0.0, min(CHILD_TIMEOUT_S, deadline - _now()))

    config_path = _write_config(run_dir / "config.json", config)

    serial_dir = None
    if workload.serial_check:
        # untimed: the one-worker run whose CSV bytes every run must reproduce
        serial_config = {**config, "workers": 1}
        serial_dir = run_dir / "serial"
        try:
            serial_path = _write_config(run_dir / "serial.json", serial_config)
            launch(workload, serial_path, serial_dir, trace=False, timeout=timeout())
        except RunFailed as exc:
            raise RunFailed(f"one-worker run failed: {exc}") from exc
        problems = check_run(serial_config, serial_dir)
        if problems:
            raise RunFailed(f"one-worker run failed its check: {problems}")

    runs, failures, walls = [], [], []
    start = _now()
    while True:
        traced = trace and len(runs) % 2 == 1
        out_dir = run_dir / f"run{len(runs)}"
        try:
            measured = launch(workload, config_path, out_dir, traced, timeout())
            problems = check_run(config, out_dir, serial_dir)
        except (RunFailed, OSError, ValueError, KeyError) as exc:
            measured, problems = None, [f"{type(exc).__name__}: {exc}"]
        runs.append({"traced": traced, "measured": measured, "problems": problems})
        if problems:
            failures.append(problems)
            print(f"run {len(runs)} failed: {problems[:3]}", file=sys.stderr)
        else:
            walls.append(measured["wall_s"])
        shutil.rmtree(out_dir, ignore_errors=True)
        enough = not trace or len(runs) >= 2
        typical = median(walls) if walls else 0.0
        if enough and (_now() - start + typical > seconds or len(failures) == len(runs) >= 3):
            break
        if timeout() == 0.0:
            break
    return runs


def end_to_end(workload, config: dict, runs: list[dict]) -> dict[str, float]:
    good = [r["measured"] for r in runs if not r["problems"]]
    plain = [r["measured"] for r in runs if not r["problems"] and not r["traced"]]
    items = workload.items(config)
    return {
        "setup_s": median(m["setup_s"] for m in good),
        "run_s": median(m["run_s"] for m in plain),
        "work_per_s": median(items / m["run_s"] for m in plain),
        "cpu_s": median(m["cpu_s"] for m in plain),
        "peak_rss_mb": median(m["peak_rss_mb"] for m in plain),
        "ok_frac": len(good) / len(runs),
    }


def per_layer(runs: list[dict]) -> dict[str, float]:
    good = [r for r in runs if not r["problems"]]
    traced = [r["measured"] for r in good if r["traced"]]
    plain = [r["measured"] for r in good if not r["traced"]]
    per_run = [
        layer_metrics([Span(**s) for s in m["trace"]["spans"]], m["trace"]["counters"]) for m in traced
    ]
    out = {name: median(values[name] for values in per_run) for name in per_run[0]}
    out["setup.import_s"] = median(r["measured"]["import_s"] for r in good)
    out["config.load_s"] = median(r["measured"]["config_s"] for r in good)
    out["trace.run_s"] = median(m["run_s"] for m in traced)
    out["trace.overhead_frac"] = out["trace.run_s"] / median(m["run_s"] for m in plain) - 1.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "recical" / "__init__.py").is_file():
        print(f"no recical source tree at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    config = workload.experiment_config(args.seed)
    run_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ticks = _cpu_ticks()
    try:
        runs = measure(workload, config, args.seconds, bool(args.trace), run_dir)
    except RunFailed as exc:
        print(f"{workload.name}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for r in runs if r["problems"])
    plain = [r["measured"] for r in runs if not r["problems"] and not r["traced"]]
    traced = [r["measured"] for r in runs if not r["problems"] and r["traced"]]
    if not plain or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": len(runs), "failed": failed, "metrics": {}}))
        return 1

    steal, total = (b - a for a, b in zip(ticks, _cpu_ticks()))
    env = environment(workload, plain[0]["environment"], steal / total if total else 0.0)
    print("environment " + json.dumps(env, sort_keys=True))
    tables = [(end_to_end(workload, config, runs), END_TO_END_UNITS)]
    if args.trace:
        tables.append((per_layer(runs), LAYER_UNITS))
        spans = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        spans.write_text(json.dumps({"environment": env, "config": config, "runs": [m["trace"] for m in traced]}))
        print(f"spans written to {spans.relative_to(ROOT)}")
    print(
        f"{workload.name} seed {args.seed}: {len(runs)} runs, {failed} failed; "
        f"medians over {len(plain)} untraced and {len(traced)} traced runs"
    )
    for values, units in tables:
        for name, unit in units.items():
            print(f"  {name:45s} {values[name]:14.6g} {unit}")
    values, units = tables[-1]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
