"""Repeat the benchmark over seeds and summarise its spread.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 [--workloads a,b] [--trace-seeds 1,2]
                                  [--observe-seeds 1-5] [--out FILE]

Each run is one ``run.py`` invocation at ``run_seconds`` from BENCHMARK.json.
For every workload and end-to-end metric it reports the median of the runs,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound. Traced runs give the
per-layer metrics at each trace seed; the ungated workloads are run at the
observe seeds and recorded, never compared with a bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    out = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-600:]}")
    environment = next((json.loads(x.split(" ", 1)[1]) for x in lines if x.startswith("environment ")), {})
    return {"seed": seed, "environment": environment, **json.loads(lines[-1])}


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        mid = median(values)
        q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "median": mid, "q1": q1, "q3": q3, "values": values}
        if mid:
            entry["spread"] = (q3 - q1) / abs(mid)
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="seeds of the end-to-end runs, e.g. 1-10")
    parser.add_argument("--workloads", default="", help="comma-separated gated workloads (default: all)")
    parser.add_argument(
        "--trace-seeds", default=f"{DEFAULT_SEED},{HELD_OUT_SEED}", help="seeds of the traced runs ('' for none)"
    )
    parser.add_argument("--observe-seeds", default="", help="seeds of the ungated workloads, e.g. 1-5")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    gated = [w["name"] for w in bench["workloads"]]
    chosen = [w for w in args.workloads.split(",") if w] or gated
    seconds = bench["run_seconds"]
    record: dict = {"run_seconds": seconds, "end_to_end": {}, "per_layer": {}, "observations": {}}
    worst = 0.0

    for workload in chosen:
        runs = [run_once(bench["command"], workload, s, seconds, 0) for s in _seeds(args.seeds)]
        summary = summarise(runs, bounds)
        environment = {k: v for k, v in runs[0]["environment"].items() if k != "host_steal_frac"}
        record["end_to_end"][workload] = {
            "environment": environment,
            "seeds": [r["seed"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "host_steal_frac": [r["environment"].get("host_steal_frac") for r in runs],
            "metrics": summary,
        }
        for name, entry in summary.items():
            ratio = entry.get("spread", 0.0) / entry["bound"] if name != "setup_s" else 0.0
            worst = max(worst, ratio)
            print(
                f"{workload:15s} {name:12s} median {entry['median']:10.4g} {entry['unit']:8s} "
                f"spread {entry.get('spread', 0.0):7.4f}  bound {entry['bound']}",
                flush=True,
            )
        for s in _seeds(args.trace_seeds):
            traced = run_once(bench["command"], workload, s, seconds, 1)
            record["per_layer"].setdefault(workload, {})[str(s)] = {
                k: v["value"] for k, v in traced["metrics"].items()
            }
            print(f"{workload:15s} traced at seed {s}: {traced['attempted']} runs, {traced['failed']} failed", flush=True)

    for workload in (w.name for w in WORKLOADS.values() if not w.gated):
        observe = _seeds(args.observe_seeds)
        if not observe:
            continue
        runs = [run_once(bench["command"], workload, s, seconds, 0) for s in observe]
        record["observations"][workload] = {
            "environment": {k: v for k, v in runs[0]["environment"].items() if k != "host_steal_frac"},
            "host_steal_frac": [r["environment"].get("host_steal_frac") for r in runs],
            "seeds": observe,
            "metrics": summarise(runs, {}),
        }
        spread = record["observations"][workload]["metrics"]["run_s"]
        print(f"{workload} (ungated) run_s median {spread['median']:.3g} s, values {spread['values']}", flush=True)

    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
