"""One measured run of the program, in the fresh process the benchmark starts.

Usage: python3 program.py REQUEST.json

The request names the source tree, the config file, the output directory,
the result file and whether to trace. Set-up ends when recical is imported
and the config is loaded and validated; the parent's launch time and this
process's ready time are both read from CLOCK_MONOTONIC, which is shared by
all processes of the machine. CPU time and peak memory come from
getrusage, so pool workers count once they have been joined.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _environment() -> dict:
    import multiprocessing
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "start_method": multiprocessing.get_start_method(),
    }


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text())
    t0 = _now()
    import recical
    from recical.config import load_config
    from recical.experiments import run_experiment

    t1 = _now()
    src = Path(request["src"]).resolve()
    if src not in Path(recical.__file__).resolve().parents:
        print(f"recical imported from {recical.__file__}, not from {src}", file=sys.stderr)
        return 3
    config = load_config(request["config"])  # validates
    ready = _now()

    tracer = None
    if request["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    cpu0 = _cpu()
    start = _now()
    if tracer is None:
        run_experiment(config, request["out_dir"])
    else:
        with tracer.span("experiments.run_experiment"):
            run_experiment(config, request["out_dir"])
    end = _now()
    cpu1 = _cpu()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "ready": ready,
        "import_s": t1 - t0,
        "config_s": ready - t1,
        "run_s": end - start,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": max(own, kids) / 1024.0,  # ru_maxrss is in KiB on Linux
        "environment": _environment(),
    }
    if tracer is not None:
        result["trace"] = tracer.export()
    Path(request["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
