"""Capture the reference outputs the check compares against at the default seed.

Usage, from the root of a checkout: python3 perfbench/capture_reference.py

Runs every gated workload without a one-worker check once at DEFAULT_SEED, in a
fresh process with the workload's thread settings, and stores its CSVs and
config under reference/<workload>/. Capture only at a commit whose outputs
are trusted; the check then holds later commits to them.
"""

from __future__ import annotations

import json
import shutil
import sys

from check import OUTPUTS, REFERENCE_DIR
from run import OUT, launch
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    for workload in WORKLOADS.values():
        if not workload.gated or workload.serial_check:
            continue  # covered by the reference of the one-worker workload
        config = workload.experiment_config(DEFAULT_SEED)
        work = OUT / f"capture-{workload.name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config))
        launch(workload, config_path, work / "out", trace=False)
        target = REFERENCE_DIR / workload.name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for name in OUTPUTS[config["experiment"]]:
            shutil.copyfile(work / "out" / name, target / name)
        (target / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        shutil.rmtree(work)
        print(f"{workload.name}: reference written to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
