"""Command-line entry point: ``recical <experiment> [options]``."""

from __future__ import annotations

import argparse
import json
import sys

from .config import EXPERIMENTS, ExperimentConfig, config_from_dict, load_config
from .experiments import run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recical",
        description=(
            "Reciprocity-calibration experiments for TDD massive MIMO arrays: "
            "synthetic sounding, GMM/EM estimation, bound computation, and "
            "downlink evaluation, written to CSV with a JSON manifest."
        ),
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="which experiment to run")
    parser.add_argument("--config", metavar="PATH", help="JSON configuration file (defaults apply if omitted)")
    parser.add_argument("--seed", type=int, metavar="N", help="override the master seed")
    parser.add_argument("--trials", type=int, metavar="N", help="override the Monte-Carlo trial count")
    parser.add_argument("--out", metavar="DIR", help="override the output directory")
    parser.add_argument("--workers", type=int, metavar="N", help="worker processes for trial-level parallelism")
    return parser


def _draw_count(config: ExperimentConfig) -> str:
    """The summary's count of random draws: trials, wideband realizations, or none for the bounds."""
    if config.experiment == "wideband":
        return f", {config.wideband.realizations} realizations"
    if config.experiment in ("crlb-map", "reduced-set"):
        return ""
    return f", {config.trials} trials"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the overrides join the payload, so the config is checked as it runs
    given = {"experiment": args.experiment, "seed": args.seed, "trials": args.trials, "out_dir": args.out,
             "workers": args.workers}
    overrides = {key: value for key, value in given.items() if value is not None}
    try:
        config = load_config(args.config, overrides) if args.config is not None else config_from_dict(overrides)
        manifest = run_experiment(config)
    except (OSError, ValueError, RuntimeError) as exc:  # ConfigError is a ValueError
        json.dump({"error": str(exc), "type": type(exc).__name__}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    print(f"{config.experiment}: wrote {', '.join(manifest.outputs)} to {config.out_dir} "
          f"in {manifest.wall_time_s:.1f}s (seed {config.seed}{_draw_count(config)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
