"""Command-line entry point: ``recical <experiment> [options]``."""

from __future__ import annotations

import argparse
import json
import sys

from .config import EXPERIMENTS, ConfigError, default_config, load_config
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            config = load_config(args.config, experiment=args.experiment)
        else:
            config = default_config(args.experiment)
        if args.seed is not None:
            config.seed = args.seed
        if args.trials is not None:
            config.trials = args.trials
        if args.out is not None:
            config.out_dir = args.out
        if args.workers is not None:
            config.workers = args.workers
        manifest = run_experiment(config)
    except (ConfigError, OSError, ValueError, RuntimeError) as exc:
        json.dump({"error": str(exc), "type": type(exc).__name__}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    print(f"{config.experiment}: wrote {', '.join(manifest.outputs)} to {config.out_dir} "
          f"in {manifest.wall_time_s:.1f}s (seed {config.seed}, {config.trials} trials)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
