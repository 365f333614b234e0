"""The pinned workloads.

A workload is one experiment config, a worker count and a BLAS thread
setting. The benchmark hands the program only the generated config; the
master seed is the benchmark's ``--seed``. Every BLAS thread variable is set
or unset explicitly, so nothing is inherited from the caller's shell.
"""

from __future__ import annotations

from dataclasses import dataclass

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The seed the reference CSVs were captured at, and the seed kept out of all
# tuning: a later speed claim is re-checked on the held-out seed.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

MSE_GRID_DB = [-80.0, -60.0, -40.0]
MSE_TRIALS = 200
WIDEBAND_SUBCARRIERS = 50  # ks_gaussianity needs at least 50 samples
WIDEBAND_REALIZATIONS = 4
# Six points of the paper's ten-point grid [-100, -90, ..., -35, -30] dB;
# one bound at M=200 takes 0.6-0.9 s on a 2-vCPU guest, so ten would leave
# room for only two fresh-process runs in one benchmark invocation.
CRLB_GRID_DB = [-100.0, -80.0, -60.0, -45.0, -35.0, -30.0]

_ARRAY_M200 = {"rows": 8, "cols": 25, "ref": 88}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    blas_threads: int | None  # None leaves the library default (nproc)
    # each run must reproduce the CSV bytes of a one-worker run of the same
    # inputs and thread setting (the program's determinism contract)
    serial_check: bool = False
    gated: bool = True

    @property
    def workers(self) -> int:
        return self.config.get("workers", 1)

    def experiment_config(self, seed: int) -> dict:
        return {**self.config, "seed": seed}

    @staticmethod
    def items(config: dict) -> int:
        """Work items one run of ``config`` performs: trials at one noise
        point, per-subcarrier solves, or bounds."""
        kind = config["experiment"]
        if kind == "mse-sweep":
            return config["trials"] * len(config["mse_sweep"]["n0_grid_db"])
        if kind == "wideband":
            return config["wideband"]["n_subcarriers"] * config["wideband"]["realizations"]
        if kind == "crlb-map":
            return len(config["crlb_map"]["n0_grid_db"])
        raise ValueError(f"no work item defined for {kind}")

    def blas_env(self) -> dict[str, str | None]:
        value = None if self.blas_threads is None else str(self.blas_threads)
        return {var: value for var in BLAS_THREAD_VARS}

    def child_env(self, base: dict[str, str], pythonpath: str) -> dict[str, str]:
        env = {k: v for k, v in base.items() if k not in BLAS_THREAD_VARS}
        env.update({k: v for k, v in self.blas_env().items() if v is not None})
        env["PYTHONPATH"] = pythonpath
        return env


def _mse(workers: int) -> dict:
    return {
        "experiment": "mse-sweep",
        "trials": MSE_TRIALS,
        "workers": workers,
        "mse_sweep": {"n0_grid_db": list(MSE_GRID_DB), "antennas": [1, 39]},
    }


def _wideband() -> dict:
    return {
        "experiment": "wideband",
        "workers": 2,
        "array": dict(_ARRAY_M200),
        "wideband": {"n_subcarriers": WIDEBAND_SUBCARRIERS, "realizations": WIDEBAND_REALIZATIONS},
    }


def _crlb() -> dict:
    return {
        "experiment": "crlb-map",
        "workers": 1,
        "array": dict(_ARRAY_M200),
        "crlb_map": {"n0_grid_db": list(CRLB_GRID_DB)},
    }


# Every gated workload pins BLAS to one thread. With the library default (one
# thread per core) a process spans both cores of a 2-vCPU guest, and time the
# hypervisor steals from either core stalls every BLAS call: at 27% steal the
# wideband run took 75% longer and the bound map 30% longer, so two sets of
# ten runs minutes apart disagreed by more than any usable bound. The
# default-thread regimes are kept as ungated observations, recorded by
# baseline.py and never compared with a bound.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mse-m100", _mse(1), blas_threads=1),
        Workload("mse-m100-w2", _mse(2), blas_threads=1, serial_check=True),
        Workload("wideband-m200", _wideband(), blas_threads=1),
        Workload("crlb-m200", _crlb(), blas_threads=1),
        Workload("mse-m100-w2-blasdefault", _mse(2), blas_threads=None, serial_check=True, gated=False),
        Workload("wideband-m200-blasdefault", _wideband(), blas_threads=None, gated=False),
        Workload("crlb-m200-blasdefault", _crlb(), blas_threads=None, gated=False),
    )
}
