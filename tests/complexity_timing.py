"""Timed region of ACCEPTANCE 11, run as a script in a process of its own.

The caller sets the BLAS thread variables (``OPENBLAS_NUM_THREADS`` and
friends) in this process's environment, so they are in place before numpy
loads.  The M=100 and M=200 calls alternate within every round, so a slow
phase of a shared host falls on both sizes alike; each size keeps its
minimum over the rounds.  The result is one JSON object on stdout:
``{"gmm_s": {m: s}, "em_s_per_iter": {m: s}, "gmm_rounds": n, "em_rounds": n}``.

Usage: ``python tests/complexity_timing.py`` with ``recical`` importable.
"""

import json
import time

import numpy as np

from recical.estimators import EmSettings, em_calibrate, gmm_estimate
from recical.frontend import deterministic_frontend
from recical.geometry import CouplingModel, build_geometry, draw_channel
from recical.sounding import SoundingData, sound

SHAPES = ((4, 25), (8, 25))   # M=100 and M=200
GMM_ROUNDS = 40
EM_ROUNDS = 5
EM_ITERATIONS = 150

# the default coupling fit, as DEFAULT_COUPLING in test_acceptance.py
COUPLING = CouplingModel(
    co_slope=-10.0, co_intercept=-12.0, cross_slope=-10.0, cross_intercept=-15.0, sigma2=1e-6
)


def timed_calls(rows, cols):
    """The unit-norm GMM call and the fixed-length EM call at one array size."""
    geom = build_geometry(rows, cols)
    m = rows * cols
    fe = deterministic_frontend(m, m // 2)
    rng = np.random.default_rng(0)
    data = sound(draw_channel(geom, COUPLING, rng), fe, 1e-4, rng)
    init = np.exp(2j * np.pi * rng.uniform(size=m))
    settings = EmSettings(init=init, delta_ml=1e-300, max_iter=EM_ITERATIONS, epsilon=0.1)
    # a fresh sounding per GMM call, so every call derives its mask and its
    # moment matrix as a trial's first estimator call does
    return (
        lambda: gmm_estimate(SoundingData(data.matrix, data.mask), constraint="unit-norm", ref=m // 2),
        lambda: em_calibrate(data, settings),
    )


def interleaved_minimum(calls, rounds):
    """Per-call minimum wall time, calling each once per round in turn."""
    best = [np.inf] * len(calls)
    for _ in range(rounds):
        for i, fn in enumerate(calls):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def main():
    sizes = [rows * cols for rows, cols in SHAPES]
    gmm_calls, em_calls = zip(*(timed_calls(rows, cols) for rows, cols in SHAPES))
    gmm_s = interleaved_minimum(gmm_calls, GMM_ROUNDS)
    em_s = interleaved_minimum(em_calls, EM_ROUNDS)
    print(json.dumps({
        "gmm_s": dict(zip(sizes, gmm_s)),
        "em_s_per_iter": {m: s / EM_ITERATIONS for m, s in zip(sizes, em_s)},
        "gmm_rounds": GMM_ROUNDS,
        "em_rounds": EM_ROUNDS,
    }))


if __name__ == "__main__":
    main()
