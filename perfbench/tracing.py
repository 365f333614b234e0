"""Spans around calls into the recical layers, recorded from outside the package.

Each public function is wrapped where it is looked up: the names imported
into ``recical.experiments``, ``recical.wideband.{sound, em_calibrate,
draw_channel}``, ``recical.estimators.gmm_estimate`` (which catches EM's
nested initialisation) and ``recical.crlb.fisher_information`` (which
``crlb_coefficients`` calls). Spans are kept in memory and written out once
the run has ended. Spans opened inside forked pool workers stay in the
workers and are lost; the parent-side spans and the pool count remain.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from statistics import median


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, _now(), float("nan"), parent)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        except BaseException as exc:
            record.attrs["error"] = type(exc).__name__
            raise
        finally:
            record.end = _now()
            self._open.pop()

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def wrap(self, fn, name, on_result=None):
        """``fn`` recording one span per call.

        ``name`` is a string or a callable of the call's arguments;
        ``on_result(span, args, kwargs, result)`` runs after the span closed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label) as record:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(record, args, kwargs, result)
            return result

        return traced

    def export(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counters": dict(self.counters)}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


# ---------------------------------------------------------------------------
# installation into a freshly imported recical


def _gmm_label(data, constraint="ref-one", ref=None):
    return "estimators.gmm_unit_norm" if constraint == "unit-norm" else "estimators.gmm_ref_one"


def _em_result(span, args, kwargs, est):
    span.attrs.update(iterations=est.iterations, converged=bool(est.converged), m=args[0].n_antennas)


def _fisher_result(span, args, kwargs, fim):
    inputs = args[0]
    pairs = inputs.mask & inputs.mask.T
    span.attrs.update(pairs=int(pairs.sum()) // 2, dim=int(fim.shape[0]))


def _score_result(span, args, kwargs, score):
    span.attrs["excluded"] = int(score.trials_excluded)


# (module, attribute) -> span name or label function, optional result hook
_SITES = {
    ("experiments", "build_setup"): ("experiments.build_setup", None),
    ("experiments", "write_csv"): ("experiments.write_csv", None),
    ("experiments", "draw_channel"): ("geometry.draw_channel", None),
    ("experiments", "draw_coupling"): ("geometry.draw_coupling", None),
    ("experiments", "sound"): ("sounding.sound", None),
    ("experiments", "gmm_estimate"): (_gmm_label, None),
    ("experiments", "em_calibrate"): ("estimators.em_calibrate", _em_result),
    ("experiments", "score_mse"): ("estimators.score_mse", _score_result),
    ("experiments", "crlb_coefficients"): ("crlb.crlb_coefficients", None),
    ("experiments", "per_subcarrier_estimate"): ("wideband.per_subcarrier_estimate", None),
    ("experiments", "synth_wideband"): ("wideband.synth_wideband", None),
    ("experiments", "pca"): ("wideband.pca", None),
    ("experiments", "wideband_record"): ("wideband.wideband_record", None),
    ("experiments", "ks_gaussianity"): ("wideband.ks_gaussianity", None),
    ("wideband", "sound"): ("sounding.sound", None),
    ("wideband", "em_calibrate"): ("estimators.em_calibrate", _em_result),
    ("wideband", "draw_channel"): ("geometry.draw_channel", None),
    ("estimators", "gmm_estimate"): (_gmm_label, None),
    ("crlb", "fisher_information"): ("crlb.fisher_information", _fisher_result),
}


def install(tracer: Tracer) -> None:
    """Wrap every traced name in the recical modules and count opened pools."""
    import importlib

    for (module, attr), (name, hook) in _SITES.items():
        mod = importlib.import_module(f"recical.{module}")
        setattr(mod, attr, tracer.wrap(getattr(mod, attr), name, hook))

    experiments = importlib.import_module("recical.experiments")

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            tracer.count("pools_opened")
            super().__init__(*args, **kwargs)

    experiments.ProcessPoolExecutor = CountingPool


# ---------------------------------------------------------------------------
# per-layer metrics from one traced run

# bytes of the M x M arrays one EM iteration touches, per M^2: y, y.T copy,
# psi, work and the conj(psi) temporary (complex128), den, mag and the
# psi.imag**2 temporary (float64), and the off-pair mask (bool)
EM_BYTES_PER_M2 = 5 * 16 + 3 * 8 + 1

LAYER_UNITS = {
    "setup.import_s": "s",
    "config.load_s": "s",
    "experiments.self_s": "s",
    "experiments.pools_opened": "count",
    "experiments.build_setup.calls": "count",
    "experiments.build_setup.s": "s",
    "experiments.write_csv.s": "s",
    "geometry.draw_channel.calls": "count",
    "geometry.draw_channel.s": "s",
    "geometry.draw_channel.p50_ms": "ms",
    "geometry.draw_coupling.s": "s",
    "sounding.sound.calls": "count",
    "sounding.sound.s": "s",
    "sounding.sound.p50_ms": "ms",
    "estimators.gmm_ref_one.calls": "count",
    "estimators.gmm_ref_one.s": "s",
    "estimators.gmm_ref_one.p50_ms": "ms",
    "estimators.gmm_unit_norm.calls": "count",
    "estimators.gmm_unit_norm.s": "s",
    "estimators.gmm_unit_norm.p50_ms": "ms",
    "estimators.em_calibrate.calls": "count",
    "estimators.em_calibrate.p50_ms": "ms",
    "estimators.em_calibrate.self_s": "s",
    "estimators.em.iterations": "count",
    "estimators.em.iterations_p50": "count",
    "estimators.em.iterations_max": "count",
    "estimators.em.self_ms_per_iter": "ms",
    "estimators.eigensolves_per_solve": "ratio",
    "estimators.em.computed_mb_per_iter": "MB",
    "estimators.em.nonconverged": "count",
    "estimators.em.degenerate": "count",
    "estimators.score.excluded": "count",
    "estimators.score_mse.s": "s",
    "crlb.crlb_coefficients.calls": "count",
    "crlb.crlb_coefficients.s": "s",
    "crlb.crlb_coefficients.p50_ms": "ms",
    "crlb.fisher_information.s": "s",
    "crlb.solve_s": "s",
    "crlb.pairs": "count",
    "crlb.fim_dim": "count",
    "wideband.per_subcarrier_estimate.self_s": "s",
    "wideband.synth_wideband.s": "s",
    "wideband.pca.s": "s",
    "wideband.wideband_record.s": "s",
    "wideband.ks_gaussianity.calls": "count",
    "wideband.ks_gaussianity.s": "s",
    "trace.run_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans: list[Span], counters: dict[str, int]) -> dict[str, float]:
    """Every span-derived per-layer metric; a layer not called reads 0."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def durations(name):
        return [spans[i].duration for i in by_name.get(name, [])]

    def total(name):
        return sum(durations(name))

    def p50_ms(name):
        d = durations(name)
        return 1e3 * median(d) if d else 0.0

    def self_total(name):
        return sum(selfs[i] for i in by_name.get(name, []))

    out: dict[str, float] = {
        "experiments.self_s": self_total("experiments.run_experiment"),
        "experiments.pools_opened": counters.get("pools_opened", 0),
        "experiments.build_setup.calls": len(durations("experiments.build_setup")),
        "experiments.build_setup.s": total("experiments.build_setup"),
        "experiments.write_csv.s": total("experiments.write_csv"),
        "geometry.draw_coupling.s": total("geometry.draw_coupling"),
        "estimators.em_calibrate.self_s": self_total("estimators.em_calibrate"),
        "estimators.score_mse.s": total("estimators.score_mse"),
        "crlb.fisher_information.s": total("crlb.fisher_information"),
        "crlb.solve_s": self_total("crlb.crlb_coefficients"),
        "wideband.per_subcarrier_estimate.self_s": self_total("wideband.per_subcarrier_estimate"),
        "wideband.synth_wideband.s": total("wideband.synth_wideband"),
        "wideband.pca.s": total("wideband.pca"),
        "wideband.wideband_record.s": total("wideband.wideband_record"),
        "wideband.ks_gaussianity.calls": len(durations("wideband.ks_gaussianity")),
        "wideband.ks_gaussianity.s": total("wideband.ks_gaussianity"),
    }
    for name in (
        "geometry.draw_channel",
        "sounding.sound",
        "estimators.gmm_ref_one",
        "estimators.gmm_unit_norm",
        "crlb.crlb_coefficients",
    ):
        out[f"{name}.calls"] = len(durations(name))
        out[f"{name}.s"] = total(name)
        out[f"{name}.p50_ms"] = p50_ms(name)

    ems = [spans[i] for i in by_name.get("estimators.em_calibrate", [])]
    iterations = [s.attrs["iterations"] for s in ems if "iterations" in s.attrs]
    out["estimators.em_calibrate.calls"] = len(ems)
    out["estimators.em_calibrate.p50_ms"] = p50_ms("estimators.em_calibrate")
    out["estimators.em.iterations"] = sum(iterations)
    out["estimators.em.iterations_p50"] = median(iterations) if iterations else 0
    out["estimators.em.iterations_max"] = max(iterations, default=0)
    out["estimators.em.self_ms_per_iter"] = (
        1e3 * out["estimators.em_calibrate.self_s"] / sum(iterations) if iterations else 0.0
    )
    out["estimators.em.computed_mb_per_iter"] = (
        median(EM_BYTES_PER_M2 * s.attrs["m"] ** 2 for s in ems if "m" in s.attrs) / 1e6 if iterations else 0.0
    )
    out["estimators.em.nonconverged"] = sum(1 for s in ems if s.attrs.get("converged") is False)
    out["estimators.em.degenerate"] = sum(1 for s in ems if s.attrs.get("error") == "DegeneracyError")
    out["estimators.eigensolves_per_solve"] = (
        out["estimators.gmm_unit_norm.calls"] / len(ems) if ems else 0.0
    )
    out["estimators.score.excluded"] = sum(
        spans[i].attrs.get("excluded", 0) for i in by_name.get("estimators.score_mse", [])
    )
    fishers = [spans[i] for i in by_name.get("crlb.fisher_information", [])]
    out["crlb.pairs"] = sum(s.attrs.get("pairs", 0) for s in fishers)
    out["crlb.fim_dim"] = max((s.attrs.get("dim", 0) for s in fishers), default=0)
    return out
