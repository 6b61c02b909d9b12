"""Spans around each layer's entry points, recorded from outside the program.

:class:`Tracer` replaces the module attributes through which ``jeffreys``
calls each layer with wrappers that record a span (name, parent, start,
end) and a few counters read from arguments and results.  Spans stay in
memory; :meth:`Tracer.pass_metrics` turns one pass's spans into per-layer
metrics, where a span's self time is its duration minus that of its
direct children.  :meth:`Tracer.uninstall` restores every attribute, so
untraced passes run the program unmodified.

A name that the program no longer defines is skipped and reported in
:attr:`Tracer.absent`; metrics of a layer without spans read 0.
"""

from __future__ import annotations

import functools
import importlib
import time
from pathlib import Path

import numpy as np

LAMBERT = "lambertw.lambert_w0_values"
LOAD = "datasets.load_dataset"
ROW = "histograms.Histogram.__post_init__"
SET = "histograms.WeightedHistogramSet.__post_init__"
KMEANS = "clustering.kmeans"
ASSIGN = "clustering._pairwise_jeffreys"
RELOCATE = "clustering._relocate"
SEED = "clustering.seed_centroids"
SOLVERS = {
    "positive": "positive_centroid",
    "normalized": "normalized_positive_centroid",
    "veldhuis": "veldhuis_centroid",
    "bisection": "frequency_centroid_bisection",
    "fixedpoint": "frequency_centroid_fixedpoint",
}
#: Solvers whose metrics are reported; the other two run on no workload.
REPORTED_SOLVERS = ("positive", "bisection", "fixedpoint")
TRIALS = "oracles.run_alpha_trials"
BATCH_BISECTION = "oracles._batch_bisection"
BATCH_FIXEDPOINT = "oracles._batch_fixedpoint"

# (span name, [(module, attribute)]) -- every module attribute through which
# the program reaches the callee; one wrapper is shared by all of them.
FUNCTIONS = [
    ("cli.main", [("cli", "main")]),
    (LOAD, [("cli", "load_dataset")]),
    (KMEANS, [("cli", "kmeans")]),
    (ASSIGN, [("clustering", "_pairwise_jeffreys")]),
    (RELOCATE, [("clustering", "_relocate")]),
    (SEED, [("clustering", "seed_centroids")]),
    ("clustering._one_step_frequency_update", [("clustering", "_one_step_frequency_update")]),
    ("divergences.jeffreys_to_set", [("centroids", "jeffreys_to_set"),
                                     ("oracles", "jeffreys_to_set")]),
    *[(f"centroids.{short}", [("centroids", attr), ("cli", attr), ("clustering", attr)])
      for short, attr in SOLVERS.items()],
    (LAMBERT, [("centroids", "lambert_w0_values"), ("clustering", "lambert_w0_values"),
               ("oracles", "lambert_w0_values")]),
    ("oracles.alpha_trial_harness", [("cli", "alpha_trial_harness")]),
    (TRIALS, [("oracles", "run_alpha_trials")]),
    (BATCH_BISECTION, [("oracles", "_batch_bisection")]),
    (BATCH_FIXEDPOINT, [("oracles", "_batch_fixedpoint")]),
]
# (span name, class in jeffreys.histograms, method)
METHODS = [
    (ROW, "Histogram", "__post_init__"),
    ("histograms.FrequencyHistogram.__post_init__", "FrequencyHistogram", "__post_init__"),
    (SET, "WeightedHistogramSet", "__post_init__"),
]
MATRIX = "histograms.WeightedHistogramSet.matrix"

# Per-layer metric name -> unit.  README.md says which end-to-end metric
# each should move, on which workload.
UNITS = {
    "lambertw.calls": "count",
    "lambertw.elements": "count",
    "lambertw.self_s": "s",
    "lambertw.ns_per_element": "ns",
    "lambertw.elements_per_call": "count",
    "datasets.self_s": "s",
    "datasets.rows": "count",
    "datasets.bytes": "B",
    "histograms.rows_validated": "count",
    "histograms.sets_built": "count",
    "histograms.self_s": "s",
    "clustering.assign_s": "s",
    "clustering.assign_calls": "count",
    "clustering.relocate_s": "s",
    "clustering.seed_s": "s",
    "clustering.rounds": "count",
    "clustering.objective": "nats",
    "divergences.self_s": "s",
    **{f"centroids.{s}.{m}": u for s in REPORTED_SOLVERS for m, u in (("calls", "count"),
                                                                       ("self_s", "s"))},
    "centroids.fixedpoint_iterations": "count",
    "centroids.fallback_frac": "fraction",
    "centroids.bisection_halvings": "count",
    "oracles.run_alpha_trials_s": "s",
    "oracles.batch_bisection_s": "s",
    "oracles.batch_fixedpoint_s": "s",
    "oracles.fixedpoint_iterations": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, note]
        self.stack: list[int] = []
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            span[4] = _note(name, args, result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def _module(self, short: str):
        try:
            return importlib.import_module(f"jeffreys.{short}")
        except ModuleNotFoundError:
            return None

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.absent = []
        for name, sites in FUNCTIONS:
            present = [(self._module(m), a) for m, a in sites if hasattr(self._module(m), a)]
            # hasattr(None, a) is False, so a removed module counts as absent too.
            if not present:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, getattr(*present[0]))
            for module, attr in present:
                self._patch(module, attr, wrapper)
        histograms = self._module("histograms")
        for name, cls_name, attr in METHODS:
            cls = getattr(histograms, cls_name, None)
            if cls is None or attr not in cls.__dict__:
                self.absent.append(name)
                continue
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
        cls = getattr(histograms, "WeightedHistogramSet", None)
        prop = cls.__dict__.get("matrix") if cls is not None else None
        if isinstance(prop, functools.cached_property):
            traced = functools.cached_property(self._wrap(MATRIX, prop.func))
            traced.__set_name__(cls, "matrix")
            self._patch(cls, "matrix", traced)
        else:
            self.absent.append(MATRIX)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reporting ---------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last call."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        notes: dict[str, list] = {}
        for (name, _, start, end, note), inner in zip(spans, child):
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            calls[name] = calls.get(name, 0) + 1
            notes.setdefault(name, []).append(note)
        spans.clear()

        def layer_self(layer: str) -> float:
            return float(sum(v for k, v in self_s.items() if k.split(".")[0] == layer))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        elements = sum(notes.get(LAMBERT, []))
        lam_calls = calls.get(LAMBERT, 0)
        fixed = notes.get("centroids.fixedpoint", [])
        halvings = notes.get("centroids.bisection", [])
        batch_fp = notes.get(BATCH_FIXEDPOINT, [])
        kmeans = notes.get(KMEANS, [])
        m = {
            "lambertw.calls": lam_calls,
            "lambertw.elements": elements,
            "lambertw.self_s": layer_self("lambertw"),
            "lambertw.ns_per_element": 1e9 * ratio(layer_self("lambertw"), elements),
            "lambertw.elements_per_call": ratio(elements, lam_calls),
            "datasets.self_s": layer_self("datasets"),
            "datasets.rows": sum(n for n, _ in notes.get(LOAD, [])),
            "datasets.bytes": sum(b for _, b in notes.get(LOAD, [])),
            "histograms.rows_validated": calls.get(ROW, 0),
            "histograms.sets_built": calls.get(SET, 0),
            "histograms.self_s": layer_self("histograms"),
            "clustering.assign_s": total.get(ASSIGN, 0.0),
            "clustering.assign_calls": calls.get(ASSIGN, 0),
            "clustering.relocate_s": total.get(RELOCATE, 0.0),
            "clustering.seed_s": total.get(SEED, 0.0),
            "clustering.rounds": ratio(sum(r for r, _ in kmeans), len(kmeans)),
            "clustering.objective": ratio(sum(o for _, o in kmeans), len(kmeans)),
            "divergences.self_s": layer_self("divergences"),
            "centroids.fixedpoint_iterations": ratio(sum(i for i, _ in fixed), len(fixed)),
            "centroids.fallback_frac": ratio(sum(f for _, f in fixed), len(fixed)),
            "centroids.bisection_halvings": ratio(sum(i for i, _ in halvings), len(halvings)),
            "oracles.run_alpha_trials_s": total.get(TRIALS, 0.0),
            "oracles.batch_bisection_s": total.get(BATCH_BISECTION, 0.0),
            "oracles.batch_fixedpoint_s": total.get(BATCH_FIXEDPOINT, 0.0),
            "oracles.fixedpoint_iterations": ratio(sum(s for s, _ in batch_fp),
                                                   sum(n for _, n in batch_fp)),
            "cli.self_s": layer_self("cli"),
        }
        for short in REPORTED_SOLVERS:
            m[f"centroids.{short}.calls"] = calls.get(f"centroids.{short}", 0)
            m[f"centroids.{short}.self_s"] = self_s.get(f"centroids.{short}", 0.0)
        return m


def _note(name: str, args: tuple, result):
    """The counters a span carries, read from its arguments and result."""
    if name == LAMBERT:
        return int(np.size(args[0]))
    if name == LOAD:
        path = Path(args[0])
        files = sorted(path.glob("*.pgm")) if path.is_dir() else [path]
        return result.histograms.n, sum(f.stat().st_size for f in files)
    if name == KMEANS:
        return result.iterations, result.objective_trace[-1]
    if name in ("centroids.fixedpoint", "centroids.bisection"):
        return result.iterations, bool(getattr(result, "fallback", False))
    if name == BATCH_FIXEDPOINT:
        iterations = result[1]
        return int(iterations.sum()), int(iterations.size)
    return None
