"""Span tracer that wraps revdiff's public calls from outside the package.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each traced
function in every ``revdiff`` module namespace that binds it (modules import
names from each other, so one function can have several bindings) and each
traced oracle method on its class; ``Tracer.uninstall`` restores them all.

A span is ``[id, name, start, end, parent, thread, run_id, attrs]``.  Spans
live in memory until ``write`` is called at the end of a run.  The parent of
a span is the innermost open span of its own thread; a span opened in a pool
thread that has none takes the innermost open span of the main thread, which
is the call that started the pool (``run_reverse`` or ``lemma_suite``).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

ID, NAME, START, END, PARENT, THREAD, RUN, ATTRS = range(8)


def _rows(x, dim):
    return int(np.asarray(x).size // max(int(dim), 1))


def _propagate_name(args, kwargs):
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    src = getattr(config, "score_source", None)
    dense = getattr(src, "linear", None) is not None
    return "metrics.propagate_dense" if dense else "metrics.propagate_channels"


def _meter_name(args, kwargs):
    return "metrics.meter_exact" if kwargs.get("mode", "mc") == "exact" else "metrics.meter_mc"


def _run_reverse_attrs(args, kwargs):
    config = args[0]
    chunks = -(-int(config.batch) // int(config.chunk_size))
    pooled = config.n_workers > 1 and chunks > 1
    return {
        "sample_steps": int(config.batch) * int(config.schedule.n_steps),
        "workers": min(int(config.n_workers), chunks) if pooled else 1,
    }


def _lemma_attrs(args, kwargs):
    return {"workers": int(kwargs.get("workers", args[2] if len(args) > 2 else 1))}


def _query_rows(self, args, kwargs):
    # args is (self, t, x)
    return _rows(args[2] if len(args) > 2 else kwargs["x"], self.dim)


def _cloud_attrs(self, args, kwargs):
    return {"rows": _query_rows(self, args, kwargs), "n_points": len(self.cloud.points), "dim": self.dim}


def _gauss_attrs(self, args, kwargs):
    return {"rows": _query_rows(self, args, kwargs)}


# (module, function, span name or namer(args, kwargs), attrs(args, kwargs) or None)
FUNCTIONS = [
    ("revdiff.schedule", "build_schedule", "schedule.build", None),
    ("revdiff.schedule", "validate_schedule", "schedule.validate", None),
    ("revdiff.harness", "build_measure", "measures.build", None),
    ("revdiff.measures", "make_manifold_cloud", "measures.build", None),
    ("revdiff.measures", "forward_sample", "measures.forward", None),
    ("revdiff.measures", "forward_bridge", "measures.forward", None),
    ("revdiff.sampler", "run_reverse", "sampler.run_reverse", _run_reverse_attrs),
    ("revdiff.metrics", "kl_experiment", "metrics.kl_experiment", None),
    ("revdiff.metrics", "propagate_affine_reverse", _propagate_name, None),
    ("revdiff.metrics", "discretization_error_meter", _meter_name, None),
    ("revdiff.metrics", "score_error_budget", "metrics.score_error_budget", None),
    ("revdiff.metrics", "gaussian_kl", "metrics.gaussian_kl", None),
    ("revdiff.metrics", "martingale_checks", "metrics.martingale", None),
    ("revdiff.metrics", "monotonicity_check", "metrics.monotonicity", None),
    ("revdiff.metrics", "concentration_curve", "metrics.concentration", None),
    ("revdiff.harness", "cli", "harness.cli", None),
    ("revdiff.harness", "run_experiment", "harness.run_experiment", None),
    ("revdiff.harness", "lemma_suite", "harness.lemma_suite", _lemma_attrs),
]

# (class, method, span name, attrs(self, args, kwargs) or None)
METHODS = [
    ("PointCloudOracle", "posterior_mean", "measures.cloud.posterior_mean", _cloud_attrs),
    ("PointCloudOracle", "log_marginal", "measures.cloud.log_marginal", _cloud_attrs),
    ("GaussianOracle", "score", "measures.gaussian.score", _gauss_attrs),
    ("GaussianOracle", "log_marginal", "measures.gaussian.log_marginal", _gauss_attrs),
    ("PointCloudOracle", "sample0", "measures.forward", None),
    ("GaussianOracle", "sample0", "measures.forward", None),
    ("PointMassOracle", "sample0", "measures.forward", None),
]


class Tracer:
    """Records spans around the wrapped calls while installed."""

    def __init__(self):
        self.spans = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._main_ident = threading.main_thread().ident
        self._patches = []

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, attrs_fn, method):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            attrs = None
            if attrs_fn is not None:
                attrs = attrs_fn(args[0], args, kwargs) if method else attrs_fn(args, kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main_top = tracer._main_stack[-1:]
                parent = main_top[0] if main_top else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    [sid, span_name, start, end, parent, threading.get_ident(), tracer.run_id, attrs]
                )

        return traced

    def install(self):
        """Wrap every traced function binding and oracle method."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items()) if k == "revdiff" or k.startswith("revdiff.")]
        for mod_name, fn_name, name, attrs_fn in FUNCTIONS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapped = self._wrap(original, name, attrs_fn, method=False)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        measures = sys.modules["revdiff.measures"]
        for cls_name, meth, name, attrs_fn in METHODS:
            cls = getattr(measures, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, name, attrs_fn, method=True))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def write(self, path):
        """Write all spans as JSON lines (times relative to the first span)."""
        t0 = min((s[START] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {
                    "id": s[ID],
                    "name": s[NAME],
                    "start": s[START] - t0,
                    "end": s[END] - t0,
                    "parent": s[PARENT],
                    "thread": s[THREAD],
                    "run": s[RUN],
                    "attrs": s[ATTRS],
                }
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Per-layer aggregation of one traced pass
# ---------------------------------------------------------------------------


def _union_length(intervals, lo, hi):
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


TIMED = [
    "schedule.build",
    "schedule.validate",
    "measures.cloud.posterior_mean",
    "measures.cloud.log_marginal",
    "measures.gaussian.score",
    "measures.build",
    "measures.forward",
    "sampler.run_reverse",
    "metrics.kl_experiment",
    "metrics.propagate_dense",
    "metrics.propagate_channels",
    "metrics.meter_exact",
    "metrics.score_error_budget",
    "metrics.gaussian_kl",
    "metrics.meter_mc",
    "metrics.martingale",
    "metrics.monotonicity",
    "metrics.concentration",
    "harness.cli",
    "harness.run_experiment",
    "harness.lemma_suite",
]


def layer_metrics(spans):
    """Per-layer counters and timers of one pass's spans.

    ``<name>.s`` sums the durations of spans not nested in a span of the same
    name (so ``build_measure`` calling ``make_manifold_cloud`` counts once);
    ``<name>.self_s`` sums each span's duration minus the union of its child
    spans.  A pool's busy fraction is the per-thread union of its children's
    time, summed over threads, over workers x wall time.
    """
    by_id = {s[ID]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)

    def nested_in_same(s):
        p = s[PARENT]
        while p is not None and p in by_id:
            if by_id[p][NAME] == s[NAME]:
                return True
            p = by_id[p][PARENT]
        return False

    def dur(s):
        return s[END] - s[START]

    def self_time(s):
        return dur(s) - _union_length([(c[START], c[END]) for c in children[s[ID]]], s[START], s[END])

    def busy(s):
        per_thread = defaultdict(list)
        for c in children[s[ID]]:
            per_thread[c[THREAD]].append((c[START], c[END]))
        return sum(_union_length(iv, s[START], s[END]) for iv in per_thread.values())

    named = defaultdict(list)
    for s in spans:
        named[s[NAME]].append(s)

    out = {}
    for name in TIMED:
        group = named.get(name, [])
        out[f"{name}.calls"] = len(group)
        out[f"{name}.s"] = sum(dur(s) for s in group if not nested_in_same(s))
        out[f"{name}.self_s"] = sum(self_time(s) for s in group)

    pm = named.get("measures.cloud.posterior_mean", [])
    kernel = pm + named.get("measures.cloud.log_marginal", [])
    out["measures.cloud.posterior_mean.rows"] = sum(s[ATTRS]["rows"] for s in pm)
    pairs = sum(s[ATTRS]["rows"] * s[ATTRS]["n_points"] for s in pm)
    pm_s = out["measures.cloud.posterior_mean.s"]
    out["measures.cloud.pairs_per_s"] = pairs / pm_s if pm_s > 0 else 0.0
    out["measures.cloud.diff_bytes_computed"] = sum(
        s[ATTRS]["rows"] * s[ATTRS]["n_points"] * s[ATTRS]["dim"] * 8 for s in kernel
    )
    out["measures.gaussian.score.rows"] = sum(s[ATTRS]["rows"] for s in named.get("measures.gaussian.score", []))

    runs = named.get("sampler.run_reverse", [])
    out["sampler.sample_steps"] = sum(s[ATTRS]["sample_steps"] for s in runs)
    capacity = sum(s[ATTRS]["workers"] * dur(s) for s in runs)
    out["sampler.pool_busy_frac"] = sum(busy(s) for s in runs) / capacity if capacity > 0 else 0.0

    suites = named.get("harness.lemma_suite", [])
    capacity = sum(s[ATTRS]["workers"] * dur(s) for s in suites)
    out["harness.lemma_suite.pool_busy_frac"] = (
        sum(busy(s) for s in suites) / capacity if capacity > 0 else 0.0
    )
    return out
