"""Span tracing of the crisscross layers, installed from outside the package.

``install(recorder)`` wraps the public functions of every layer module and
patches each name that other crisscross modules imported directly (for
example ``crisscross.cli.build_pairs`` or ``crisscross.gee.fit_logistic``),
so a call is seen whichever module makes it.  No file of the package is
changed; ``uninstall`` restores the original objects.

A span is (id, name, start, end, parent id, thread).  The parent is the
innermost open span on the same thread; work that a thread pool runs has
no parent and counts as top level.  Spans and counters stay in memory and
are written out by the caller when a pass ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import math
import os
import sys
import threading
import time
import tracemalloc

# Coordinators whose self time is spent waiting on worker threads, not busy.
WAITING_SPANS = ("experiments.run_experiment",)


class Recorder:
    """In-memory spans plus counters; safe to use from several threads."""

    def __init__(self, id_prefix: str = ""):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count()
        self._prefix = id_prefix
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pl_active = 0          # open top-level pseudolik calls, all threads

    def _stack(self) -> list:
        """This thread's open spans, innermost last, as (id, name)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, 0.0), value)

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` and return its result."""
        stack = self._stack()
        span_id = f"{self._prefix}{next(self._ids)}"
        parent = stack[-1][0] if stack else None
        pseudolik_top = name.startswith("pseudolik.") and not any(
            open_name.startswith("pseudolik.") for _, open_name in stack)
        if pseudolik_top:
            self._enter_pseudolik()
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if pseudolik_top:
                self._leave_pseudolik()
            self.spans.append((span_id, name, start, end, parent,
                               f"{os.getpid()}:{threading.get_ident()}"))

    # tracemalloc runs only while some pseudolik call is open on any thread,
    # so its cost stays off the other layers.
    def _enter_pseudolik(self):
        with self._lock:
            self._pl_active += 1
            if self._pl_active == 1:
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                tracemalloc.reset_peak()

    def _leave_pseudolik(self):
        with self._lock:
            self._pl_active -= 1
            if self._pl_active == 0:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.counters["pseudolik.peak_bytes"] = max(
                    self.counters.get("pseudolik.peak_bytes", 0.0), float(peak))

    def dump(self) -> dict:
        return {"spans": list(self.spans), "counters": dict(self.counters)}


# --------------------------------------------------------------------- #
# counters taken at layer boundaries
# --------------------------------------------------------------------- #

def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _save_dataset(rec, args, kwargs, res):
    rec.add("dataio.rows", _arg(args, kwargs, 0, "data").n_total)
    rec.add("dataio.bytes", _file_size(_arg(args, kwargs, 1, "path")))


def _load_dataset(rec, args, kwargs, res):
    rec.add("dataio.rows", res.n_total)
    rec.add("dataio.bytes", _file_size(_arg(args, kwargs, 0, "path")))


def _simulate_dataset(rec, args, kwargs, res):
    rec.add("simulate.rows", res.observed.n_total)


def _build_pairs(rec, args, kwargs, res):
    rec.add("pseudolik.build_pairs.calls", 1)
    rec.add("pseudolik.pairs", len(res.u))


def _fit_pairwise(rec, args, kwargs, res):
    rec.add("pseudolik.newton_iters", res.iterations)


def _fit_groupwise(rec, args, kwargs, res):
    g = _arg(args, kwargs, 1, "group_size")
    if g > 2:    # g = 2 delegates to fit_pairwise, which counts itself
        rec.add("pseudolik.groups", math.comb(res.n_complete, g))
        rec.add("pseudolik.newton_iters", res.iterations)


def _variance_ustat(rec, args, kwargs, res):
    rec.add("pseudolik.variance_ustat.calls", 1)


def _fit_logistic(rec, args, kwargs, res):
    rec.add("glm.fit_logistic.calls", 1)
    rec.add("glm.iterations", res.iterations)
    rec.add("glm.converged", 1 if res.converged else 0)


def _solve_gee(rec, args, kwargs, res):
    rec.add("gee.iterations", res.iterations)


def _bootstrap(rec, args, kwargs, res):
    rec.add("experiments.bootstrap.resamples", res.n_resamples)


# (module, attribute, span name, counter hook).  "Class.method" patches the
# class attribute.  Private helpers are left alone: a span per inner call
# would cost more than the work it times.
WRAPPED = (
    ("simulate", "simulate_dataset", "simulate.simulate_dataset", _simulate_dataset),
    ("simulate", "simulate_binary", "simulate.simulate_binary", None),
    ("simulate", "missingness_summary", "simulate.missingness_summary", None),
    ("dataio", "save_dataset", "dataio.save_dataset", _save_dataset),
    ("dataio", "load_dataset", "dataio.load_dataset", _load_dataset),
    ("dataio", "save_report", "dataio.save_report", None),
    ("pseudolik", "build_pairs", "pseudolik.build_pairs", _build_pairs),
    ("pseudolik", "fit_pairwise", "pseudolik.fit_pairwise", _fit_pairwise),
    ("pseudolik", "fit_groupwise", "pseudolik.fit_groupwise", _fit_groupwise),
    ("pseudolik", "variance_ustat", "pseudolik.variance_ustat", _variance_ustat),
    ("pseudolik", "fit_pairwise_with_variance",
     "pseudolik.fit_pairwise_with_variance", None),
    ("pseudolik", "groupwise_loglik", "pseudolik.groupwise_loglik", None),
    ("glm", "fit_logistic", "glm.fit_logistic", _fit_logistic),
    ("gee", "fit_propensity", "gee.fit_propensity", None),
    ("gee", "solve_gee", "gee.solve_gee", _solve_gee),
    ("gee", "gee_residual", "gee.gee_residual", None),
    ("gee", "sandwich_gee", "gee.sandwich_gee", None),
    ("gee", "optimal_f", "gee.optimal_f", None),
    ("gee", "OptimalF.values", "gee.optimal_weights", None),
    ("gee", "estimate_binary_2x2", "gee.estimate_binary_2x2", None),
    ("experiments", "run_experiment", "experiments.run_experiment", None),
    ("experiments", "bootstrap", "experiments.bootstrap", _bootstrap),
    ("experiments", "write_summary", "experiments.write_summary", None),
    ("identify", "build_jacobian", "identify.build", None),
    ("identify", "sufficient_knowledge_search",
     "identify.sufficient_knowledge_search", None),
    ("counterexample", "verify_counterexample",
     "counterexample.verify_counterexample", None),
)


def _wrap(rec: Recorder, fn, name: str, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        res = rec.span(name, fn, *args, **kwargs)
        if hook is not None:
            hook(rec, args, kwargs, res)
        return res
    return wrapper


def _wrap_case_study(rec: Recorder, fn):
    """A case study's Jacobian builder is a dataclass field, not a module
    function, so it is wrapped on each case the lookup returns."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        case = fn(*args, **kwargs)
        return dataclasses.replace(case, build=_wrap(rec, case.build,
                                                     "identify.build", None))
    return wrapper


def install(rec: Recorder):
    """Patch every layer function for ``rec``; return the undo function."""
    import crisscross  # noqa: F401  (loads every layer module)
    patches = []

    def patch_everywhere(original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "crisscross"
                                   or mod_name.startswith("crisscross.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    for mod_name, attr, span_name, hook in WRAPPED:
        mod = importlib.import_module(f"crisscross.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            patches.append((cls, meth, original))
            setattr(cls, meth, _wrap(rec, original, span_name, hook))
            continue
        original = getattr(mod, attr)
        patch_everywhere(original, _wrap(rec, original, span_name, hook))
    identify = importlib.import_module("crisscross.identify")
    original = identify.case_study
    patch_everywhere(original, _wrap_case_study(rec, original))

    def uninstall():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
    return uninstall


# --------------------------------------------------------------------- #
# summaries
# --------------------------------------------------------------------- #

def self_times(spans) -> dict:
    """span id -> duration minus the time its child spans cover.

    Children always run on their parent's thread and nest inside it, so
    subtracting their durations is exact."""
    selft = {s[0]: s[3] - s[2] for s in spans}
    for span_id, _, start, end, parent, _ in spans:
        if parent is not None and parent in selft:
            selft[parent] -= end - start
    return selft


def covered_seconds(spans, lo: float, hi: float) -> float:
    """Length of the union of top-level span intervals inside [lo, hi]."""
    intervals = sorted((max(s[2], lo), min(s[3], hi)) for s in spans
                       if s[4] is None and s[3] > lo and s[2] < hi)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in intervals:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def durations(spans) -> dict:
    """span name -> summed duration of its spans."""
    out: dict = {}
    for s in spans:
        out[s[1]] = out.get(s[1], 0.0) + s[3] - s[2]
    return out


def busy_seconds(spans) -> tuple[float, float]:
    """(summed self time of all layer spans, the pseudolik part of it)."""
    selft = self_times(spans)
    busy = pair = 0.0
    for s in spans:
        if s[1] in WAITING_SPANS:
            continue
        busy += selft[s[0]]
        if s[1].startswith("pseudolik."):
            pair += selft[s[0]]
    return busy, pair
