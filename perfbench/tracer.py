"""Spans around the public functions of each karlin_rsm module, from outside src/.

``install`` replaces every public function of the traced modules with a
wrapper that records a span, in the defining module and in every module
that imported it by name, and in ``verify.SUITES``.  It works because the
package looks these names up when it calls them.  Spans are kept in memory
and written out once, by the caller, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time

MODULES = ("distributions", "karlin_sim", "interval_sets", "limit_sim", "choquet_oracle",
           "verify", "cli")

# Private functions whose own time is a per-layer metric.
EXTRA = {"verify": ("_replica_stream_map",)}

# Called once per Poisson atom inside the limit samplers: a span each would
# cost more than the work, so their time stays in the samplers' own time.
SKIP = {"distributions": ("qbeta_sample", "qbeta_from_uniform")}


def _atoms(result):
    """atoms_used of a LimitSample, or of the first of a coupled pair."""
    sample = result[0] if isinstance(result, tuple) else result
    return {"atoms": sample.atoms_used}


def _threads(args, kwargs, result):
    return {"threads": args[0].threads}


SUITE_FUNCTIONS = {
    "suite_occupancy": "occupancy",
    "suite_patterns": "patterns",
    "suite_marginal": "marginal",
    "suite_locations": "locations",
    "suite_limit_vs_oracle": "limit-vs-oracle",
    "suite_extremal_and_mstar": "extremal-mstar",
}


# Counters derived from what a traced function was passed or returned.
COUNTERS = {
    "distributions.zeta_sample_batch": lambda a, k, r: {"labels": len(r)},
    "karlin_sim.simulate": lambda a, k, r: {
        "n": r.n, "k_n": r.k_n, "object_labels": r.draws.dtype == object},
    "interval_sets.contains_points": lambda a, k, r: {"points": len(a[1])},
    "limit_sim.sample_karlin": lambda a, k, r: _atoms(r),
    "limit_sim.sample_mstar": lambda a, k, r: _atoms(r),
    "limit_sim.sample_coupled": lambda a, k, r: _atoms(r),
    "limit_sim.sample_on_window": lambda a, k, r: _atoms(r),
    "verify.run_suite": lambda a, k, r: {
        "checks": len(r.rows), "checks_failed": sum(not row.passed for row in r.rows)},
    **{f"verify.{fn}": _threads for fn in SUITE_FUNCTIONS},
}


class Tracer:
    """Records spans as (id, name, start, end, parent, thread, counters).

    A span's parent is the innermost open span of its thread; a span opened
    by a worker thread with none open takes the innermost open span of the
    thread that created the tracer, which is waiting on the worker.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._home[-1:] or [0])[0]
            span = next(self._ids)
            counts = {}
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span, name, start, end, parent, threading.get_ident(), counts))
            if counter:
                counts.update(counter(args, kwargs, result))
            return result

        return traced

    def dump(self) -> dict:
        return {"workload": self.workload, "spans": self.spans}


def _targets(module, short: str) -> dict:
    names = [name for name, obj in vars(module).items()
             if not name.startswith("_") and inspect.isfunction(obj)
             and obj.__module__ == module.__name__ and name not in SKIP.get(short, ())]
    return {getattr(module, name): f"{short}.{name}" for name in [*names, *EXTRA.get(short, ())]}


def install(tracer: Tracer):
    """Wrap the traced functions everywhere the package refers to them.

    Returns a function that puts the originals back.
    """
    package = importlib.import_module("karlin_rsm")
    modules = {short: importlib.import_module(f"karlin_rsm.{short}") for short in MODULES}
    wrappers = {}
    for short, module in modules.items():
        for fn, name in _targets(module, short).items():
            wrappers[fn] = tracer.wrap(name, fn)

    undo = []
    for module in (package, *modules.values()):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
                undo.append((module, attr, value))
    suites = modules["verify"].SUITES
    originals = dict(suites)
    suites.update({key: wrappers.get(fn, fn) for key, fn in suites.items()})
    interval_set = modules["interval_sets"].IntervalSet
    contains_points = interval_set.contains_points
    interval_set.contains_points = tracer.wrap("interval_sets.contains_points", contains_points)

    def uninstall():
        for module, attr, value in undo:
            setattr(module, attr, value)
        suites.update(originals)
        interval_set.contains_points = contains_points

    return uninstall
