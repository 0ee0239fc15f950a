"""Outside-in tracer: spans around the public functions of every loadcouple layer.

The program is not edited.  ``install`` replaces each public function of the
layer modules, wherever a loadcouple module namespace holds it, with a
wrapper that records a span; ``remove`` puts every original back.  Because
the wrapper sits in the module globals, calls inside one module (such as
``solve_linear`` -> ``spectral_radius``) are caught too.

A span is ``[id, parent id, op id, name, start, end, extra]``.  Spans are
kept in memory and written out by the caller.  A span opened in a thread
with no open span of its own (a worker of ``demand_sweep``'s pool) takes the
client thread's innermost open span as its cause, so pool work is charged
to the sweep that started it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import weakref
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "netmodel", "scenario", "coupling", "linfeas", "solver", "analysis")
# name -> function(args, kwargs, result) giving the span's ``extra`` value
_EXTRAS = {
    "netmodel.load_instance": lambda args, kwargs, result: os.path.getsize(args[0]),
    "netmodel.save_instance": lambda args, kwargs, result: os.path.getsize(args[1]),
    "solver.solve": lambda args, kwargs, result: (result.iterations, result.status),
    "solver.solve_with_interval_stop": lambda args, kwargs, result: (result.iterations, result.status),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client: list | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._cc_bytes = weakref.WeakKeyDictionary()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer, extra = self, _EXTRAS.get(name)
        if name == "coupling.load_function":
            extra = self._load_function_bytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1][0]
            elif stack is not tracer._client and tracer._client:
                parent = tracer._client[-1][0]
            else:
                parent = None
            span = [next(tracer._ids), parent, tracer.op, name, perf_counter(), None, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if extra is not None:
                span[6] = extra(args, kwargs, result)
            return result

        return traced

    def _load_function_bytes(self, args, kwargs, result):
        """Bytes of coefficient and load arrays one map evaluation reads and writes (computed)."""
        cc = args[0]
        size = self._cc_bytes.get(cc)
        if size is None:
            size = sum(a.nbytes for group in (cc.rate_per_demand, cc.rel_interference, cc.rel_noise)
                       for a in group)
            self._cc_bytes[cc] = size
        return size + 2 * 8 * cc.num_cells  # plus rho in and loads out

    def install(self) -> None:
        """Wrap every public function of the layers and ``NetworkInstance.with_demand_scale``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._client = self._stack()
        modules = {layer: sys.modules[f"loadcouple.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        owners = [sys.modules["loadcouple"], *modules.values()]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrappers[id(value)][1])
        cls = modules["netmodel"].NetworkInstance
        method = cls.__dict__["with_demand_scale"]
        self._patches.append((cls, "with_demand_scale", method))
        setattr(cls, "with_demand_scale", self._wrap("netmodel.with_demand_scale", method))

    def remove(self) -> None:
        """Put back every original function; safe to call when not installed."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def analyse(spans) -> dict:
    """Per-name calls and self time, plus the counts the layer metrics need.

    Self time is a span's duration minus the part of it covered by its child
    spans.  Children in pool threads can overlap one another; ``overlap_s``
    sums, over every parent, child durations minus their union, so that
    ``sum(self) == sum(root durations) + overlap_s``.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[4], s[5]))
    calls, self_s = defaultdict(int), defaultdict(float)
    overlap = 0.0
    for s in spans:
        kids = children.get(s[0], ())
        covered = _covered(kids, s[4], s[5])
        self_s[s[3]] += (s[5] - s[4]) - covered
        calls[s[3]] += 1
        overlap += sum(stop - start for start, stop in kids) - covered

    def has_ancestor(span, names) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[3] in names:
                return True
            parent = by_id.get(parent[1])
        return False

    def parent_name(span):
        parent = by_id.get(span[1])
        return parent[3] if parent is not None else None

    solves = ("solver.solve", "solver.solve_with_interval_stop")
    solve_spans = [s for s in spans if s[3] in solves and s[6] is not None]
    sweeps = [s for s in spans if s[3] == "analysis.demand_sweep"]
    sweep_ids = {s[0] for s in sweeps}
    map_evals = [s for s in spans if s[3] == "coupling.load_function"]
    radii = [s for s in spans if s[3] == "linfeas.spectral_radius"]
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "overlap_s": overlap,
        "root_s": sum(s[5] - s[4] for s in spans if s[1] is None),
        "bytes_read": sum(s[6] for s in spans if s[3] == "netmodel.load_instance" and s[6]),
        "bytes_written": sum(s[6] for s in spans if s[3] == "netmodel.save_instance" and s[6]),
        "map_eval_bytes": sum(s[6] for s in map_evals if s[6]),
        "iterations": sum(s[6][0] for s in solve_spans),
        "unconverged": sum(1 for s in solve_spans if s[6][1] == "max_iter_exceeded"),
        "map_evals_in_solve": sum(1 for s in map_evals if has_ancestor(s, solves)),
        "radius_used": sum(1 for s in radii if has_ancestor(s, ("linfeas.feasibility_check",))),
        "boundary_verdicts": sum(
            1 for s in spans if s[3] == "linfeas.feasibility_check"
            and parent_name(s) in ("analysis.feasibility_boundary", "analysis.compare_configs")),
        "sweep_wall_s": sum(s[5] - s[4] for s in sweeps),
        "sweep_child_s": sum(s[5] - s[4] for s in spans if s[1] in sweep_ids),
    }
