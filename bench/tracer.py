"""Span tracing of the library from outside: wrap public functions, time them.

A :class:`Tracer` records one span per call of a wrapped function: name,
start, end, parent span and the benchmark item being processed. Spans are
kept in memory; per-name call counts, inclusive time and self time
(inclusive time minus the time covered by child spans) are summed as the
spans close.

:func:`installed` replaces every module binding of each traced function,
not only the one in its home module: ``neh`` is bound in ``heuristics``,
``harness``, ``training``, ``env`` and the package itself, and a call
through any of them must be seen. Default arguments bound at definition
time cannot be patched, so callers pass such arguments explicitly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# The layers are the modules under src/flowshop; cli only parses arguments
# and errors does no work, so neither is traced.
LAYERS = ("core", "heuristics", "exact", "harness", "stats", "instances", "env", "policy", "autograd", "training")

# Methods traced in addition to each layer's public functions.
METHODS = {
    "autograd": (("Tensor", "backward"),),
    "policy": (("TraceBatch", "from_traces"),),
    "training": (("Adam", "step"),),
}


def _makespan_batch_work(counts, args, kwargs, result):
    perms = np.asarray(args[1] if len(args) > 1 else kwargs["perms"])
    inst = args[0] if args else kwargs["inst"]
    counts["core.makespan_batch.perms"] += perms.shape[0]
    counts["core.makespan_batch.cells"] += perms.shape[0] * inst.n * inst.m


def _insertion_work(counts, args, kwargs, result):
    times = args[0] if args else kwargs["times"]
    seq = args[1] if len(args) > 1 else kwargs["seq"]
    positions = len(seq) + 1
    counts["heuristics.insertion_makespans.positions"] += positions
    counts["heuristics.insertion_makespans.cells"] += positions * times.shape[0]


def _descent_outcome(counts, args, kwargs, result):
    start = args[1] if len(args) > 1 else kwargs["start"]
    if not np.array_equal(np.asarray(result[0]), np.asarray(start)):
        counts["heuristics.local_search_insert.improved"] += 1


# Work counters taken from a call's arguments and result, outside its span.
COUNTERS = {
    "core.makespan_batch": _makespan_batch_work,
    "heuristics.insertion_makespans": _insertion_work,
    "heuristics.local_search_insert": _descent_outcome,
}


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.item = None  # id of the benchmark item the next spans belong to
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, item id)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [id, name, start, time covered by children]
        self._next_id = 0

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        span_id, name, start, children = self._stack.pop()
        stop = self.clock()
        duration = stop - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((span_id, name, start, stop, parent, self.item))
        self.calls[name] += 1
        self.inclusive[name] += duration
        self.self_time[name] += duration - children

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call, plus its work counter if any."""
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def child_time(self, parent_name: str, child_name: str) -> float:
        """Total duration of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        names = {span[0]: span[1] for span in self.spans}
        return sum(
            span[3] - span[2]
            for span in self.spans
            if span[1] == child_name and names.get(span[4]) == parent_name
        )

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans closed."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, stop, parent, item in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": stop, "parent": parent, "item": item}
                    )
                    + "\n"
                )


def targets():
    """(metric name, owner, attribute) of every traced function and method."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"flowshop.{layer}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out.append((f"{layer}.{attr}", module, attr))
        for cls_name, method in METHODS.get(layer, ()):
            out.append((f"{layer}.{cls_name}.{method}", getattr(module, cls_name), method))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every binding of every traced function through ``tracer`` until exit."""
    undo = []
    traced = targets()
    modules = [mod for name, mod in list(sys.modules.items()) if name == "flowshop" or name.startswith("flowshop.")]
    try:
        for name, owner, attr in traced:
            if inspect.isclass(owner):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(tracer.wrap(name, raw.__func__))
                else:
                    replacement = tracer.wrap(name, raw)
                undo.append((owner, attr, raw))
                setattr(owner, attr, replacement)
                continue
            original = getattr(owner, attr)
            wrapped = tracer.wrap(name, original)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapped)
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
