"""Spans around every public function of the osekcheck modules.

``Tracer.install`` wraps each public (no leading underscore) function of each
module and rebinds every module attribute bound to that function object, so
``state_hash`` is traced whether it is reached as ``model.state_hash`` or as
``explorer.state_hash``.  A function that no longer exists is simply not
traced; its metrics are then absent.  Each span records its name, start, end
and parent in compact arrays kept in memory; ``write`` saves them when the
run is over.  Counts are read from the objects the traced functions return.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

MODULES = ("oil_config", "task_lang", "model", "timing", "kernel_core",
           "explorer", "ltl", "conformance", "cli")
# Methods traced in addition to the module-level functions.
METHODS = (("ltl", "KernelGraphView", "successors"),)


def _observe_graph(counts: Counter, graph, args) -> None:
    nodes = len(graph.nodes)
    edges = sum(len(out) for out in graph.edges.values())
    per_depth = Counter(graph.depths.values())
    counts["explorer.build_graph.states"] += nodes
    counts["explorer.build_graph.edges"] += edges
    counts["explorer.build_graph.dedup_hits"] += edges - (nodes - 1)
    counts["explorer.build_graph.depth"] = max(
        counts["explorer.build_graph.depth"], max(per_depth))
    counts["explorer.build_graph.max_frontier"] = max(
        counts["explorer.build_graph.max_frontier"],
        max(per_depth.values()))


def _observe_successors(counts: Counter, result, args) -> None:
    counts["explorer.expiry_orderings"] += 0   # zero, not absent, if none
    counts["explorer.max_expiry_batch"] += 0
    for choice, _ in result:
        if choice is not None:
            counts["explorer.expiry_orderings"] += 1
            counts["explorer.max_expiry_batch"] = max(
                counts["explorer.max_expiry_batch"], len(choice.order))


def _observe_buchi(counts: Counter, automaton, args) -> None:
    counts["ltl.buchi_states"] += len(automaton.states)


def _observe_render(counts: Counter, text, args) -> None:
    counts["explorer.render_trace.bytes"] += len(text.encode())


def _observe_parse_oil(counts: Counter, result, args) -> None:
    counts["oil_config.parse_oil.bytes"] += len(args[0].encode())


OBSERVERS = {
    "explorer.build_graph": _observe_graph,
    "explorer.successors": _observe_successors,
    "ltl.to_buchi": _observe_buchi,
    "explorer.render_trace": _observe_render,
    "oil_config.parse_oil": _observe_parse_oil,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.counts: Counter = Counter()
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.nested = array("b")        # same name already open above it
        self._active: list[int] = []    # open spans per name
        self._stack: list[int] = []     # open span indices
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for module_name in MODULES:
            try:
                module = importlib.import_module(f"osekcheck.{module_name}")
            except ImportError:
                continue
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[obj] = self._wrap(f"{module_name}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name == "osekcheck" or name.startswith("osekcheck."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._rebind(module, attr, wrappers[value])
        for module_name, cls_name, method in METHODS:
            cls = getattr(sys.modules.get(f"osekcheck.{module_name}"),
                          cls_name, None)
            original = getattr(cls, method, None)
            if inspect.isfunction(original):
                self._rebind(cls, method, self._wrap(
                    f"{module_name}.{cls_name}.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span_name: str, fn):
        name_id = len(self.names)
        self.names.append(span_name)
        self._active.append(0)
        observe = OBSERVERS.get(span_name)
        active, stack, clock = self._active, self._stack, time.perf_counter
        start, end, names, parent, nested = (self.start, self.end, self.name,
                                             self.parent, self.nested)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            nested.append(active[name_id] > 0)
            end.append(0.0)
            active[name_id] += 1
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
                active[name_id] -= 1
            if observe is not None:
                try:
                    observe(self.counts, result, args)
                except (AttributeError, TypeError, ValueError, IndexError):
                    pass  # the returned object changed shape: count absent
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its child spans
        cover.  A span nested inside an open span of the same name adds to
        the calls but not again to the inclusive time.
        """
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(count):
            entry = out.setdefault(self.names[self.name[i]],
                                   {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += duration[i] - child[i]
            if not self.nested[i]:
                entry["s"] += duration[i]
        return out

    def write(self, path, min_seconds: float = 1e-3) -> None:
        """Save the spans lasting at least ``min_seconds`` as gzipped
        ``index name start end parent`` lines.

        A parent lasts at least as long as its child, so the saved spans
        form a closed tree; the millions of shorter spans are only summed
        into ``totals``.
        """
        with gzip.open(path, "wt") as out:
            out.write("index\tname\tstart\tend\tparent\n")
            for i, name_id in enumerate(self.name):
                if self.end[i] - self.start[i] >= min_seconds:
                    out.write(f"{i}\t{self.names[name_id]}\t"
                              f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                              f"{self.parent[i]}\n")
