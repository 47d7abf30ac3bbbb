"""Per-layer tracing from the benchmark's side of the calls into ``negset``.

:class:`Tracer` wraps the public functions of each module, plus the
``SignedGraph`` methods that carry the graph layer's cost, with timing
wrappers.  A name bound by ``from .x import f`` lives separately in every
module that imports it, so a function is rebound wherever a ``negset``
module namespace holds it, and everything is restored by
:meth:`Tracer.uninstall`.  Spans (name, start, end, parent, op id) are kept
in compact in-memory arrays and written out once, at the end of the run.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

#: span name -> (module, attribute) of the functions it wraps.
FUNCTIONS = {
    "sgio.parse": [("negset.sgio", "load_path")],
    "balance.check": [("negset.balance", "check_balance")],
    "balance.negation_check": [("negset.balance", "is_negation_set")],
    "minimality.is_minimal": [("negset.minimality", "is_minimal")],
    "minimality.certificate": [
        ("negset.minimality", "triangle_certificate_for_complete"),
        ("negset.minimality", "unique_minimum_by_size"),
    ],
    "negation.acyclic": [("negset.negation", "acyclic_negation")],
    "negation.circle_enum": [("negset.negation", "negative_circles")],
    "packing.classes": [("negset.packing", "negative_component_classes")],
    "packing.distances": [("negset.packing", "class_distances")],
    "packing.scan": [("negset.packing", "build_class_graph")],
    "packing.packing_number": [("negset.packing", "packing_number")],
    "oracle.enumerate": [("negset.oracle", "enumerate_negation_sets")],
    "oracle.brute_packing": [("negset.oracle", "brute_packing_number")],
}

#: span name -> (module, class, method) of the methods it wraps.
METHODS = {
    "graph.build": [("negset.graph", "SignedGraph", "__init__")],
    "graph.switch": [("negset.graph", "SignedGraph", "switch")],
    "graph.k_core": [("negset.graph", "SignedGraph", "k_core")],
    "graph.components": [("negset.graph", "SignedGraph", "connected_components")],
    "packing.scan": [("negset.packing", "ClassGraph", "balanced")],
}

ROOT = "cli.main"
NAMES = (ROOT, *sorted(set(FUNCTIONS) | set(METHODS)))


def _count_bytes(tracer, args, result):
    tracer.counters["sgio.parse_bytes"] += os.path.getsize(args[0])


def _count_classes(tracer, args, result):
    tracer.counters["packing.class_count"] += 2 * len(result.classes)


def _count_scan_step(tracer, args, result):
    tracer.counters["packing.scan_steps"] += 1


def _count_switchings(tracer, args, result):
    tracer.counters["oracle.switchings"] += 1 << max(args[0].n - 1, 0)


#: (module, attribute) -> hook(tracer, args, result) run after a traced call.
HOOKS = {
    ("negset.sgio", "load_path"): _count_bytes,
    ("negset.packing", "negative_component_classes"): _count_classes,
    ("negset.packing", "balanced"): _count_scan_step,
    ("negset.oracle", "enumerate_negation_sets"): _count_switchings,
}
COUNTERS = ("sgio.parse_bytes", "packing.class_count", "packing.scan_steps", "oracle.switchings")


class Tracer:
    """Span recorder plus the wrapper installation it times through."""

    def __init__(self):
        self.name_id = {name: i for i, name in enumerate(NAMES)}
        self.span_name = array("B")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.self_ns = [0] * len(NAMES)
        self.calls = [0] * len(NAMES)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._stack: list[list[int]] = []  # [span index, start, child ns]
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter_ns()
        self.span_name.append(self.name_id[name])
        self.span_start.append(start)
        self.span_end.append(start)
        self.span_parent.append(parent)
        self.span_op.append(self.op)
        self._stack.append([idx, start, 0])
        return idx

    def close(self) -> None:
        end = time.perf_counter_ns()
        idx, start, child = self._stack.pop()
        self.span_end[idx] = end
        duration = end - start
        name = self.span_name[idx]
        self.self_ns[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def call(self, name: str, fn, *args, **kwargs):
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def self_ms(self, name: str) -> float:
        return self.self_ns[self.name_id[name]] / 1e6

    def call_count(self, name: str) -> int:
        return self.calls[self.name_id[name]]

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every wrapped name in every loaded ``negset`` module."""
        if self._restore:
            raise RuntimeError("tracer wrappers are already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "negset" or n.startswith("negset.")]
        for name, targets in FUNCTIONS.items():
            for module, attr in targets:
                original = getattr(sys.modules[module], attr)
                wrapper = self._wrap(name, original, HOOKS.get((module, attr)))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
        for name, targets in METHODS.items():
            for module, cls_name, attr in targets:
                cls = getattr(sys.modules[module], cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, HOOKS.get((module, attr))))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Tab-separated spans: name, start ns, end ns, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("name\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.span_start)):
                fp.write(
                    f"{NAMES[self.span_name[i]]}\t{self.span_start[i]}\t{self.span_end[i]}"
                    f"\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )
