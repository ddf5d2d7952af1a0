"""Spans around blockslide's layers, recorded from the benchmark's side.

`Tracer.install` replaces the module-level names through which `decide`
reaches each layer with wrappers that open and close a span; `uninstall`
puts the original objects back.  Each span records its name, layer, start,
end, parent span and instance id.  Spans stay in memory until the run
writes them out.  A layer is named after the module that defines the
wrapped function, so `blockslide.decide.compute_potentials` belongs to
`potential`.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from dataclasses import dataclass, field

# (module, attribute path) of every wrapped name.  The package attribute
# `blockslide.decide` is the function, so the submodule is reached with
# importlib.import_module.
TARGETS = (
    ("blockslide.instance", "parse_instance"),
    ("blockslide.decide", "decide"),
    ("blockslide.decide", "decide_connected"),
    ("blockslide.decide", "is_block_graph"),
    ("blockslide.decide", "decompose"),
    ("blockslide.decide", "compute_depths"),
    ("blockslide.decide", "compute_ua"),
    ("blockslide.decide", "compute_potentials"),
    ("blockslide.decide", "rigid_vertices"),
    ("blockslide.decide", "connected_components"),
    ("blockslide.blocks", "decompose"),
    ("blockslide.graph", "Graph.induced"),
    ("blockslide.graph", "Graph.__init__"),
)

LAYERS = ("instance", "decide", "blocks", "invariants", "potential", "graph")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    instance: str
    parent: int | None
    start: float
    end: float = 0.0
    # allocation tracking, only when the tracer traces memory
    base: int = 0
    peak: int = 0
    counts: dict = field(default_factory=dict)

    def record(self):
        out = {
            "id": self.id, "name": self.name, "layer": self.layer,
            "instance": self.instance, "parent": self.parent,
            "start": self.start, "end": self.end,
        }
        if self.peak:
            out["alloc_bytes"] = self.peak - self.base
        if self.counts:
            out["counts"] = self.counts
        return out


def _layer_of(fn):
    return getattr(fn, "__module__", "").rpartition(".")[2] or "unknown"


def _resolve(module_name, path):
    """(owner object, attribute name, current value) or None if missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None or not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Span recorder.  With memory=True every span also records the peak
    tracemalloc allocation above its start, nested spans included."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self.absent = []
        self.instance = ""
        self._stack = []
        self._patches = []
        self._deferred = []  # (span, result) whose counts need the result

    # --- spans ------------------------------------------------------------

    def open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, self.instance,
                    parent.id if parent else None, time.perf_counter())
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            span.base = span.peak = current
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            if self._stack:
                self._stack[-1].peak = max(self._stack[-1].peak, span.peak)

    def finish_instance(self):
        """Fill in counts that need a wrapped call's result.  Called after a
        solve, outside its timed spans."""
        for span, result in self._deferred:
            if span.name == "decompose":
                span.counts["pairs"] = 2 * sum(
                    len(result.blocks_of[u]) for u in result.cut_vertices
                )
            elif span.name == "compute_potentials":
                span.counts["passes"] = result.iteration_count
        self._deferred.clear()

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        layer = _layer_of(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if name == "Graph.induced":
                span.counts["edges_scanned"] = len(args[0].edges)
            elif name in ("decompose", "compute_potentials"):
                tracer._deferred.append((span, result))
            return result

        return wrapper

    def install(self):
        """Wrap every name in TARGETS; record the missing ones in absent."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        for module_name, path in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr, original = found
            name = path if "." in path else attr
            setattr(owner, attr, self._wrap(name, original))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        """Put back every original object, last patched first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Self time of each span by id: its duration minus the durations of
    the spans whose parent it is."""
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.end - s.start
    return out


def layer_totals(spans):
    """Per layer: summed self time, and per wrapped name: calls and summed
    counts."""
    selfs = self_times(spans)
    by_layer = {}
    by_name = {}
    for s in spans:
        by_layer[s.layer] = by_layer.get(s.layer, 0.0) + selfs[s.id]
        entry = by_name.setdefault(s.name, {"calls": 0})
        entry["calls"] += 1
        for key, value in s.counts.items():
            entry[key] = entry.get(key, 0) + value
    return by_layer, by_name


def alloc_peaks(spans):
    """Per layer: the largest allocation peak of one span, in bytes."""
    out = {}
    for s in spans:
        out[s.layer] = max(out.get(s.layer, 0), s.peak - s.base)
    return out
