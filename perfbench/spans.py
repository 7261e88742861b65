"""Spans and memory probes around the public entry points of sumrips.

They are installed by rebinding the names that the calling modules use
(`kunneth.vietoris_rips`, `cli.compare_product`, `io.read_metric_csv`, ...), so
the program itself is not changed.  A span records its name, start, end and
parent; a layer's self time is the sum of its spans' durations minus the time
their child spans cover.  Counts (cells by dimension, bars by degree, cells at
or below the enclosing radius) are taken where a build or a reduction returns,
inside a `trace.count` span of their own so that their cost is not charged to
the calling layer.  Memory per cell is measured apart from the timed spans, by
running the largest build again under tracemalloc.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import Any, Callable

from sumrips import cli, complexes, io, kunneth, persistence

BUILD = "complexes.vietoris_rips"
REDUCE = "persistence.reduce"
PREDICT = "kunneth.kunneth_predict"
BOTTLENECK = "kunneth.bottleneck"
COMPARE = "kunneth.compare_product"
CLI_MAIN = "cli.main"
COUNT = "trace.count"
IO_CALLS = ("read_metric_csv", "read_barcode_json", "barcode_document",
            "report_document", "dumps_document")

# (module, attribute, span name): every binding through which the workloads
# reach a layer.
BINDINGS = [
    (complexes, "vietoris_rips", BUILD), (kunneth, "vietoris_rips", BUILD),
    (cli, "vietoris_rips", BUILD),
    (persistence, "reduce", REDUCE), (kunneth, "reduce", REDUCE), (cli, "reduce", REDUCE),
    (kunneth, "kunneth_predict", PREDICT),
    (kunneth, "bottleneck", BOTTLENECK), (cli, "bottleneck", BOTTLENECK),
    (kunneth, "compare_product", COMPARE), (cli, "compare_product", COMPARE),
    (cli, "main", CLI_MAIN),
] + [(io, name, f"io.{name}") for name in IO_CALLS]


def install(bindings: list, wrap: Callable[[str, Callable], Callable]) -> Callable[[], None]:
    """Rebind every name through `wrap`; returns a function that restores them."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in bindings]
    for module, attr, name in bindings:
        setattr(module, attr, wrap(name, getattr(module, attr)))

    def restore() -> None:
        for module, attr, fn in originals:
            setattr(module, attr, fn)
    return restore


def enclosing_radius(space) -> float:
    """min over v of max over u of d(v, u): above it the Rips complex is a cone."""
    return float(space.dist.max(axis=1).min())


class Tracer:
    """Spans kept in memory, plus counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []
        self.cells_by_dim: Counter = Counter()
        self.bars_by_degree: Counter = Counter()
        self.cells_built = 0
        self.cells_at_radius = 0
        self.cells_reduced = 0
        self.largest_build: tuple[int, tuple, dict] = (-1, (), {})

    def _begin(self, name: str) -> dict[str, Any]:
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1] if self._open else None}
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _end(self, span: dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        observe = {BUILD: self._count_build, REDUCE: self._count_reduce}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if observe is not None:
                count = self._begin(COUNT)
                observe(args, kwargs, result)
                self._end(count)
            return result
        return traced

    def _count_build(self, args: tuple, kwargs: dict, cx) -> None:
        radius = enclosing_radius(args[0])
        if len(cx) > self.largest_build[0]:
            self.largest_build = (len(cx), args, kwargs)
        self.cells_built += len(cx)
        self.cells_by_dim.update(cx.dim_counts())
        self.cells_at_radius += sum(1 for cell in cx.cells if cell.filtration <= radius)

    def _count_reduce(self, args: tuple, kwargs: dict, code) -> None:
        self.cells_reduced += len(args[0])
        self.bars_by_degree.update({n: len(code[n]) for n in code.dims()})

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: total duration, self time and number of calls."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        for span in self.spans:
            duration = span["end"] - span["start"]
            row = table[span["name"]]
            row["total_s"] += duration
            row["self_s"] += duration - covered[span["id"]]
            row["calls"] += 1
        return dict(table)


def probe_build(build: Callable, args: tuple, kwargs: dict) -> dict[str, int]:
    """Run one build under tracemalloc: its traced peak and the bytes its
    returned complex still holds.  Tracing allocations slows a build several
    times over, so this runs in a pass of its own, after the timed round."""
    tracemalloc.start()
    try:
        cx = build(*args, **kwargs)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"cells": len(cx), "peak_bytes": peak, "retained_bytes": retained}
