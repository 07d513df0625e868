"""Spans around the benchmark's calls into bgt's public functions.

The benchmark never reaches inside bgt: every call it makes into a module
goes through an `Api` object.  Untraced, the `Api` attributes are the bgt
functions themselves, so timing runs pay nothing.  Traced, each attribute
is a wrapper that records one span per call (name, start, end, parent span,
item id), timed in CPU nanoseconds of the process like every other figure
the benchmark reports.  Spans stay in memory and are written out once, at
exit.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from itertools import islice
from time import process_time_ns as clock_ns

# bgt public functions the workloads call, by attribute name.
FUNCTIONS = (
    "gen_planted_head", "evaluate_cyclic", "save_schedule", "load_schedule",
    "simulate_walk", "main_algorithm", "two_approx", "next_cuts_stream",
    "optimal_height", "opt_candidates", "eight_fifths", "reduce_max",
    "reduce_fastest", "gen_reduce_max_12_7_family", "gen_random_metric",
    "gen_spiral", "mst", "algorithm1", "algorithm2", "algorithm3",
    "certificate_bound", "lower_bound_diameter", "lower_bound_mst",
    "spiral_arc_spacing",
)
# Span names that group several functions into one layer figure.
SPAN_NAMES = {"save_schedule": "core.io", "load_schedule": "core.io"}


def take(stream, k: int) -> list[int]:
    """Pull the next k rounds out of a `next_cuts_stream` generator."""
    return list(islice(stream, k))


def span_name(fn) -> str:
    if fn is take:
        return "pinwheel.next_cuts_stream"
    return SPAN_NAMES.get(fn.__name__, f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")


class Tracer:
    """In-memory span log.  A span is (name, start_ns, end_ns, parent, item)."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._parent: int | None = None
        self._item: str | None = None
        self.phase = "setup"

    def wrap(self, fn):
        name = span_name(fn)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            start = clock_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[sid] = (name, start, clock_ns(), self._parent, self._item, self.phase)

        return traced

    @contextmanager
    def item(self, item_id: str):
        """Parent span for everything one benchmark item calls."""
        sid = len(self.spans)
        self.spans.append(None)
        outer = (self._parent, self._item)
        self._parent, self._item = sid, item_id
        start = clock_ns()
        try:
            yield
        finally:
            self._parent, self._item = outer
            self.spans[sid] = ("item", start, clock_ns(), outer[0], item_id, self.phase)

    def totals(self, phase: str) -> dict[str, tuple[float, int]]:
        """name -> (seconds, calls) summed over the spans of one phase."""
        out: dict[str, tuple[float, int]] = {}
        for name, start, end, _, _, ph in self.spans:
            if ph == phase:
                s, c = out.get(name, (0.0, 0))
                out[name] = (s + (end - start) / 1e9, c + 1)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fp:
            for sid, (name, start, end, parent, item, phase) in enumerate(self.spans):
                fp.write(json.dumps({
                    "id": sid, "name": name, "cpu_start_ns": start, "cpu_end_ns": end,
                    "parent": parent, "item": item, "phase": phase,
                }) + "\n")


class Api:
    """The bgt functions a workload may call, traced or not."""

    def __init__(self, bgt, tracer: Tracer | None = None):
        self.tracer = tracer
        for name in FUNCTIONS:
            fn = getattr(bgt, name)
            setattr(self, name, tracer.wrap(fn) if tracer else fn)
        self.take = tracer.wrap(take) if tracer else take

    def item(self, item_id: str):
        return self.tracer.item(item_id) if self.tracer else nullcontext()
