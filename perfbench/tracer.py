"""Spans and counters around the library's public functions, for the traced
run of the benchmark.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper that
records one span (name, start, end, parent span, job id) per call, in its own
module and wherever another hitomezashi module rebound it with
``from ... import``; ``uninstall`` puts the originals back.  Spans stay in
memory until the run writes them out.  A layer's time is self time: a span's
duration minus the part of it that its child spans cover, and minus the
tracer's own cost per span, which ``Tracer.calibrate`` measures.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import statistics
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, update_wrapper
from time import perf_counter

from workloads import segment_count

# (module, attribute, span name); "Class.attr" patches a class attribute.
# A span's name is the per-layer metric that its self time adds to.
TARGETS = (
    ("words", "_Word.__init__", "words.s"),  # BinaryWord and TurnWord
    ("words", "fibonacci", "words.s"),
    ("words", "pell", "words.s"),
    ("words", "pell_word", "words.s"),
    ("words", "fib_turtle_word", "words.s"),
    ("grid", "build_grid", "grid.build_s"),
    ("grid", "StitchGrid.dual", "grid.dual_s"),
    ("grid", "is_self_dual", "grid.self_dual_s"),
    ("loops", "extract_components", "loops.trace_s"),
    ("loops", "cycle_to_polyomino", "loops.fill_s"),
    ("loops", "Polyomino.canonical_form", "loops.canon_s"),
    ("loops", "largest_loop", "loops.largest_s"),
    ("loops", "analyze_grid", "loops.analyze_s"),
    ("loops", "two_color", "loops.color_s"),
    ("tiles", "snowflake", "tiles.snowflake_s"),
    ("tiles", "conjecture_report", "tiles.report_s"),
    ("registry", "table1", "registry.table1_s"),
    ("render", "render_svg", "render.svg_s"),
    ("render", "render_ascii", "render.ascii_s"),
    ("cli", "main", "cli.self_s"),
)

# Name of the spans that time the tracer's own counting
TRACER = "tracer"

# span name -> counts taken from the call's result
COUNTERS = {
    "words.s": lambda r: {"words.calls": 1},
    "grid.build_s": lambda g: {
        "grid.build_calls": 1,
        "grid.segments": segment_count(g.row_bits, g.col_bits,
                                       g.width, g.height)},
    "loops.trace_s": lambda r: {"loops.cycles": len(r[0]),
                                "loops.open_paths": len(r[1])},
    "loops.fill_s": lambda p: {"loops.fill_cells": p.area},
    "loops.canon_s": lambda r: {"loops.canon_calls": 1},
    "loops.color_s": lambda c: {"loops.color_cells": len(c)},
    "render.svg_s": lambda s: {"render.svg_bytes": len(s.encode())},
    "render.ascii_s": lambda s: {"render.ascii_bytes": len(s.encode())},
}

# Tracer.calibrate: calls per trial and trials; about a quarter second
CALIBRATION_CALLS = 20000
CALIBRATION_TRIALS = 5

LAYERS = ("words", "grid", "loops", "tiles", "registry", "render", "cli")

# Every per-layer metric with its unit.  Times and counts are means per
# traced job, hence the "/job" units; the two ratios are over the whole run.
_S, _N, _B = "s/job", "count/job", "B/job"
LAYER_METRICS = (
    ("loops.trace_s", _S), ("loops.cycles", _N), ("loops.open_paths", _N),
    ("loops.fill_s", _S), ("loops.fill_cells", _N),
    ("loops.canon_s", _S), ("loops.canon_calls", _N),
    ("loops.canon_per_cycle", "ratio"),
    ("loops.largest_s", _S), ("loops.analyze_s", _S),
    ("loops.color_s", _S), ("loops.color_cells", _N),
    ("render.svg_s", _S), ("render.svg_bytes", _B),
    ("render.ascii_s", _S), ("render.ascii_bytes", _B),
    ("cli.self_s", _S), ("cli.out_bytes", _B), ("cli.exit_nonzero", _N),
    ("tiles.snowflake_s", _S), ("tiles.report_s", _S),
    ("grid.build_s", _S), ("grid.build_calls", _N), ("grid.segments", _N),
    ("grid.dual_s", _S), ("grid.self_dual_s", _S),
    ("words.s", _S), ("words.calls", _N), ("registry.table1_s", _S),
    *((f"{layer}.errors", _N) for layer in LAYERS),
    ("trace.overhead_ratio", "ratio"),
)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


@dataclass(frozen=True)
class Overhead:
    """Seconds the tracer adds per span: ``inner`` inside the span itself,
    ``outer`` to its parent (the wrapper's call and its work after
    ``end``) and ``counting`` to the parent for each counting span."""

    inner: float = 0.0
    outer: float = 0.0
    counting: float = 0.0


def self_times(spans, overhead: Overhead = Overhead()) -> list[float]:
    """Each span's duration minus the part its direct children cover and
    minus the tracer's overhead charged to it."""
    children = defaultdict(list)
    charged = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
            charged[parent] += (overhead.counting if name == TRACER
                                else overhead.outer)
    return [end - start - covered(children.get(i, ()), start, end)
            - charged[i] - (0.0 if name == TRACER else overhead.inner)
            for i, (name, start, end, _, _) in enumerate(spans)]


class Tracer:
    def __init__(self):
        import hitomezashi

        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.jobs = 0
        self._job = -1
        self._stack = [-1]
        self.overhead = Overhead()
        modules = {name: importlib.import_module(f"hitomezashi.{name}")
                   for name in LAYERS}
        holders = (hitomezashi, *modules.values())
        # (owner, attribute, original, wrapped) for every place to patch
        self._patches = []
        for module, attr, name in TARGETS:
            if "." in attr:
                cls_name, member = attr.split(".")
                owner = getattr(modules[module], cls_name)
                original = owner.__dict__[member]
                if isinstance(original, cached_property):
                    wrapped = cached_property(
                        self._wrap(original.func, name, COUNTERS.get(name)))
                    wrapped.__set_name__(owner, member)
                else:
                    wrapped = self._wrap(original, name, COUNTERS.get(name))
                self._patches.append((owner, member, original, wrapped))
                continue
            original = getattr(modules[module], attr)
            wrapped = self._wrap(original, name, COUNTERS.get(name))
            for holder in holders:
                for key, value in vars(holder).items():
                    if value is original:
                        self._patches.append((holder, key, original, wrapped))

    def _wrap(self, fn, name: str, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        errors = name.split(".")[0] + ".errors"

        def traced(*args, **kwargs):
            # The span's own bookkeeping lies inside [start, end], so that
            # its cost counts to this span, not to its parent.
            start = perf_counter()
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[errors] += 1
                raise
            finally:
                stack.pop()
                spans[index] = (name, start, perf_counter(), parent,
                                self._job)
            if counter is not None:
                # Counting is the tracer's work, not the library's: a span
                # of its own keeps it out of the parent's self time.
                mark = perf_counter()
                for key, value in counter(result).items():
                    counts[key] += value
                spans.append((TRACER, mark, perf_counter(), parent,
                              self._job))
            return result

        return update_wrapper(traced, fn)

    def calibrate(self) -> None:
        """Measure ``self.overhead``: wrap a function that does nothing and
        call it ``CALIBRATION_CALLS`` times from a wrapped loop, with and
        without a counter, against the same loop calling it bare.  Medians
        of ``CALIBRATION_TRIALS`` repeats; the spans and counts made here
        are dropped."""
        calls = CALIBRATION_CALLS

        def nothing():
            return None

        def loop(fn):
            for _ in range(calls):
                fn()

        plain = self._wrap(nothing, "calibration")
        counted = self._wrap(nothing, "calibration",
                             lambda r: {"calibration": 1})
        timed_loop = self._wrap(loop, "calibration")
        inner, outer, counting = [], [], []
        for _ in range(CALIBRATION_TRIALS):
            start = perf_counter()
            loop(nothing)
            bare = perf_counter() - start
            residual = []
            for child in (plain, counted):
                first = len(self.spans)
                timed_loop(child)
                parent, *kids = self.spans[first:]
                own = parent[2] - parent[1] - sum(e - s for _, s, e, _, _
                                                  in kids)
                residual.append((own - bare) / calls)
                if child is plain:
                    inner.append(statistics.median(e - s for _, s, e, _, _
                                                   in kids))
                del self.spans[first:]
            outer.append(residual[0])
            counting.append(residual[1] - residual[0])
        self.counts.pop("calibration", None)
        self.overhead = Overhead(*map(statistics.median,
                                      (inner, outer, counting)))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def begin_job(self) -> None:
        """Open the root span of the next job and install the wrappers."""
        self._job = self.jobs
        self.jobs += 1
        self.install()
        self._stack.append(len(self.spans))
        self.spans.append(None)
        self._job_start = perf_counter()

    def end_job(self) -> None:
        end = perf_counter()
        index = self._stack.pop()
        self.spans[index] = ("job", self._job_start, end, -1, self._job)
        self.uninstall()

    def layer_metrics(self, overhead_ratio: float) -> dict[str, float]:
        totals = defaultdict(float, self.counts)
        for span, own in zip(self.spans,
                             self_times(self.spans, self.overhead)):
            if span[0] != "job":
                totals[span[0]] += own
        jobs = max(self.jobs, 1)
        metrics = {name: totals[name] / jobs for name, _ in LAYER_METRICS}
        cycles = totals["loops.cycles"]
        metrics["loops.canon_per_cycle"] = (
            totals["loops.canon_calls"] / cycles if cycles else 0.0)
        metrics["trace.overhead_ratio"] = overhead_ratio
        return metrics

    def write(self, path) -> None:
        """Write the spans as gzipped CSV, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(("name", "start_s", "end_s", "parent", "job"))
            for name, start, end, parent, job in self.spans:
                out.writerow((name, f"{start - origin:.9f}",
                              f"{end - origin:.9f}", parent, job))
