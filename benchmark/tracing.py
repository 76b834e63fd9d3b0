"""Spans and counters around the public functions of each trapmeasure module.

The traced run replaces, for its duration only, every module-level binding
of the functions in ``TARGETS`` with a wrapper that records a span (name,
start, end, parent index) and updates counters.  Nothing inside the
library changes: the spans sit at the calls into each layer.  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator


class Tracer:
    """In-memory spans plus named counters for one traced iteration."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.stack: list[int] = [-1]

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """Like wrap, for a generator: one span per item produced."""
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                start = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    spans.append((name, start, perf_counter(), stack[-1]))
                    return
                spans.append((name, start, perf_counter(), stack[-1]))
                counts[name] += 1
                yield item

        return traced

    def self_times(self) -> Counter[str]:
        """Per span name, total duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Counter[str] = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            totals[name] += end - start - child
        return totals

    def write(self, path) -> None:
        """Spans as gzip TSV: name, start and end in microseconds from the first span, parent."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name\tstart_us\tend_us\tparent\n")
            for name, start, end, parent in self.spans:
                out.write(f"{name}\t{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}\t{parent}\n")


def _count_area(counts, args, kwargs, result):
    counts["trapezoid.area_calls"] += 1


def _count_breakpoints(counts, args, kwargs, result):
    counts["trapezoid.breakpoints"] += len(result.breakpoints) - 2


def _count_profile_points(counts, args, kwargs, result):
    counts["exact.profile_points"] += len(result.breakpoints)


def _count_kept(counts, args, kwargs, result):
    counts["permutations.kept"] += result.image == args[0].image


def _count_heuristic(counts, args, kwargs, result):
    counts["search.heuristic_evaluated"] += result.perms_evaluated
    counts["search.heuristic_budget"] += kwargs["budget"] if "budget" in kwargs else args[1]


def _count_anchors(counts, args, kwargs, result):
    counts["cantor.anchors"] += 3 ** args[0].depth


def _count_projection(counts, args, kwargs, result):
    counts["gasket.directions"] += 1
    counts["gasket.merged_parts"] += len(result.parts)


# (module, public name, counter); the span is named "module.name".  Spans
# that feed no metric of their own still keep their time out of cli.self_s.
TARGETS = (
    ("cli", "main", None),
    ("trapezoid", "area", _count_area),
    ("trapezoid", "slice_profile", _count_breakpoints),
    ("exact", "PiecewiseLinearProfile", _count_profile_points),
    ("exact", "integrate_plp", None),
    ("permutations", "iter_permutations", None),
    ("permutations", "canonical_class", _count_kept),
    ("search", "alpha_exhaustive", None),
    ("search", "alpha_heuristic", _count_heuristic),
    ("gasket", "favard", None),
    ("gasket", "lemma1_check", None),
    ("gasket", "project", _count_projection),
    ("cantor", "partial_cantor", _count_anchors),
    ("cantor", "slice_set", None),
)


@contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Route every binding of each target, in every trapmeasure module, through the tracer."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "trapmeasure"]
    replaced = []
    try:
        for module, attr, count in TARGETS:
            original = getattr(sys.modules[f"trapmeasure.{module}"], attr)
            name = f"{module}.{attr}"
            if inspect.isgeneratorfunction(original):
                wrapper = tracer.wrap_iter(name, original)
            else:
                wrapper = tracer.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        replaced.append((mod, key, original))
        yield
    finally:
        for mod, key, original in reversed(replaced):
            setattr(mod, key, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics that come from spans and counters alone."""
    self_s = tracer.self_times()
    counts = tracer.counts
    breakpoints = counts["trapezoid.breakpoints"]
    profile_s = self_s["trapezoid.slice_profile"]
    yielded = counts["permutations.iter_permutations"]
    directions = counts["gasket.directions"]
    budget = counts["search.heuristic_budget"]
    return {
        "trapezoid.slice_profile_s": profile_s,
        "trapezoid.breakpoints": breakpoints,
        "trapezoid.breakpoints_per_s": breakpoints / profile_s if profile_s else 0.0,
        "trapezoid.area_calls": counts["trapezoid.area_calls"],
        "exact.profile_build_s": self_s["exact.PiecewiseLinearProfile"],
        "exact.integrate_plp_s": self_s["exact.integrate_plp"],
        "exact.profile_points": counts["exact.profile_points"],
        "permutations.iter_s": self_s["permutations.iter_permutations"],
        "permutations.canonical_class_s": self_s["permutations.canonical_class"],
        "permutations.kept_ratio": counts["permutations.kept"] / yielded if yielded else 0.0,
        "search.heuristic_unique_ratio": counts["search.heuristic_evaluated"] / budget if budget else 0.0,
        "gasket.favard_s": self_s["gasket.favard"],
        "gasket.directions": directions,
        "gasket.per_direction_ms": 1e3 * self_s["gasket.project"] / directions if directions else 0.0,
        "gasket.merged_parts": counts["gasket.merged_parts"] / directions if directions else 0.0,
        "cantor.partial_cantor_s": self_s["cantor.partial_cantor"],
        "cantor.slice_set_s": self_s["cantor.slice_set"],
        "cantor.anchors": counts["cantor.anchors"],
        "cli.self_s": self_s["cli.main"],
    }
