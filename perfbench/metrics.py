"""The benchmark's own arithmetic: medians, the tail rule, self time from a
span tree, and the failure ratio."""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass

#: A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None      # id of the span that caused this one
    ok: bool = True         # False when the wrapped call raised


def median(xs) -> float:
    return float(statistics.median(xs))


def tail(xs) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that has at least
    TAIL_BEYOND samples above it, by nearest rank.

    A tail is never taken below the median: with fewer than
    2*TAIL_BEYOND + 1 samples no such percentile reaches p50, and the median
    is returned as (50.0, median).
    """
    s = sorted(xs)
    n = len(s)
    if not n:
        raise ValueError("no samples")
    i = n - 1 - TAIL_BEYOND
    if i < n // 2:
        return 50.0, median(s)
    return 100.0 * (i + 1) / n, float(s[i])


def fail_ratio(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return {sp.id: (sp.end - sp.start) - _covered(children[sp.id])
            for sp in spans}


def ancestors(spans) -> dict[int, list[str]]:
    """Span id -> names of all enclosing spans, innermost first."""
    by_id = {sp.id: sp for sp in spans}
    out = {}
    for sp in spans:
        names, p = [], sp.parent
        while p is not None:
            names.append(by_id[p].name)
            p = by_id[p].parent
        out[sp.id] = names
    return out
