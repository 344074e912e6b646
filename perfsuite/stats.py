"""Pure helpers of the benchmark: order statistics, span self time and
the reference check.

Nothing here starts a process or touches the program; the benchmark's
own tests exercise every function directly.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks.

    Matches ``numpy.percentile``'s default method, so a median of an
    even-length sample is the mean of its two middle values.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(data[lo])
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


# -- spans -------------------------------------------------------------------

#: One recorded span: (name, span id, parent id or 0, start, end).
Span = Tuple[str, int, int, float, float]


def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the ``children`` cover.

    Children may overlap each other (spans of other threads) or stick
    out of the interval; overlaps count once and the excess is clipped.
    """
    start, end = interval
    clipped = sorted((max(a, start), min(b, end)) for a, b in children)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of it its child
    spans cover. Span ids are unique within one process, so pass one
    process's spans at a time and add the results.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, _sid, parent, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, float] = {}
    for name, sid, _parent, start, end in spans:
        own = (end - start) - covered((start, end), children.get(sid, ()))
        out[name] = out.get(name, 0.0) + own
    return out


def durations(spans: Iterable[Span]) -> Dict[str, float]:
    """Total duration per span name (the instrumented calls never nest
    inside a call of the same name)."""
    out: Dict[str, float] = {}
    for name, _sid, _parent, start, end in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    return out


# -- correctness -------------------------------------------------------------

def mismatches(observed: Sequence[Optional[str]],
               truth: Sequence[str]) -> int:
    """How many points of one step disagree with the expected times.

    Both sides are ``float.hex()`` simulated times in grid order; a
    point without a result is ``None`` and always disagrees. A missing
    or extra point counts as a mismatch too.
    """
    wrong = sum(1 for a, b in zip(observed, truth) if a != b)
    return wrong + abs(len(observed) - len(truth))


def majority(steps: Sequence[Sequence[Optional[str]]]) -> Tuple:
    """The most common sequence of simulated times among the steps.

    For a seed without stored references: every step of a run
    simulates the same grid, so they must agree, and the steps that
    differ from the majority are wrong. Ties go to the earliest step.
    """
    if not steps:
        raise ValueError("no steps to compare")
    counts: Dict[Tuple, int] = {}
    for step in steps:
        key = tuple(step)
        counts[key] = counts.get(key, 0) + 1
    return max(counts, key=counts.__getitem__)
