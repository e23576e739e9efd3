"""Pure summary arithmetic shared by the benchmark and its tests."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Sequence

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 99, 99.5, 99.9)
MIN_BEYOND = 10


def rank(p: float, n: int) -> int:
    """Nearest-rank index (0-based) of the p-th percentile of n samples."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    return max(0, math.ceil(Fraction(str(p)) * n / 100) - 1)


def beyond(p: float, n: int) -> int:
    """Samples strictly after the p-th percentile's rank."""
    return n - 1 - rank(p, n)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it."""
    fitting = [p for p in TAIL_LADDER if beyond(p, n) >= MIN_BEYOND]
    if not fitting:
        raise ValueError(f"{n} samples leave fewer than {MIN_BEYOND} beyond the median")
    return fitting[-1]


def percentile(values: Sequence[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[rank(p, len(ordered))]


def self_times(durations: Sequence[float], parents: Sequence[int]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    parents[i] is the index of span i's parent, or -1 for a root.  Spans
    nest strictly within one thread, so direct children never overlap and
    their summed durations are the part of the parent they cover.
    """
    out = list(durations)
    for i, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= durations[i]
    return out


def scaled(
    seconds: Sequence[float], probes: Sequence[float], reference: float, half_window: int
) -> list[float]:
    """Job times of one pass in machine-independent seconds.

    probes[i] is the time of a fixed probe run just before job i.  Job i
    is scaled by reference over the median of the probes from i -
    half_window to i + half_window (clipped to the pass), so a job run
    while the machine is slow is scaled down by the slowdown its
    neighbouring probes saw.
    """
    out = []
    for i, s in enumerate(seconds):
        window = probes[max(0, i - half_window): i + half_window + 1]
        out.append(s * reference / statistics.median(window))
    return out
