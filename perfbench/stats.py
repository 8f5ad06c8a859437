"""Percentiles for latency samples."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# candidates for the tail percentile, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """Nearest rank ceil(p/100 * n), computed exactly."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(p/100 * n)."""
    ordered = sorted(samples)
    return ordered[_rank(p, len(ordered)) - 1]


def tail(samples) -> dict | None:
    """The highest candidate percentile with at least ten samples ranked
    beyond it, or None when there are too few samples for any."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        beyond = n - _rank(p, n)
        if beyond >= MIN_BEYOND:
            return {"percentile": p, "value": percentile(samples, p),
                    "samples": n, "beyond": beyond}
    return None


def summary(samples) -> dict:
    """Median, tail (when defined) and sample count of a latency list."""
    out = {"samples": len(samples)}
    if samples:
        out["p50"] = statistics.median(samples)
        t = tail(samples)
        if t is not None:
            out["tail"] = t
    return out
