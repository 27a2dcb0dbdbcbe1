"""Statistics and metric formatting shared by the benchmark's modules.

Percentiles are nearest-rank: the value at rank ``ceil(q/100 * n)`` of
the sorted sample, so every reported percentile is a time that was
actually measured.  A tail percentile is only reported when at least
:data:`MIN_BEYOND` samples lie beyond it; with fewer, one slow sample
would decide it.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_BEYOND = 10

#: Tail percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def nearest_rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` in a sample of ``n``."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    return max(1, math.ceil(q / 100.0 * n))


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q`` percentile."""
    return n - nearest_rank(n, q)


def supported(n: int, q: float) -> bool:
    """Whether a sample of ``n`` may report percentile ``q``."""
    return n >= 1 and beyond(n, q) >= MIN_BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` of ``values`` (no support check)."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), q) - 1]


def reportable(values: Sequence[float], q: float) -> Optional[float]:
    """Percentile ``q`` of ``values``, or ``None`` when the sample is too
    small to support it."""
    if not supported(len(values), q):
        return None
    return percentile(values, q)


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` of the highest tail percentile the sample supports."""
    for q in TAIL_PERCENTILES:
        value = reportable(values, q)
        if value is not None:
            return q, value
    return None


def median(values: Sequence[float]) -> float:
    """Nearest-rank median: a measured value, never an interpolation."""
    return percentile(values, 50.0)


class Metrics:
    """An ordered set of named metrics, each a value with its unit."""

    def __init__(self) -> None:
        self._items: Dict[str, Tuple[float, str]] = {}

    def set(self, name: str, value: float, unit: str) -> None:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        self._items[name] = (float(value), unit)

    def get(self, name: str) -> float:
        return self._items[name][0]

    def names(self) -> List[str]:
        return list(self._items)

    def update(self, other: "Metrics") -> None:
        self._items.update(other._items)

    def unit(self, name: str) -> str:
        return self._items[name][1]

    def lines(self) -> List[str]:
        return [
            f"  {name:<34} {value:>14.6g} {unit}"
            for name, (value, unit) in self._items.items()
        ]
