"""Summary statistics the benchmark reports.

Percentiles use linear interpolation between order statistics (numpy's
default). A tail percentile is only reported when at least
``MIN_BEYOND`` samples lie above its interpolation point, so a p95 needs
about 200 samples; :func:`samples_needed` gives the exact count.
"""

from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the q-th percentile's position."""
    if n < 1:
        return 0
    position = (n - 1) * q / 100.0
    return n - 1 - math.floor(position)


def samples_needed(q: float) -> int:
    """Smallest sample count with at least ``MIN_BEYOND`` samples beyond the q-th percentile."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float) -> float:
    """The q-th percentile; refuses a tail with fewer than ``MIN_BEYOND`` samples past it."""
    n = len(samples)
    if samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples has {samples_beyond(n, q)} "
                         f"samples beyond it; need {MIN_BEYOND}")
    ordered = sorted(samples)
    position = (n - 1) * q / 100.0
    lo = math.floor(position)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)
