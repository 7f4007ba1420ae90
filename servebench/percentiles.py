"""Nearest-rank percentiles and how many samples a percentile needs.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it; a p99 therefore needs 1,000 samples.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def rank(q: float, n: int) -> int:
    """1-based nearest rank of the ``q``-quantile among ``n`` samples."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1]: {q}")
    if n < 1:
        raise ValueError("no samples")
    # Round away float noise (0.99 * 1000 is 989.9999...) before ceil.
    return max(1, math.ceil(round(q * n, 9)))


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile of ``samples``."""
    ordered = sorted(samples)
    return ordered[rank(q, len(ordered)) - 1]


def beyond(q: float, n: int) -> int:
    """Samples strictly beyond the ``q``-quantile of ``n`` samples."""
    return n - rank(q, n)


def samples_needed(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """The fewest samples that leave ``min_beyond`` beyond the quantile."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1): {q}")
    # beyond(q, n) is floor(n * (1 - q)), so start just below the bound.
    n = max(1, math.floor(min_beyond / (1.0 - q)) - 2)
    while beyond(q, n) < min_beyond:
        n += 1
    return n
