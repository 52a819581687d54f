"""Summary statistics and the open-loop arrival schedule."""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (``0 < q <= 1``).

    The smallest sample with at least ``ceil(q * n)`` samples at or below
    it.  For ``q = 0.9`` and ``n >= 100`` at least ten samples lie above
    the reported value's rank, so the p90 is backed by a tail.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def poisson_schedule(rate: float, seconds: float, seed: int) -> List[float]:
    """Seeded arrival offsets (seconds from the window start) of a
    Poisson process of ``rate`` per second over ``[0, seconds)``.

    The process is conditioned on its count: ``round(rate * seconds)``
    arrival times drawn uniform on the window and sorted, which is the
    law of Poisson arrivals given their number.  Fixing the count keeps
    the offered load identical across seeds, so run-to-run spread in
    throughput comes from the system, not from the draw.
    """
    if rate <= 0 or seconds <= 0:
        raise ValueError(f"rate and seconds must be > 0, got {rate}, {seconds}")
    count = max(1, round(rate * seconds))
    rng = np.random.default_rng(seed)
    return sorted(float(t) for t in rng.uniform(0.0, seconds, count))
