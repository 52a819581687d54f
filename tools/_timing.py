"""Wall-clock helpers shared by the ``tools/bench_*.py`` scripts.

The scripts run as ``python tools/bench_<name>.py``, which puts this
directory on ``sys.path``, so they import it as ``from _timing import
best_seconds, timed``.
"""

from __future__ import annotations

import time


def timed(fn) -> float:
    """Wall-clock seconds of one call of ``fn``."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def best_seconds(fn, repeats: int) -> float:
    """The fastest of ``repeats`` timed calls, after one warm-up call.

    The warm-up pays one-off costs (plan cache, allocator, BLAS thread
    pools, lazily built structures) outside the timed calls.
    """
    fn()
    return min(timed(fn) for _ in range(repeats))
