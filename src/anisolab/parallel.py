"""Deterministic parallel map for embarrassingly parallel sweeps.

Worker count is capped by the ``ANISO_THREADS`` environment variable
(default 1, i.e. sequential).  Results are always returned in input order,
so outputs are identical regardless of the thread count.  No study of the
package uses it: threads did not speed up any of their sweeps.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["parallel_map", "max_workers"]


def max_workers() -> int:
    raw = os.environ.get("ANISO_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def parallel_map(fn, items):
    items = list(items)
    workers = max_workers()
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
