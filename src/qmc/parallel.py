"""Thread-pool helper for batch sweeps.

Serial unless QMC_THREADS asks for more than one worker: the sweeps run
mostly Python and small matrix work that holds the interpreter lock, so a
pool of threads makes them slower, not faster.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def max_workers() -> int:
    raw = os.environ.get("QMC_THREADS", "")
    if raw.strip():
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"QMC_THREADS={raw!r} is not an integer") from exc
        if value < 1:
            raise ValueError(f"QMC_THREADS={value} must be positive")
        return value
    return 1


def parallel_map(fn: Callable[[T], R], items: Sequence[T] | Iterable[T]) -> list[R]:
    """Order-preserving map over a thread pool (serial when capped at 1)."""
    items = list(items)
    workers = min(max_workers(), max(len(items), 1))
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
