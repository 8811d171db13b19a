"""Response-time metrics (paper Eq. 4).

``AveRT = (1/N) Σ (ET + wait_t)`` over the tasks submitted and completed
within the observation period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..workload.task import Task

__all__ = [
    "ResponseTimeSummary",
    "average_response_time",
    "summarize_response_times",
    "summarize_samples",
]


@dataclass(frozen=True)
class ResponseTimeSummary:
    """Distributional summary of task response times."""

    count: int
    mean: float
    median: float
    p95: float
    maximum: float
    mean_wait: float
    mean_execution: float

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be non-negative")


def average_response_time(tasks: Iterable[Task]) -> float:
    """Eq. 4 over completed *tasks*; 0 for an empty set."""
    total = 0.0
    n = 0
    for t in tasks:
        if t.completed:
            total += t.response_time
            n += 1
    return total / n if n else 0.0


def summarize_response_times(tasks: Sequence[Task]) -> ResponseTimeSummary:
    """Full response-time summary over completed *tasks*."""
    done = [t for t in tasks if t.completed]
    return summarize_samples(
        [t.response_time for t in done], [t.waiting_time for t in done]
    )


def summarize_samples(
    responses: Sequence[float], waits: Sequence[float]
) -> ResponseTimeSummary:
    """Summary of paired response and wait times, in completion order.

    The median and p95 come from one sort, with NumPy's ``linear``
    percentile rule written out, so they equal ``np.median`` and
    ``np.percentile(rts, 95)`` bit for bit without the first call's
    import of ``numpy.ma``.
    """
    n = len(responses)
    if not n:
        return ResponseTimeSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    rts = np.array(responses)
    wait = np.array(waits)
    ordered = np.sort(rts).tolist()
    mid = n // 2
    median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    # p95 lies a fraction t of the way from a to b; NumPy interpolates
    # from whichever of the two is nearer.
    h = 0.95 * (n - 1)
    lo = math.floor(h)
    t = h - lo
    a, b = ordered[lo], ordered[min(lo + 1, n - 1)]
    p95 = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
    return ResponseTimeSummary(
        count=n,
        mean=float(rts.mean()),
        median=median,
        p95=p95,
        maximum=ordered[-1],
        mean_wait=float(wait.mean()),
        mean_execution=float((rts - wait).mean()),
    )
