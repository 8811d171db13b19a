"""Per-site breakdowns and load-balance fairness metrics.

The paper's multi-site model (one agent per resource site) raises an
obvious follow-up the evaluation never reports: how evenly the sites
share the work and whether any site's users are systematically worse
off.  This module provides Jain's fairness index over per-site loads and
a per-site metric breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..cluster.system import System
from ..sim.fold import fold_sum
from ..workload.task import Task
from .response_time import summarize_response_times
from .success_rate import summarize_success

__all__ = ["jains_index", "SiteBreakdown", "per_site_breakdown"]


def jains_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n·Σx²)`` ∈ (0, 1].

    1 means perfectly even; 1/n means one participant takes everything.
    An all-zero allocation is defined as perfectly fair.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty allocation")
    if np.any(arr < 0):
        raise ValueError("allocations must be non-negative")
    denom = arr.size * float(np.sum(arr**2))
    if denom == 0:
        return 1.0
    return float(np.sum(arr)) ** 2 / denom


@dataclass(frozen=True)
class SiteBreakdown:
    """Per-site slice of a run's results."""

    site_id: str
    tasks_completed: int
    avert: float
    success_rate: float
    #: Per-site energy (sum of the site's node Ec values).
    energy: float
    busy_time: float


def per_site_breakdown(
    system: System, tasks: Sequence[Task]
) -> Mapping[str, SiteBreakdown]:
    """Slice run results by the site each task executed on.

    Tasks carry the executing site in their execution record; energy
    comes from the site's node meters.
    """
    by_site: dict[str, list[Task]] = {s.site_id: [] for s in system.sites}
    for t in tasks:
        if t.completed and t.site_id in by_site:
            by_site[t.site_id].append(t)

    out: dict[str, SiteBreakdown] = {}
    for site in system.sites:
        site_tasks = by_site[site.site_id]
        response = summarize_response_times(site_tasks)
        success = summarize_success(site_tasks)
        energies = [n.energy() for n in site.nodes]
        out[site.site_id] = SiteBreakdown(
            site_id=site.site_id,
            tasks_completed=len(site_tasks),
            avert=response.mean,
            success_rate=success.completed_rate,
            energy=fold_sum(e.energy for e in energies),
            busy_time=fold_sum(e.busy_time for e in energies),
        )
    return out
