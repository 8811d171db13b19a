"""Task-to-site routing policies (DESIGN.md A4).

The paper does not specify how globally arriving tasks reach resource
sites.  The default routes each task to the site with the most headroom
(least pending work per unit of aggregate speed); round-robin and uniform
random routing are provided for the routing ablation bench.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from ..cluster.site import ResourceSite
from ..workload.task import Task

__all__ = [
    "RoutingPolicy",
    "LeastLoadedRouting",
    "RoundRobinRouting",
    "RandomRouting",
    "make_routing",
]


class RoutingPolicy(abc.ABC):
    """Chooses the destination site for each arriving task."""

    name: str = "routing"

    @abc.abstractmethod
    def select(self, sites: Sequence[ResourceSite], task: Task) -> ResourceSite:
        """Return the site *task* should be routed to."""


class LeastLoadedRouting(RoutingPolicy):
    """Route to the site with the least pending work per unit speed.

    Site backlogs change far less often than tasks arrive, so the
    headroom score is cached per site and recomputed — by the identical
    expression, for identical results — only when the site's pending
    count, an O(1) read of the site's index, has moved.  Ties break to
    the lexicographically first ``site_id``, as the original ``min``
    over ``(score, site_id)`` keys did.
    """

    name = "least-loaded"

    def __init__(self) -> None:
        self._scores: dict[str, tuple[int, float]] = {}

    def select(self, sites, task):
        if not sites:
            raise ValueError("no sites")
        scores = self._scores
        best_site = None
        best_key = None
        for site in sites:
            pending = site.pending_tasks
            cached = scores.get(site.site_id)
            if cached is not None and cached[0] == pending:
                score = cached[1]
            else:
                score = (pending + 1) / site.total_speed_mips
                scores[site.site_id] = (pending, score)
            key = (score, site.site_id)
            if best_key is None or key < best_key:
                best_key = key
                best_site = site
        return best_site


class RoundRobinRouting(RoutingPolicy):
    """Cycle through sites in order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, sites, task):
        if not sites:
            raise ValueError("no sites")
        # Wrap on increment so the cursor stays bounded over arbitrarily
        # long campaigns instead of growing without limit.
        idx = self._next % len(sites)
        self._next = (idx + 1) % len(sites)
        return sites[idx]


class RandomRouting(RoutingPolicy):
    """Uniform random site choice."""

    name = "random"

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def select(self, sites, task):
        if not sites:
            raise ValueError("no sites")
        return sites[int(self._rng.integers(len(sites)))]


def make_routing(name: str, rng: np.random.Generator) -> RoutingPolicy:
    """Factory by policy name: least-loaded / round-robin / random."""
    if name == "least-loaded":
        return LeastLoadedRouting()
    if name == "round-robin":
        return RoundRobinRouting()
    if name == "random":
        return RandomRouting(rng)
    raise ValueError(f"unknown routing policy {name!r}")
