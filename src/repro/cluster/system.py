"""Target-system topology builder (paper §III.B, §V.A).

The paper's platform: 5–10 resource sites, each with 5–20 heterogeneous
compute nodes of 4–6 processors; processor speeds U(500, 1000) MIPS;
``pmax = 95 W``, ``pmin = 48 W``.  :class:`PlatformSpec` captures these
ranges; :func:`build_system` realizes a concrete topology from seeded RNG
streams so that every experiment is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..energy.accounting import SystemEnergy, system_energy
from ..energy.meter import UsageTally
from ..energy.power_model import (
    constant_power_profile,
    proportional_power_profile,
)
from ..sim.core import Environment
from ..sim.rng import RandomStreams
from .heterogeneity import DEFAULT_MEAN_SPEED_MIPS, speeds_with_cv
from .node import DEFAULT_QUEUE_SLOTS, ComputeNode, SleepPolicy
from .processor import SPEED_RANGE_MIPS, Processor
from .site import ResourceSite

__all__ = ["PlatformSpec", "System", "build_system"]


@dataclass(frozen=True)
class PlatformSpec:
    """Parameter ranges describing a PDCS platform.

    Ranges are inclusive ``(lo, hi)`` tuples sampled per site/node; pass
    ``lo == hi`` for a fixed value.
    """

    num_sites: int = 5
    nodes_per_site: tuple[int, int] = (5, 20)
    procs_per_node: tuple[int, int] = (4, 6)
    #: Uniform speed range in MIPS; ignored when ``heterogeneity_cv`` set.
    speed_range_mips: tuple[float, float] = SPEED_RANGE_MIPS
    #: If set, synthesize speeds with this coefficient of variation
    #: (Experiment 3) instead of the uniform range.
    heterogeneity_cv: Optional[float] = None
    mean_speed_mips: float = DEFAULT_MEAN_SPEED_MIPS
    queue_slots: int = DEFAULT_QUEUE_SLOTS
    #: "constant" (§V.A: pmax=95, pmin=48) or "proportional" (§III.C).
    power_model: str = "constant"
    sleep_policy: SleepPolicy = field(default_factory=SleepPolicy)
    split_enabled: bool = True

    def __post_init__(self) -> None:
        if self.num_sites <= 0:
            raise ValueError("num_sites must be positive")
        for name, (lo, hi) in (
            ("nodes_per_site", self.nodes_per_site),
            ("procs_per_node", self.procs_per_node),
        ):
            if not 0 < lo <= hi:
                raise ValueError(f"invalid range for {name}: ({lo}, {hi})")
        lo, hi = self.speed_range_mips
        if not 0 < lo <= hi:
            raise ValueError(f"invalid speed range {self.speed_range_mips}")
        if self.heterogeneity_cv is not None and not 0 <= self.heterogeneity_cv < 2:
            raise ValueError("heterogeneity_cv must lie in [0, 2)")
        if self.queue_slots <= 0:
            raise ValueError("queue_slots must be positive")
        if self.power_model not in ("constant", "proportional"):
            raise ValueError(f"unknown power model {self.power_model!r}")

    def to_dict(self) -> dict:
        """JSON-safe representation (inverse of :meth:`from_dict`).

        Worker processes and checkpoint journals carry platform specs by
        value, so the encoding uses only JSON scalar/list/dict types.
        """
        return {
            "num_sites": self.num_sites,
            "nodes_per_site": list(self.nodes_per_site),
            "procs_per_node": list(self.procs_per_node),
            "speed_range_mips": list(self.speed_range_mips),
            "heterogeneity_cv": self.heterogeneity_cv,
            "mean_speed_mips": self.mean_speed_mips,
            "queue_slots": self.queue_slots,
            "power_model": self.power_model,
            "sleep_policy": self.sleep_policy.to_dict(),
            "split_enabled": self.split_enabled,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlatformSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        cv = data["heterogeneity_cv"]
        return cls(
            num_sites=int(data["num_sites"]),
            nodes_per_site=tuple(data["nodes_per_site"]),
            procs_per_node=tuple(data["procs_per_node"]),
            speed_range_mips=tuple(float(v) for v in data["speed_range_mips"]),
            heterogeneity_cv=None if cv is None else float(cv),
            mean_speed_mips=float(data["mean_speed_mips"]),
            queue_slots=int(data["queue_slots"]),
            power_model=data["power_model"],
            sleep_policy=SleepPolicy.from_dict(data["sleep_policy"]),
            split_enabled=bool(data["split_enabled"]),
        )


class System:
    """A realized PDCS platform: sites, nodes, processors."""

    def __init__(self, env: Environment, sites: Sequence[ResourceSite]) -> None:
        if not sites:
            raise ValueError("a system needs at least one site")
        self.env = env
        self.sites = list(sites)
        self._by_id = {s.site_id: s for s in self.sites}
        # The topology never changes after construction (failures toggle
        # node availability, not membership), so the flattened views the
        # metering and sampling loops walk every cycle are built once.
        self._nodes = [n for s in self.sites for n in s.nodes]
        self._processors = [p for n in self._nodes for p in n.processors]
        self._num_processors = sum(n.num_processors for n in self._nodes)
        self._slowest_speed_mips = min(
            p.speed_mips for p in self._processors
        )
        #: Running busy/powered time and busy count over every meter,
        #: kept by the meters at each transition.
        self.usage = UsageTally()
        for p in self._processors:
            self.usage.add(p.meter)

    def __iter__(self):
        return iter(self.sites)

    def __len__(self) -> int:
        return len(self.sites)

    def site(self, site_id: str) -> ResourceSite:
        return self._by_id[site_id]

    @property
    def nodes(self) -> list[ComputeNode]:
        """All nodes across all sites (shared list — do not mutate)."""
        return self._nodes

    @property
    def processors(self) -> list[Processor]:
        """All processors in topology order (shared list — do not mutate)."""
        return self._processors

    @property
    def num_processors(self) -> int:
        return self._num_processors

    @property
    def slowest_speed_mips(self) -> float:
        """Speed of the slowest processor — the reference for ``ACT``."""
        return self._slowest_speed_mips

    def energy(self, now: Optional[float] = None) -> SystemEnergy:
        """System energy aggregate ``ECS`` as of *now* (default: env.now)."""
        at = self.env.now if now is None else now
        return system_energy(n.energy(at) for n in self.nodes)

    def busy_processors(self) -> int:
        """Number of processors currently executing a task."""
        return self.usage.busy

    @property
    def pending_tasks(self) -> int:
        """Tasks admitted to a node and not yet completed, read from
        the site indexes."""
        pending = 0
        for site in self.sites:
            pending += site.pending_tasks
        return pending

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<System sites={len(self.sites)} nodes={len(self.nodes)} "
            f"procs={self.num_processors}>"
        )


def build_system(
    env: Environment, spec: PlatformSpec, streams: RandomStreams
) -> System:
    """Realize *spec* into a concrete :class:`System` topology."""
    topo_rng = streams["platform.topology"]
    speed_rng = streams["platform.speeds"]

    # Sample topology sizes first so speed draws are independent of them.
    nodes_per_site = [
        int(topo_rng.integers(spec.nodes_per_site[0], spec.nodes_per_site[1] + 1))
        for _ in range(spec.num_sites)
    ]
    procs_per_node = [
        [
            int(topo_rng.integers(spec.procs_per_node[0], spec.procs_per_node[1] + 1))
            for _ in range(count)
        ]
        for count in nodes_per_site
    ]
    total_procs = sum(sum(counts) for counts in procs_per_node)

    if spec.heterogeneity_cv is not None:
        speeds = speeds_with_cv(
            total_procs, spec.heterogeneity_cv, speed_rng, spec.mean_speed_mips
        )
    else:
        speeds = speed_rng.uniform(*spec.speed_range_mips, size=total_procs)

    sites: list[ResourceSite] = []
    speed_iter = iter(np.asarray(speeds, dtype=float))
    for s_idx in range(spec.num_sites):
        site_id = f"site{s_idx}"
        nodes: list[ComputeNode] = []
        for n_idx in range(nodes_per_site[s_idx]):
            node_id = f"{site_id}.node{n_idx}"
            processors: list[Processor] = []
            for p_idx in range(procs_per_node[s_idx][n_idx]):
                speed = float(next(speed_iter))
                if spec.power_model == "constant":
                    profile = constant_power_profile()
                else:
                    profile = proportional_power_profile(
                        speed, speed_range_mips=spec.speed_range_mips
                    )
                processors.append(
                    Processor(f"{node_id}.p{p_idx}", speed, profile)
                )
            nodes.append(
                ComputeNode(
                    env,
                    node_id,
                    site_id,
                    processors,
                    queue_slots=spec.queue_slots,
                    split_enabled=spec.split_enabled,
                    sleep_policy=spec.sleep_policy,
                )
            )
        sites.append(ResourceSite(site_id, nodes))
    return System(env, sites)
