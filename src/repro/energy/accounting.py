"""Node- and system-level energy aggregation (Eqs. 5–6, ECS).

- per-node energy    ``Ec  = (1/m) · Σ_j PPj``       (Eq. 6)
- system energy      ``ECS = Σ_c Ec``                (§V, Experiment 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..sim.fold import fold_sum
from .meter import EnergyBreakdown

__all__ = ["NodeEnergy", "SystemEnergy", "node_energy", "system_energy"]


@dataclass(frozen=True)
class NodeEnergy:
    """Aggregated energy for one compute node."""

    node_id: str
    num_processors: int
    #: ``Ec`` — mean per-processor energy (Eq. 6).
    energy: float
    #: Sum of raw per-processor energies ``Σ PPj``.
    total_processor_energy: float
    busy_time: float
    idle_time: float
    sleep_time: float

    @property
    def utilization(self) -> float:
        """Busy fraction of the node's powered-on processor time."""
        powered = self.busy_time + self.idle_time
        return self.busy_time / powered if powered > 0 else 0.0


@dataclass(frozen=True)
class SystemEnergy:
    """Aggregated energy for the whole system."""

    #: ``ECS = Σ_c Ec`` — the paper's system-energy metric.
    ecs: float
    #: Total raw energy across every processor.
    total_energy: float
    num_nodes: int
    num_processors: int
    busy_time: float
    idle_time: float
    sleep_time: float

    @property
    def utilization(self) -> float:
        powered = self.busy_time + self.idle_time
        return self.busy_time / powered if powered > 0 else 0.0

    @property
    def mean_node_energy(self) -> float:
        return self.ecs / self.num_nodes if self.num_nodes else 0.0


def node_energy(node_id: str, breakdowns: Sequence[EnergyBreakdown]) -> NodeEnergy:
    """Aggregate processor breakdowns into a :class:`NodeEnergy` (Eq. 6)."""
    if not breakdowns:
        raise ValueError(f"node {node_id}: no processor breakdowns")
    total = fold_sum(b.total_energy for b in breakdowns)
    return NodeEnergy(
        node_id=node_id,
        num_processors=len(breakdowns),
        energy=total / len(breakdowns),
        total_processor_energy=total,
        busy_time=fold_sum(b.busy_time for b in breakdowns),
        idle_time=fold_sum(b.idle_time for b in breakdowns),
        sleep_time=fold_sum(b.sleep_time for b in breakdowns),
    )


def system_energy(nodes: Iterable[NodeEnergy]) -> SystemEnergy:
    """Aggregate node energies into the system metric ``ECS``."""
    nodes = list(nodes)
    if not nodes:
        raise ValueError("no node energies to aggregate")
    return SystemEnergy(
        ecs=fold_sum(n.energy for n in nodes),
        total_energy=fold_sum(n.total_processor_energy for n in nodes),
        num_nodes=len(nodes),
        num_processors=sum(n.num_processors for n in nodes),
        busy_time=fold_sum(n.busy_time for n in nodes),
        idle_time=fold_sum(n.idle_time for n in nodes),
        sleep_time=fold_sum(n.sleep_time for n in nodes),
    )
