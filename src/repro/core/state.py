"""State observation and discretization (paper §IV.B).

The agent observes, per node, ``Sc(t) = (Load, q⁻, {PP1..m})``.  For
tabular learning the site-level aggregate is discretized into a compact
tuple ``(load_level, slot_level, power_level)`` of ternary levels; the
neural variant consumes the continuous feature vector instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..cluster.node import ComputeNode, NodeState

__all__ = ["SiteObservation", "observe_site", "DiscreteState", "discretize"]

#: Ternary level boundaries for the load ratio (demand rate / capacity).
LOAD_BOUNDS = (0.5, 1.5)
#: Ternary level boundaries for the free-slot fraction.
SLOT_BOUNDS = (0.25, 0.75)
#: Ternary level boundaries for the busy-power fraction.
POWER_BOUNDS = (0.35, 0.7)

DiscreteState = tuple[int, int, int]


@dataclass(frozen=True)
class SiteObservation:
    """Continuous site-level aggregate of per-node ``Sc(t)`` snapshots."""

    #: Σ node load (processing weight queued) over Σ node capacity.
    load_ratio: float
    #: Fraction of queue slots currently free across the site.
    free_slot_fraction: float
    #: Site power draw as a fraction of the all-busy maximum.
    power_fraction: float
    #: Number of nodes with at least one free queue slot.
    open_nodes: int

    def features(self) -> np.ndarray:
        """Continuous feature vector for the neural value model."""
        return np.array(
            [
                min(self.load_ratio, 4.0) / 4.0,
                self.free_slot_fraction,
                self.power_fraction,
                min(self.open_nodes, 32) / 32.0,
            ],
            dtype=float,
        )


def observe_site(
    states: Sequence[Union[NodeState, ComputeNode]],
    max_power_w: float,
    total_queue_slots: int,
) -> SiteObservation:
    """Aggregate per-node snapshots into a :class:`SiteObservation`.

    The reference aggregation: :meth:`SiteAgent.observe` returns the
    same observation bit for bit, reading the integer terms from the
    site's index instead of scanning.

    Parameters
    ----------
    states:
        One :class:`NodeState` per node in the site, or the nodes
        themselves: only ``load``, ``free_slots``, ``total_power_w`` and
        ``processing_capacity`` are read, which a node serves from its
        caches without building a snapshot.
    max_power_w:
        Site power draw if every processor ran at peak — used to
        normalize the observed draw into [0, 1].
    total_queue_slots:
        Sum of configured queue depths across the site's nodes — the
        denominator of the free-slot fraction.
    """
    if not states:
        raise ValueError("no node states to observe")
    if max_power_w <= 0:
        raise ValueError("max_power_w must be positive")
    if total_queue_slots <= 0:
        raise ValueError("total_queue_slots must be positive")
    # Single pass over the snapshots.  Each accumulator still adds its
    # field in left-to-right state order, so the float sums are
    # bit-identical to the previous one-generator-per-field version.
    total_load = 0.0
    total_capacity = 0.0
    total_slots = 0
    power = 0.0
    open_nodes = 0
    for s in states:
        total_load += s.load
        total_capacity += s.processing_capacity
        free = s.free_slots
        total_slots += free
        power += s.total_power_w
        if free > 0:
            open_nodes += 1
    return SiteObservation(
        load_ratio=total_load / total_capacity if total_capacity > 0 else 0.0,
        free_slot_fraction=min(total_slots / total_queue_slots, 1.0),
        power_fraction=min(power / max_power_w, 1.0),
        open_nodes=open_nodes,
    )


def _level(value: float, bounds: tuple[float, float]) -> int:
    lo, hi = bounds
    if value < lo:
        return 0
    if value < hi:
        return 1
    return 2


def discretize(obs: SiteObservation) -> DiscreteState:
    """Map a continuous observation to the ternary tabular state."""
    return (
        _level(obs.load_ratio, LOAD_BOUNDS),
        _level(obs.free_slot_fraction, SLOT_BOUNDS),
        _level(obs.power_fraction, POWER_BOUNDS),
    )
