"""Resource sites — loosely connected groups of compute nodes (§III.B).

Each site hosts one scheduling agent (attached by the scheduler layer);
the site object itself only aggregates its nodes' observable state.

The integer aggregates a scheduling decision reads — pending tasks, free
queue slots, nodes with a free slot, open nodes and open nodes without
work — are an index kept exact at the node transitions that move them
(admission, queue pop, task completion, failure and repair), so reading
one costs O(1) however many nodes the site has.  Float aggregates (load,
power) are not indexed; they stay left folds over the nodes in order.
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Callable, Sequence

from ..sim.fold import fold_sum
from ..workload.task import Task
from .node import ComputeNode, NodeState
from .taskgroup import TaskGroup

__all__ = ["ResourceSite"]

_SITE_POSITION = attrgetter("_site_position")


class ResourceSite:
    """A set of compute nodes managed by a single agent."""

    def __init__(self, site_id: str, nodes: Sequence[ComputeNode]) -> None:
        if not nodes:
            raise ValueError(f"site {site_id}: needs at least one node")
        self.site_id = site_id
        self.nodes = list(nodes)
        self._by_id = {n.node_id: n for n in self.nodes}
        if len(self._by_id) != len(self.nodes):
            raise ValueError(f"site {site_id}: duplicate node ids")
        # Topology is fixed after construction, so the structural
        # aggregates observed every scheduling pass are frozen here.
        self._num_processors = sum(n.num_processors for n in self.nodes)
        self._total_speed_mips = fold_sum(
            n.total_speed_mips for n in self.nodes
        )
        self._max_group_size = max(n.max_group_size for n in self.nodes)
        # Σ PCc in node order, the left fold observe_site computes.
        capacity = 0.0
        for n in self.nodes:
            capacity += n.processing_capacity
        self._total_capacity = capacity

        # The index.  ``_counted[i]`` is what it last counted for node i:
        # (pending tasks, free slots, open).
        self._pending = 0
        self._free_slots = 0
        self._slotted = 0
        self._spare = 0
        self._open: list[ComputeNode] = []
        self._counted = [(0, 0, False)] * len(self.nodes)
        for position, node in enumerate(self.nodes):
            node._site = self
            node._site_position = position
            self._reindex(node)

    def _reindex(self, node: ComputeNode) -> None:
        """Count one node's transition: exact integer deltas, and the
        open list kept in node order."""
        position = node._site_position
        pending = node._pending
        free = node.queue_slots - len(node.queue)
        is_open = free > 0 and not node.failed
        counted = (pending, free, is_open)
        was = self._counted[position]
        if counted == was:
            return
        self._counted[position] = counted
        was_pending, was_free, was_open = was
        self._pending += pending - was_pending
        self._free_slots += free - was_free
        self._slotted += (free > 0) - (was_free > 0)
        self._spare += (is_open and pending == 0) - (
            was_open and was_pending == 0
        )
        if is_open != was_open:
            if is_open:
                insort(self._open, node, key=_SITE_POSITION)
            else:
                self._open.remove(node)

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: str) -> ComputeNode:
        return self._by_id[node_id]

    # -- aggregate views --------------------------------------------------
    @property
    def num_processors(self) -> int:
        return self._num_processors

    @property
    def total_speed_mips(self) -> float:
        return self._total_speed_mips

    @property
    def total_processing_capacity(self) -> float:
        """Σ ``PCc`` over the nodes, folded in node order (static)."""
        return self._total_capacity

    @property
    def total_free_slots(self) -> int:
        """Free queue slots over every node, failed ones included."""
        return self._free_slots

    @property
    def slotted_nodes(self) -> int:
        """Nodes with a free queue slot, failed ones included (the
        observation's ``open_nodes`` term)."""
        return self._slotted

    @property
    def open_nodes(self) -> list[ComputeNode]:
        """Nodes that can admit a group now (up, with a free slot), in
        node order.  The index's own list: do not mutate it, and read it
        again after a submission, which may close a node."""
        return self._open

    @property
    def spare_nodes(self) -> int:
        """Open nodes with no pending work."""
        return self._spare

    @property
    def total_load(self) -> float:
        return fold_sum(n.load for n in self.nodes)

    @property
    def pending_tasks(self) -> int:
        return self._pending

    @property
    def max_group_size(self) -> int:
        """Largest ``opnum`` any node in the site can accept."""
        return self._max_group_size

    def states(self) -> list[NodeState]:
        """Per-node ``Sc(t)`` snapshots for the agent."""
        return [n.state() for n in self.nodes]

    # -- callbacks fan-out ---------------------------------------------------
    def on_task_complete(self, cb: Callable[[Task, ComputeNode], None]) -> None:
        for n in self.nodes:
            n.on_task_complete(cb)

    def on_group_complete(self, cb: Callable[[TaskGroup, ComputeNode], None]) -> None:
        for n in self.nodes:
            n.on_group_complete(cb)

    def on_slot_freed(self, cb: Callable[[ComputeNode], None]) -> None:
        for n in self.nodes:
            n.on_slot_freed(cb)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ResourceSite {self.site_id} nodes={len(self.nodes)}>"
