"""Shared plumbing for the baseline schedulers.

The paper evaluates "extended versions" of three learning approaches
"induced into the same system model and scheduling strategy" (§V.B).  All
baselines therefore run on the identical platform and submit work as
singleton task groups (none of them has the paper's TG technique — that
is the contribution under test); they differ only in their decision core.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..cluster.node import ComputeNode
from ..cluster.taskgroup import TaskGroup
from ..core.base import Scheduler
from ..core.feedback import grouping_error
from ..workload.task import Task

__all__ = ["SingletonScheduler", "shortest_queue_node"]


def shortest_queue_node(
    nodes: Iterable[ComputeNode],
) -> Optional[ComputeNode]:
    """Free-slot node with the least pending work per unit speed.

    The available node minimizing ``((pending + 1) / speed, node_id)``,
    found in one pass; on a tie in both, the first of *nodes*.  It runs
    for every task placed, so it reads the fields behind
    :attr:`~ComputeNode.available`, :attr:`~ComputeNode.pending_tasks`
    and :attr:`~ComputeNode.total_speed_mips` directly.
    """
    best: Optional[ComputeNode] = None
    best_load = 0.0
    for node in nodes:
        if node.failed or len(node.queue) >= node.queue_slots:
            continue
        load = (node._pending + 1) / node._total_speed_mips
        if (
            best is None
            or load < best_load
            or (load == best_load and node.node_id < best.node_id)
        ):
            best = node
            best_load = load
    return best


class SingletonScheduler(Scheduler):
    """Base for baselines: FIFO backlog of tasks, singleton-group dispatch.

    Subclasses override :meth:`_pick_node` (and optionally
    :meth:`_order_backlog`) to implement their decision core.
    """

    def __init__(self) -> None:
        super().__init__()
        self.backlog: list[Task] = []

    def submit(self, task: Task) -> None:
        self.backlog.append(task)
        self.kick()

    def _order_backlog(self) -> None:
        """Hook: reorder the backlog before a pass (default: FIFO)."""

    def _pick_node(self, task: Task) -> Optional[ComputeNode]:
        """Hook: choose the destination node (None = hold the task).

        Contract: return ``None`` only when no node in the candidate set
        is ``available``, and on ``None`` draw no random number and
        record no state.  The candidate set may change only outside a
        scheduling pass, which submits work and so can only make nodes
        less available.  A ``None`` therefore holds for the rest of the
        pass, and :meth:`_scheduling_pass` holds the remaining backlog
        without asking again.
        """
        assert self.system is not None
        return shortest_queue_node(self.system.nodes)

    def _scheduling_pass(self) -> None:
        assert self.env is not None
        self._order_backlog()
        backlog = self.backlog
        held: list[Task] = []
        for i, task in enumerate(backlog):
            node = self._pick_node(task)
            if node is None:
                held.extend(backlog[i:])
                break
            if node.free_slots <= 0:
                held.append(task)
                continue
            group = TaskGroup([task], created_at=self.env.now)
            task.site_id = node.site_id
            # Record the Eq. 9 error for parity in diagnostics even
            # though baselines do not learn from it.
            group.error = grouping_error(group.pw, node.processing_capacity)
            submitted = node.try_submit(group)
            if not submitted:
                held.append(task)
        self.backlog = held
