"""Task groups — the unit of queueing on a compute node (paper §IV.D).

"During the task assignment process, a task group is considered as a
single arrival unit and dedicated to one slot in the queue."  The grouping
*policy* (merge/split decisions) is part of the core contribution
(:mod:`repro.core.grouping`); this module provides the platform-level data
structure plus the processing-weight arithmetic (Eq. 10).

Eq. 10 interpretation (DESIGN.md A1): the processing weight of a group is
its *aggregate demanded processing rate*,

    ``pw = Σ si / mean_i(di − t)``

— total outstanding work divided by the mean remaining deadline window.
It is dimensionally an MI-per-time rate, directly comparable to the node
processing capacity ``PCc`` (Eq. 2) inside the error signal (Eq. 9).
Tight deadlines (high priority) raise ``pw``; larger groups raise ``pw``.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Iterable, Optional, Sequence

from ..sim.events import Event
from ..workload.priorities import Priority
from ..workload.task import Task, finish_times, sizes_and_deadlines, unfinished

__all__ = ["TaskGroup", "processing_weight"]

_gid_counter = count()


def processing_weight(tasks: Sequence[Task], at_time: float) -> float:
    """Eq. 10: aggregate demanded processing rate of *tasks* at *at_time*.

    Remaining deadline windows are floored at a small epsilon so that
    already-late tasks produce a very large (urgent) weight rather than a
    negative or infinite one.
    """
    if not tasks:
        raise ValueError("cannot compute processing weight of an empty group")
    return _fold_weight(*sizes_and_deadlines(tasks), at_time)[1]


def _fold_weight(
    sizes: Sequence[float], deadlines: Sequence[float], at_time: float
) -> tuple[float, float]:
    """``(Σ si, pw)`` for one group's member columns: both sums are left
    folds from the integer 0 in member order, as ``fold_sum`` folds."""
    eps = 1e-6
    total_size = 0
    windows = 0
    for size, deadline in zip(sizes, deadlines):
        total_size += size
        windows += max(deadline - at_time, eps)
    return total_size, total_size / (windows / len(sizes))


class TaskGroup:
    """An ordered bundle of tasks occupying one node-queue slot.

    Tasks are kept in EDF (earliest-deadline-first) order, as both merge
    variants in §IV.D.1 prescribe.
    """

    def __init__(
        self,
        tasks: Iterable[Task],
        created_at: float,
        mode: str = "mixed",
    ) -> None:
        members = list(tasks)
        if not members:
            raise ValueError("a task group must contain at least one task")
        sizes, deadlines = sizes_and_deadlines(members)
        if deadlines != sorted(deadlines):
            # A stable sort on the deadlines read once: the order
            # ``sorted(tasks, key=lambda t: t.deadline)`` gives.
            order = sorted(range(len(members)), key=deadlines.__getitem__)
            members = [members[i] for i in order]
            sizes = [sizes[i] for i in order]
            deadlines = [deadlines[i] for i in order]
        self.gid = next(_gid_counter)
        self.tasks: list[Task] = members
        #: Member sizes and deadlines in EDF order, read once here: the
        #: node's pending work, the placement window and the DVFS
        #: deadlines fold these.
        self.sizes: list[float] = sizes
        self.deadlines: list[float] = deadlines
        self.created_at = float(created_at)
        self.mode = mode
        #: Total computational size and the processing weight frozen at
        #: creation time (Eq. 10), folded in one pass.
        self.size_mi, self.pw = _fold_weight(sizes, deadlines, created_at)

        # -- assignment / execution record (filled by node & scheduler) --
        self.node_id: Optional[str] = None
        self.assigned_at: Optional[float] = None
        self.dispatched_at: Optional[float] = None
        #: Error feedback value (Eq. 9) recorded at assignment.
        self.error: Optional[float] = None
        self._remaining = len(members)
        #: Created by a gang-mode node, whose feeder waits on it;
        #: triggered when every task completes.
        self.completion: Optional[Event] = None
        self._complete_callbacks: list[Callable[["TaskGroup"], None]] = []
        #: Set when the assigned node failed before the group completed;
        #: a cancelled group never completes and fires no callbacks.
        self.cancelled = False

    # -- structure -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    @property
    def priority(self) -> Priority:
        """Most urgent priority present in the group."""
        return min(t.priority for t in self.tasks)

    @property
    def is_identical_priority(self) -> bool:
        """True if all member tasks share one priority class."""
        first = self.tasks[0].priority
        return all(t.priority == first for t in self.tasks)

    def edf_order(self) -> list[Task]:
        """Member tasks in earliest-deadline-first order."""
        return list(self.tasks)

    # -- completion tracking (driven by the executing node) --------------
    @property
    def remaining(self) -> int:
        """Number of member tasks not yet completed."""
        return self._remaining

    @property
    def completed(self) -> bool:
        return self._remaining == 0

    def on_complete(self, callback: Callable[["TaskGroup"], None]) -> None:
        """Register *callback* to fire when the whole group completes."""
        if self.completed:
            callback(self)
        else:
            self._complete_callbacks.append(callback)

    def cancel(self) -> None:
        """Abandon the group (node failure); completion never fires."""
        self.cancelled = True
        self._complete_callbacks.clear()

    def task_done(self) -> None:
        """Mark one member task as completed (node executor hook)."""
        if self.cancelled:
            return
        if self._remaining <= 0:
            raise RuntimeError(f"group {self.gid}: task_done beyond group size")
        self._remaining -= 1
        if self._remaining == 0:
            if self.completion is not None and not self.completion.triggered:
                self.completion.succeed(self)
            callbacks, self._complete_callbacks = self._complete_callbacks, []
            for cb in callbacks:
                cb(self)

    # -- feedback ----------------------------------------------------------
    def reward(self) -> int:
        """Eq. 8: number of member tasks that met their deadline.

        Only valid once the group has completed.
        """
        if not self.completed:
            raise RuntimeError(f"group {self.gid} has not completed")
        hits = 0
        for task, finish, deadline in zip(
            self.tasks, finish_times(self.tasks), self.deadlines
        ):
            if finish != finish:
                raise ValueError(f"task {task.tid} has not finished")
            if finish <= deadline:
                hits += 1
        return hits

    def unfinished_sizes(self) -> list[float]:
        """Sizes of the members not finished yet, in EDF order."""
        return unfinished(self.tasks, self.sizes)

    def unfinished_deadlines(self) -> list[float]:
        """Deadlines of the members not finished yet, in EDF order."""
        return unfinished(self.tasks, self.deadlines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TaskGroup gid={self.gid} n={len(self.tasks)} mode={self.mode} "
            f"pw={self.pw:.1f} remaining={self._remaining}>"
        )
