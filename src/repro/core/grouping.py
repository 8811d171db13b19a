"""The adaptive task-grouping (TG) merge process (paper §IV.D.1).

The merge process turns a backlog of pending tasks into
:class:`~repro.cluster.taskgroup.TaskGroup` bundles according to the
current grouping action:

- **mixed-priority**: the ``opnum`` earliest-deadline tasks form a group,
  regardless of priority ("tasks with different priorities are mixed and
  merged into the same group … sorted by their deadline");
- **identical-priority**: tasks are partitioned by priority class and the
  ``opnum`` earliest-deadline tasks of the most urgent non-empty class
  form a group ("tasks are grouped separately according to their
  priorities … still applies EDF").

The split process (§IV.D.2) is platform-level — idle processors steal
EDF-ordered tasks from the group at the head of the node queue — and is
implemented by :class:`~repro.cluster.node.ComputeNode`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Optional

from ..cluster.taskgroup import TaskGroup
from ..workload.priorities import Priority
from ..workload.task import Task
from .actions import GroupingAction, GroupingMode

__all__ = ["Backlog", "merge_next_group"]


class Backlog:
    """Pending tasks awaiting grouping, kept in EDF order."""

    def __init__(self) -> None:
        #: The pending tasks in EDF order.  Read it freely (an empty
        #: backlog is an empty list); change it only through :meth:`add`
        #: and :meth:`take`, which keep the columns below in step.
        self.tasks: list[Task] = []
        #: Each pending task's deadline, arrival time and priority, in
        #: the same order, read once when the task was added.
        self._deadlines: list[float] = []
        self._arrivals: list[float] = []
        self._priorities: list[Priority] = []

    def add(self, task: Task) -> None:
        """Insert *task* after every pending task whose deadline is not
        later than its own, preserving EDF order."""
        deadline = task.deadline
        i = bisect_right(self._deadlines, deadline)
        self.tasks.insert(i, task)
        self._deadlines.insert(i, deadline)
        self._arrivals.insert(i, task.arrival_time)
        self._priorities.insert(i, task.priority)

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    @property
    def oldest_arrival(self) -> Optional[float]:
        """Earliest arrival time among pending tasks (None when empty)."""
        if not self._arrivals:
            return None
        return min(self._arrivals)

    def peek_edf(self, k: int) -> list[Task]:
        """The *k* earliest-deadline tasks without removing them."""
        return self.tasks[:k]

    def take(self, tasks: Iterable[Task]) -> None:
        """Remove *tasks* (which must all be present) from the backlog."""
        for t in tasks:
            i = self.tasks.index(t)
            del self.tasks[i]
            del self._deadlines[i]
            del self._arrivals[i]
            del self._priorities[i]

    def by_priority(self, priority: Priority) -> list[Task]:
        """Pending tasks of one priority class, EDF-ordered."""
        return [
            t for t, p in zip(self.tasks, self._priorities) if p == priority
        ]


def merge_next_group(
    backlog: Backlog,
    action: GroupingAction,
    now: float,
    allow_undersized: bool,
) -> Optional[TaskGroup]:
    """Form (and remove from *backlog*) the next task group, if any.

    Parameters
    ----------
    backlog:
        Pending tasks; selected tasks are removed.
    action:
        Current grouping action (mode + target ``opnum``).
    now:
        Current simulated time (frozen into the group's ``pw``).
    allow_undersized:
        When True, a group smaller than ``opnum`` may be formed (used
        when processors are idle or the backlog has aged); when False,
        only full groups are released.

    Returns
    -------
    The merged group, or ``None`` if no admissible group exists.
    """
    if not backlog.tasks:
        return None

    if action.mode == GroupingMode.MIXED:
        candidates = backlog.peek_edf(action.opnum)
    else:
        candidates = []
        for priority in Priority:  # HIGH first — most urgent class first
            klass = backlog.by_priority(priority)
            if klass:
                candidates = klass[: action.opnum]
                break

    if not candidates:
        return None
    if len(candidates) < action.opnum and not allow_undersized:
        return None

    backlog.take(candidates)
    return TaskGroup(candidates, created_at=now, mode=action.mode)
