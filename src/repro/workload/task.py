"""The task model ``Ti = {si, di}`` (paper §III.A, Eq. 1).

A :class:`Task` carries its immutable specification (size, arrival time,
deadline, priority) plus a mutable execution record filled in by the
simulator (start/finish times, the processor that ran it).

Since the struct-of-arrays refactor a task owns no fields: it is a
2-slot ``(store, row)`` view over a :class:`~repro.workload.taskstore.
TaskStore`, whose lists hold one field across many tasks.  The
constructor still builds a standalone task (allocating a row in a
module-level scratch store), the bulk paths (workload generator, SWF
loader) fill whole columns at once, and every property, method, and
error message below is unchanged from the per-object implementation.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .priorities import Priority, classify_slack
from .taskstore import TaskStore

__all__ = ["Task", "finish_times", "sizes_and_deadlines", "unfinished"]

#: Backing store for standalone ``Task(...)`` constructions.  Bulk
#: producers (the workload generator) use their own per-run stores; this
#: one only grows with tasks built one at a time (tests, trace replay,
#: journal recovery).
_SCRATCH = TaskStore()

#: NaN marker used by the execution-record columns ("not yet").
_NAN = float("nan")

#: Priority by column code (``Priority(code)`` without the enum lookup).
_PRIORITIES = tuple(Priority)


class Task:
    """A single independent, compute-intensive task.

    Parameters
    ----------
    tid:
        Unique task id.
    size_mi:
        Computational size ``si`` in millions of instructions (MI).
    arrival_time:
        Simulated time at which the task enters the system.
    act:
        Expected execution time on the reference (slowest) resource:
        ``ACTi = si / sp_slowest``.
    deadline:
        Absolute completion deadline ``arrival_time + ACTi + add_t``.
    priority:
        Optional explicit :class:`Priority`; derived from the deadline
        slack when omitted.
    """

    __slots__ = ("_store", "_row")

    def __init__(
        self,
        tid: int,
        size_mi: float,
        arrival_time: float,
        act: float,
        deadline: float,
        priority: Optional[Priority] = None,
        start_time: Optional[float] = None,
        finish_time: Optional[float] = None,
        processor_id: Optional[str] = None,
        site_id: Optional[str] = None,
    ) -> None:
        # Negated checks, so that a NaN field fails them.
        if not size_mi > 0:
            raise ValueError(f"task {tid}: size must be positive")
        if not act > 0:
            raise ValueError(f"task {tid}: ACT must be positive")
        if not deadline >= arrival_time:
            raise ValueError(f"task {tid}: deadline precedes arrival")
        if priority is None:
            priority = classify_slack(((deadline - arrival_time) - act) / act)
        store = _SCRATCH
        row = store.append(
            tid, size_mi, arrival_time, act, deadline, int(priority)
        )
        self._store = store
        self._row = row
        if start_time is not None:
            store.start_time[row] = float(start_time)
            store.processor_ids[row] = processor_id
            store.site_ids[row] = site_id
        if finish_time is not None:
            store.finish_time[row] = float(finish_time)

    @classmethod
    def _view(cls, store: TaskStore, row: int) -> "Task":
        """Wrap an existing store row (bulk construction path)."""
        task = cls.__new__(cls)
        task._store = store
        task._row = row
        return task

    # -- spec fields (columnar reads) ------------------------------------
    @property
    def tid(self) -> int:
        return self._store.tids[self._row]

    @property
    def size_mi(self) -> float:
        return self._store.size_mi[self._row]

    @property
    def arrival_time(self) -> float:
        return self._store.arrival_time[self._row]

    @property
    def act(self) -> float:
        return self._store.act[self._row]

    @property
    def deadline(self) -> float:
        return self._store.deadline[self._row]

    @property
    def priority(self) -> Priority:
        return _PRIORITIES[self._store.prio_code[self._row]]

    # -- derived spec properties ----------------------------------------
    @property
    def relative_deadline(self) -> float:
        """Time from arrival to deadline (``ACT + add_t``)."""
        return self.deadline - self.arrival_time

    @property
    def slack_fraction(self) -> float:
        """``add_t / ACT`` — deadline slack as a fraction of ``ACT``."""
        return (self.relative_deadline - self.act) / self.act

    def execution_time_on(self, speed_mips: float) -> float:
        """Execution time ``ET(i, c) = si / spj`` on a processor (Eq. 3)."""
        if speed_mips <= 0:
            raise ValueError("processor speed must be positive")
        return self.size_mi / speed_mips

    # -- execution-record properties --------------------------------------
    @property
    def start_time(self) -> Optional[float]:
        v = self._store.start_time[self._row]
        return None if v != v else v

    @property
    def finish_time(self) -> Optional[float]:
        v = self._store.finish_time[self._row]
        return None if v != v else v

    @property
    def processor_id(self) -> Optional[str]:
        return self._store.processor_ids[self._row]

    @property
    def site_id(self) -> Optional[str]:
        return self._store.site_ids[self._row]

    @site_id.setter
    def site_id(self, value: Optional[str]) -> None:
        # Schedulers tag the chosen site before dispatch.
        self._store.site_ids[self._row] = value

    @property
    def completed(self) -> bool:
        """True once the task has finished executing."""
        v = self._store.finish_time[self._row]
        return v == v

    @property
    def waiting_time(self) -> float:
        """Queueing delay from arrival to execution start."""
        start = self._store.start_time[self._row]
        if start != start:
            raise ValueError(f"task {self.tid} has not started")
        return start - self._store.arrival_time[self._row]

    @property
    def response_time(self) -> float:
        """Total time in system: waiting time plus execution time."""
        finish = self._store.finish_time[self._row]
        if finish != finish:
            raise ValueError(f"task {self.tid} has not finished")
        return finish - self._store.arrival_time[self._row]

    @property
    def met_deadline(self) -> bool:
        """True if the task finished at or before its deadline (Eq. 8)."""
        finish = self._store.finish_time[self._row]
        if finish != finish:
            raise ValueError(f"task {self.tid} has not finished")
        return finish <= self._store.deadline[self._row]

    def completion_fields(self) -> tuple[Priority, float, float, float, float]:
        """``(priority, arrival_time, deadline, start, finish)``, each
        read once; a start or finish not yet recorded is NaN."""
        store, row = self._store, self._row
        return (
            _PRIORITIES[store.prio_code[row]],
            store.arrival_time[row],
            store.deadline[row],
            store.start_time[row],
            store.finish_time[row],
        )

    def mark_started(self, time: float, processor_id: str, site_id: str) -> None:
        """Record execution start (simulator hook)."""
        store, row = self._store, self._row
        start = store.start_time[row]
        if start == start:
            raise RuntimeError(f"task {self.tid} started twice")
        if time < store.arrival_time[row]:
            raise ValueError(f"task {self.tid} started before arrival")
        store.start_time[row] = time
        store.processor_ids[row] = processor_id
        store.site_ids[row] = site_id

    def reset_execution(self) -> None:
        """Clear the execution record so the task can run again.

        Used by failure injection: a node crash abandons its in-flight
        tasks, which are then resubmitted.  A completed task cannot be
        reset.  Idempotent on never-started tasks.
        """
        store, row = self._store, self._row
        finish = store.finish_time[row]
        if finish == finish:
            raise RuntimeError(f"task {self.tid} already completed")
        store.start_time[row] = _NAN
        store.processor_ids[row] = None
        store.site_ids[row] = None

    def mark_finished(self, time: float) -> None:
        """Record execution completion (simulator hook)."""
        store, row = self._store, self._row
        start = store.start_time[row]
        if start != start:
            raise RuntimeError(f"task {self.tid} finished without starting")
        finish = store.finish_time[row]
        if finish == finish:
            raise RuntimeError(f"task {self.tid} finished twice")
        if time < start:
            raise ValueError(f"task {self.tid} finished before it started")
        store.finish_time[row] = time

    # -- value semantics (dataclass parity) -------------------------------
    def __eq__(self, other: object) -> bool:
        """Spec-field equality, matching the pre-refactor dataclass
        (execution-record fields never compared)."""
        if other.__class__ is not Task:
            return NotImplemented
        return bool(
            self.tid == other.tid
            and self.size_mi == other.size_mi
            and self.arrival_time == other.arrival_time
            and self.act == other.act
            and self.deadline == other.deadline
            and self.priority == other.priority
        )

    __hash__ = None  # mutable value type, like the dataclass it replaces

    def __reduce__(self):
        return (
            _rebuild,
            (
                self.tid,
                self.size_mi,
                self.arrival_time,
                self.act,
                self.deadline,
                self.priority,
                self.start_time,
                self.finish_time,
                self.processor_id,
                self.site_id,
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Task(tid={self.tid}, size={self.size_mi:.0f}MI, "
            f"arr={self.arrival_time:.2f}, dl={self.deadline:.2f}, "
            f"prio={self.priority.label})"
        )


def sizes_and_deadlines(tasks: Iterable[Task]) -> tuple[list[float], list[float]]:
    """Each task's size and deadline, in order, read once from its row:
    the member fields a task group folds."""
    sizes = []
    deadlines = []
    for t in tasks:
        store, row = t._store, t._row
        sizes.append(store.size_mi[row])
        deadlines.append(store.deadline[row])
    return sizes, deadlines


def finish_times(tasks: Iterable[Task]) -> list[float]:
    """Each task's finish time, in order; NaN while it has not finished."""
    finishes = []
    for t in tasks:
        finishes.append(t._store.finish_time[t._row])
    return finishes


def unfinished(tasks: Iterable[Task], values: Sequence) -> list:
    """``values[i]`` for each ``tasks[i]`` that has not finished, in
    order, reading each task's finish time once."""
    kept = []
    i = 0
    for t in tasks:
        finish = t._store.finish_time[t._row]
        if finish != finish:
            kept.append(values[i])
        i += 1
    return kept


def _rebuild(
    tid, size_mi, arrival_time, act, deadline, priority,
    start_time, finish_time, processor_id, site_id,
) -> Task:
    """Unpickle hook: rebuild a task in the local scratch store."""
    return Task(
        tid, size_mi, arrival_time, act, deadline, priority,
        start_time, finish_time, processor_id, site_id,
    )
