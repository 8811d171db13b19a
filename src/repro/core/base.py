"""Scheduler framework shared by Adaptive-RL and every baseline.

A scheduler is attached to a realized :class:`~repro.cluster.system.System`
and driven by task submissions from the arrival process.  The base class
provides the event-driven *kick loop* (scheduling passes run whenever
something relevant happens: an arrival, a freed queue slot, a completed
group), completion tracking, and the per-learning-cycle utilization log
that Figures 9–10 are built from.
"""

from __future__ import annotations

import abc
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

from ..cluster.node import ComputeNode
from ..cluster.system import System
from ..cluster.taskgroup import TaskGroup
from ..metrics.streaming import StreamingRunStats
from ..obs import CAT_TASK, NULL_TELEMETRY, Telemetry
from ..sim.core import Environment
from ..sim.events import Call, Event
from ..sim.rng import RandomStreams
from ..workload.task import Task

__all__ = ["Scheduler", "CycleSample", "CycleLog"]


@dataclass(frozen=True)
class CycleSample:
    """System telemetry captured at the end of one learning cycle."""

    cycle: int
    time: float
    busy_time: float
    powered_time: float
    completed_tasks: int
    #: Instantaneous fraction of processors busy at the sample point.
    busy_fraction: float


class CycleLog(Sequence[CycleSample]):
    """The scheduler's :class:`CycleSample` log, packed in columns.

    A run takes a sample every learning cycle, about three per task, so
    the log keeps each sample as a row of six 8-byte array cells rather
    than as an object.  Indexing rebuilds the :class:`CycleSample`, with
    the float bits and ints that were appended.
    """

    __slots__ = (
        "cycle",
        "time",
        "busy_time",
        "powered_time",
        "completed_tasks",
        "busy_fraction",
    )

    def __init__(self) -> None:
        self.cycle = array("q")
        self.time = array("d")
        self.busy_time = array("d")
        self.powered_time = array("d")
        self.completed_tasks = array("q")
        self.busy_fraction = array("d")

    def append(
        self,
        cycle: int,
        time: float,
        busy_time: float,
        powered_time: float,
        completed_tasks: int,
        busy_fraction: float,
    ) -> None:
        """Log one cycle's sample as a row."""
        self.cycle.append(cycle)
        self.time.append(time)
        self.busy_time.append(busy_time)
        self.powered_time.append(powered_time)
        self.completed_tasks.append(completed_tasks)
        self.busy_fraction.append(busy_fraction)

    def __len__(self) -> int:
        return len(self.cycle)

    def __getitem__(self, index: int) -> CycleSample:
        return CycleSample(
            cycle=self.cycle[index],
            time=self.time[index],
            busy_time=self.busy_time[index],
            powered_time=self.powered_time[index],
            completed_tasks=self.completed_tasks[index],
            busy_fraction=self.busy_fraction[index],
        )


class Scheduler(abc.ABC):
    """Abstract event-driven scheduler.

    Subclasses implement :meth:`_scheduling_pass`, which must be a plain
    (non-yielding) method using non-blocking node submission
    (:meth:`ComputeNode.try_submit`).
    """

    #: Human-readable scheduler name (used in reports).
    name: str = "scheduler"

    def __init__(self) -> None:
        self.env: Optional[Environment] = None
        self.system: Optional[System] = None
        self.streams: Optional[RandomStreams] = None
        #: Telemetry sink; adopted from the environment at attach time.
        self.telemetry: Telemetry = NULL_TELEMETRY
        self.completed: list[Task] = []
        #: Scan-free metric aggregates folded in per completion.
        self.stream = StreamingRunStats()
        self.cycle_log = CycleLog()
        self.learning_cycles = 0
        #: Tasks re-queued after node failures (failure injection).
        self.tasks_resubmitted = 0
        #: True while a kick's cycle entry is scheduled and not yet run.
        self._kicked = False
        self._expected: Optional[int] = None
        #: Triggered when `expect(n)` tasks have completed.
        self.all_done: Optional[Event] = None

    # -- lifecycle ---------------------------------------------------------
    def attach(
        self, env: Environment, system: System, streams: RandomStreams
    ) -> None:
        """Bind the scheduler to a platform and start its kick loop."""
        if self.env is not None:
            raise RuntimeError(f"{self.name}: already attached")
        self.env = env
        self.system = system
        self.streams = streams
        self.telemetry = env.telemetry
        #: The platform's processor count (static), the denominator of
        #: each cycle sample's busy fraction.
        self._num_processors = system.num_processors
        self.all_done = Event(env)
        for node in system.nodes:
            node.on_task_complete(self._task_completed)
            node.on_slot_freed(lambda n: self.kick())
            node.on_group_complete(self._group_completed_hook)
            node.on_tasks_orphaned(self._tasks_orphaned)
        self._setup()
        # The kick loop's urgent start entry: a generator process running
        # the loop would take it here, so the kernel's entries (and its
        # event counts) are those of a process-driven loop.
        Call(env, _loop_started, urgent=True)

    def expect(self, num_tasks: int) -> Event:
        """Declare how many task completions end the run; returns the
        event that triggers when they have all completed."""
        if num_tasks <= 0:
            raise ValueError("num_tasks must be positive")
        self._expected = num_tasks
        assert self.all_done is not None
        return self.all_done

    def _setup(self) -> None:
        """Subclass hook run at attach time (build agents, etc.)."""

    # -- submissions ------------------------------------------------------
    @abc.abstractmethod
    def submit(self, task: Task) -> None:
        """Accept an arriving task (called by the arrival process)."""

    @abc.abstractmethod
    def _scheduling_pass(self) -> None:
        """Run one synchronous scheduling pass over pending work."""

    # -- kick loop ----------------------------------------------------------
    def kick(self) -> None:
        """Request a scheduling pass at the current simulated time: one
        cycle entry, shared by every kick until it runs."""
        if not self._kicked and self.env is not None:
            self._kicked = True
            Call(self.env, self._cycle)

    def _cycle(self, _entry: Call) -> None:
        """A kick's entry: one learning cycle.  Kicks from here on
        schedule the next cycle."""
        self._kicked = False
        self.learning_cycles += 1
        tel = self.telemetry
        if tel.profiling:
            t0 = tel.profiler.start()
            self._scheduling_pass()
            tel.profiler.stop("scheduler.pass", t0)
        else:
            self._scheduling_pass()
        self._sample_cycle()

    # -- completion plumbing ----------------------------------------------
    def _task_completed(self, task: Task, node: ComputeNode) -> None:
        self.completed.append(task)
        self.stream.record(task)
        tel = self.telemetry
        if tel.active:
            if tel.tracing:
                tel.emit(
                    CAT_TASK,
                    "complete",
                    self.env.now,
                    task=task.tid,
                    node=node.node_id,
                    met_deadline=task.met_deadline,
                )
            if tel.metering:
                tel.metrics.counter("sched.tasks_completed").inc()
        if (
            self._expected is not None
            and len(self.completed) >= self._expected
            and self.all_done is not None
            and not self.all_done.triggered
        ):
            self.all_done.succeed(len(self.completed))
        self.kick()

    def _group_completed_hook(self, group: TaskGroup, node: ComputeNode) -> None:
        self._on_group_complete(group, node)
        self.kick()

    def _on_group_complete(self, group: TaskGroup, node: ComputeNode) -> None:
        """Subclass hook: feedback processing for a completed group."""

    def _tasks_orphaned(self, tasks: list[Task], node: ComputeNode) -> None:
        """A node failed: resubmit its abandoned tasks elsewhere.

        Tasks arrive already reset (no execution record); the default
        policy pushes them back through :meth:`submit`, so every
        scheduler transparently tolerates crash-stop node failures.
        """
        self.tasks_resubmitted += len(tasks)
        tel = self.telemetry
        if tel.active and tasks:
            if tel.tracing:
                for task in tasks:
                    tel.emit(
                        CAT_TASK,
                        "resubmit",
                        self.env.now,
                        task=task.tid,
                        node=node.node_id,
                    )
            if tel.metering:
                tel.metrics.counter("sched.tasks_resubmitted").inc(len(tasks))
        for task in tasks:
            self.submit(task)
        if tasks:
            self.kick()

    # -- telemetry -----------------------------------------------------------
    def _sample_cycle(self) -> None:
        system, env = self.system, self.env
        assert system is not None and env is not None
        now = env.now
        # O(1): the system's usage tally is kept at every meter
        # transition and reads the exactly rounded sums over all meters.
        usage = system.usage
        busy, powered = usage.times(now)
        self.cycle_log.append(
            self.learning_cycles,
            now,
            busy,
            powered,
            len(self.completed),
            usage.busy / self._num_processors,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def _loop_started(_entry: Call) -> None:
    """The kick loop's start entry; the loop needs no setup."""
