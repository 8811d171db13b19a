"""Service lifecycle: the pump loop, drain state machine, and signals.

:class:`SchedulerService` ties the subsystem together: a *producer*
(any iterator of tasks — a live generator, a JSONL trace replay, or
nothing for programmatic submission) feeds the
:class:`~repro.service.ingress.IngressQueue`, whose admitted tasks the
:class:`~repro.service.engine.SliceEngine` injects and simulates in
bounded slices.  The state machine::

    NEW --run()--> RUNNING --drain--> DRAINING --> STOPPED
                      |                               ^
                      +---- exception ----> FAILED    |
                      +-- SIGTERM/SIGINT/drain_after -+

A *drain* is the graceful shutdown: admission closes, everything
already admitted runs to completion, meters freeze at the last
completion, metrics are collected, and (when journaled) a ``drained``
marker makes the shutdown durable.  SIGTERM and SIGINT both request a
drain — the service exits cleanly on the signal rather than dying with
admitted work unfinished.

With ``resume=True`` the service rebuilds itself from the admission
journal: the stored config and seed take over, previously admitted
tasks are restored into the queue (without re-journaling — they were
already admitted), and the producer is fast-forwarded past every
consumed item, giving exactly-once admission across process lives.
"""

from __future__ import annotations

import enum
import itertools
import signal
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Union

from ..experiments.config import ExperimentConfig
from ..metrics.collector import RunMetrics
from ..obs import Telemetry, get_telemetry
from ..workload.task import Task
from .engine import DEFAULT_SLICE, SliceEngine
from .errors import AdmissionRejected, ServiceError
from .ingress import IngressQueue
from .journal import AdmissionJournal, JournalState

__all__ = ["ServiceState", "ServiceReport", "SchedulerService"]

#: The pump admits at most this many producer tasks per step, so a fast
#: producer cannot starve the engine of wall-clock time.
DEFAULT_PUMP_BATCH = 64

_EXHAUSTED = object()


class ServiceState(enum.Enum):
    NEW = "new"
    RUNNING = "running"
    DRAINING = "draining"
    STOPPED = "stopped"
    FAILED = "failed"


@dataclass
class ServiceReport:
    """What one service life accomplished (JSON-safe via ``to_dict``)."""

    state: str
    scheduler: str
    seed: int
    admitted: int
    rejected: int
    shed: int
    backpressure_waits: int
    depth_high: int
    #: Tasks that entered the kernel this life.
    tasks_injected: int
    completed: int
    sim_time: float
    #: Node faults injected / repairs completed (0 without a failure
    #: model), and tasks transparently resubmitted after a node crash.
    failures_injected: int = 0
    repairs_completed: int = 0
    tasks_resubmitted: int = 0
    resumed: bool = False
    recovered: int = 0
    #: True when resume found a ``drained`` marker: nothing to do.
    already_drained: bool = False
    metrics: Optional[RunMetrics] = field(default=None, repr=False)

    def to_dict(self) -> dict:
        data = {
            "state": self.state,
            "scheduler": self.scheduler,
            "seed": self.seed,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "backpressure_waits": self.backpressure_waits,
            "depth_high": self.depth_high,
            "tasks_injected": self.tasks_injected,
            "failures_injected": self.failures_injected,
            "repairs_completed": self.repairs_completed,
            "tasks_resubmitted": self.tasks_resubmitted,
            "completed": self.completed,
            "sim_time": self.sim_time,
            "resumed": self.resumed,
            "recovered": self.recovered,
            "already_drained": self.already_drained,
        }
        m = self.metrics
        if m is not None:
            data["metrics"] = {
                "makespan": m.makespan,
                "avert": m.avert,
                "ecs": m.ecs,
                "success_rate": m.success_rate,
            }
        return data


class SchedulerService:
    """Streaming scheduler-as-a-service over the simulation kernel.

    Parameters
    ----------
    config:
        The run configuration (scheduler, seed, platform, workload
        shape).  Ignored on ``resume=True`` — the journal's stored
        config governs, so a resumed life cannot silently diverge from
        the one that admitted the tasks.
    producer:
        Optional task iterator.  ``None`` means purely programmatic
        (:meth:`submit` / :meth:`step`) use.
    max_queue / policy:
        Ingress bound and admission policy (see
        :class:`~repro.service.ingress.IngressQueue`).
    journal_dir:
        Directory for the durable admission log; ``None`` disables
        journaling (and therefore resume).
    resume:
        Recover from an existing journal in *journal_dir* instead of
        starting fresh.
    drain_after:
        Simulated-time horizon: stop admitting once the next producer
        task arrives beyond it, then drain.  The streaming analogue of
        a fixed experiment length.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        producer: Optional[Iterator[Task]] = None,
        *,
        max_queue: int = 1024,
        policy: str = "block",
        journal_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        telemetry: Optional[Telemetry] = None,
        slice_len: float = DEFAULT_SLICE,
        pump_batch: int = DEFAULT_PUMP_BATCH,
        drain_after: Optional[float] = None,
    ) -> None:
        if resume and journal_dir is None:
            raise ValueError("resume requires a journal directory")
        self.journal_state: Optional[JournalState] = None
        self._recovered: List[Task] = []
        skip = 0
        journal: Optional[AdmissionJournal] = None
        if journal_dir is not None and resume:
            state = AdmissionJournal.load(journal_dir)
            self.journal_state = state
            config = ExperimentConfig.from_dict(state.config)
            self._recovered = list(state.pending_tasks)
            skip = state.consumed
            journal = AdmissionJournal(journal_dir)
            if not state.drained:
                journal.open_resume(len(self._recovered))
            else:
                journal = None  # nothing to append to a finished run
        elif journal_dir is not None:
            journal = AdmissionJournal(journal_dir).open_fresh(
                config.seed, config.to_dict()
            )
        self.config = config
        tel = telemetry if telemetry is not None else get_telemetry()
        self.telemetry = tel
        self.engine = SliceEngine(config, telemetry=tel)
        self.ingress = IngressQueue(
            max_queue=max_queue, policy=policy, journal=journal, telemetry=tel
        )
        state = self.journal_state
        if state is not None and not state.drained:
            # Seed the ledger with the prior life's totals so admit seq
            # numbers stay contiguous in the journal and the report
            # counts span all lives, not just this one.
            self.ingress.admitted = state.admitted
            self.ingress.rejected = state.rejected
            self.ingress.shed = state.shed
        self.journal = journal
        if producer is not None and callable(producer):
            # A producer *factory* gets the built engine, so it can
            # derive the workload spec (reference speed and all) from
            # the very config this service runs — essential on resume,
            # where the journal's stored config governs.
            producer = producer(self.engine)
        if producer is not None and skip:
            producer = itertools.islice(producer, skip, None)
        self._producer = producer
        self.slice_len = slice_len
        self.pump_batch = pump_batch
        self.drain_after = drain_after
        self.state = ServiceState.NEW
        self._drain_requested = False
        self._exhausted = producer is None and not self._recovered
        self._next_task: Optional[Task] = None
        self._report: Optional[ServiceReport] = None
        if self.journal_state is not None and self.journal_state.drained:
            self.state = ServiceState.STOPPED

    # -- external control ------------------------------------------------
    def submit(self, task: Task, block: bool = True) -> bool:
        """Programmatic admission (same contract as the ingress).

        This is the ack to an outside caller, so with a journal it
        returns (or raises) only after the decision is durable.
        """
        try:
            return self.ingress.submit(task, block=block)
        finally:
            self.ingress.sync()

    def request_drain(self) -> None:
        """Ask the pump loop to drain at the next step (signal-safe)."""
        self._drain_requested = True

    # -- the pump loop ---------------------------------------------------
    def step(self) -> bool:
        """One pump-admit-advance iteration.

        Returns True while the service is still running; the call that
        performs the drain returns False.  Drives everything: tests and
        embedders call it directly, :meth:`run` loops it.
        """
        if self.state in (ServiceState.STOPPED, ServiceState.FAILED):
            return False
        self.state = ServiceState.RUNNING
        try:
            self._pump()
            if self._drain_requested or (
                self._exhausted
                and self._next_task is None
                and not self._recovered
            ):
                self._drain()
                return False
            self.engine.advance(self.ingress, self.slice_len)
            self._record_series()
            return True
        except Exception:
            self.state = ServiceState.FAILED
            raise

    def run(self, install_signal_handlers: bool = False) -> ServiceReport:
        """Pump until drained; returns the final :class:`ServiceReport`.

        With ``install_signal_handlers=True`` (the CLI path), SIGINT
        and SIGTERM request a graceful drain — prior handlers are
        restored on exit.
        """
        if self.state is ServiceState.STOPPED:
            return self.report()
        previous = {}
        if install_signal_handlers:
            def _on_signal(signum, frame):  # pragma: no cover - signal path
                self.request_drain()

            for sig in (signal.SIGINT, signal.SIGTERM):
                previous[sig] = signal.signal(sig, _on_signal)
        try:
            while True:
                before = self.engine.now
                pumped_any = bool(self.ingress.depth or self._recovered)
                if not self.step():
                    break
                if (
                    self.engine.now == before
                    and not pumped_any
                    and self.ingress.depth == 0
                ):
                    # Nothing admitted and nothing to simulate: yield
                    # the GIL instead of spinning (a threaded producer
                    # may be on its way).
                    _time.sleep(0.0005)
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            if self.journal is not None:
                self.journal.close()
        return self.report()

    # -- internals -------------------------------------------------------
    def _pump(self) -> int:
        """Move up to ``pump_batch`` tasks from the producer (or the
        resume recovery list) into the ingress without blocking."""
        count = 0
        while count < self.pump_batch:
            if self._recovered:
                # Recovered tasks re-enter ahead of any new production:
                # they hold the earliest arrivals and were already
                # journaled, so they bypass policy via restore().
                if self.ingress.restore(self._recovered[0]):
                    self._recovered.pop(0)
                    count += 1
                    continue
                break  # queue full; let the engine make room
            if self._exhausted:
                break
            task = self._next_task
            if task is None:
                task = next(self._producer, _EXHAUSTED)
                if task is _EXHAUSTED:
                    self._exhausted = True
                    break
            if (
                self.drain_after is not None
                and task.arrival_time > self.drain_after
            ):
                self._next_task = None
                self._exhausted = True
                break
            try:
                if self.ingress.submit(task, block=False):
                    self._next_task = None
                    count += 1
                else:
                    self._next_task = task  # backpressure: retry later
                    break
            except AdmissionRejected:
                # Typed rejection (queue-full under "reject", shed of
                # the incoming task): already counted and journaled by
                # the ingress; the stream moves on.
                self._next_task = None
        return count

    def _drain(self) -> None:
        self.state = ServiceState.DRAINING
        # A drain must not strand recovered tasks: they were admitted
        # (journaled) in a prior life, so exactly-once requires they
        # reach the engine even when the queue is momentarily full.
        while self._recovered:
            if self.ingress.restore(self._recovered[0]):
                self._recovered.pop(0)
            else:
                self.engine.advance(self.ingress, self.slice_len)
        self.ingress.close()
        metrics = self.engine.drain(self.ingress)
        self._record_series()
        if self.journal is not None:
            self.journal.write_drained(
                admitted=self.ingress.admitted,
                completed=self.engine.completed,
                failures_injected=self.engine.failures_injected,
                repairs_completed=self.engine.repairs_completed,
            )
        self.state = ServiceState.STOPPED
        self._report = self._build_report(metrics)

    def _record_series(self) -> None:
        tel = self.telemetry
        if not tel.sampling:
            return
        bank = tel.series
        now = self.engine.now
        snap = self.ingress.snapshot()
        bank.record("service.queue_depth", now, snap["depth"])
        bank.record("service.admitted", now, snap["admitted"])
        bank.record("service.rejected", now, snap["rejected"])
        bank.record("service.shed", now, snap["shed"])

    def _build_report(self, metrics: Optional[RunMetrics]) -> ServiceReport:
        snap = self.ingress.snapshot()
        return ServiceReport(
            state=self.state.value,
            scheduler=self.config.scheduler,
            seed=self.config.seed,
            admitted=snap["admitted"],
            rejected=snap["rejected"],
            shed=snap["shed"],
            backpressure_waits=snap["backpressure_waits"],
            depth_high=snap["depth_high"],
            tasks_injected=len(self.engine.injected),
            completed=self.engine.completed,
            sim_time=self.engine.now,
            failures_injected=self.engine.failures_injected,
            repairs_completed=self.engine.repairs_completed,
            tasks_resubmitted=self.engine.scheduler.tasks_resubmitted,
            resumed=self.journal_state is not None,
            recovered=(
                len(self.journal_state.pending_tasks)
                if self.journal_state is not None
                else 0
            ),
            metrics=metrics,
        )

    def report(self) -> ServiceReport:
        """The final report; available once the service has stopped."""
        if self._report is not None:
            return self._report
        state = self.journal_state
        if state is not None and state.drained:
            # Resume of a finished run: report the journal's record.
            self._report = ServiceReport(
                state=ServiceState.STOPPED.value,
                scheduler=self.config.scheduler,
                seed=self.config.seed,
                admitted=state.admitted,
                rejected=state.rejected,
                shed=state.shed,
                backpressure_waits=0,
                depth_high=0,
                tasks_injected=0,
                completed=state.completed or 0,
                sim_time=0.0,
                failures_injected=state.failures_injected,
                repairs_completed=state.repairs_completed,
                resumed=True,
                recovered=0,
                already_drained=True,
            )
            return self._report
        raise ServiceError("service has not stopped yet — no report")
