"""Single-run experiment execution.

A :class:`Run` builds everything one run of an :class:`ExperimentConfig`
needs — platform, scheduler, failure injector, auditor, flight recorder
— admits its tasks, and drains into a :class:`RunResult`.  Batch and
service both run through it: :func:`run_experiment` synthesizes the
workload against the platform's slowest processor (the paper's ``ACT``
reference), or loads a frozen trace, admits it whole and drains;
:class:`~repro.service.engine.SliceEngine` injects tasks as an ingress
admits them and advances the kernel slice by slice before draining.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..cluster.system import System, build_system
from ..core.base import Scheduler
from ..metrics.collector import RunMetrics, collect_metrics
from ..obs import (
    CAT_RUN,
    CAT_TASK,
    NULL_TELEMETRY,
    Telemetry,
    get_telemetry,
)
from ..obs.timeseries import PeriodicSampler, make_run_probes
from ..sim.core import Environment
from ..sim.events import AnyOf
from ..sim.rng import RandomStreams
from ..validate import strict_mode_enabled
from ..workload.generator import WorkloadGenerator, WorkloadSpec
from ..workload.task import Task
from .config import ExperimentConfig
from .schedulers import make_scheduler

if TYPE_CHECKING:
    from ..cluster.failures import FailureInjector
    from ..validate.report import AuditReport

__all__ = ["Run", "RunResult", "run_experiment", "SimulationStalled"]


class SimulationStalled(RuntimeError):
    """The run hit its simulated-time wall before draining all tasks."""


@dataclass(frozen=True)
class RunResult:
    """Everything a finished run yields (metrics plus live objects)."""

    config: ExperimentConfig
    metrics: RunMetrics
    scheduler: Scheduler
    system: System
    tasks: Sequence[Task]
    #: The telemetry that observed the run (NULL_TELEMETRY when off).
    telemetry: Telemetry = NULL_TELEMETRY
    #: The invariant auditor's findings (None unless strict mode ran).
    audit: Optional[AuditReport] = None


class Run:
    """One simulation run, from construction to drain.

    Parameters
    ----------
    config:
        The experiment configuration.
    telemetry:
        Optional :class:`~repro.obs.Telemetry` observing the run.  When
        omitted, the ambient telemetry (``repro.obs.use(...)`` /
        ``set_telemetry``) applies — the null telemetry by default, so
        uninstrumented callers pay nothing.
    strict:
        Run under the :class:`~repro.validate.InvariantAuditor` —
        violations raise :class:`~repro.validate.InvariantViolationError`
        and the report lands in :attr:`audit`.  ``None`` (default)
        defers to :func:`repro.validate.strict_mode_enabled` (the
        ``REPRO_STRICT`` env var / ``set_strict``).
    scheduler:
        Optional pre-built scheduler instance (overrides
        ``config.scheduler``) — used by plugin/ablation callers.

    Tasks enter either all at once through :meth:`admit` (the batch
    path) or one at a time through :meth:`inject`, in nondecreasing
    arrival order, with :meth:`advance` moving the kernel between
    injections (the service path).  :meth:`drain` ends the run.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        telemetry: Optional[Telemetry] = None,
        strict: Optional[bool] = None,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        tel = telemetry if telemetry is not None else get_telemetry()
        self.config = config
        self.telemetry = tel
        self._wall0 = tel.profiler.start() if tel.profiling else 0.0
        env = self.env = Environment(telemetry=tel)
        streams = self.streams = RandomStreams(seed=config.seed)
        system = self.system = build_system(env, config.platform, streams)
        if tel.tracing:
            for proc in system.processors:
                proc.meter.bind_telemetry(tel, proc.pid)
            tel.emit(
                CAT_RUN,
                "start",
                env.now,
                scheduler=config.scheduler,
                num_tasks=config.num_tasks,
                seed=config.seed,
            )
        if scheduler is None:
            scheduler = make_scheduler(
                config.scheduler, **dict(config.scheduler_kwargs)
            )
        scheduler.attach(env, system, streams)
        self.scheduler = scheduler
        #: The failure injector (None without a failure model).  It arms
        #: nothing when built: :meth:`advance` opens its frontier to the
        #: kernel's next stop, and its horizon is fixed to the time cap
        #: once the last arrival is known, by :meth:`admit`, or by
        #: :meth:`drain` after injection.
        self._failures: Optional[FailureInjector] = None
        if config.failure_mtbf is not None:
            from ..cluster.failures import FailureInjector, FailureModel

            self._failures = FailureInjector(
                env,
                system.nodes,
                FailureModel(config.failure_mtbf, config.failure_mttr),
                streams,
            )
        strict_on = strict if strict is not None else strict_mode_enabled()
        self._auditor = None
        if strict_on:
            from ..validate.auditor import InvariantAuditor

            self._auditor = InvariantAuditor(env, system, scheduler)
        #: Flight recorder: a kernel-level periodic sampler records the
        #: platform and RL series bank on the telemetry's cadence.  Its
        #: self-rescheduling timeouts shift other events' ids uniformly
        #: (total order preserved) and its probes are read-only, so the
        #: run's trajectory — and the golden digests — are unchanged.
        #: It stops rescheduling at the time cap, set by :meth:`drain`.
        self._sampler: Optional[PeriodicSampler] = None
        if tel.sampling:
            self._sampler = PeriodicSampler(
                tel.series,
                every=tel.sample_every,
                until=math.inf,
                probes=make_run_probes(system, scheduler, env),
            ).attach(env)
        #: Admitted tasks, in arrival order.
        self.injected: List[Task] = []
        #: The auditor's findings; set by :meth:`drain` under strict mode.
        self.audit: Optional[AuditReport] = None
        #: Final metrics; set by :meth:`drain` (None until then, and
        #: forever when nothing was admitted).
        self.metrics: Optional[RunMetrics] = None
        self.drained = False

    # -- workload ---------------------------------------------------------
    def workload_spec(self) -> WorkloadSpec:
        """The spec this run's synthetic workload is generated from.

        The reference speed defaults to the platform's slowest
        processor.  A live producer generating against it with
        ``WorkloadGenerator(run.workload_spec(), RandomStreams(seed))``
        sees the batch run's task sequence bit for bit: the workload
        streams are name-keyed and disjoint from the system's and the
        scheduler's.
        """
        config = self.config
        reference = (
            config.reference_speed_mips
            if config.reference_speed_mips is not None
            else self.system.slowest_speed_mips
        )
        return WorkloadSpec(
            num_tasks=config.num_tasks,
            mean_interarrival=config.effective_mean_interarrival,
            size_range_mi=config.size_range_mi,
            priority_mix=config.priority_mix,
            reference_speed_mips=reference,
            **dict(config.workload_overrides),
        )

    # -- introspection ----------------------------------------------------
    @property
    def completed(self) -> int:
        return len(self.scheduler.completed)

    @property
    def failures_injected(self) -> int:
        """Node faults injected so far (0 without a failure model)."""
        return self._failures.failures_injected if self._failures else 0

    @property
    def repairs_completed(self) -> int:
        """Node repairs completed so far (0 without a failure model)."""
        return self._failures.repairs_completed if self._failures else 0

    # -- admission --------------------------------------------------------
    def admit(self, tasks: Sequence[Task]) -> None:
        """Batch path: admit a whole arrival-ordered workload up front.

        The last arrival is known, so the failure horizon is fixed to
        the time cap at once; an arrival process then submits each task
        at its arrival epoch when the run drains.
        """
        if not tasks:
            raise ValueError(
                f"no tasks to admit (num_tasks={self.config.num_tasks}, "
                f"workload_trace={self.config.workload_trace!r}); a run "
                "needs at least one task"
            )
        if self.injected:
            raise RuntimeError("tasks were already admitted to this run")
        self.injected.extend(tasks)
        if self._failures is not None:
            self._failures.close(self._time_cap())
        self.env.process(self._arrivals())

    def inject(self, task: Task) -> None:
        """Service path: run the kernel to *task*'s arrival and submit it.

        ``env.run(until=t)`` stops before any event at ``t``, exactly
        where the batch arrival process would wake to submit the task,
        so injecting at the arrival epoch keeps the batch trajectory.
        """
        arrival = task.arrival_time
        if arrival < self.env.now:
            raise ValueError(
                f"task {task.tid} arrives at {arrival:.6g}, before the "
                f"kernel clock {self.env.now:.6g}"
            )
        self.advance(arrival)
        self._submit(task)
        self.injected.append(task)

    def advance(self, until: float) -> None:
        """Arm failures up to *until* and run the kernel to it.

        A no-op unless *until* lies ahead of the clock.  The caller
        guarantees that no task arriving before *until* is still to be
        injected.
        """
        if until <= self.env.now:
            return
        if self._failures is not None:
            self._failures.advance_frontier(until)
        self.env.run(until=until)

    def _arrivals(self):
        env = self.env
        for task in self.injected:
            if env.now < task.arrival_time:
                yield env.timeout(task.arrival_time - env.now)
            self._submit(task)

    def _submit(self, task: Task) -> None:
        tel = self.telemetry
        if tel.tracing:
            tel.emit(
                CAT_TASK,
                "submit",
                self.env.now,
                task=task.tid,
                size_mi=task.size_mi,
                deadline=task.deadline,
                priority=task.priority.label,
            )
        self.scheduler.submit(task)

    def _time_cap(self) -> float:
        """The simulated-time wall a stalled run raises at."""
        arrival_span = self.injected[-1].arrival_time
        return max(arrival_span, 1.0) * self.config.sim_time_factor

    # -- endgame ----------------------------------------------------------
    def drain(self) -> Optional[RunResult]:
        """Run to the last completion and collect the results.

        Waits on ``scheduler.expect(n)`` against the time cap
        ``max(last arrival, 1) * sim_time_factor``, raising
        :class:`SimulationStalled` when the cap fires first; then
        freezes the energy meters at the drain instant, finalizes the
        audit and collects the metrics, counters and trace events.
        Returns None when no task was ever admitted.
        """
        if self.drained:
            raise RuntimeError("run already drained")
        self.drained = True
        n = len(self.injected)
        if n == 0:
            return None
        env = self.env
        scheduler = self.scheduler
        done = scheduler.expect(n)
        if len(scheduler.completed) < n:
            time_cap = self._time_cap()
            failures = self._failures
            if failures is not None and not failures.closed:
                # The stream is settled: fix the injection horizon to
                # the time cap, so the endgame sees exactly the clamped
                # failure schedule :meth:`admit` would have armed.
                failures.close(time_cap)
            if self._sampler is not None:
                self._sampler.until = time_cap
            cap_event = env.timeout(max(time_cap - env.now, 0.0))
            env.run(until=AnyOf(env, [done, cap_event]))
            if not done.triggered:
                raise SimulationStalled(
                    f"{scheduler.name}: only {len(scheduler.completed)}/{n} "
                    f"tasks completed within t={time_cap:.0f}"
                )

        # Freeze the meters at the drain point so energy is exact.
        now = env.now
        system = self.system
        for proc in system.processors:
            proc.meter.finalize(now)
        if self._auditor is not None:
            self.audit = self._auditor.finalize()
        metrics = self.metrics = collect_metrics(
            scheduler, system, self.injected
        )
        tel = self.telemetry
        if tel.metering:
            registry = tel.metrics
            joules = {"busy": 0.0, "idle": 0.0, "sleep": 0.0}
            for proc in system.processors:
                breakdown = proc.meter.snapshot()
                joules["busy"] += breakdown.busy_energy
                joules["idle"] += breakdown.idle_energy
                joules["sleep"] += breakdown.sleep_energy
            for state, seconds in (
                ("busy", metrics.energy.busy_time),
                ("idle", metrics.energy.idle_time),
                ("sleep", metrics.energy.sleep_time),
            ):
                registry.counter(f"energy.joules.{state}").inc(joules[state])
                registry.counter(f"energy.seconds.{state}").inc(seconds)
        if tel.tracing:
            tel.emit(
                CAT_RUN,
                "end",
                now,
                scheduler=scheduler.name,
                completed=len(scheduler.completed),
                makespan=metrics.makespan,
                avert=metrics.avert,
                ecs=metrics.ecs,
                tasks_injected=n,
                failures_injected=self.failures_injected,
            )
        if tel.profiling:
            tel.profiler.stop("run.total", self._wall0)
        return RunResult(
            config=self.config,
            metrics=metrics,
            scheduler=scheduler,
            system=system,
            tasks=self.injected,
            telemetry=tel,
            audit=self.audit,
        )


def run_experiment(
    config: ExperimentConfig,
    scheduler: Optional[Scheduler] = None,
    telemetry: Optional[Telemetry] = None,
    strict: Optional[bool] = None,
) -> RunResult:
    """Execute one configured simulation run to completion.

    Builds a :class:`Run` (see it for *scheduler*, *telemetry* and
    *strict*), admits the whole workload and drains.  A config with a
    ``workload_trace`` replays that frozen trace: the workload RNG
    streams go unconsumed (they are name-keyed and disjoint, so the
    system and scheduler streams are unaffected), and the synthesis
    parameters in the config are ignored.
    """
    run = Run(config, telemetry=telemetry, strict=strict, scheduler=scheduler)
    if config.workload_trace is not None:
        from ..workload.traces import load_workload

        tasks = sorted(
            load_workload(config.workload_trace),
            key=lambda t: t.arrival_time,
        )
    else:
        tasks = WorkloadGenerator(run.workload_spec(), run.streams).generate()
    run.admit(tasks)
    return run.drain()
