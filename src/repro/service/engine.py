"""Incremental simulation engine: a
:class:`~repro.experiments.runner.Run`, sliced.

The batch harness admits a whole workload into a :class:`Run` and
drains it in one call.  The :class:`SliceEngine` drives the same
:class:`Run` in bounded steps so a *service* can interleave simulation
with admission: each :meth:`~SliceEngine.advance` pops admitted tasks
from the ingress up to a slice target, injects each at its arrival
epoch, and moves the kernel forward — never past the *admission
frontier* (the largest admitted arrival time) while the stream is open,
because simulated time beyond it could be invalidated by a later
admission.  The run's failure injector arms transitions under the same
frontier.

Determinism contract (pinned by ``tests/service/test_parity.py``): for
a fixed admitted task sequence, the sliced run visits the batch run's
trajectory — same completions, energy, golden digest and
flight-recorder samples — however the slices are cut.
``env.run(until=t)`` stops *before* any event at ``t``, so injecting a
task at its arrival epoch is indistinguishable from the batch arrival
process waking there; slice boundaries add stop-sentinels that consume
event ids uniformly without processing anything.
"""

from __future__ import annotations

import time as _time
from typing import Optional

# Unused here: the end-to-end benchmark's tracer wraps these two names
# in this module, and fails when they are missing.  The calls themselves
# happen in ``Run`` (``repro.experiments.runner``), where the tracer's
# wrappers count them for batch and service runs alike.
from ..cluster.system import build_system  # noqa: F401
from ..experiments.config import ExperimentConfig
from ..experiments.runner import Run, SimulationStalled
from ..metrics.collector import RunMetrics, collect_metrics  # noqa: F401
from ..obs import Telemetry
from ..workload.generator import WorkloadSpec
from ..workload.task import Task
from .errors import ServiceError, ServiceStalled
from .ingress import IngressQueue

__all__ = ["SliceEngine", "DEFAULT_SLICE"]

#: Default slice length in simulated time units — a compromise between
#: injection latency (shorter = admitted tasks enter the kernel sooner)
#: and per-slice overhead (each slice costs one stop-sentinel).
DEFAULT_SLICE = 25.0

#: Wall-clock slice-duration histogram buckets (seconds): service
#: slices are milliseconds-scale, far below the metric default buckets.
_SLICE_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class SliceEngine:
    """Drives one :class:`~repro.experiments.runner.Run` in bounded
    increments, injecting the tasks an ingress admits."""

    def __init__(
        self,
        config: ExperimentConfig,
        telemetry: Optional[Telemetry] = None,
        strict: Optional[bool] = None,
    ) -> None:
        run = self.run = Run(config, telemetry=telemetry, strict=strict)
        self.config = config
        self.env = run.env
        self.system = run.system
        self.scheduler = run.scheduler
        #: Tasks injected into the kernel, in injection (= arrival) order.
        self.injected = run.injected
        tel = run.telemetry
        self._h_slice = (
            tel.metrics.histogram("service.slice_seconds", _SLICE_BUCKETS)
            if tel.metering
            else None
        )

    def workload_spec(self) -> WorkloadSpec:
        """The spec a live producer should generate against (see
        :meth:`Run.workload_spec <repro.experiments.runner.Run.workload_spec>`)."""
        return self.run.workload_spec()

    # -- introspection ---------------------------------------------------
    @property
    def audit(self):
        """The auditor's findings; set by :meth:`drain` under strict mode."""
        return self.run.audit

    @property
    def metrics(self) -> Optional[RunMetrics]:
        """Final metrics; None until :meth:`drain` (and forever when
        nothing was ever injected)."""
        return self.run.metrics

    @property
    def now(self) -> float:
        return self.env.now

    @property
    def completed(self) -> int:
        return self.run.completed

    @property
    def failures_injected(self) -> int:
        return self.run.failures_injected

    @property
    def repairs_completed(self) -> int:
        return self.run.repairs_completed

    # -- stepping --------------------------------------------------------
    def advance(self, ingress: IngressQueue, slice_len: float = DEFAULT_SLICE) -> int:
        """Run one bounded slice; returns how many tasks were injected.

        Pops every admitted task whose arrival lies within the slice,
        injects each at its exact arrival epoch, then advances the
        kernel to the slice target — clamped to the admission frontier,
        since time beyond the last admitted arrival is not yet settled
        while the stream remains open.
        """
        if self.run.drained:
            raise ServiceError("engine already drained")
        if slice_len <= 0:
            raise ValueError("slice_len must be positive")
        wall0 = _time.perf_counter()
        target = self.env.now + slice_len
        injected = 0
        while True:
            task = ingress.pop_next(target)
            if task is None:
                break
            self._inject(task)
            injected += 1
        if ingress.head_arrival() is not None:
            # Tasks queued beyond the target pin the frontier past it.
            self.run.advance(target)
        else:
            self.run.advance(min(target, ingress.frontier))
        if self._h_slice is not None:
            self._h_slice.observe(_time.perf_counter() - wall0)
        return injected

    def _inject(self, task: Task) -> None:
        if task.arrival_time < self.env.now:
            raise ServiceError(
                f"task {task.tid} arrives at {task.arrival_time:.6g}, before "
                f"the kernel clock {self.env.now:.6g} — the ingress frontier "
                "invariant was violated"
            )
        self.run.inject(task)

    # -- drain -----------------------------------------------------------
    def drain(self, ingress: IngressQueue) -> Optional[RunMetrics]:
        """Inject everything still queued and run to the last completion.

        The endgame is the run's own (:meth:`Run.drain
        <repro.experiments.runner.Run.drain>`): a stalled scheduler
        raises :class:`ServiceStalled` at the batch time cap instead of
        spinning forever.  Returns the collected :class:`RunMetrics`,
        or None when no task was ever injected.
        """
        if self.run.drained:
            raise ServiceError("engine already drained")
        while True:
            task = ingress.pop_next(float("inf"))
            if task is None:
                break
            self._inject(task)
        try:
            result = self.run.drain()
        except SimulationStalled as exc:
            raise ServiceStalled(str(exc)) from exc
        return None if result is None else result.metrics
