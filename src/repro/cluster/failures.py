"""Crash-stop failure injection (paper §I motivation).

"Computer systems consuming vast amounts of power also emit excessive
heat; this often results in system unreliability … system overheating
causes system freeze and frequent system failures."  The paper does not
evaluate under failures; this module adds the capability so the
reproduction can be stress-tested: nodes crash (abandoning their work,
which schedulers transparently resubmit) and repair after a downtime,
both exponentially distributed.

Frontier-following design
-------------------------
Each node owns a *lifecycle*: an alternating fail/repair state machine
whose transition epochs are drawn on demand from a **dedicated per-node
RNG substream** (``streams["failures.<node_id>"]``), so the draw
sequence of one node can never perturb another's and — crucially — is
independent of how far the simulation is allowed to run.  Transitions
are *armed* (scheduled into the environment, at their exact absolute
epoch via :meth:`~repro.sim.core.Environment.schedule_at`) only up to
the injector's **frontier**, which starts closed: a new injector arms
nothing.

- A batch :class:`~repro.experiments.runner.Run` knows its horizon once
  the whole workload is admitted, so :meth:`close` fixes it
  (``time_cap``) before the kernel starts — every lifecycle then
  self-arms its successor transition as it fires.
- A streaming service has no horizon while the stream is open; the run
  advances the frontier alongside the admission frontier before every
  kernel step, so no transition is ever scheduled past simulated time
  the stream has settled.  At drain, :meth:`close` fixes the horizon
  (the same ``time_cap``) and the clamp semantics below apply.
- Standalone use without a horizon opens the frontier for good with
  ``advance_frontier(math.inf)``: every transition then arms as soon as
  it is drawn.

Because per-node draws are horizon-independent and transitions fire at
bit-exact precomputed epochs, a sliced service run and a one-shot batch
run that reach the same final horizon inject the **identical** failure
schedule — the property ``tests/service/test_parity.py`` pins.

Horizon clamp semantics (applied only at/with a fixed horizon):

- a pending *fail* past the horizon retires the lifecycle (the node
  simply never fails again);
- a pending *repair* past the horizon is **rescheduled at the horizon**
  — a clamped run that completes its repairs leaves every node up,
  rather than permanently downing whichever nodes happened to be mid-
  repair when the horizon hit (the old end-of-horizon asymmetry).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..sim.core import Environment
from ..sim.events import Event
from ..sim.rng import RandomStreams
from .node import ComputeNode

__all__ = ["FailureModel", "FailureInjector"]

from dataclasses import dataclass


@dataclass(frozen=True)
class FailureModel:
    """Exponential failure/repair parameters for one node population."""

    mean_time_between_failures: float
    mean_time_to_repair: float

    def __post_init__(self) -> None:
        if not self.mean_time_between_failures > 0:
            raise ValueError("MTBF must be positive")
        if not self.mean_time_to_repair > 0:
            raise ValueError("MTTR must be positive")

    @property
    def availability(self) -> float:
        """Steady-state fraction of time a node is up."""
        up = self.mean_time_between_failures
        return up / (up + self.mean_time_to_repair)


_FAIL = "fail"
_REPAIR = "repair"


class _Lifecycle:
    """One node's alternating fail/repair state machine."""

    __slots__ = ("node", "rng", "at", "kind", "armed", "clamped", "retired")

    def __init__(self, node: ComputeNode, rng) -> None:
        self.node = node
        self.rng = rng
        #: Absolute epoch of the pending transition.
        self.at = 0.0
        self.kind = _FAIL
        #: True while the pending transition is scheduled in the env.
        self.armed = False
        #: True when the pending repair was moved to the clamp horizon.
        self.clamped = False
        #: True once no further transition will ever be drawn.
        self.retired = False


class FailureInjector:
    """Drives independent failure/repair processes on a set of nodes.

    Parameters
    ----------
    env:
        The simulation environment.
    nodes:
        Nodes to crash and repair.
    model:
        Exponential MTBF/MTTR parameters.
    streams:
        The run's :class:`~repro.sim.rng.RandomStreams` registry; each
        node draws from its own ``failures.<node_id>`` substream, so
        draws are reproducible per node regardless of lifecycle
        interleaving or horizon.
    start_after:
        No failure before this simulated time.

    The injector arms nothing until the caller opens its frontier with
    :meth:`advance_frontier` or fixes its horizon with :meth:`close`.
    """

    def __init__(
        self,
        env: Environment,
        nodes: Sequence[ComputeNode],
        model: FailureModel,
        streams: RandomStreams,
        start_after: float = 0.0,
    ) -> None:
        if not nodes:
            raise ValueError("no nodes to inject failures into")
        if start_after < 0:
            raise ValueError("start_after must be non-negative")
        self.env = env
        self.nodes = list(nodes)
        ids = [node.node_id for node in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(
                "duplicate node ids would alias per-node failure "
                "substreams and break draw determinism"
            )
        self.model = model
        self.start_after = start_after
        #: Injection horizon: no fail/repair event is scheduled past
        #: this time, pending repairs clamp to it, pending fails retire.
        #: ``None`` = not fixed yet (open stream).
        self.until: Optional[float] = None
        #: Largest simulated time transitions have been armed up to.
        self.frontier = float("-inf")
        self.failures_injected = 0
        self.repairs_completed = 0
        self.log: list[tuple[float, str, str]] = []
        self._lifecycles: list[_Lifecycle] = []
        mtbf = model.mean_time_between_failures
        for node in self.nodes:
            lc = _Lifecycle(node, streams[f"failures.{node.node_id}"])
            lc.at = start_after + float(lc.rng.exponential(mtbf))
            self._lifecycles.append(lc)

    # -- frontier control ------------------------------------------------
    def advance_frontier(self, time: float) -> None:
        """Allow transitions up to *time*; arm every pending one ≤ it.

        Monotone and idempotent.  The caller guarantees the simulation
        clock has not yet passed *time* (``Run.advance`` calls this
        immediately before each ``env.run(until=time)``); arming a
        transition the clock already passed raises, because it would
        mean a fail/repair was silently lost.
        """
        if self.until is not None and time > self.until:
            time = self.until
        if time <= self.frontier:
            return
        self.frontier = time
        for lc in self._lifecycles:
            if not lc.retired and not lc.armed and lc.at <= time:
                self._arm(lc)

    def close(self, horizon: float) -> None:
        """Fix the injection horizon once the last arrival is known.

        Applies the clamp semantics to every pending transition —
        repairs past the horizon reschedule *at* it, fails past it
        retire — then opens the frontier to the horizon.  Whether a run
        closes before the kernel starts (batch) or at drain (service),
        the endgame sees the same failure schedule.
        """
        if self.until is not None:
            raise RuntimeError("injection horizon is already fixed")
        if self.frontier == float("inf"):
            raise RuntimeError(
                "the frontier is open without bound; it has already "
                "armed past every finite horizon"
            )
        if horizon < self.start_after:
            raise ValueError("horizon must not precede start_after")
        if horizon < self.frontier:
            raise ValueError(
                f"horizon {horizon} precedes the armed frontier "
                f"{self.frontier}"
            )
        self.until = horizon
        for lc in self._lifecycles:
            if lc.retired or lc.armed or lc.at <= horizon:
                continue
            if lc.kind == _REPAIR:
                lc.at = horizon
                lc.clamped = True
            else:
                lc.retired = True
        self.advance_frontier(horizon)

    @property
    def closed(self) -> bool:
        """True once the injection horizon is fixed."""
        return self.until is not None

    # -- transition machinery --------------------------------------------
    def _arm(self, lc: _Lifecycle) -> None:
        event = Event(self.env)
        event._ok = True
        event._value = None
        event.callbacks.append(lambda _e, lc=lc: self._fire(lc))
        self.env.schedule_at(event, lc.at)
        lc.armed = True

    def _fire(self, lc: _Lifecycle) -> None:
        lc.armed = False
        node = lc.node
        now = lc.at
        if lc.kind == _FAIL:
            if not node.failed:
                node.fail()
                self.failures_injected += 1
                self.log.append((now, node.node_id, _FAIL))
                self._observe(_FAIL, node)
            # Draw the downtime unconditionally: RNG consumption must
            # not depend on whether (or where) a horizon was supplied.
            downtime = float(
                lc.rng.exponential(self.model.mean_time_to_repair)
            )
            at = now + downtime
            lc.kind = _REPAIR
            if self.until is not None and at > self.until:
                at = self.until
                lc.clamped = True
            lc.at = at
            if at <= self.frontier:
                self._arm(lc)
            return
        # Repair transition.
        if node.failed:
            node.repair()
            self.repairs_completed += 1
            self.log.append((now, node.node_id, _REPAIR))
            self._observe(_REPAIR, node)
        if lc.clamped:
            # The natural repair epoch lay past the horizon; the next
            # uptime would land even further out, so the lifecycle ends
            # here without consuming a draw the unbounded run would
            # spend *within* the horizon (there is none).
            lc.retired = True
            return
        uptime = float(
            lc.rng.exponential(self.model.mean_time_between_failures)
        )
        at = now + uptime
        lc.kind = _FAIL
        lc.at = at
        if self.until is not None and at > self.until:
            lc.retired = True
            return
        if at <= self.frontier:
            self._arm(lc)

    def _observe(self, what: str, node: ComputeNode) -> None:
        """Emit the trace event and counter for one fail/repair."""
        tel = self.env.telemetry
        if not tel.active:
            return
        if tel.tracing:
            tel.emit("node", what, self.env.now, node=node.node_id)
        if tel.metering:
            tel.metrics.counter(f"cluster.{what}s").inc()
