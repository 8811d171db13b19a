"""Compute node: bounded group queue, split-capable executor, sleep states.

Execution model (paper §III.B, §IV.D.2):

- The node queue holds :class:`~repro.cluster.taskgroup.TaskGroup` objects;
  each group occupies one slot (queue length ``qc`` bounds admission).
- A *feeder* pops the head group and releases its tasks in EDF order to
  the node's processors through a one-item ready slot.
- **Split enabled** (paper's split process): as soon as the head group's
  tasks have been drawn, the next group's tasks become available — idle
  processors "steal" tasks from the next waiting group instead of burning
  idle power.
- **Split disabled** (gang mode, used for ablation): the next group is
  held back until every task of the current group has *completed*.
- Processors idle longer than ``idle_timeout`` power-gate into a sleep
  state (``p_sleep``) and pay ``wake_latency`` when work arrives
  (substitution A7 in DESIGN.md; disable with ``allow_sleep=False`` for
  the literal Eq. 5 platform).

The feeder and one worker per processor are driven by kernel callbacks
(:class:`~repro.sim.events.Call`).  Each wake-up takes the kernel
entries a generator process waiting on the same store handshake,
``AnyOf`` wait, timeout, interrupt or repair event would take, at the
same moment, priority and order, which keeps results bit-identical to
that process executor (kept as the tests' reference); entries nothing
waits on are not scheduled.  ``docs/architecture.md`` ("The kernel fast
path") has the table of wake-ups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from ..energy.accounting import NodeEnergy, node_energy
from ..energy.meter import ProcState
from ..sim.core import Environment
from ..sim.events import Call, Event
from ..sim.fold import fold_sum
from ..workload.task import Task
from .processor import Processor
from .taskgroup import TaskGroup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .site import ResourceSite

__all__ = ["ComputeNode", "NodeState", "SleepPolicy", "load_and_power"]

_BUSY = ProcState.BUSY
_IDLE = ProcState.IDLE
_SLEEP = ProcState.SLEEP

# What a worker waits on (_Wait.kind): asleep, ``get | policy``; idle
# under a gating policy, ``(get | timeout) | policy``; idle under a
# policy that never gates, ``get | policy``.
_ASLEEP = 0
_GATED = 1
_AWAKE = 2

#: Default number of group slots in a node queue.  The paper only states
#: the queue "varying in size (length) exists to limit the number of tasks
#: to be scheduled" (§III.B); 4 slots keeps nodes responsive while forcing
#: schedulers to respect back-pressure.
DEFAULT_QUEUE_SLOTS = 4


@dataclass(frozen=True)
class SleepPolicy:
    """Processor power-gating parameters (substitution A7)."""

    allow_sleep: bool = True
    idle_timeout: float = 25.0
    wake_latency: float = 2.0

    def __post_init__(self) -> None:
        # ``not x >= 0`` rejects NaN too: a NaN timer fires at time NaN,
        # and the run stalls.  An infinite timeout means "never gate".
        if not self.idle_timeout >= 0:
            raise ValueError("idle_timeout must be non-negative")
        if not (self.wake_latency >= 0 and math.isfinite(self.wake_latency)):
            raise ValueError("wake_latency must be finite and non-negative")

    def to_dict(self) -> dict:
        """JSON-safe representation (inverse of :meth:`from_dict`)."""
        return {
            "allow_sleep": self.allow_sleep,
            "idle_timeout": self.idle_timeout,
            "wake_latency": self.wake_latency,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SleepPolicy":
        """Rebuild a policy from :meth:`to_dict` output."""
        return cls(
            allow_sleep=bool(data["allow_sleep"]),
            idle_timeout=float(data["idle_timeout"]),
            wake_latency=float(data["wake_latency"]),
        )


@dataclass(frozen=True)
class NodeState:
    """The observable node state ``Sc(t) = (Load, q⁻, {PP1..m})`` (§IV.B)."""

    node_id: str
    #: Total processing weight queued on the node (Load).
    load: float
    #: Available queue slots (q⁻).
    free_slots: int
    #: Instantaneous per-processor power draw ({PP1..m}).
    processor_power_w: tuple[float, ...]
    #: Node processing capacity ``PCc`` (Eq. 2) — static per node.
    processing_capacity: float

    @property
    def total_power_w(self) -> float:
        return fold_sum(self.processor_power_w)


class _Worker:
    """One processor's executor state."""

    __slots__ = ("proc", "item", "got", "wait", "wake")

    def __init__(self, proc: Processor) -> None:
        self.proc = proc
        #: The (task, group) handed to the current get, or None.
        self.item: Optional[tuple[Task, TaskGroup]] = None
        #: True once the current get's entry has been processed.
        self.got = False
        #: The worker's latest wait.
        self.wait: Optional[_Wait] = None
        #: The pending entry that resumes the worker, or None.
        self.wake: Optional[Call] = None


class _Wait:
    """One wait of a worker for its next task, with one flag per level.

    An asleep worker, or an idle one under a policy that never gates,
    waits on ``get | policy`` (one level); an idle worker under a gating
    policy on ``(get | timeout) | policy`` (inner and outer level).  A
    level fires at the first of its inputs and releases the others.
    """

    __slots__ = ("worker", "policy", "kind", "inner", "outer", "subs")

    def __init__(self, worker: _Worker, policy: "SleepPolicy", kind: int) -> None:
        self.worker = worker
        #: The policy read when the wait was built; waking from sleep
        #: pays its wake latency.
        self.policy = policy
        self.kind = kind
        #: The first level (the get, and a gated wait's idle timeout)
        #: can still fire.
        self.inner = False
        #: A gated wait's outer level can still fire.
        self.outer = kind == _GATED
        #: The node's list of waits subscribed to its next policy
        #: change that holds this wait, or None.
        self.subs: Optional[list[_Wait]] = None


class ComputeNode:
    """A multi-processor compute node with a bounded task-group queue."""

    def __init__(
        self,
        env: Environment,
        node_id: str,
        site_id: str,
        processors: Sequence[Processor],
        queue_slots: int = DEFAULT_QUEUE_SLOTS,
        split_enabled: bool = True,
        sleep_policy: Optional[SleepPolicy] = None,
    ) -> None:
        if not processors:
            raise ValueError(f"node {node_id}: needs at least one processor")
        if queue_slots <= 0:
            raise ValueError(f"node {node_id}: queue_slots must be positive")
        self.env = env
        self.node_id = node_id
        self.site_id = site_id
        self.processors = list(processors)
        self.queue_slots = queue_slots
        self.split_enabled = split_enabled
        self.sleep_policy = sleep_policy or SleepPolicy()

        #: Bounded queue of task groups (one slot per group), oldest
        #: first: admitted groups the feeder has not taken yet.
        self.queue: list[TaskGroup] = []
        #: The ready slot between the feeder and the workers: the
        #: released (task, group) no worker has taken yet, or None.
        self._slot: Optional[tuple[Task, TaskGroup]] = None
        #: Workers waiting for the slot to fill, in request order.
        self._getters: list[_Worker] = []
        #: The item the feeder could not put while the slot was full.
        self._blocked: Optional[tuple[Task, TaskGroup]] = None
        #: The feeder waits for a group to be admitted.
        self._feeder_waiting = False
        #: What the feeder waits on otherwise: its get or put entry, or
        #: a gang group's completion.
        self._feeder_on: Optional[Event] = None
        #: The group the feeder releases, and its tasks still to release.
        self._feeding: Optional[TaskGroup] = None
        self._feed: Iterator[Task] = iter(())
        #: Waits subscribed to the next sleep-policy change, in order.
        self._policy_waits: list[_Wait] = []
        #: Groups admitted but not fully completed, newest last.
        self._active_groups: list[TaskGroup] = []
        self.groups_completed = 0
        self.tasks_completed = 0

        self._task_callbacks: list[Callable[[Task, "ComputeNode"], None]] = []
        self._group_callbacks: list[Callable[[TaskGroup, "ComputeNode"], None]] = []
        self._slot_callbacks: list[Callable[["ComputeNode"], None]] = []
        self._orphan_callbacks: list[
            Callable[[list[Task], "ComputeNode"], None]
        ] = []

        #: True while the node is crashed (failure injection).
        self.failed = False
        self.failures = 0
        #: Parties parked by a crash, in the order they parked (None is
        #: the feeder); the next repair resumes them.
        self._parked: list[Optional[_Worker]] = []

        # Static aggregates, frozen at construction.  Node membership is
        # fixed for the lifetime of the simulation (failures crash and
        # repair a node but never alter its processor set), so Eq. 2's
        # ``PCc`` really is "static per node" as the NodeState docstring
        # promises — freeze it here instead of recomputing per decision.
        self._total_speed_mips = fold_sum(
            p.speed_mips for p in self.processors
        )
        self._processing_capacity = self._total_speed_mips / queue_slots

        # Dirty-flag caches for the per-decision aggregates.  The cached
        # values are recomputed with the exact same expressions as the
        # original full scans, so cached and uncached runs are
        # bit-identical; the flags are raised at every mutation point
        # (admission, completion, failure, power transitions).
        self._work_dirty = True
        #: Called with the node at each work change (:meth:`_work_changed`);
        #: the DVFS governor or Prediction's consolidation order watching
        #: the node installs it.
        self._work_watcher: Optional[Callable[["ComputeNode"], None]] = None
        self._load_cache = 0.0
        #: Pending-task size and deadlines, built on first read after a
        #: refresh: observations read only the load, and only the DVFS
        #: governor reads the deadlines, so most runs never build them.
        self._pending_size_cache: Optional[float] = None
        self._deadlines_cache: Optional[tuple[float, ...]] = None
        self._power_dirty = True
        self._power_cache: tuple[float, ...] = ()
        self._total_power_cache = 0.0
        self._sleeping_cache = 0
        for proc in self.processors:
            proc.node = self

        #: Tasks admitted and not yet completed: an exact count, kept at
        #: admission, completion and failure.
        self._pending = 0
        #: The site whose index counts this node, and the node's
        #: position in the site's node list (both set by the site).
        self._site: Optional["ResourceSite"] = None
        self._site_position = 0

        self._workers = [_Worker(proc) for proc in self.processors]
        Call(env, self._start, urgent=True)

    # -- static properties -------------------------------------------------
    @property
    def num_processors(self) -> int:
        return len(self.processors)

    @property
    def total_speed_mips(self) -> float:
        """Σ_j spj — fixed at construction (processor set is static)."""
        return self._total_speed_mips

    @property
    def processing_capacity(self) -> float:
        """``PCc = (1/qc) Σ_j spj`` (Eq. 2) — static per node.

        Both terms are construction-time constants: the processor set
        never changes and ``qc`` is immutable, so this matches the
        "static per node" contract documented on :class:`NodeState`.
        """
        return self._processing_capacity

    @property
    def max_group_size(self) -> int:
        """Paper §IV.D.1: ``opnum`` "must not exceed the maximum number of
        processors in a node"."""
        return self.num_processors

    # -- observable state ---------------------------------------------------
    @property
    def queued_groups(self) -> int:
        """Groups waiting in the queue (excludes the dispatching head)."""
        return len(self.queue)

    @property
    def free_slots(self) -> int:
        """``q⁻`` — available queue spaces."""
        return self.queue_slots - len(self.queue)

    @property
    def available(self) -> bool:
        """True when the node is online and has a free queue slot."""
        return not self.failed and len(self.queue) < self.queue_slots

    def _work_changed(self) -> None:
        """The admitted work changed: mark its aggregates stale and tell
        the node's watcher, if any."""
        self._work_dirty = True
        if self._work_watcher is not None:
            self._work_watcher(self)

    def _refresh_work_caches(self) -> None:
        """Recompute the admitted-work aggregates from scratch.

        Full rescans with the original expressions — not incremental
        float updates — so cached results are bit-identical to the
        uncached ones regardless of admission/completion order.
        """
        load = 0
        for g in self._active_groups:
            load += g.pw
        self._load_cache = load
        self._pending_size_cache = None
        self._deadlines_cache = None
        self._work_dirty = False

    def _refresh_power_caches(self) -> None:
        """Recompute the per-processor power snapshot, its total (the
        same fold as :attr:`NodeState.total_power_w`) and the sleep
        count, reading each processor's meter state once.

        Each draw is what :attr:`Processor.current_power_w` returns, and
        the total is the same left fold from 0 in processor order.
        """
        draws = []
        total = 0
        sleeping = 0
        for p in self.processors:
            state = p.meter.state
            if state is _BUSY:
                draw = p.busy_power_w
            elif state is _IDLE:
                draw = p.profile.p_min_w
            else:
                draw = p.profile.p_sleep_w
                sleeping += 1
            draws.append(draw)
            total += draw
        self._power_cache = tuple(draws)
        self._total_power_cache = total
        self._sleeping_cache = sleeping
        self._power_dirty = False

    def _mark_power_dirty(self) -> None:
        """Invalidate power-derived caches (meter or DVFS transition)."""
        self._power_dirty = True

    @property
    def load(self) -> float:
        """Total processing weight of not-yet-completed admitted groups."""
        if self._work_dirty:
            self._refresh_work_caches()
        return self._load_cache

    def placement_terms(self) -> tuple[float, float, float, float]:
        """``(total_speed_mips, pending_size_mi, processing_capacity,
        sleeping fraction)``: the node terms of a placement score, each
        after one dirty check."""
        if self._work_dirty:
            self._refresh_work_caches()
        pending = self._pending_size_cache
        if pending is None:
            pending = self._fold_pending_size()
        if self._power_dirty:
            self._refresh_power_caches()
        return (
            self._total_speed_mips,
            pending,
            self._processing_capacity,
            self._sleeping_cache / len(self.processors),
        )

    @property
    def pending_tasks(self) -> int:
        """Tasks admitted to this node and not yet completed."""
        return self._pending

    @property
    def pending_deadlines(self) -> tuple[float, ...]:
        """Deadlines of the pending tasks, in the order their sizes are
        summed; built lazily and kept until the next work-cache refresh."""
        if self._work_dirty:
            self._refresh_work_caches()
        deadlines = self._deadlines_cache
        if deadlines is None:
            pending: list[float] = []
            for g in self._active_groups:
                if g.dispatched_at is None:
                    pending.extend(g.deadlines)  # see pending_size_mi
                else:
                    pending.extend(g.unfinished_deadlines())
            deadlines = self._deadlines_cache = tuple(pending)
        return deadlines

    @property
    def pending_size_mi(self) -> float:
        """Total MI of tasks admitted to this node and not yet completed."""
        if self._work_dirty:
            self._refresh_work_caches()
        size = self._pending_size_cache
        if size is None:
            size = self._fold_pending_size()
        return size

    def _fold_pending_size(self) -> float:
        """Fold and cache the pending size: the unfinished members'
        sizes, group by group in admission order, from 0."""
        size = 0
        for g in self._active_groups:
            if g.dispatched_at is None:
                # The feeder has not taken the group, so it has
                # released no task: every member is unfinished.
                for member_size in g.sizes:
                    size += member_size
            else:
                for member_size in g.unfinished_sizes():
                    size += member_size
        self._pending_size_cache = size
        return size

    @property
    def sleeping_processors(self) -> int:
        """Processors currently power-gated (cached; see §IV placement)."""
        if self._power_dirty:
            self._refresh_power_caches()
        return self._sleeping_cache

    @property
    def total_power_w(self) -> float:
        """Instantaneous node draw ``Σ PPj`` (cached with the snapshot)."""
        if self._power_dirty:
            self._refresh_power_caches()
        return self._total_power_cache

    @property
    def processor_power_w(self) -> tuple[float, ...]:
        """Each processor's :attr:`Processor.current_power_w`, in
        processor order (the cached snapshot ``{PP1..m}``)."""
        if self._power_dirty:
            self._refresh_power_caches()
        return self._power_cache

    def state(self) -> NodeState:
        """Snapshot ``Sc(t)`` for the site agent (§IV.B).

        Site agents observe the node itself (it exposes the same
        fields); a frozen snapshot is for callers that keep one.
        """
        return NodeState(
            node_id=self.node_id,
            load=self.load,
            free_slots=self.free_slots,
            processor_power_w=self.processor_power_w,
            processing_capacity=self._processing_capacity,
        )

    # -- callbacks ------------------------------------------------------------
    def on_task_complete(self, cb: Callable[[Task, "ComputeNode"], None]) -> None:
        self._task_callbacks.append(cb)

    def on_group_complete(self, cb: Callable[[TaskGroup, "ComputeNode"], None]) -> None:
        self._group_callbacks.append(cb)

    def on_slot_freed(self, cb: Callable[["ComputeNode"], None]) -> None:
        self._slot_callbacks.append(cb)

    # -- admission --------------------------------------------------------------
    def submit(self, group: TaskGroup) -> None:
        """Enqueue *group*; raises :class:`RuntimeError` on a full queue
        (schedulers admit through :meth:`try_submit`, which checks)."""
        if len(self.queue) >= self.queue_slots:
            raise RuntimeError(f"node {self.node_id}: queue is full")
        self._admit(group)

    def try_submit(self, group: TaskGroup) -> bool:
        """Non-blocking :meth:`submit`; False when full or failed."""
        if self.failed or len(self.queue) >= self.queue_slots:
            return False
        self._admit(group)
        return True

    def _admit(self, group: TaskGroup) -> None:
        group.node_id = self.node_id
        group.assigned_at = self.env.now
        if not self.split_enabled:
            group.completion = Event(self.env)  # the gang feeder waits on it
        group.on_complete(self._group_done)
        self._active_groups.append(group)
        self._work_changed()
        self._pending += group.remaining
        if self._feeder_waiting:
            # Taken at once; the feeder's get entry dispatches it.
            self._feeder_waiting = False
            self._feeder_on = Call(self.env, self._dispatch, group)
        else:
            self.queue.append(group)
        self._reindex()

    def set_sleep_policy(self, policy: SleepPolicy) -> None:
        """Swap the node's power-gating policy at runtime.

        Schedulers that manage power explicitly (Online RL's powercap,
        Q+ learning's go_sleep action) reconfigure nodes through this;
        idle workers re-evaluate their power state immediately.
        """
        self.sleep_policy = policy
        waits = self._policy_waits
        if waits:
            # Its entry wakes the waits subscribed so far; waits built
            # from now on subscribe to the next change.
            self._policy_waits = []
            Call(self.env, self._policy_changed, waits)

    # -- the feeder ---------------------------------------------------------
    def _start(self, _entry: Call) -> None:
        """The node's start entry: the feeder, then each worker."""
        if self.failed:
            return  # crashed before it started: its parties park, unstarted
        self._request_group()
        for w in self._workers:
            self._get(w)
            self._idle(w)

    def _request_group(self, _completion: Optional[Event] = None) -> None:
        """Take the head group, or wait for one (also a gang group's
        completion callback).  A group leaves the queue when taken, so
        the slot it frees is counted here."""
        if self.queue:
            self._feeder_on = Call(self.env, self._dispatch, self.queue.pop(0))
        else:
            self._feeder_waiting = True
        self._reindex()

    def _dispatch(self, entry: Call) -> None:
        """The feeder's get entry: release the group's tasks."""
        group = entry.arg
        group.dispatched_at = self.env.now
        self._notify_slot_freed()
        self._feeding = group
        self._feed = iter(group.edf_order())
        self._release_next()

    def _release_next(self, _entry: Optional[Call] = None) -> None:
        """Put the next task into the ready slot (the feeder's put entry
        calls this too), or, with every task released, take the next
        group.  A put into the full slot waits until a worker drains it,
        which keeps tasks available in EDF-FIFO order across groups."""
        group = self._feeding
        task = next(self._feed, None)
        if task is not None:
            item = (task, group)
            if self._slot is not None:
                self._blocked = item
                return
            # The put's entry comes before the receiving worker's get.
            self._feeder_on = Call(self.env, self._release_next)
            if self._getters:
                self._hand(self._getters.pop(0), item)
            else:
                self._slot = item
        elif not self.split_enabled and not group.completed and not group.cancelled:
            # Gang mode: hold the next group until this one completes.
            self._feeder_on = group.completion
            group.completion.callbacks.append(self._request_group)
        else:
            self._request_group()

    # -- the workers --------------------------------------------------------
    def _get(self, w: _Worker) -> None:
        """*w* asks for a task: it takes a full slot, which the feeder's
        blocked put then refills (the put's entry after the get's), or
        waits in line."""
        w.item = None
        w.got = False
        item = self._slot
        if item is None:
            self._getters.append(w)
            return
        self._hand(w, item)
        self._slot = self._blocked
        if self._blocked is not None:
            self._blocked = None
            self._feeder_on = Call(self.env, self._release_next)

    def _hand(self, w: _Worker, item: tuple[Task, TaskGroup]) -> None:
        """Give *item* to *w*'s get; the get's entry follows."""
        w.item = item
        Call(self.env, self._got, w)

    def _got(self, entry: Call) -> None:
        """A get's entry fires the first level of a wait on it."""
        w = entry.arg
        w.got = True
        if w.wait.inner:
            self._fire_inner(w.wait)

    def _idle(self, w: _Worker) -> None:
        """Wait for a task, as the processor's state and the policy
        say."""
        policy = self.sleep_policy
        if w.proc.meter.state is _SLEEP:
            kind = _ASLEEP
        elif policy.allow_sleep:
            kind = _GATED
        else:
            kind = _AWAKE
        wait = w.wait = _Wait(w, policy, kind)
        if kind == _GATED:
            Call(self.env, self._timed_out, wait, policy.idle_timeout)
        if w.got:
            # A level built on a processed get fires at once, and a
            # one-level wait then takes no policy subscription.
            self._fire_inner(wait)
            if kind != _GATED:
                return
        else:
            wait.inner = True
        wait.subs = self._policy_waits
        wait.subs.append(wait)

    def _timed_out(self, entry: Call) -> None:
        """An idle timeout's entry fires the inner level, if armed."""
        if entry.arg.inner:
            self._fire_inner(entry.arg)

    def _fire_inner(self, wait: _Wait) -> None:
        """The first level fires and releases its other inputs."""
        wait.inner = False
        if wait.kind == _GATED:
            Call(self.env, self._inner_fired, wait)
        else:
            self._unsubscribe(wait)
            wait.worker.wake = Call(self.env, self._woken, wait)

    def _inner_fired(self, entry: Call) -> None:
        """A gated wait's inner entry fires the outer level, unless a
        policy change or a crash released it first."""
        wait = entry.arg
        if wait.outer:
            wait.outer = False
            self._unsubscribe(wait)
            wait.worker.wake = Call(self.env, self._woken, wait)

    def _unsubscribe(self, wait: _Wait) -> None:
        if wait.subs is not None:
            wait.subs.remove(wait)
            wait.subs = None

    def _policy_changed(self, entry: Call) -> None:
        """A policy change fires each wait subscribed to it, in order: a
        gated wait's outer level (its inner level then never fires), the
        one level of the others."""
        for wait in entry.arg:
            wait.subs = None
            wait.inner = wait.outer = False
            wait.worker.wake = Call(self.env, self._woken, wait)

    def _woken(self, entry: Call) -> None:
        """A wait's last level: take the task, or look again."""
        wait = entry.arg
        w = wait.worker
        w.wake = None
        now = self.env.now
        if w.item is None:  # the get has not fired
            if wait.kind == _GATED:
                # Power-gate, and re-queue at the back so awake
                # processors are preferred for incoming work.  A policy
                # change gates too, as the process executor did (it
                # tested a timeout that had always triggered); changing
                # that moves the Online RL and Q+ results.
                self._getters.remove(w)
                w.proc.meter.set_state(_SLEEP, now)
                self._power_dirty = True
                self._get(w)
            elif wait.kind == _ASLEEP and not self.sleep_policy.allow_sleep:
                # Switched to always-awake (e.g. Online RL's powercap
                # re-admitting the node): wake, then look again.
                w.proc.meter.set_state(_IDLE, now)
                self._power_dirty = True
                w.wake = Call(self.env, self._awake, w, wait.policy.wake_latency)
                return
            self._idle(w)
        elif wait.kind == _ASLEEP:
            # Work woke the processor: run after the wake latency read
            # when the wait was built.
            w.proc.meter.set_state(_IDLE, now)
            self._power_dirty = True
            w.wake = Call(self.env, self._woke, w, wait.policy.wake_latency)
        else:
            self._run(w)

    def _awake(self, entry: Call) -> None:
        entry.arg.wake = None
        self._idle(entry.arg)

    def _woke(self, entry: Call) -> None:
        entry.arg.wake = None
        self._run(entry.arg)

    def _run(self, w: _Worker) -> None:
        """Start *w*'s task.  Busy power and execution time are frozen
        at start at the processor's current DVFS scale."""
        task = w.item[0]
        proc = w.proc
        now = self.env.now
        proc.meter.set_state(_BUSY, now, power_w=proc.busy_power_w)
        self._power_dirty = True
        task.mark_started(now, proc.pid, self.site_id)
        w.wake = Call(self.env, self._finish, w, proc.execution_time(task.size_mi))

    def _finish(self, entry: Call) -> None:
        """A task's completion entry."""
        w = entry.arg
        w.wake = None
        task, group = w.item
        proc = w.proc
        now = self.env.now
        task.mark_finished(now)
        proc.meter.set_state(_IDLE, now)
        self._power_dirty = True
        self._work_changed()
        proc.tasks_completed += 1
        self.tasks_completed += 1
        for cb in self._task_callbacks:
            cb(task, self)
        # The count drops with the group's, before the group's
        # completion callbacks observe the node.
        if not group.cancelled:
            self._pending -= 1
            self._reindex()
        group.task_done()
        # A callback above may have refreshed the work caches while the
        # group still counted this task as remaining.
        self._work_changed()
        self._get(w)
        self._idle(w)

    # -- failure injection ---------------------------------------------------
    def on_tasks_orphaned(
        self, cb: Callable[[list[Task], "ComputeNode"], None]
    ) -> None:
        """Register a callback receiving tasks abandoned by a failure."""
        self._orphan_callbacks.append(cb)

    def fail(self) -> None:
        """Crash the node (crash-stop with task resubmission).

        Every incomplete task admitted to the node — queued, ready, or
        mid-execution — is abandoned, reset, and handed to the orphan
        callbacks (schedulers resubmit them elsewhere); active groups
        are cancelled; processors power off; the executor parks until
        :meth:`repair`.
        """
        if self.failed:
            return
        self.failed = True
        self.failures += 1

        # Sweep every incomplete task out of the node's bookkeeping.
        orphans: list[Task] = []
        for group in self._active_groups:
            group.cancel()
            for task in group.tasks:
                if not task.completed:
                    if task.start_time is not None:
                        task.reset_execution()
                    orphans.append(task)
        self._active_groups.clear()
        self._work_changed()
        self._pending = 0
        self.queue.clear()
        self._slot = self._blocked = None
        self._getters.clear()
        self._reindex()

        # Detach what each party waits on, as an interrupt detaches a
        # process: a pending entry stays scheduled and does nothing, and
        # an abandoned wait fires no level.  Each party then parks on an
        # urgent entry, the feeder first.
        self._feeder_waiting = False
        for pending in (self._feeder_on, *(w.wake for w in self._workers)):
            if pending is not None and pending.callbacks:
                pending.callbacks.clear()
        Call(self.env, self._park, urgent=True)
        for w in self._workers:
            w.wake = None
            if w.wait is not None:
                w.wait.inner = w.wait.outer = False
                self._unsubscribe(w.wait)
            Call(self.env, self._park, w, urgent=True)

        for cb in self._orphan_callbacks:
            cb(list(orphans), self)

    def _park(self, entry: Call) -> None:
        """A crashed party's urgent entry: a worker powers off, and the
        party parks until repair."""
        w = entry.arg
        if w is not None:
            w.proc.meter.set_state(_SLEEP, self.env.now)
            self._power_dirty = True
        self._parked.append(w)

    def repair(self) -> None:
        """Bring a failed node back online (empty queue, idle procs)."""
        if not self.failed:
            return
        self.failed = False
        self._reindex()
        if self._parked:
            # The parked parties, the feeder first, wait on its entry,
            # which a crash before it is processed detaches.
            parked, self._parked = self._parked, []
            self._feeder_on = Call(self.env, self._resume, parked)
        self._notify_slot_freed()

    def _resume(self, entry: Call) -> None:
        """The repair entry resumes the parked parties in the order they
        parked."""
        for w in entry.arg:
            if w is None:
                self._request_group()
                continue
            w.proc.meter.set_state(_IDLE, self.env.now)
            self._power_dirty = True
            self._get(w)
            self._idle(w)

    # -- completion plumbing ---------------------------------------------------
    def _group_done(self, group: TaskGroup) -> None:
        self.groups_completed += 1
        if group in self._active_groups:
            self._active_groups.remove(group)
        self._work_changed()
        self._reindex()
        for cb in self._group_callbacks:
            cb(group, self)

    def _reindex(self) -> None:
        """Bring the site's index up to date with this node (called at
        every transition that can move it)."""
        if self._site is not None:
            self._site._reindex(self)

    def _notify_slot_freed(self) -> None:
        for cb in self._slot_callbacks:
            cb(self)

    # -- energy -------------------------------------------------------------
    def energy(self, now: Optional[float] = None) -> NodeEnergy:
        """Aggregate node energy ``Ec`` (Eq. 6) as of *now* (default: now)."""
        at = self.env.now if now is None else now
        return node_energy(
            self.node_id, [p.meter.snapshot(at) for p in self.processors]
        )

    def processor_energy(self, now: float) -> float:
        """``Σ PPj`` as of *now*: ``energy(now).total_processor_energy``
        bit for bit (the same left fold from 0 in processor order),
        building no objects."""
        total = 0
        for p in self.processors:
            total += p.meter.energy_at(now)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ComputeNode {self.node_id} m={self.num_processors} "
            f"PCc={self.processing_capacity:.0f} q={self.queued_groups}/"
            f"{self.queue_slots}>"
        )


def load_and_power(nodes: Sequence[ComputeNode]) -> tuple[float, float]:
    """``(Σ load, Σ total_power_w)`` over *nodes*: the two float terms a
    site observation folds, each a left fold from 0.0 in node order.
    Each node's terms are read after one dirty check per cache, in one
    pass and without a call per node."""
    load = 0.0
    power = 0.0
    for n in nodes:
        if n._work_dirty:
            n._refresh_work_caches()
        if n._power_dirty:
            n._refresh_power_caches()
        load += n._load_cache
        power += n._total_power_cache
    return load, power
