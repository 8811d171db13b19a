"""The simulation environment: event scheduling structures, clock, run loop.

Scheduling order contract
-------------------------
Events are processed in ascending ``(time, priority, insertion-order)``
order — the *total order*.  Insertion order is a global monotonically
increasing id (``_eid``), so the order is strict and deterministic: two
runs that schedule the same events in the same program order process them
identically.  Every optimisation below preserves this contract exactly;
the golden-seed suite (``tests/integration/test_golden_seeds.py``) pins
bit-identical end-to-end metrics against it.

Fast-path layout
----------------
A single binary heap of ``(time, priority, eid, event)`` tuples is the
textbook structure, but its push/pop cost grows with depth and every
comparison is a tuple comparison.  Traffic here splits into three shapes,
each with a cheaper sorted-by-construction home:

- **Zero-delay entries** (store put/get handshakes, process bootstraps,
  ``succeed()``/``fail()`` wakeups) go to two FIFO rings
  (:class:`collections.deque`): ``_urgent`` for priority
  :data:`URGENT`, ``_normal`` for priority :data:`NORMAL`.  Appended
  keys are strictly increasing — ``now`` never decreases and ``_eid``
  always increases — so each ring is sorted and its head is its minimum.
- **Future-time NORMAL entries** (timeouts) go to a *calendar*: a dict
  ``_buckets`` mapping absolute fire time → list of entries, plus a heap
  ``_times`` of the distinct pending times.  Entries appended to one
  bucket share the time and priority and carry increasing eids, so each
  bucket is sorted by construction; the times heap holds bare floats,
  whose comparisons are several times cheaper than tuple comparisons,
  and its depth is the number of *distinct* times, not events.
- **Everything else** (the below-URGENT stop sentinel of
  :meth:`Environment.run`, exotic priorities passed to
  :meth:`schedule`) falls back to the ``_queue`` heap, which therefore
  stays tiny.

The next event overall is the smallest head across these sources under
plain tuple comparison — exactly the total order above.  The earliest
calendar bucket is lazily merged into the ``_active`` ring when its time
wins the comparison (prepended, since its keys are smaller than anything
already there).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Optional, Union

import numpy as np

from ..obs import NULL_TELEMETRY, Counter, Telemetry
from .columnar import TickBatch
from .events import NORMAL, URGENT, AllOf, AnyOf, Event, Timeout
from .exceptions import EmptySchedule, SimulationError, StopSimulation
from .process import Process, ProcessGenerator

__all__ = ["Environment", "URGENT", "NORMAL"]


class Environment:
    """Execution environment for an event-driven simulation.

    Time advances by stepping through scheduled events in (time, priority,
    insertion-order) order.  Processes are generators registered through
    :meth:`process`.

    Parameters
    ----------
    initial_time:
        Simulated time at which the clock starts.
    telemetry:
        Optional :class:`~repro.obs.Telemetry` observing this
        environment.  Components reach it through ``env.telemetry``.
        Metering arms an event counter and a queue-depth gauge; the
        flight recorder alone arms a bare event counter.  :meth:`run`
        binds the counter, the gauge and the audit hook once per call,
        so the default null telemetry costs one false test per event.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._now: float = float(initial_time)
        #: Fallback heap: stop sentinels and exotic-priority entries.
        self._queue: list[tuple[float, int, int, Event]] = []
        #: Zero-delay URGENT entries, sorted by construction (see module
        #: docstring).
        self._urgent: deque[tuple[float, int, int, Event]] = deque()
        #: Zero-delay NORMAL entries, sorted by construction.
        self._normal: deque[tuple[float, int, int, Event]] = deque()
        #: Calendar of future NORMAL entries: absolute time -> bucket.
        self._buckets: dict[float, list[tuple[float, int, int, Event]]] = {}
        #: Heap of the distinct pending bucket times.
        self._times: list[float] = []
        #: Exact number of entries in ``_buckets``: incremented at the
        #: three calendar inserts (:meth:`schedule`, :meth:`schedule_at`,
        #: the :class:`Timeout` fast path), decremented by a bucket's
        #: length when it merges into ``_active``.  Keeps
        #: :attr:`queue_size` and the metered queue-depth gauge O(1).
        self._calendar_len = 0
        #: Ring holding the entries of already-merged calendar buckets.
        self._active: deque[tuple[float, int, int, Event]] = deque()
        #: Columnar bulk-tick batches (struct-of-arrays event source).
        self._tick_batches: list[TickBatch] = []
        self._eid = count()
        self._active_proc: Optional[Process] = None
        #: Optional per-event observer for strict-mode validation
        #: (:mod:`repro.validate`).  Called with each popped entry
        #: *before* the clock advances, so it can compare the entry
        #: against the previous time and the remaining queue heads.
        #: Must be installed before :meth:`run`, which binds it once
        #: per call.  ``None`` (the default) disables auditing; the run
        #: loop then also drains tick batches in bulk.
        self._audit_hook = None
        self.telemetry: Telemetry = (
            telemetry if telemetry is not None else NULL_TELEMETRY
        )
        if self.telemetry.metering:
            metrics = self.telemetry.metrics
            self._c_events = metrics.counter("sim.events_processed")
            self._g_queue = metrics.gauge("sim.queue_depth")
        elif self.telemetry.sampling:
            # Flight recorder without metering: the sampler's events/sec
            # probe needs the event count, so keep a bare (unregistered)
            # counter — one float add per event — but no queue-depth
            # gauge, which only the metrics registry exposes.
            self._c_events = Counter("sim.events_processed")
            self._g_queue = None
        else:
            self._c_events = None
            self._g_queue = None

    # -- clock & introspection ------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between events)."""
        return self._active_proc

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        best = self._queue[0][0] if self._queue else float("inf")
        if self._active and self._active[0][0] < best:
            best = self._active[0][0]
        if self._urgent and self._urgent[0][0] < best:
            best = self._urgent[0][0]
        if self._normal and self._normal[0][0] < best:
            best = self._normal[0][0]
        if self._times and self._times[0] < best:
            best = self._times[0]
        for batch in self._tick_batches:
            head = batch.times[batch.cursor]
            if head < best:
                best = float(head)
        return best

    @property
    def events_processed(self) -> Optional[int]:
        """Events processed so far (None when neither metering nor the
        flight recorder armed an event counter)."""
        if self._c_events is None:
            return None
        return int(self._c_events.value)

    @property
    def queue_size(self) -> int:
        """Number of events currently scheduled."""
        return (
            len(self._queue)
            + len(self._active)
            + len(self._urgent)
            + len(self._normal)
            + self._calendar_len
            + sum(batch.remaining for batch in self._tick_batches)
        )

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create a :class:`Timeout` that fires after *delay*."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Register *generator* as a new simulated :class:`Process`."""
        return Process(self, generator)

    def any_of(self, events) -> AnyOf:
        """Event triggering when any of *events* triggers."""
        return AnyOf(self, events)

    def all_of(self, events) -> AllOf:
        """Event triggering when all of *events* have triggered."""
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------
    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Queue *event* to be processed after *delay* time units."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        if delay == 0:
            entry = (self._now, priority, next(self._eid), event)
            if priority == NORMAL:
                self._normal.append(entry)
            elif priority == URGENT:
                self._urgent.append(entry)
            else:
                # Exotic priorities must still interleave correctly with
                # everything else at `now`: fallback heap.
                heappush(self._queue, entry)
            return
        at = self._now + delay
        if priority == NORMAL:
            entry = (at, NORMAL, next(self._eid), event)
            bucket = self._buckets.get(at)
            if bucket is None:
                self._buckets[at] = [entry]
                heappush(self._times, at)
            else:
                bucket.append(entry)
            self._calendar_len += 1
            return
        heappush(self._queue, (at, priority, next(self._eid), event))

    def schedule_at(
        self, event: Event, time: float, priority: int = NORMAL
    ) -> None:
        """Queue *event* to fire at the absolute simulated *time*.

        Unlike :meth:`schedule`, the fire time is taken verbatim — there
        is no ``now + delay`` float round-trip — so a caller holding a
        precomputed epoch can pin the event to it bit-exactly no matter
        *when* it arms the event.  The failure injector relies on this:
        a fail/repair transition armed lazily (as the service's
        admission frontier advances) must fire at the identical IEEE-754
        time it would have fired at had it been armed at construction,
        or sliced and batch runs diverge.
        """
        time = float(time)
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time}, before the current time "
                f"({self._now})"
            )
        if time == self._now:
            entry = (self._now, priority, next(self._eid), event)
            if priority == NORMAL:
                self._normal.append(entry)
            elif priority == URGENT:
                self._urgent.append(entry)
            else:
                heappush(self._queue, entry)
            return
        if priority == NORMAL:
            entry = (time, NORMAL, next(self._eid), event)
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [entry]
                heappush(self._times, time)
            else:
                bucket.append(entry)
            self._calendar_len += 1
            return
        heappush(self._queue, (time, priority, next(self._eid), event))

    def schedule_ticks(self, times) -> TickBatch:
        """Schedule a sorted block of bare clock ticks as one columnar unit.

        *times* is a non-decreasing 1-D array of absolute fire times, all
        at or after ``now``.  Each tick is processed exactly like a
        NORMAL-priority event with no callbacks: the clock advances to
        its time (and the event counter, when armed, counts it) and
        nothing else happens.  The whole batch consumes a single
        insertion id, so ticks keep their place in the kernel's
        ``(time, priority, insertion-order)`` total order: they fire
        after previously scheduled same-time events and before later
        ones, and in array order within the batch.

        Because ticks are payload-free, the run loop drains every tick
        that precedes the next ordinary event with one ``searchsorted``
        instead of a Python iteration per event (unless an audit hook or
        a metering gauge observes each event) — see
        :class:`~repro.sim.columnar.TickBatch`.  Use bare ticks for
        pacing grids, sampling rasters, and horizon fences where only
        the passage of simulated time matters; anything that must *react*
        to a time needs a :class:`Timeout`.
        """
        arr = np.array(times, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ValueError("tick times must be a 1-D array")
        if len(arr) == 0:
            raise ValueError("tick batch must contain at least one time")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tick times must be finite")
        if len(arr) > 1 and np.any(np.diff(arr) < 0):
            raise ValueError("tick times must be non-decreasing")
        if arr[0] < self._now:
            raise ValueError(
                f"cannot schedule ticks at {arr[0]}, before the current "
                f"time ({self._now})"
            )
        batch = TickBatch(arr, next(self._eid))
        self._tick_batches.append(batch)
        return batch

    def _best_tick_batch(self) -> Optional[TickBatch]:
        """The batch whose head tick fires first (ties on batch id)."""
        batches = self._tick_batches
        if not batches:
            return None
        best = batches[0]
        for batch in batches[1:]:
            head = batch.times[batch.cursor]
            best_head = best.times[best.cursor]
            if head < best_head or (
                head == best_head and batch.eid < best.eid
            ):
                best = batch
        return best

    def _pop_tick(self, batch: TickBatch) -> tuple[float, int, int, Event]:
        """Consume *batch*'s head tick; returns a synthetic bare entry."""
        at = float(batch.times[batch.cursor])
        batch.cursor += 1
        if batch.cursor == len(batch.times):
            self._tick_batches.remove(batch)
        tick = Event(self)
        tick._ok = True
        tick._value = None
        return (at, NORMAL, batch.eid, tick)

    def _pop(self) -> Optional[tuple[float, int, int, Event]]:
        """Pop the globally smallest scheduled entry, or None if empty."""
        queue = self._queue
        best = queue[0] if queue else None
        source = 0
        active = self._active
        if active:
            head = active[0]
            if best is None or head < best:
                best = head
                source = 1
        urgent = self._urgent
        if urgent:
            head = urgent[0]
            if best is None or head < best:
                best = head
                source = 2
        normal = self._normal
        if normal:
            head = normal[0]
            if best is None or head < best:
                best = head
                source = 3
        times = self._times
        if times:
            at = times[0]
            # The earliest calendar bucket wins when its time beats the
            # best head (ties resolved on the bucket head's full key); it
            # merges into the active ring.
            if (
                best is None
                or at < best[0]
                or (at == best[0] and self._buckets[at][0] < best)
            ):
                heappop(times)
                bucket = self._buckets.pop(at)
                self._calendar_len -= len(bucket)
                active.extendleft(reversed(bucket))
                best = active[0]
                source = 1
        if self._tick_batches:
            # A bare tick's key is (time, NORMAL, batch-eid).
            tb = self._best_tick_batch()
            t = tb.times[tb.cursor]
            if (
                best is None
                or t < best[0]
                or (
                    t == best[0]
                    and (
                        best[1] > NORMAL
                        or (best[1] == NORMAL and tb.eid < best[2])
                    )
                )
            ):
                return self._pop_tick(tb)
        if best is None:
            return None
        if source == 0:
            return heappop(queue)
        if source == 1:
            return active.popleft()
        if source == 2:
            return urgent.popleft()
        return normal.popleft()

    # -- execution ---------------------------------------------------------
    def step(self) -> None:
        """Process the next scheduled event.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        entry = self._pop()
        if entry is None:
            raise EmptySchedule("no scheduled events left")
        if self._audit_hook is not None:
            self._audit_hook(entry)
        self._now, _, _, event = entry

        if self._c_events is not None:
            self._c_events.value += 1
            if self._g_queue is not None:
                self._g_queue.set(self.queue_size)

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An unhandled failure: surface it to the caller of run/step.
            raise event._value

    def run(self, until: Union[None, float, Event] = None) -> object:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the event queue is exhausted;
            a number — run until simulated time reaches it (``until ==
            now`` is allowed and returns immediately without processing
            same-time events; only ``until < now`` is rejected);
            an :class:`Event` — run until that event is processed and
            return its value.
        """
        at_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    # Already processed.
                    return until.value
                until.callbacks.append(_stop_simulation)
                at_event = until
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not be smaller than the current "
                        f"time ({self._now})"
                    )
                stop = Event(self)
                stop._ok = True
                stop._value = None
                stop.callbacks.append(_stop_simulation)
                # Below-URGENT priority so the clock stops exactly at `at`
                # before processing same-time events (including `at == now`,
                # which supports resuming at an exact event timestamp after
                # float accumulation).
                heappush(self._queue, (at, URGENT - 1, next(self._eid), stop))

        # The loop below is step() with _pop() inlined and every
        # container bound to a local (all are mutated in place, never
        # rebound, so the locals stay valid across callbacks).  The
        # counter, gauge and audit hook are bound once per call too;
        # ``hooked`` folds them into one test per event, so the plain
        # NULL_TELEMETRY path pays a single false branch.
        queue = self._queue
        urgent = self._urgent
        normal = self._normal
        active = self._active
        times = self._times
        buckets = self._buckets
        tick_batches = self._tick_batches
        c_events = self._c_events
        g_queue = self._g_queue
        audit = self._audit_hook
        hooked = c_events is not None or audit is not None
        # Ticks drain in bulk unless something observes every event: the
        # auditor checks each entry and the gauge records the depth after
        # each one, so under either a tick is its own entry.
        bulk_ticks = audit is None and g_queue is None
        try:
            while True:
                best = queue[0] if queue else None
                source = 0
                if active:
                    head = active[0]
                    if best is None or head < best:
                        best = head
                        source = 1
                if urgent:
                    head = urgent[0]
                    if best is None or head < best:
                        best = head
                        source = 2
                if normal:
                    head = normal[0]
                    if best is None or head < best:
                        best = head
                        source = 3
                if times:
                    at = times[0]
                    # The earliest calendar bucket wins when its time
                    # beats the best head (ties resolved on the bucket
                    # head's full key); it merges into the active ring.
                    if (
                        best is None
                        or at < best[0]
                        or (at == best[0] and buckets[at][0] < best)
                    ):
                        heappop(times)
                        bucket = buckets.pop(at)
                        self._calendar_len -= len(bucket)
                        active.extendleft(reversed(bucket))
                        best = active[0]
                        source = 1
                if tick_batches:
                    tb = self._best_tick_batch()
                    arr = tb.times
                    cur = tb.cursor
                    t = arr[cur]
                    # A bare tick's key is (time, NORMAL, batch-eid).
                    if (
                        best is None
                        or t < best[0]
                        or (
                            t == best[0]
                            and (
                                best[1] > NORMAL
                                or (best[1] == NORMAL and tb.eid < best[2])
                            )
                        )
                    ):
                        if bulk_ticks:
                            # Columnar drain: every tick strictly before
                            # the next ordinary event (or the equal-time
                            # run, when the tick won a tie) falls in one
                            # searchsorted instead of one loop iteration
                            # per event.
                            bound = best[0] if best is not None else None
                            for other in tick_batches:
                                if other is not tb:
                                    h = other.times[other.cursor]
                                    if bound is None or h < bound:
                                        bound = h
                            if bound is None:
                                end = len(arr)
                            elif t < bound:
                                end = int(
                                    np.searchsorted(arr, bound, side="left")
                                )
                            else:
                                end = int(
                                    np.searchsorted(arr, t, side="right")
                                )
                            self._now = float(arr[end - 1])
                            tb.cursor = end
                            if end == len(arr):
                                tick_batches.remove(tb)
                            if c_events is not None:
                                c_events.value += end - cur
                            continue
                        # An auditor or gauge sees every event: the
                        # tick is popped below as its own entry.
                        source = 4
                elif best is None:
                    break
                if source == 1:
                    entry = active.popleft()
                elif source == 2:
                    entry = urgent.popleft()
                elif source == 3:
                    entry = normal.popleft()
                elif source == 0:
                    entry = heappop(queue)
                else:
                    entry = self._pop_tick(tb)
                if hooked:
                    # Before the clock moves: the auditor compares the
                    # entry against the current time.
                    if audit is not None:
                        audit(entry)
                    if c_events is not None:
                        c_events.value += 1
                        if g_queue is not None:
                            depth = (
                                len(queue) + len(active) + len(urgent)
                                + len(normal) + self._calendar_len
                            )
                            if tick_batches:
                                depth += sum(
                                    b.remaining for b in tick_batches
                                )
                            g_queue.set(depth)
                self._now, _, _, event = entry
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            return stop.value

        if at_event is not None:
            raise SimulationError(
                f"no scheduled events left but {at_event!r} was never triggered"
            )
        return None


def _stop_simulation(event: Event) -> None:
    """Callback that halts :meth:`Environment.run`."""
    if not event._ok:
        event._defused = True
        exc = event._value
        assert isinstance(exc, BaseException)
        raise exc
    raise StopSimulation(event._value)
