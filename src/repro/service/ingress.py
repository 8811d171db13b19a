"""Bounded ingress queue: admission control, backpressure, watermarks.

The ingress is the service's front door.  Producers — a live
:class:`~repro.workload.generator.WorkloadGenerator` stream, a JSONL
trace replay, or programmatic :meth:`IngressQueue.submit` callers —
push tasks in; the :class:`~repro.service.engine.SliceEngine` pops them
as simulated time reaches their arrival epochs.  The queue is bounded,
and what happens at the bound is the *admission policy*:

- ``block`` — the producer waits for space (``submit(block=False)``
  returns ``False`` instead, for single-threaded pumps that interleave
  producing with engine slices);
- ``reject`` — raise :class:`AdmissionRejected` (``queue-full``);
- ``shed-low`` — evict the lowest-priority queued task to make room
  (the incoming task itself is shed when nothing queued is lower).

When a :class:`~repro.service.journal.AdmissionJournal` is attached,
every admission decision is journaled *before* it takes effect, and
group-committed: :meth:`IngressQueue.submit` writes its line unsynced,
and :meth:`IngressQueue.pop_next` syncs before a task leaves for the
kernel.  The durable-admission contract: no task is simulated before
its admit line is durable.  A submit's return value is therefore not
a durability ack on its own — :meth:`IngressQueue.sync` (which
:meth:`~repro.service.lifecycle.SchedulerService.submit` calls before
acknowledging) is.  A crash loses at most the unsynced tail, which the
replayable producers re-admit on resume.

Thread-safety: all public methods take one internal condition lock, so
multi-threaded producers and a draining engine can share the queue.
"""

from __future__ import annotations

import threading
import time as _time
from collections import deque
from typing import Optional

from ..obs import NULL_TELEMETRY, Telemetry
from ..workload.priorities import Priority
from ..workload.task import Task
from .errors import (
    REASON_CLOSED,
    REASON_OUT_OF_ORDER,
    REASON_QUEUE_FULL,
    REASON_SHED,
    AdmissionRejected,
)

__all__ = ["IngressQueue", "ADMISSION_POLICIES"]

#: Admission policies accepted by :class:`IngressQueue`.
ADMISSION_POLICIES = ("block", "reject", "shed-low")


class IngressQueue:
    """Bounded task queue with explicit admission policy.

    Parameters
    ----------
    max_queue:
        Capacity bound; the backpressure point.
    policy:
        One of :data:`ADMISSION_POLICIES`.
    journal:
        Optional open :class:`~repro.service.journal.AdmissionJournal`;
        every admit/shed/reject decision is journaled before it takes
        effect, and synced before any task leaves for the kernel.
    telemetry:
        Metering (when armed) maintains ``service.admitted`` /
        ``service.rejected`` / ``service.shed`` /
        ``service.backpressure_waits`` counters and the
        ``service.queue_depth`` gauge (its high-water mark is the
        watermark the ops surface exposes).
    """

    def __init__(
        self,
        max_queue: int = 1024,
        policy: str = "block",
        journal=None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if max_queue <= 0:
            raise ValueError("max_queue must be positive")
        if policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {policy!r}; "
                f"known: {', '.join(ADMISSION_POLICIES)}"
            )
        self.max_queue = max_queue
        self.policy = policy
        self.journal = journal
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tasks: deque[Task] = deque()
        self._cond = threading.Condition()
        self._closed = False
        #: Largest arrival time ever admitted — the *admission frontier*
        #: the engine may safely advance simulated time to while the
        #: stream is open (future admissions arrive at or beyond it).
        self.frontier = float("-inf")
        # Admission ledger (plain attributes; mirrored into telemetry
        # counters when metering is armed).
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        self.backpressure_waits = 0
        self.depth_high = 0
        if tel.metering:
            metrics = tel.metrics
            self._c_admitted = metrics.counter("service.admitted")
            self._c_rejected = metrics.counter("service.rejected")
            self._c_shed = metrics.counter("service.shed")
            self._c_waits = metrics.counter("service.backpressure_waits")
            self._g_depth = metrics.gauge("service.queue_depth")
        else:
            self._c_admitted = None
            self._c_rejected = None
            self._c_shed = None
            self._c_waits = None
            self._g_depth = None

    # -- introspection ---------------------------------------------------
    @property
    def depth(self) -> int:
        """Tasks currently queued (admitted, not yet injected)."""
        return len(self._tasks)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def drained(self) -> bool:
        """Closed with nothing left queued."""
        return self._closed and not self._tasks

    # -- admission -------------------------------------------------------
    def submit(
        self,
        task: Task,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> bool:
        """Admit *task* under the configured policy.

        Returns ``True`` on admission.  Under the ``block`` policy with
        ``block=False`` (or an expired *timeout*), returns ``False``
        without admitting — the caller should retry after the engine
        has consumed some queue.  Raises :class:`AdmissionRejected`
        when the policy refuses the task outright (``reject`` at
        capacity, the incoming task shed by ``shed-low``, a closed
        ingress, or an out-of-order arrival).
        """
        with self._cond:
            self._check_admissible(task)
            # The timeout bounds the *total* wait: a per-iteration
            # wait(timeout) would re-arm the clock on every spurious
            # wakeup or still-full notify, making the wait unbounded.
            deadline: Optional[float] = None
            while len(self._tasks) >= self.max_queue:
                if self.policy == "reject":
                    self._journal_reject(task)
                    self._count_reject()
                    raise AdmissionRejected(REASON_QUEUE_FULL, task.tid)
                if self.policy == "shed-low":
                    self._shed_for(task)
                    break
                # block policy
                self.backpressure_waits += 1
                if self._c_waits is not None:
                    self._c_waits.inc()
                if not block:
                    return False
                if timeout is None:
                    self._cond.wait()
                else:
                    if deadline is None:
                        deadline = _time.monotonic() + timeout
                    remaining = deadline - _time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        return False
                self._check_admissible(task)
            self._admit(task)
            return True

    def restore(self, task: Task, block: bool = False) -> bool:
        """Re-enqueue an already-journaled task (journal resume path).

        Bypasses the admission policy and the journal — the task *was*
        admitted, in a previous process life; shedding or re-journaling
        it here would break exactly-once.  Capacity still applies
        (``False`` = full, retry after an engine slice).
        """
        with self._cond:
            if self._closed:
                raise AdmissionRejected(REASON_CLOSED, task.tid)
            if task.arrival_time < self.frontier:
                raise AdmissionRejected(
                    REASON_OUT_OF_ORDER,
                    task.tid,
                    f"arrival {task.arrival_time:.6g} precedes the "
                    f"admission frontier {self.frontier:.6g}",
                )
            while len(self._tasks) >= self.max_queue:
                if not block:
                    return False
                self._cond.wait()
                if self._closed:
                    raise AdmissionRejected(REASON_CLOSED, task.tid)
            self._enqueue(task)
            return True

    def _check_admissible(self, task: Task) -> None:
        if self._closed:
            raise AdmissionRejected(REASON_CLOSED, task.tid)
        if task.arrival_time < self.frontier:
            raise AdmissionRejected(
                REASON_OUT_OF_ORDER,
                task.tid,
                f"arrival {task.arrival_time:.6g} precedes the "
                f"admission frontier {self.frontier:.6g}",
            )

    def _shed_for(self, incoming: Task) -> None:
        """Make room for *incoming* by shedding the lowest-priority task.

        Ties break toward the oldest queued task (furthest from its
        arrival epoch, so least likely to matter).  When nothing queued
        is strictly lower-priority than *incoming*, the incoming task
        itself is the lowest load — it is shed instead.
        """
        victim_index = None
        victim_priority = Priority.HIGH
        for i, queued in enumerate(self._tasks):
            if victim_index is None or queued.priority > victim_priority:
                victim_index = i
                victim_priority = queued.priority
        if victim_index is None or incoming.priority >= victim_priority:
            self._journal_shed(incoming, admitted=False)
            self._count_shed()
            raise AdmissionRejected(REASON_SHED, incoming.tid)
        victim = self._tasks[victim_index]
        del self._tasks[victim_index]
        self._journal_shed(victim, admitted=True)
        self._count_shed()

    def _admit(self, task: Task) -> None:
        if self.journal is not None:
            self.journal.write_admit(self.admitted, task)
        self.admitted += 1
        if self._c_admitted is not None:
            self._c_admitted.inc()
        self._enqueue(task)

    def _enqueue(self, task: Task) -> None:
        self._tasks.append(task)
        if task.arrival_time > self.frontier:
            self.frontier = task.arrival_time
        depth = len(self._tasks)
        if depth > self.depth_high:
            self.depth_high = depth
        if self._g_depth is not None:
            self._g_depth.set(depth)

    def _journal_shed(self, task: Task, admitted: bool) -> None:
        if self.journal is not None:
            if not admitted:
                # An incoming task shed before ever being queued still
                # consumed a producer item: journal the admission first
                # so the shed entry has an admit to cancel, keeping the
                # consumed-count arithmetic uniform on resume.
                self.journal.write_admit(self.admitted, task)
            self.journal.write_shed(task.tid)
        if not admitted:
            self.admitted += 1
            if self._c_admitted is not None:
                self._c_admitted.inc()

    def _journal_reject(self, task: Task) -> None:
        if self.journal is not None:
            self.journal.write_reject(task.tid)

    def _count_reject(self) -> None:
        self.rejected += 1
        if self._c_rejected is not None:
            self._c_rejected.inc()

    def _count_shed(self) -> None:
        self.shed += 1
        if self._c_shed is not None:
            self._c_shed.inc()

    # -- consumption (engine side) --------------------------------------
    def pop_next(self, horizon: float) -> Optional[Task]:
        """Pop the head task if its arrival lies at or before *horizon*.

        The engine calls this with its slice target so the queue drains
        at simulated-time rate — that lag is exactly what makes the
        bound meaningful as backpressure.  With a journal attached, the
        decisions written so far are synced before the task is handed
        over (one fsync per slice: later pops find nothing pending).
        """
        with self._cond:
            if not self._tasks:
                return None
            head = self._tasks[0]
            if head.arrival_time > horizon:
                return None
            if self.journal is not None:
                self.journal.sync()
            self._tasks.popleft()
            if self._g_depth is not None:
                self._g_depth.set(len(self._tasks))
            self._cond.notify_all()
            return head

    def sync(self) -> None:
        """Make every admission decision journaled so far durable."""
        with self._cond:
            if self.journal is not None:
                self.journal.sync()

    def head_arrival(self) -> Optional[float]:
        """Arrival time of the queue head (None when empty)."""
        with self._cond:
            return self._tasks[0].arrival_time if self._tasks else None

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Stop admitting (drain begins); idempotent.

        Queued tasks remain — they are admitted work the engine must
        still run down.  Blocked producers wake and see
        :class:`AdmissionRejected` (``closed``).
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def snapshot(self) -> dict:
        """Point-in-time admission ledger (for reports and logs)."""
        with self._cond:
            return {
                "admitted": self.admitted,
                "rejected": self.rejected,
                "shed": self.shed,
                "backpressure_waits": self.backpressure_waits,
                "depth": len(self._tasks),
                "depth_high": self.depth_high,
                "closed": self._closed,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<IngressQueue {self.policy} depth={self.depth}/"
            f"{self.max_queue} admitted={self.admitted}>"
        )
