"""The compute-node executor as generator processes: the reference.

:class:`GeneratorNode` runs a node's feeder and workers as 1 + m
generator processes that hand each task through a capacity-1
:class:`~repro.sim.Store`, wake an idle worker through nested
conditions (``get_ev | timeout | policy_changed``), and crash through
:meth:`Process.interrupt`.
Everything else (caches, indexes, callbacks) is the node's own.
``test_executor_exactness.py`` runs both on the same worlds and
requires one identical log.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster import ComputeNode, SleepPolicy, TaskGroup
from repro.energy import ProcState
from repro.sim import Condition, Event, Interrupt, Store


class GeneratorNode(ComputeNode):
    """A :class:`ComputeNode` whose executor is 1 + m processes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        env = self.env
        # The queue store's item list is the node's queue list, which
        # the node's properties and the site index read.
        self._queue_store = Store(env, capacity=self.queue_slots)
        self._queue_store.items = self.queue
        self._ready = Store(env, capacity=1)
        self._policy_event = Event(env)
        self._repair_event = Event(env)
        self._feeder_proc = env.process(self._feeder())
        self._worker_procs = [
            env.process(self._worker(proc)) for proc in self.processors
        ]

    def _start(self, _entry) -> None:
        """The callback executor never starts."""

    def submit(self, group: TaskGroup) -> Event:
        group.node_id = self.node_id
        group.assigned_at = self.env.now
        group.completion = Event(self.env)
        group.on_complete(self._group_done)
        self._active_groups.append(group)
        self._work_changed()
        self._pending += group.remaining
        put = self._queue_store.put(group)
        self._reindex()
        return put

    def try_submit(self, group: TaskGroup) -> bool:
        if self.failed or self.free_slots <= 0:
            return False
        self.submit(group)
        return True

    def _feeder(self):
        while True:
            get_req = None
            put_req = None
            try:
                get_req = self._queue_store.get()
                self._reindex()
                group: TaskGroup = yield get_req
                group.dispatched_at = self.env.now
                self._notify_slot_freed()
                for task in group.edf_order():
                    put_req = self._ready.put((task, group))
                    yield put_req
                    put_req = None
                if not self.split_enabled and group.completion is not None:
                    if not group.completed and not group.cancelled:
                        yield group.completion
            except Interrupt:
                if get_req is not None and not get_req.triggered:
                    get_req.cancel()
                if put_req is not None and not put_req.triggered:
                    put_req.cancel()
                yield self._repair_event

    def set_sleep_policy(self, policy: SleepPolicy) -> None:
        self.sleep_policy = policy
        old, self._policy_event = self._policy_event, Event(self.env)
        if not old.triggered:
            old.succeed()

    def _worker(self, proc):
        env = self.env
        get_ev = self._ready.get()
        while True:
            wait: Optional[Condition] = None
            try:
                policy = self.sleep_policy
                policy_changed = self._policy_event

                if proc.state is ProcState.SLEEP:
                    wait = get_ev | policy_changed
                    yield wait
                    if not get_ev.triggered:
                        if not self.sleep_policy.allow_sleep:
                            proc.meter.set_state(ProcState.IDLE, env.now)
                            self._power_dirty = True
                            yield env.timeout(policy.wake_latency)
                        continue
                    item = get_ev.value
                    proc.meter.set_state(ProcState.IDLE, env.now)
                    self._power_dirty = True
                    yield env.timeout(policy.wake_latency)
                elif policy.allow_sleep:
                    timeout = env.timeout(policy.idle_timeout)
                    yield get_ev | timeout | policy_changed
                    if not get_ev.triggered:
                        if not timeout.triggered:
                            continue
                        get_ev.cancel()
                        proc.meter.set_state(ProcState.SLEEP, env.now)
                        self._power_dirty = True
                        get_ev = self._ready.get()
                        continue
                    item = get_ev.value
                else:
                    wait = get_ev | policy_changed
                    yield wait
                    if not get_ev.triggered:
                        continue
                    item = get_ev.value

                task, group = item
                proc.meter.set_state(
                    ProcState.BUSY, env.now, power_w=proc.busy_power_w
                )
                self._power_dirty = True
                task.mark_started(env.now, proc.pid, self.site_id)
                yield env.timeout(proc.execution_time(task.size_mi))
                task.mark_finished(env.now)
                proc.meter.set_state(ProcState.IDLE, env.now)
                self._power_dirty = True
                self._work_changed()
                proc.tasks_completed += 1
                self.tasks_completed += 1
                for cb in self._task_callbacks:
                    cb(task, self)
                if not group.cancelled:
                    self._pending -= 1
                    self._reindex()
                group.task_done()
                self._work_changed()
                get_ev = self._ready.get()
            except Interrupt:
                if not get_ev.triggered:
                    get_ev.cancel()
                if wait is not None and not wait.triggered:
                    wait._release()
                proc.meter.set_state(ProcState.SLEEP, env.now)
                self._power_dirty = True
                yield self._repair_event
                proc.meter.set_state(ProcState.IDLE, env.now)
                self._power_dirty = True
                get_ev = self._ready.get()

    def fail(self) -> None:
        if self.failed:
            return
        self.failed = True
        self.failures += 1
        orphans = []
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
        self._queue_store.items.clear()
        self._ready.items.clear()
        self._reindex()
        active = self.env.active_process
        for process in [self._feeder_proc, *self._worker_procs]:
            if process.is_alive and process is not active:
                process.interrupt(cause="node-failure")
        for cb in self._orphan_callbacks:
            cb(list(orphans), self)

    def repair(self) -> None:
        if not self.failed:
            return
        self.failed = False
        self._reindex()
        old, self._repair_event = self._repair_event, Event(self.env)
        if not old.triggered:
            old.succeed()
        self._notify_slot_freed()
