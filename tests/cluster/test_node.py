"""Unit tests for the compute node executor: queueing, split/gang modes,
sleep gating, callbacks, and back-pressure."""

import pytest

from repro.cluster import ComputeNode, Processor, SleepPolicy, TaskGroup
from repro.energy import ProcState, constant_power_profile
from repro.workload import Task


def make_task(tid, size=1000.0, arrival=0.0, slack=10.0, act=1.0):
    return Task(
        tid=tid,
        size_mi=size,
        arrival_time=arrival,
        act=act,
        deadline=arrival + act * (1 + slack),
    )


def make_node(env, n_procs=2, speed=1000.0, queue_slots=2, split=True, sleep=None):
    procs = [
        Processor(f"n0.p{i}", speed, constant_power_profile()) for i in range(n_procs)
    ]
    return ComputeNode(
        env,
        "n0",
        "s0",
        procs,
        queue_slots=queue_slots,
        split_enabled=split,
        sleep_policy=sleep or SleepPolicy(allow_sleep=False),
    )


class TestBasics:
    def test_validation(self, env):
        with pytest.raises(ValueError):
            ComputeNode(env, "n", "s", [], queue_slots=1)
        with pytest.raises(ValueError):
            make_node(env, queue_slots=0)

    def test_processing_capacity_eq2(self, env):
        node = make_node(env, n_procs=2, speed=1000.0, queue_slots=4)
        assert node.processing_capacity == pytest.approx(500.0)

    def test_max_group_size_is_proc_count(self, env):
        assert make_node(env, n_procs=2).max_group_size == 2

    def test_processing_capacity_at_queue_bounds(self, env):
        # qc = 1: the whole aggregate speed backs a single slot.
        node = make_node(env, n_procs=3, speed=800.0, queue_slots=1)
        assert node.processing_capacity == pytest.approx(2400.0)
        # Large qc: capacity dilutes as 1/qc (Eq. 2).
        node = make_node(env, n_procs=3, speed=800.0, queue_slots=64)
        assert node.processing_capacity == pytest.approx(2400.0 / 64)

    def test_processing_capacity_is_static(self, env):
        """Eq. 2 ``PCc`` is frozen at construction — admitted work and
        executing tasks never change it (the semantics NodeState
        documents as "static per node")."""
        node = make_node(env, n_procs=2, speed=1000.0, queue_slots=2)
        before = node.processing_capacity
        group = TaskGroup([make_task(1), make_task(2)], created_at=0.0)
        node.submit(group)
        env.run(until=0.5)
        assert node.processing_capacity == before
        assert node.state().processing_capacity == before
        env.run()
        assert node.processing_capacity == before

    def test_state_snapshot(self, env):
        node = make_node(env)
        s = node.state()
        assert s.node_id == "n0"
        assert s.free_slots == 2
        assert s.load == 0.0
        assert len(s.processor_power_w) == 2
        assert s.total_power_w == pytest.approx(96.0)  # two idle at 48 W


class TestExecution:
    def test_single_task_executes(self, env):
        node = make_node(env)
        t = make_task(1, size=2000.0)  # 2 s at 1000 MIPS
        node.submit(TaskGroup([t], created_at=0.0))
        env.run()
        assert t.completed
        assert t.finish_time == pytest.approx(2.0)
        assert node.tasks_completed == 1

    def test_group_runs_in_parallel(self, env):
        node = make_node(env, n_procs=2)
        t1, t2 = make_task(1, size=2000.0), make_task(2, size=2000.0)
        node.submit(TaskGroup([t1, t2], created_at=0.0))
        env.run()
        assert t1.finish_time == pytest.approx(2.0)
        assert t2.finish_time == pytest.approx(2.0)

    def test_tasks_start_in_edf_order(self, env):
        node = make_node(env, n_procs=1)
        late = make_task(1, slack=10.0)
        urgent = make_task(2, slack=0.1)
        node.submit(TaskGroup([late, urgent], created_at=0.0))
        env.run()
        assert urgent.start_time < late.start_time

    def test_split_lets_idle_procs_steal_from_next_group(self, env):
        """§IV.D.2: a processor finishing early pulls work from the next
        queued group instead of idling."""
        node = make_node(env, n_procs=2, split=True)
        short = make_task(1, size=1000.0)   # 1 s
        long = make_task(2, size=5000.0)    # 5 s
        nxt = make_task(3, size=1000.0)
        node.submit(TaskGroup([short, long], created_at=0.0))
        node.submit(TaskGroup([nxt], created_at=0.0))
        env.run()
        # The processor that ran `short` starts `nxt` at t=1, long before
        # the first group completes at t=5.
        assert nxt.start_time == pytest.approx(1.0)

    def test_gang_mode_holds_next_group(self, env):
        node = make_node(env, n_procs=2, split=False)
        short = make_task(1, size=1000.0)
        long = make_task(2, size=5000.0)
        nxt = make_task(3, size=1000.0)
        node.submit(TaskGroup([short, long], created_at=0.0))
        node.submit(TaskGroup([nxt], created_at=0.0))
        env.run()
        assert nxt.start_time >= 5.0

    def test_busy_state_during_execution(self, env):
        node = make_node(env, n_procs=1)
        t = make_task(1, size=4000.0)
        node.submit(TaskGroup([t], created_at=0.0))
        env.run(until=2.0)
        assert node.processors[0].state is ProcState.BUSY
        env.run()
        assert node.processors[0].state is ProcState.IDLE


class TestQueueing:
    def test_free_slots_track_queue(self, env):
        node = make_node(env, queue_slots=2)
        assert node.free_slots == 2
        node.submit(TaskGroup([make_task(1)], created_at=0.0))
        # Queue accounting is immediate (before the feeder drains it).
        assert node.free_slots == 1

    def test_try_submit_respects_capacity(self, env):
        node = make_node(env, n_procs=1, queue_slots=1)
        g1 = TaskGroup([make_task(1, size=50000.0)], created_at=0.0)
        g2 = TaskGroup([make_task(2)], created_at=0.0)
        g3 = TaskGroup([make_task(3)], created_at=0.0)
        assert node.try_submit(g1)
        assert node.try_submit(g2) or True  # g1 may already be dispatched
        # Fill whatever remains, then the next must be rejected.
        while node.try_submit(TaskGroup([make_task(99)], created_at=0.0)):
            pass
        assert not node.try_submit(g3)

    def test_load_sums_active_group_weights(self, env):
        node = make_node(env)
        g = TaskGroup([make_task(1)], created_at=0.0)
        node.submit(g)
        assert node.load == pytest.approx(g.pw)
        env.run()
        assert node.load == 0.0

    def test_pending_size_mi(self, env):
        node = make_node(env, n_procs=1)
        node.submit(TaskGroup([make_task(1, size=3000.0)], created_at=0.0))
        assert node.pending_size_mi == pytest.approx(3000.0)
        env.run()
        assert node.pending_size_mi == 0.0

    def test_pending_deadlines_cache_one_work_epoch(self, env):
        node = make_node(env, n_procs=1)
        short = make_task(1, size=500.0)
        long = make_task(2, size=5000.0, slack=50.0)
        node.submit(TaskGroup([short, long], created_at=0.0))
        epoch = node.pending_deadlines
        assert epoch == (short.deadline, long.deadline)
        assert node.pending_deadlines is epoch  # kept while work is unchanged
        env.run(until=1.0)  # the short task completes
        assert node.pending_deadlines == (long.deadline,)
        assert node.pending_deadlines is not epoch
        env.run()
        assert node.pending_deadlines == ()


class TestCallbacks:
    def test_task_and_group_callbacks(self, env):
        node = make_node(env)
        tasks_done, groups_done, slots_freed = [], [], []
        node.on_task_complete(lambda t, n: tasks_done.append(t.tid))
        node.on_group_complete(lambda g, n: groups_done.append(g.gid))
        node.on_slot_freed(lambda n: slots_freed.append(env.now))
        g = TaskGroup([make_task(1), make_task(2)], created_at=0.0)
        node.submit(g)
        env.run()
        assert sorted(tasks_done) == [1, 2]
        assert groups_done == [g.gid]
        assert len(slots_freed) == 1

    def test_groups_completed_counter(self, env):
        node = make_node(env)
        node.submit(TaskGroup([make_task(1)], created_at=0.0))
        node.submit(TaskGroup([make_task(2)], created_at=0.0))
        env.run()
        assert node.groups_completed == 2


class TestSleep:
    def test_idle_processor_gates_after_timeout(self, env):
        node = make_node(
            env, n_procs=1, sleep=SleepPolicy(True, idle_timeout=5.0, wake_latency=1.0)
        )
        env.run(until=10.0)
        assert node.processors[0].state is ProcState.SLEEP

    def test_sleeping_processor_wakes_for_work(self, env):
        node = make_node(
            env, n_procs=1, sleep=SleepPolicy(True, idle_timeout=5.0, wake_latency=1.0)
        )
        env.run(until=10.0)
        t = make_task(1, size=1000.0, arrival=10.0)
        node.submit(TaskGroup([t], created_at=10.0))
        env.run()
        # 10 (submit) + 1 (wake latency) + 1 (execution)
        assert t.finish_time == pytest.approx(12.0)

    def test_no_sleep_policy_keeps_idle(self, env):
        node = make_node(env, n_procs=1, sleep=SleepPolicy(allow_sleep=False))
        env.run(until=100.0)
        assert node.processors[0].state is ProcState.IDLE

    def test_policy_change_gates_idle_processor(self, env):
        node = make_node(env, n_procs=1, sleep=SleepPolicy(allow_sleep=False))
        env.run(until=10.0)
        assert node.processors[0].state is ProcState.IDLE
        node.set_sleep_policy(SleepPolicy(True, idle_timeout=0.0, wake_latency=1.0))
        env.run(until=11.0)
        assert node.processors[0].state is ProcState.SLEEP

    def test_policy_change_wakes_sleeping_processor(self, env):
        node = make_node(
            env, n_procs=1, sleep=SleepPolicy(True, idle_timeout=1.0, wake_latency=0.5)
        )
        env.run(until=5.0)
        assert node.processors[0].state is ProcState.SLEEP
        node.set_sleep_policy(SleepPolicy(allow_sleep=False))
        env.run(until=7.0)
        assert node.processors[0].state is ProcState.IDLE

    def test_energy_includes_sleep_savings(self, env):
        gated = make_node(
            env, n_procs=1, sleep=SleepPolicy(True, idle_timeout=1.0, wake_latency=0.5)
        )
        awake = make_node(env, n_procs=1, sleep=SleepPolicy(allow_sleep=False))
        env.run(until=100.0)
        assert gated.energy().energy < awake.energy().energy

    def test_invalid_sleep_policy(self):
        with pytest.raises(ValueError):
            SleepPolicy(idle_timeout=-1)
        with pytest.raises(ValueError):
            SleepPolicy(wake_latency=-0.1)
