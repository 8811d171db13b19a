"""Unit tests for the singleton-scheduler baseline plumbing."""

import pytest

from repro.baselines import FCFSScheduler, shortest_queue_node
from repro.sim import RandomStreams
from repro.workload import Task


def make_task(tid, arrival=0.0):
    return Task(
        tid=tid,
        size_mi=1000.0,
        arrival_time=arrival,
        act=1.0,
        deadline=arrival + 100.0,
    )


class TestShortestQueueNode:
    def test_prefers_least_pending_per_speed(self, env, small_system):
        nodes = small_system.nodes
        pick = shortest_queue_node(nodes)
        assert pick is not None
        assert pick.pending_tasks == 0

    def test_none_when_all_full(self, env, small_system):
        from repro.cluster import TaskGroup

        for node in small_system.nodes:
            while node.try_submit(
                TaskGroup([make_task(999)], created_at=0.0)
            ):
                pass
        assert shortest_queue_node(small_system.nodes) is None

    def test_empty_list(self):
        assert shortest_queue_node([]) is None


class TestSingletonScheduler:
    def test_submits_singleton_groups(self, env, small_system):
        sched = FCFSScheduler()
        sched.attach(env, small_system, RandomStreams(seed=1))
        done = sched.expect(5)
        for i in range(5):
            sched.submit(make_task(i))
        env.run(until=done)
        total_groups = sum(n.groups_completed for n in small_system.nodes)
        assert total_groups == 5

    def test_holds_tasks_when_saturated(self, env, small_system):
        from repro.cluster import TaskGroup

        sched = FCFSScheduler()
        sched.attach(env, small_system, RandomStreams(seed=1))
        for node in small_system.nodes:
            while node.try_submit(
                TaskGroup([make_task(999)], created_at=0.0)
            ):
                pass
        sched.submit(make_task(0))
        # Before the simulation starts every queue is full, so the first
        # pass cannot place the task; it drains once feeders pop heads.
        assert shortest_queue_node(small_system.nodes) is None
        env.run()
        assert len(sched.backlog) == 0
        assert any(t.tid == 0 and t.completed for t in sched.completed)

    def test_groups_carry_error_diagnostic(self, env, small_system):
        sched = FCFSScheduler()
        sched.attach(env, small_system, RandomStreams(seed=1))
        done = sched.expect(1)
        sched.submit(make_task(0))
        errors = []
        for node in small_system.nodes:
            node.on_group_complete(lambda g, n: errors.append(g.error))
        env.run(until=done)
        assert errors and all(e is not None for e in errors)


@pytest.mark.parametrize(
    "name", ["fcfs", "edf", "random", "online-rl", "qplus", "prediction"]
)
def test_pass_asks_no_picker_after_the_first_none(name, env, small_system):
    """Once no node can take a task, the pass holds the rest unasked."""
    from repro.experiments.schedulers import make_scheduler

    sched = make_scheduler(name)
    sched.attach(env, small_system, RandomStreams(seed=1))
    picks = []
    pick = sched._pick_node

    def counting_pick(task):
        node = pick(task)
        picks.append(node)
        return node

    sched._pick_node = counting_pick
    # More tasks than queue slots: before the simulation starts nothing
    # leaves a queue, so the pass must run out of nodes part-way.
    slots = sum(node.free_slots for node in small_system.nodes)
    tasks = [make_task(i) for i in range(slots + 5)]
    sched.backlog.extend(tasks)
    sched._scheduling_pass()

    assert picks[-1] is None
    assert all(node is not None for node in picks[:-1])
    placed = len(picks) - 1
    assert sched.backlog == tasks[placed:]
