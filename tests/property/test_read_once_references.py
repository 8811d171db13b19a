"""The per-task path's read-once folds and placement against references.

Task groups read their members' sizes and deadlines once, nodes fold
pending work from those columns, and the site agent scores placements in
one pass.  Each reference below is the per-task property read it
replaced, written out, so every result must agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ComputeNode, Processor, ResourceSite, SleepPolicy, TaskGroup
from repro.core.agent import W_ENERGY, W_ERROR, W_TIME, W_WAKE, SiteAgent
from repro.core.feedback import grouping_error
from repro.core.value_models import TabularValueModel
from repro.energy import ProcState, constant_power_profile
from repro.rl import EpsilonGreedy
from repro.sim import Environment
from repro.sim.fold import fold_sum
from repro.workload import Task


def reference_pw(tasks, at):
    """Eq. 10 over the members' properties (the group's former fold)."""
    eps = 1e-6
    total = fold_sum(t.size_mi for t in tasks)
    windows = fold_sum(max(t.deadline - at, eps) for t in tasks)
    return total / (windows / len(tasks))


def live_tasks(node):
    return [t for g in node._active_groups for t in g.tasks if not t.completed]


def bits(x):
    return float(x).hex()


def check_folds(node):
    """Every read-once fold of *node* and its groups equals the
    per-task property fold."""
    for g in node._active_groups:
        assert [t.tid for t in g.tasks] == [
            t.tid for t in sorted(g.tasks, key=lambda t: t.deadline)
        ]
        assert bits(g.size_mi) == bits(fold_sum(t.size_mi for t in g.tasks))
        assert bits(g.pw) == bits(reference_pw(g.tasks, g.created_at))
    assert bits(node.load) == bits(fold_sum(g.pw for g in node._active_groups))
    live = live_tasks(node)
    assert bits(node.pending_size_mi) == bits(fold_sum(t.size_mi for t in live))
    assert node.pending_deadlines == tuple(t.deadline for t in live)


def make_node(env, index, n_procs, speed, slots, split, policy):
    procs = [
        Processor(f"n{index}.p{j}", speed, constant_power_profile())
        for j in range(n_procs)
    ]
    return ComputeNode(
        env, f"n{index}", "s0", procs, queue_slots=slots,
        split_enabled=split, sleep_policy=policy,
    )


@st.composite
def node_scripts(draw):
    """A node shape plus a timed script of admissions, failures and
    repairs; tasks get unordered deadlines, so groups sort them."""
    n_procs = draw(st.integers(1, 4))
    speed = draw(st.sampled_from([500.0, 750.0, 1000.0]))
    split = draw(st.booleans())
    policy = draw(
        st.sampled_from(
            [
                SleepPolicy(allow_sleep=False),
                SleepPolicy(idle_timeout=1.0, wake_latency=0.5),
            ]
        )
    )
    steps = []
    at = 0.0
    for _ in range(draw(st.integers(1, 12))):
        at += draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
        action = draw(st.sampled_from(["submit"] * 6 + ["fail", "repair"]))
        sizes = draw(
            st.lists(st.floats(100.0, 4000.0), min_size=1, max_size=n_procs)
        )
        slacks = draw(
            st.lists(st.floats(0.0, 20.0), min_size=len(sizes), max_size=len(sizes))
        )
        steps.append((at, action, list(zip(sizes, slacks))))
    return n_procs, speed, split, policy, steps


@given(script=node_scripts())
@settings(max_examples=150, deadline=None)
def test_node_and_group_folds_equal_the_per_task_folds(script):
    n_procs, speed, split, policy, steps = script
    env = Environment()
    node = make_node(env, 0, n_procs, speed, 3, split, policy)
    checks = []

    def probe(*_):
        checks.append(env.now)
        check_folds(node)

    # A task's completion callbacks run after it is marked finished and
    # before its group counts it: the folds must see it finished there.
    node.on_task_complete(probe)
    node.on_group_complete(probe)
    node.on_tasks_orphaned(probe)
    tid = 0

    def act(step):
        nonlocal tid
        at, action, members = step
        if action == "submit":
            tasks = []
            for size, slack in members:
                act_time = size / 500.0
                tasks.append(Task(tid, size, at, act_time, at + act_time * (1 + slack)))
                tid += 1
            node.try_submit(TaskGroup(tasks, created_at=at))
        elif action == "fail":
            node.fail()
        else:
            node.repair()
        probe()

    for step in steps:
        env.timeout(step[0]).callbacks.append(lambda _e, step=step: act(step))
    env.run(until=200.0)
    probe()
    assert checks


def reference_best_node(group, open_nodes, now):
    """The former placement: ``min`` over a score closure keyed by
    ``(value, node_id)``, every term read through properties."""
    window = max(fold_sum(t.deadline - now for t in group.tasks) / len(group), 1e-6)
    size_mi = fold_sum(t.size_mi for t in group.tasks)
    pw = reference_pw(group.tasks, group.created_at)

    def score(node):
        speed = node.total_speed_mips
        est_wait = fold_sum(t.size_mi for t in live_tasks(node)) / speed
        est_exec = size_mi / speed
        err = grouping_error(pw, node.processing_capacity)
        sleeping = sum(1 for p in node.processors if p.state is ProcState.SLEEP)
        sleeping_frac = sleeping / node.num_processors
        energy = W_ENERGY * (
            (750.0 / (node.total_speed_mips / node.num_processors))
            * (5.0 / node.num_processors)
        )
        value = (
            W_TIME * (est_wait + est_exec) / window
            + energy
            + W_ERROR * err / (1.0 + err)
            + W_WAKE * sleeping_frac
        )
        return (value, node.node_id)

    return min(open_nodes, key=score)


@st.composite
def placement_worlds(draw):
    """A site whose nodes often repeat one shape, with ids that do not
    sort in node order, some pending work, and a group to place."""
    shapes = draw(
        st.lists(
            st.tuples(st.integers(1, 3), st.sampled_from([500.0, 1000.0])),
            min_size=1,
            max_size=2,
        )
    )
    n_nodes = draw(st.integers(2, 7))
    layout = [draw(st.sampled_from(shapes)) for _ in range(n_nodes)]
    ids = draw(st.permutations(list(range(n_nodes))))
    loads = [
        draw(st.lists(st.floats(100.0, 3000.0), max_size=2)) for _ in range(n_nodes)
    ]
    run_until = draw(st.sampled_from([0.0, 0.5, 2.0, 30.0]))
    sizes = draw(st.lists(st.floats(100.0, 3000.0), min_size=1, max_size=3))
    return layout, ids, loads, run_until, sizes


@given(world=placement_worlds())
@settings(max_examples=200, deadline=None)
def test_placement_picks_the_reference_node(world):
    layout, ids, loads, run_until, sizes = world
    env = Environment()
    policy = SleepPolicy(idle_timeout=1.0, wake_latency=0.5)
    nodes = [
        make_node(env, ids[i], n_procs, speed, 2, True, policy)
        for i, (n_procs, speed) in enumerate(layout)
    ]
    site = ResourceSite("s0", nodes)
    agent = SiteAgent(
        site,
        value_model=TabularValueModel(),
        exploration=EpsilonGreedy(np.random.default_rng(0), epsilon=0.0, min_epsilon=0.0),
        memory=None,
    )
    tid = 0
    for node, members in zip(nodes, loads):
        if members:
            tasks = [Task(tid + k, s, 0.0, s / 500.0, 1e4) for k, s in enumerate(members)]
            tid += len(members)
            node.try_submit(TaskGroup(tasks, created_at=0.0))
    env.run(until=run_until)
    now = env.now
    group = TaskGroup(
        [Task(tid + k, s, now, s / 500.0, now + 50.0 + k) for k, s in enumerate(sizes)],
        created_at=now,
    )
    open_nodes = site.open_nodes
    if not open_nodes:
        return
    chosen = agent._best_node(group, open_nodes, now, explore=False)
    assert chosen is reference_best_node(group, open_nodes, now)
