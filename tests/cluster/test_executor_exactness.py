"""The callback executor against the generator executor it replaced.

Random small worlds (1–3 nodes of 1–4 processors, split or gang mode,
any sleep timing) run a script of admissions, sleep-policy changes
(the same policy again included) and crash/repair pairs, once on
:class:`~repro.cluster.ComputeNode` and once on the reference
:class:`GeneratorNode`.  Both must write one identical ordered log:
every meter transition, task start and finish, task, group, slot and
orphan callback, and, after each callback, a chain of probe entries,
each scheduled at zero delay by the one before, as scheduler kicks
would be, that log each processor's state and each queue's length when
processed.  The probes catch a wake-up that takes one kernel entry more
or fewer even when nothing else happens between.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ComputeNode, Processor, SleepPolicy, TaskGroup
from repro.energy import constant_power_profile
from repro.sim import Environment
from repro.workload import Task

from .reference_node import GeneratorNode

#: Probes per callback, each scheduled at zero delay by the one before.
PROBE_DEPTH = 3

TIMES = st.integers(min_value=0, max_value=60).map(lambda k: k * 0.5)
SPEEDS = st.sampled_from([500.0, 750.0, 1000.0])
SIZES = st.sampled_from([250.0, 500.0, 1000.0, 1500.0, 3000.0])
POLICIES = st.builds(
    SleepPolicy,
    allow_sleep=st.booleans(),
    idle_timeout=st.sampled_from([0.0, 0.5, 3.0, 25.0]),
    wake_latency=st.sampled_from([0.0, 0.5, 2.0]),
)


@st.composite
def worlds(draw):
    """Node shapes plus a script of ``(time, action, node, payload)``."""
    nodes = [
        (
            draw(st.lists(SPEEDS, min_size=1, max_size=4)),
            draw(st.integers(min_value=1, max_value=3)),
            draw(st.booleans()),
            draw(POLICIES),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    script = []
    node_index = st.integers(0, len(nodes) - 1)
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        at = draw(TIMES)
        # Several groups at one instant.
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            tasks = draw(st.lists(SIZES, min_size=1, max_size=4))
            script.append((at, "submit", draw(node_index), tasks))

    def follow_up(at, index):
        # Work that lands while a wake-up or a repair is under way.
        if draw(st.booleans()):
            tasks = draw(st.lists(SIZES, min_size=1, max_size=3))
            script.append((at, "submit", index, tasks))

    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        at, index = draw(TIMES), draw(node_index)
        script.append((at, "policy", index, draw(POLICIES)))
        follow_up(at + draw(st.sampled_from([0.0, 0.5, 1.0])), index)
    for index in range(len(nodes)):
        # Crash/repair pairs that do not overlap: each repair comes
        # strictly after its crash and before the next one.
        at = 0.0
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            at += draw(st.integers(min_value=1, max_value=20)) * 0.5
            script.append((at, "fail", index, None))
            at += draw(st.integers(min_value=1, max_value=20)) * 0.5
            script.append((at, "repair", index, None))
            follow_up(at, index)
    order = draw(st.permutations(range(len(script))))
    script = sorted((script[i] for i in order), key=lambda step: step[0])
    return nodes, script


def run_world(node_cls, nodes, script) -> list:
    """Run the world on *node_cls*; return its ordered log."""
    env = Environment()
    log: list = []
    platform = []
    for index, (speeds, slots, split, policy) in enumerate(nodes):
        procs = [
            Processor(f"n{index}.p{j}", speed, constant_power_profile())
            for j, speed in enumerate(speeds)
        ]
        for proc in procs:
            set_state = proc.meter.set_state

            def logged(state, now, power_w=None, _set=set_state, _pid=proc.pid):
                log.append(("meter", now, _pid, state.value))
                _set(state, now, power_w=power_w)

            proc.meter.set_state = logged
        platform.append(
            node_cls(
                env,
                f"n{index}",
                "s0",
                procs,
                queue_slots=slots,
                split_enabled=split,
                sleep_policy=policy,
            )
        )

    def probe(event) -> None:
        log.append(
            (
                "probe",
                env.now,
                tuple(p.state.value for n in platform for p in n.processors),
                tuple(len(n.queue) for n in platform),
            )
        )
        if event.value:
            kick(event.value - 1)

    def kick(again: int) -> None:
        event = env.event()
        event.callbacks.append(probe)
        event.succeed(again)

    def observed(*entry) -> None:
        log.append(entry)
        # Each probe re-arms itself, as a pass may kick another pass,
        # so the states are read at several depths of the order.
        kick(PROBE_DEPTH - 1)

    group_index: dict[int, int] = {}
    for node in platform:
        node.on_task_complete(
            lambda t, n: observed("task", env.now, t.tid, t.processor_id, t.start_time)
        )
        node.on_group_complete(
            lambda g, n: observed("group", env.now, group_index[g.gid], n.node_id)
        )
        node.on_slot_freed(lambda n: observed("slot", env.now, n.node_id))
        node.on_tasks_orphaned(
            lambda ts, n: observed("orphans", env.now, n.node_id, [t.tid for t in ts])
        )

    tid = 0

    def act(step) -> None:
        nonlocal tid
        at, action, index, payload = step
        node = platform[index]
        if action == "submit":
            tasks = []
            for size in payload:
                tasks.append(Task(tid, size, at, size / 500.0, at + 1e6))
                tid += 1
            group = TaskGroup(tasks, created_at=at)
            group_index[group.gid] = len(group_index)
            log.append(("submit", at, index, node.try_submit(group)))
        elif action == "policy":
            node.set_sleep_policy(payload)
        elif action == "fail":
            node.fail()
        else:
            node.repair()

    for step in script:
        env.timeout(step[0]).callbacks.append(lambda _e, step=step: act(step))
    env.run(until=500.0)
    log.append(
        (
            "end",
            [(n.tasks_completed, n.groups_completed, n.pending_tasks)
             for n in platform],
            [p.meter.energy_at(env.now).hex()
             for n in platform for p in n.processors],
        )
    )
    return log


@given(world=worlds())
@settings(max_examples=300, deadline=None)
def test_callback_executor_logs_what_the_processes_did(world) -> None:
    nodes, script = world
    assert run_world(ComputeNode, nodes, script) == run_world(
        GeneratorNode, nodes, script
    )


@pytest.mark.parametrize("split", [True, False])
def test_worlds_exercise_every_wake_up(split) -> None:
    """A fixed world that crosses each path at least once: a gated wait
    woken by work and by its timeout, a sleeper woken by work and by a
    switch to always-awake, a policy change that gates idle processors,
    a blocked feeder put, a crash in the middle of a task, a wait built
    on a get already processed (work handed over during a wake-up), and
    a repair that finds a group queued and zero-delay idle timeouts."""
    gated = SleepPolicy(True, idle_timeout=3.0, wake_latency=0.5)
    instant = SleepPolicy(True, idle_timeout=0.0, wake_latency=2.0)
    awake = SleepPolicy(allow_sleep=False)
    nodes = [
        ([1000.0, 500.0], 2, split, gated),
        ([750.0], 1, split, gated),
        ([1000.0, 1000.0], 1, split, instant),
    ]
    script = [
        (0.0, "submit", 0, [1000.0, 500.0, 3000.0]),
        (0.0, "submit", 0, [250.0]),
        (0.0, "submit", 1, [1500.0]),
        (1.0, "policy", 1, awake),
        (2.5, "policy", 0, gated),
        (4.0, "policy", 2, awake),
        (5.0, "submit", 2, [500.0]),
        (8.0, "policy", 2, instant),
        (9.0, "submit", 0, [500.0, 500.0]),
        (9.0, "policy", 1, gated),
        (10.0, "fail", 2, None),
        (12.0, "repair", 2, None),
        (12.0, "submit", 2, [1000.0]),
        (15.0, "policy", 0, awake),
        (16.0, "submit", 1, [3000.0]),
        (17.0, "fail", 1, None),
        (20.0, "repair", 1, None),
        (20.0, "submit", 1, [500.0]),
    ]
    log = run_world(ComputeNode, nodes, script)
    assert log == run_world(GeneratorNode, nodes, script)
    states = {entry[3] for entry in log if entry[0] == "meter"}
    assert states == {"busy", "idle", "sleep"}
    assert any(entry[0] == "orphans" and entry[3] for entry in log)
