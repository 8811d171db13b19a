"""The baselines' platform reads equal the scans they replaced.

- :func:`shortest_queue_node` finds in one pass what ``min`` over the
  available nodes with the key ``((pending + 1) / speed, node_id)``
  finds, on nodes that are full, failed, tied on either key part, or
  none at all.
- :meth:`ComputeNode.processor_energy` (and each meter's
  :meth:`~ProcessorEnergyMeter.energy_at`) equals
  ``energy(now).total_processor_energy`` (``snapshot(now).total_energy``)
  bit for bit: open spans in each state, finalized meters and DVFS
  busy-power overrides.
- Prediction's consolidation index equals a fresh sort of the nodes at
  every learning cycle of small audited runs, with failures drawn on or
  off.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import shortest_queue_node
from repro.cluster import PlatformSpec, TaskGroup
from repro.cluster.node import ComputeNode
from repro.cluster.processor import Processor
from repro.energy.meter import ProcState
from repro.energy.power_model import constant_power_profile
from repro.experiments import ExperimentConfig
from repro.experiments.runner import Run
from repro.sim import Environment
from repro.validate import INV_CONSOLIDATION, InvariantAuditor
from repro.workload import Task, WorkloadGenerator

STATES = (ProcState.BUSY, ProcState.IDLE, ProcState.SLEEP)


def scan_shortest_queue_node(nodes):
    """The replaced implementation: filter, then ``min`` with key tuples."""
    candidates = [n for n in nodes if n.available]
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda n: ((n.pending_tasks + 1) / n.total_speed_mips, n.node_id),
    )


def make_node(env, node_id, speeds, queue_slots, start=0.0):
    processors = [
        Processor(f"{node_id}.p{i}", speed, constant_power_profile(), start)
        for i, speed in enumerate(speeds)
    ]
    return ComputeNode(env, node_id, "site0", processors, queue_slots=queue_slots)


def one_task_group(tid):
    task = Task(tid=tid, size_mi=100.0, arrival_time=0.0, act=1.0, deadline=1e6)
    return TaskGroup([task], created_at=0.0)


@st.composite
def node_states(draw):
    """0-8 nodes from a few speeds and ids (so keys tie), each with some
    admitted work, possibly full, possibly failed; in drawn order."""
    env = Environment()
    nodes = []
    tid = 0
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        node = make_node(
            env,
            f"site0.node{draw(st.integers(min_value=0, max_value=3))}",
            draw(st.lists(st.sampled_from([500.0, 750.0, 1000.0]),
                          min_size=1, max_size=2)),
            draw(st.integers(min_value=1, max_value=3)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            node.try_submit(one_task_group(tid))
            tid += 1
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            node.fail()
        nodes.append(node)
    return nodes


@given(nodes=node_states())
@settings(max_examples=300, deadline=None)
def test_one_pass_pick_equals_the_scan(nodes):
    assert shortest_queue_node(nodes) is scan_shortest_queue_node(nodes)
    assert shortest_queue_node(iter(nodes)) is scan_shortest_queue_node(nodes)


#: One meter step: (time advance, new state, DVFS busy-power override).
steps = st.tuples(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.sampled_from(STATES),
    st.one_of(st.none(), st.floats(min_value=10.0, max_value=120.0)),
)


@given(
    histories=st.lists(
        st.tuples(
            st.lists(steps, max_size=6),
            st.booleans(),  # finalized
            st.floats(min_value=0.0, max_value=30.0),  # open span
        ),
        min_size=1,
        max_size=5,
    ),
    start=st.floats(min_value=0.0, max_value=1e4),
)
@settings(max_examples=300, deadline=None)
def test_energy_read_equals_the_breakdown(histories, start):
    env = Environment()
    node = make_node(env, "site0.node0", [750.0] * len(histories), 4, start)
    now = start
    for proc, (history, finalized, _) in zip(node.processors, histories):
        t = start
        meter = proc.meter
        for dt, state, override in history:
            t += dt
            power = override if state is ProcState.BUSY else None
            meter.set_state(state, t, power_w=power)
        if finalized:
            meter.finalize(t)
        now = max(now, t)
    for proc, (_, _, open_span) in zip(node.processors, histories):
        at = now + open_span
        assert (
            proc.meter.energy_at(at).hex()
            == proc.meter.snapshot(at).total_energy.hex()
        )
    for at in (now, now + 7.25):
        expected = node.energy(at).total_processor_energy
        assert node.processor_energy(at).hex() == expected.hex()


@st.composite
def prediction_runs(draw):
    num_tasks = draw(st.integers(min_value=30, max_value=90))
    platform = PlatformSpec(
        num_sites=draw(st.integers(min_value=1, max_value=3)),
        nodes_per_site=(1, draw(st.integers(min_value=1, max_value=4))),
        procs_per_node=(1, 4),
        queue_slots=draw(st.integers(min_value=1, max_value=4)),
    )
    failures = (
        {"failure_mtbf": 300.0, "failure_mttr": 40.0}
        if draw(st.booleans())
        else {}
    )
    return ExperimentConfig(
        scheduler="prediction",
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        num_tasks=num_tasks,
        arrival_period=20.0 * num_tasks,
        platform=platform,
        **failures,
    )


@given(config=prediction_runs())
@settings(max_examples=15, deadline=None)
def test_consolidation_index_equals_a_fresh_sort_every_cycle(config):
    run = Run(config, strict=False)
    auditor = InvariantAuditor(
        run.env, run.system, run.scheduler, sweep_interval=1
    )
    run.admit(WorkloadGenerator(run.workload_spec(), run.streams).generate())
    result = run.drain()
    report = auditor.finalize()
    assert report.ok, report.summary()
    assert len(result.scheduler.completed) == config.num_tasks
    assert report.checks[INV_CONSOLIDATION] >= report.sweeps > 1
