"""Energy-accounting conservation laws (Eqs. 5–6, ECS).

Every processor's meter partitions wall time into busy / idle / sleep
spans; nothing may be dropped or double-counted anywhere in the
aggregation chain (meter → node Eq. 6 → system ECS).  These tests pin
the invariants on a workload that exercises all three states, including
mid-span snapshots (where the accruing span is added on the fly) and
the sleep→wake transitions that historically invite double-charging.
"""

import pytest

from repro.cluster import ComputeNode, Processor, SleepPolicy, TaskGroup
from repro.energy import constant_power_profile
from repro.energy.accounting import node_energy, system_energy
from repro.workload import Task


def make_task(tid, size=1000.0, arrival=0.0, slack=10.0, act=1.0):
    return Task(
        tid=tid,
        size_mi=size,
        arrival_time=arrival,
        act=act,
        deadline=arrival + act * (1 + slack),
    )


@pytest.fixture
def busy_idle_sleep_node(env):
    """A node whose processors visit busy, idle, and sleep states."""
    procs = [
        Processor(f"n0.p{i}", 1000.0, constant_power_profile())
        for i in range(2)
    ]
    node = ComputeNode(
        env,
        "n0",
        "s0",
        procs,
        queue_slots=2,
        sleep_policy=SleepPolicy(
            allow_sleep=True, idle_timeout=5.0, wake_latency=1.0
        ),
    )
    # Two rounds of work separated by a gap long enough to power-gate,
    # so each processor transitions IDLE -> BUSY -> IDLE -> SLEEP -> wake.
    node.submit(TaskGroup([make_task(1), make_task(2)], created_at=0.0))

    def second_wave(env):
        yield env.timeout(20.0)
        node.submit(TaskGroup([make_task(3), make_task(4)], created_at=20.0))

    env.process(second_wave(env))
    return node


def assert_span_conserved(breakdown, elapsed):
    """busy + idle + sleep must equal the powered (observed) span."""
    assert breakdown.total_time == pytest.approx(elapsed, rel=1e-12)
    assert breakdown.busy_time >= 0
    assert breakdown.idle_time >= 0
    assert breakdown.sleep_time >= 0


class TestProcessorConservation:
    def test_span_partition_at_end(self, env, busy_idle_sleep_node):
        node = busy_idle_sleep_node
        env.run()
        now = env.now
        for proc in node.processors:
            b = proc.meter.snapshot(now)
            assert b.sleep_time > 0, "scenario must exercise sleep"
            assert b.busy_time > 0
            assert_span_conserved(b, now)

    def test_span_partition_mid_run(self, env, busy_idle_sleep_node):
        """Snapshots taken mid-simulation (accruing span included) must
        conserve the span at every observation point."""
        node = busy_idle_sleep_node
        for until in (0.5, 1.0, 4.0, 10.0, 21.0, 30.0):
            env.run(until=until)
            for proc in node.processors:
                assert_span_conserved(proc.meter.snapshot(env.now), until)

    def test_energy_matches_time_by_state(self, env, busy_idle_sleep_node):
        """With a constant profile, each state's energy is exactly its
        state power times its accumulated time — no span is charged at
        two different powers (the idle double-count regression)."""
        node = busy_idle_sleep_node
        env.run()
        now = env.now
        for proc in node.processors:
            b = proc.meter.snapshot(now)
            profile = proc.profile
            assert b.busy_energy == pytest.approx(
                b.busy_time * profile.power_at("busy"), rel=1e-12
            )
            assert b.idle_energy == pytest.approx(
                b.idle_time * profile.power_at("idle"), rel=1e-12
            )
            assert b.sleep_energy == pytest.approx(
                b.sleep_time * profile.power_at("sleep"), rel=1e-12
            )
            assert b.total_energy == pytest.approx(
                b.busy_energy + b.idle_energy + b.sleep_energy, rel=1e-12
            )


class TestAggregationConservation:
    def test_node_and_system_totals(self, env, busy_idle_sleep_node):
        node = busy_idle_sleep_node
        env.run()
        now = env.now
        breakdowns = [p.meter.snapshot(now) for p in node.processors]
        ne = node_energy(node.node_id, breakdowns)
        # Node times/energies are plain sums over processors.
        assert ne.busy_time == pytest.approx(
            sum(b.busy_time for b in breakdowns), rel=1e-12
        )
        assert ne.idle_time == pytest.approx(
            sum(b.idle_time for b in breakdowns), rel=1e-12
        )
        assert ne.sleep_time == pytest.approx(
            sum(b.sleep_time for b in breakdowns), rel=1e-12
        )
        assert ne.busy_time + ne.idle_time + ne.sleep_time == pytest.approx(
            len(breakdowns) * now, rel=1e-12
        )
        assert ne.total_processor_energy == pytest.approx(
            sum(b.total_energy for b in breakdowns), rel=1e-12
        )
        # Eq. 6 normalizes by processor count — Ec * m recovers the sum.
        assert ne.energy * ne.num_processors == pytest.approx(
            ne.total_processor_energy, rel=1e-12
        )
        se = system_energy([ne])
        assert se.ecs == pytest.approx(ne.energy, rel=1e-12)
        assert se.total_energy == pytest.approx(
            ne.total_processor_energy, rel=1e-12
        )
        assert se.busy_time + se.idle_time + se.sleep_time == pytest.approx(
            se.num_processors * now, rel=1e-12
        )
