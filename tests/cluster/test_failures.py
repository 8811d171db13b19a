"""Unit tests for crash-stop failure injection."""

import math

import pytest

from repro.cluster import (
    ComputeNode,
    FailureInjector,
    FailureModel,
    Processor,
    SleepPolicy,
    TaskGroup,
)
from repro.energy import ProcState, constant_power_profile
from repro.workload import Task


def make_node(env, n_procs=2, name="n0"):
    procs = [
        Processor(f"p{i}", 1000.0, constant_power_profile())
        for i in range(n_procs)
    ]
    return ComputeNode(
        env, name, "s0", procs, sleep_policy=SleepPolicy(allow_sleep=False)
    )


def make_task(tid, size=2000.0, arrival=0.0):
    return Task(
        tid=tid, size_mi=size, arrival_time=arrival, act=1.0, deadline=arrival + 500.0
    )


class TestFailureModel:
    def test_availability(self):
        m = FailureModel(90.0, 10.0)
        assert m.availability == pytest.approx(0.9)

    @pytest.mark.parametrize(
        "mtbf,mttr,expected",
        [
            (100.0, 100.0, 0.5),       # equal up/down halves availability
            (999.0, 1.0, 0.999),       # near-perfect availability
            (1.0, 9.0, 0.1),           # mostly-down population
        ],
    )
    def test_availability_is_mtbf_over_total(self, mtbf, mttr, expected):
        assert FailureModel(mtbf, mttr).availability == pytest.approx(expected)

    def test_availability_bounded(self):
        m = FailureModel(3.7, 12.9)
        assert 0.0 < m.availability < 1.0

    @pytest.mark.parametrize(
        "mtbf,mttr", [(0, 1), (1, 0), (-1, 1), (math.nan, 1), (1, math.nan)]
    )
    def test_invalid(self, mtbf, mttr):
        with pytest.raises(ValueError):
            FailureModel(mtbf, mttr)


class TestNodeFailure:
    def test_fail_orphans_running_and_queued_tasks(self, env):
        node = make_node(env, n_procs=1)
        orphans = []
        node.on_tasks_orphaned(lambda ts, n: orphans.extend(ts))
        running = make_task(1, size=10000.0)  # 10 s
        queued = make_task(2)
        node.submit(TaskGroup([running], created_at=0.0))
        node.submit(TaskGroup([queued], created_at=0.0))
        env.run(until=1.0)  # running has started
        assert running.start_time is not None
        node.fail()
        assert node.failed
        assert {t.tid for t in orphans} == {1, 2}
        # The running task's execution record was reset.
        assert running.start_time is None
        assert node.pending_tasks == 0

    def test_failed_node_rejects_submissions(self, env):
        node = make_node(env)
        node.fail()
        assert not node.available
        assert not node.try_submit(TaskGroup([make_task(1)], created_at=0.0))

    def test_processors_power_off_on_failure(self, env):
        node = make_node(env)
        node.submit(TaskGroup([make_task(1, size=10000.0)], created_at=0.0))
        env.run(until=1.0)
        node.fail()
        env.run(until=1.5)
        assert all(p.state is ProcState.SLEEP for p in node.processors)

    def test_completed_tasks_not_orphaned(self, env):
        node = make_node(env)
        orphans = []
        node.on_tasks_orphaned(lambda ts, n: orphans.extend(ts))
        done = make_task(1, size=500.0)  # 0.5 s
        node.submit(TaskGroup([done], created_at=0.0))
        env.run(until=2.0)
        assert done.completed
        node.fail()
        assert orphans == []

    def test_double_fail_is_noop(self, env):
        node = make_node(env)
        node.fail()
        node.fail()
        assert node.failures == 1

    def test_repair_restores_service(self, env):
        node = make_node(env)
        node.submit(TaskGroup([make_task(1, size=10000.0)], created_at=0.0))
        env.run(until=1.0)
        node.fail()
        env.run(until=2.0)
        node.repair()
        assert node.available
        t = make_task(2, size=1000.0, arrival=2.0)
        assert node.try_submit(TaskGroup([t], created_at=2.0))
        env.run(until=10.0)
        assert t.completed

    def test_repair_without_failure_is_noop(self, env):
        node = make_node(env)
        node.repair()
        assert not node.failed

    def test_cancelled_group_never_completes(self, env):
        node = make_node(env, n_procs=1)
        fired = []
        g = TaskGroup([make_task(1, size=10000.0)], created_at=0.0)
        node.submit(g)
        g.on_complete(fired.append)
        env.run(until=1.0)
        node.fail()
        env.run(until=2.0)
        assert g.cancelled
        assert fired == []


class TestInjector:
    def test_lifecycle_produces_failures_and_repairs(self, env, streams):
        nodes = [make_node(env)]
        model = FailureModel(5.0, 1.0)
        inj = FailureInjector(env, nodes, model, streams)
        inj.advance_frontier(math.inf)
        env.run(until=100.0)
        assert inj.failures_injected > 5
        assert inj.repairs_completed >= inj.failures_injected - 1
        kinds = {kind for _, _, kind in inj.log}
        assert kinds == {"fail", "repair"}

    def test_start_after_delays_first_failure(self, env, streams):
        nodes = [make_node(env)]
        inj = FailureInjector(
            env, nodes, FailureModel(1.0, 1.0), streams, start_after=50.0
        )
        inj.advance_frontier(math.inf)
        env.run(until=49.0)
        assert inj.failures_injected == 0

    def test_validation(self, env, streams):
        with pytest.raises(ValueError):
            FailureInjector(env, [], FailureModel(1, 1), streams)
        with pytest.raises(ValueError):
            FailureInjector(
                env,
                [make_node(env)],
                FailureModel(1, 1),
                streams,
                start_after=-1,
            )

    def test_until_before_start_after_rejected(self, env, streams):
        inj = FailureInjector(
            env,
            [make_node(env)],
            FailureModel(1, 1),
            streams,
            start_after=10.0,
        )
        with pytest.raises(ValueError):
            inj.close(5.0)
        assert not inj.closed

    def test_until_clamps_lifecycle_to_horizon(self, env, streams):
        """Regression: lifecycles used to schedule fail/repair events past
        the run horizon; once closed, no log entry may exceed it."""
        nodes = [make_node(env, name=f"n{i}") for i in range(4)]
        horizon = 60.0
        inj = FailureInjector(env, nodes, FailureModel(5.0, 1.0), streams)
        inj.close(horizon)
        assert inj.until == horizon
        env.run(until=1000.0)
        assert inj.log, "expected at least one failure within the horizon"
        assert all(t <= horizon for t, _, _ in inj.log)
        # Every lifecycle retired at the horizon, so running far past it
        # injects nothing more.
        count = len(inj.log)
        env.run(until=5000.0)
        assert len(inj.log) == count

    def test_until_preserves_in_horizon_schedule(self, env, streams):
        """Clamping only drops draws past the horizon: within it, the
        injected schedule is identical to the unbounded injector's."""
        from repro.sim import Environment, RandomStreams

        horizon = 40.0

        def run(until):
            e = Environment()
            s = RandomStreams(seed=1234)
            nodes = [make_node(e, name=f"n{i}") for i in range(3)]
            inj = FailureInjector(e, nodes, FailureModel(5.0, 1.0), s)
            if until is None:
                inj.advance_frontier(math.inf)
            else:
                inj.close(until)
            e.run(until=horizon)
            return inj.log

        bounded = run(horizon)
        unbounded = run(None)
        assert bounded == [entry for entry in unbounded if entry[0] <= horizon]

    def test_rng_consumption_is_horizon_independent(self):
        """The draw sequence each node consumes must not depend on
        whether (or where) a horizon was supplied — the property that
        makes sliced service runs bitwise-equal to batch runs.  After
        running both variants to the same time, every per-node substream
        must sit at the identical position."""
        from repro.sim import Environment, RandomStreams

        horizon = 40.0

        def probe(until):
            e = Environment()
            s = RandomStreams(seed=1234)
            nodes = [make_node(e, name=f"n{i}") for i in range(3)]
            inj = FailureInjector(e, nodes, FailureModel(5.0, 1.0), s)
            if until is None:
                inj.advance_frontier(math.inf)
            else:
                inj.close(until)
            e.run(until=horizon)
            return [
                float(s[f"failures.{n.node_id}"].exponential(1.0))
                for n in nodes
            ]

        assert probe(horizon) == probe(None)

    def test_clamped_run_leaves_all_nodes_up(self):
        """Regression (end-of-horizon asymmetry): a downtime draw landing
        past the horizon used to strand the node permanently failed.  The
        pending repair now fires at the clamp horizon, so once a bounded
        run completes its repairs every node is up again."""
        from repro.sim import Environment, RandomStreams

        # Long downtimes against a short horizon make mid-repair clamps
        # near-certain across seeds.
        for seed in range(5):
            e = Environment()
            s = RandomStreams(seed=seed)
            nodes = [make_node(e, name=f"n{i}") for i in range(4)]
            inj = FailureInjector(e, nodes, FailureModel(10.0, 30.0), s)
            inj.close(50.0)
            e.run(until=1000.0)
            assert inj.failures_injected > 0
            assert inj.repairs_completed == inj.failures_injected
            assert all(not n.failed for n in nodes)

    def test_deferred_arming_follows_the_frontier(self):
        """Service mode: nothing fires until the frontier is advanced,
        close() fixes the horizon, and the resulting schedule matches an
        injector closed at the horizon before the kernel starts (the
        batch path) bit for bit."""
        from repro.sim import Environment, RandomStreams

        horizon = 60.0

        def closed_up_front():
            e = Environment()
            s = RandomStreams(seed=99)
            nodes = [make_node(e, name=f"n{i}") for i in range(3)]
            inj = FailureInjector(e, nodes, FailureModel(5.0, 1.0), s)
            inj.close(horizon)
            e.run(until=1000.0)
            return inj.log

        def deferred(cuts):
            e = Environment()
            s = RandomStreams(seed=99)
            nodes = [make_node(e, name=f"n{i}") for i in range(3)]
            inj = FailureInjector(e, nodes, FailureModel(5.0, 1.0), s)
            assert inj.log == []
            for cut in cuts:
                inj.advance_frontier(cut)
                e.run(until=cut)
            inj.close(horizon)
            e.run(until=1000.0)
            return inj.log

        want = closed_up_front()
        assert want
        assert deferred([10.0, 25.0, 40.0]) == want
        assert deferred([3.0, 55.0]) == want

    def test_same_seed_runs_are_identical(self, env, streams):
        """Injector determinism: two same-seed runs produce the same log."""
        from repro.sim import Environment, RandomStreams

        def run():
            e = Environment()
            s = RandomStreams(seed=777)
            nodes = [make_node(e, name=f"n{i}") for i in range(3)]
            inj = FailureInjector(e, nodes, FailureModel(5.0, 1.0), s)
            inj.advance_frontier(math.inf)
            e.run(until=200.0)
            return inj.log, inj.failures_injected, inj.repairs_completed

        first = run()
        second = run()
        assert first == second
        assert first[0], "expected a non-empty failure log"


class TestSchedulerResilience:
    def test_all_tasks_complete_under_failures(self, env, streams):
        """End-to-end: every task completes exactly once despite crashes."""
        from repro.cluster import PlatformSpec, build_system
        from repro.core import AdaptiveRLScheduler
        from repro.workload import WorkloadGenerator, WorkloadSpec

        system = build_system(
            env,
            PlatformSpec(num_sites=2, nodes_per_site=(3, 3), procs_per_node=(4, 4)),
            streams,
        )
        tasks = WorkloadGenerator(
            WorkloadSpec(
                num_tasks=80,
                mean_interarrival=2.0,
                size_range_mi=(600.0 * 24, 7200.0 * 24),
            ),
            streams,
        ).generate()
        sched = AdaptiveRLScheduler()
        sched.attach(env, system, streams)
        done = sched.expect(len(tasks))
        FailureInjector(
            env, system.nodes, FailureModel(200.0, 40.0), streams
        ).advance_frontier(math.inf)

        def arrivals():
            for t in tasks:
                if env.now < t.arrival_time:
                    yield env.timeout(t.arrival_time - env.now)
                sched.submit(t)

        env.process(arrivals())
        env.run(until=done)
        assert len(sched.completed) == 80
        assert len({t.tid for t in sched.completed}) == 80
        assert all(t.completed for t in tasks)
