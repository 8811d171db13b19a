"""Unit tests for the DVFS extension (processor scaling + governor)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ComputeNode, Processor, SleepPolicy, TaskGroup
from repro.cluster.processor import MIN_FREQUENCY_SCALE
from repro.core.dvfs import DVFSGovernor, energy_optimal_scale
from repro.energy import ProcState, constant_power_profile
from repro.obs import CAT_ENERGY, NULL_TELEMETRY, capture
from repro.sim import Environment
from repro.workload import Task


def make_task(tid, size=1000.0, arrival=0.0, window=100.0):
    return Task(
        tid=tid,
        size_mi=size,
        arrival_time=arrival,
        act=size / 500.0,
        deadline=arrival + window,
    )


@pytest.fixture
def proc():
    return Processor("p", 1000.0, constant_power_profile())


class TestProcessorScaling:
    def test_default_scale_is_nominal(self, proc):
        assert proc.frequency_scale == 1.0
        assert proc.effective_speed_mips == 1000.0
        assert proc.busy_power_w == pytest.approx(95.0)

    def test_scaling_slows_and_saves(self, proc):
        proc.set_frequency_scale(0.8)
        assert proc.effective_speed_mips == pytest.approx(800.0)
        # Cubic model: 48 + 47·0.8³
        assert proc.busy_power_w == pytest.approx(48 + 47 * 0.512)
        assert proc.execution_time(800.0) == pytest.approx(1.0)

    def test_scale_clamped(self, proc):
        proc.set_frequency_scale(0.01)
        assert proc.frequency_scale == MIN_FREQUENCY_SCALE
        proc.set_frequency_scale(1.7)
        assert proc.frequency_scale == 1.0

    def test_invalid_scale(self, proc):
        with pytest.raises(ValueError):
            proc.set_frequency_scale(0)

    def test_nan_scale_is_rejected(self, proc):
        with pytest.raises(ValueError):
            proc.set_frequency_scale(float("nan"))
        assert proc.frequency_scale == 1.0

    @staticmethod
    def busy_node(env):
        """A node whose first processor is busy, its power cache clean."""
        procs = [
            Processor(f"p{i}", 1000.0, constant_power_profile())
            for i in range(4)
        ]
        node = ComputeNode(env, "n", "s", procs)
        procs[0].meter.set_state(ProcState.BUSY, 0.0)
        node._power_dirty = True  # the worker marks each state change
        assert node.total_power_w == 95.0 + 3 * 48.0
        return node

    def test_rescale_marks_its_node_once(self, env, monkeypatch):
        node = self.busy_node(env)
        marks = []
        mark = node._mark_power_dirty
        monkeypatch.setattr(node, "_mark_power_dirty", lambda: marks.append(mark()))
        for proc in node.processors:  # a governor rescale
            proc.set_frequency_scale(0.8)
        assert len(marks) == 1
        assert node.total_power_w == (48 + 47 * 0.8**3) + 3 * 48.0

    def test_direct_rescale_invalidates_the_power_cache(self, env):
        node = self.busy_node(env)
        node.processors[0].set_frequency_scale(0.5)
        assert node.state().processor_power_w[0] == 48 + 47 * 0.5**3
        node.processors[0].set_frequency_scale(1.0)
        assert node.state().processor_power_w[0] == 95.0

    def test_execution_charges_scaled_power(self, env):
        proc = Processor("p", 1000.0, constant_power_profile())
        node = ComputeNode(
            env, "n", "s", [proc], sleep_policy=SleepPolicy(allow_sleep=False)
        )
        proc.set_frequency_scale(0.8)
        t = make_task(1, size=800.0)
        node.submit(TaskGroup([t], created_at=0.0))
        env.run()
        assert t.finish_time == pytest.approx(1.0)  # 800 MI at 800 MIPS
        b = proc.meter.snapshot()
        assert b.busy_energy == pytest.approx((48 + 47 * 0.512) * 1.0)


class TestEnergyOptimalScale:
    def test_paper_profile_optimum(self):
        # pmin=48, Δ=47 → θ* = (48/94)^(1/3)
        assert energy_optimal_scale(48.0, 95.0) == pytest.approx(
            (48.0 / 94.0) ** (1 / 3)
        )

    def test_zero_static_power_prefers_slowest(self):
        assert energy_optimal_scale(0.0, 95.0) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            energy_optimal_scale(95.0, 48.0)


class TestGovernor:
    def make_node(self, env, n_procs=2, speed=1000.0, node_id="n"):
        procs = [
            Processor(f"{node_id}p{i}", speed, constant_power_profile())
            for i in range(n_procs)
        ]
        return ComputeNode(
            env, node_id, "s", procs, sleep_policy=SleepPolicy(allow_sleep=False)
        )

    @staticmethod
    def count_evaluations(gov):
        """Record the node of every ``target_scale`` call *gov* makes."""
        evaluated = []
        original = gov.target_scale

        def target_scale(node, now):
            evaluated.append(node.node_id)
            return original(node, now)

        gov.target_scale = target_scale
        return evaluated

    def test_idle_node_returns_nominal(self, env):
        node = self.make_node(env)
        gov = DVFSGovernor()
        assert gov.target_scale(node, now=0.0) == 1.0

    def test_slack_rich_work_scales_down(self, env):
        node = self.make_node(env)
        # Tiny task, enormous window: demand ≪ capacity.
        node.submit(TaskGroup([make_task(1, size=100.0, window=1e6)], 0.0))
        gov = DVFSGovernor()
        theta = gov.target_scale(node, now=0.0)
        assert theta < 1.0
        # Never below the energy-optimal floor.
        assert theta >= energy_optimal_scale(48.0, 95.0) - 1e-9

    def test_urgent_work_keeps_nominal(self, env):
        # Slow processors (500 MIPS) and a deadline at the ACT bound:
        # demanded rate ≈ capacity, so the governor must not slow down.
        node = self.make_node(env, speed=500.0)
        node.submit(TaskGroup([make_task(1, size=5000.0, window=10.5)], 0.0))
        gov = DVFSGovernor()
        assert gov.target_scale(node, now=0.0) == 1.0

    def test_apply_sets_all_processors(self, env):
        node = self.make_node(env)
        node.submit(TaskGroup([make_task(1, size=100.0, window=1e6)], 0.0))
        gov = DVFSGovernor()
        gov.watch([node])
        gov.apply(now=0.0)
        scales = {p.frequency_scale for p in node.processors}
        assert len(scales) == 1
        assert scales.pop() < 1.0
        assert gov.adjustments == 2

    def test_invalid_safety_factor(self):
        with pytest.raises(ValueError):
            DVFSGovernor(safety_factor=0.5)

    def test_nan_safety_factor_is_rejected(self):
        with pytest.raises(ValueError):
            DVFSGovernor(safety_factor=float("nan"))

    def test_idle_nominal_node_is_never_evaluated(self, env):
        nodes = [self.make_node(env, node_id=f"n{i}") for i in range(3)]
        gov = DVFSGovernor()
        gov.watch(nodes)
        evaluated = self.count_evaluations(gov)
        for now in (0.0, 1.0, 2.0):
            gov.apply(now)
        assert evaluated == []
        nodes[1].submit(TaskGroup([make_task(1, size=100.0, window=1e6)], 2.0))
        assert gov.due_nodes(3.0) == [nodes[1]]
        gov.apply(3.0)
        assert evaluated == ["n1"]
        assert gov.adjustments == 2

    def test_drained_node_returns_to_nominal_once(self, env):
        node = self.make_node(env)
        node.submit(TaskGroup([make_task(1, size=100.0, window=1e6)], 0.0))
        gov = DVFSGovernor()
        gov.telemetry = capture(trace=True, metrics=False)
        gov.watch([node])
        gov.apply(0.0)
        theta = node.processors[0].frequency_scale
        assert theta < 1.0
        env.run()
        assert node.pending_tasks == 0
        evaluated = self.count_evaluations(gov)
        for now in (env.now, env.now + 1.0, env.now + 2.0):
            gov.apply(now)
        assert evaluated == ["n"]  # once, then skipped as idle at θ = 1
        assert [p.frequency_scale for p in node.processors] == [1.0, 1.0]
        assert gov.adjustments == 4
        events = gov.telemetry.trace.filter(CAT_ENERGY, "dvfs")
        assert [(e.fields["scale"], e.fields["previous"]) for e in events] == [
            (theta, 1.0),
            (theta, 1.0),
            (1.0, theta),
            (1.0, theta),
        ]

    def test_scaled_node_that_fails_returns_to_nominal(self, env):
        node = self.make_node(env)
        node.submit(TaskGroup([make_task(1, size=100.0, window=1e6)], 0.0))
        gov = DVFSGovernor()
        gov.watch([node])
        gov.apply(0.0)
        assert all(p.frequency_scale < 1.0 for p in node.processors)
        node.fail()
        gov.apply(0.0)
        assert [p.frequency_scale for p in node.processors] == [1.0, 1.0]
        assert gov.adjustments == 4

    def test_saturated_epoch_is_not_reevaluated(self, env):
        # Urgent work demands θ = 1.0; until the node's work changes
        # the target cannot drop, so the node is not evaluated again.
        node = self.make_node(env, speed=500.0)
        node.submit(TaskGroup([make_task(1, size=5000.0, window=10.5)], 0.0))
        gov = DVFSGovernor()
        gov.watch([node])
        evaluated = self.count_evaluations(gov)
        gov.apply(0.0)
        assert gov.due_nodes(1.0) == []
        gov.apply(1.0)
        assert evaluated == ["n"]
        assert gov.adjustments == 0
        node.submit(TaskGroup([make_task(2, size=100.0, window=1e6)], 1.0))
        assert gov.due_nodes(2.0) == [node]  # the work changed
        gov.apply(2.0)
        assert evaluated == ["n", "n"]

    def test_floor_settled_node_waits_for_its_horizon(self, env):
        # 1,000 MI due at t = 100 on 1,000 MIPS processors: the target
        # is 1.5 / (100 - t), so it stays at the floor until about
        # t = 100 - 1.5 / floor.  Until then the node is not evaluated.
        node = self.make_node(env)
        node.submit(TaskGroup([make_task(1, size=1000.0, window=100.0)], 0.0))
        gov = DVFSGovernor()
        gov.watch([node])
        evaluated = self.count_evaluations(gov)
        floor = energy_optimal_scale(48.0, 95.0)
        gov.apply(0.0)
        assert [p.frequency_scale for p in node.processors] == [floor, floor]
        horizon = gov._asleep[node]
        assert 98.0 < horizon < 100.0 - 1.5 / floor
        assert horizon == pytest.approx(100.0 - 1.5 / floor)
        for now in (50.0, 98.0, horizon):
            gov.apply(now)
        assert evaluated == ["n"]
        assert gov.due_nodes(98.2) == [node]
        gov.apply(98.2)  # the first pass after the horizon
        assert evaluated == ["n", "n"]
        theta = node.processors[0].frequency_scale
        assert theta == pytest.approx(1.5 / (100.0 - 98.2))
        assert floor < theta < 1.0
        assert [p.frequency_scale for p in node.processors] == [theta, theta]
        assert gov.adjustments == 4

    def test_stale_floor_horizon_wakes_nothing(self, env):
        # The node sleeps at its floor until about t = 98.1 (above), then
        # urgent work pins it at θ = 1.0 until its work changes again.
        node = self.make_node(env)
        node.submit(TaskGroup([make_task(1, size=1000.0, window=100.0)], 0.0))
        gov = DVFSGovernor()
        gov.watch([node])
        evaluated = self.count_evaluations(gov)
        gov.apply(0.0)
        horizon = gov._asleep[node]
        urgent = Task(
            tid=2, size_mi=5e5, arrival_time=1.0, act=5.0, deadline=11.0
        )
        node.submit(TaskGroup([urgent], 1.0))
        gov.apply(1.0)
        assert [p.frequency_scale for p in node.processors] == [1.0, 1.0]
        # The calendar still holds the floor's entry; it wakes nothing.
        assert gov.due_nodes(horizon + 1.0) == []
        gov.apply(horizon + 1.0)
        assert evaluated == ["n", "n"]


class TestFloorHorizon:
    @given(
        tasks=st.lists(
            st.tuples(st.floats(100.0, 20000.0), st.floats(1.0, 50000.0)),
            min_size=1,
            max_size=8,
        ),
        speeds=st.lists(st.floats(500.0, 1000.0), min_size=1, max_size=6),
        safety_factor=st.floats(1.0, 3.0),
        origin=st.one_of(st.just(0.0), st.floats(0.0, 1e7)),
        back=st.floats(0.0, 1e5),
    )
    @settings(max_examples=200, deadline=None)
    def test_target_is_the_floor_up_to_the_horizon(
        self, tasks, speeds, safety_factor, origin, back
    ):
        # Deadlines below the horizon are already overdue there, so
        # their windows count as ε, not as d - t.
        env = Environment()
        node = ComputeNode(
            env,
            "n",
            "s",
            [
                Processor(f"p{i}", speed, constant_power_profile())
                for i, speed in enumerate(speeds)
            ],
            sleep_policy=SleepPolicy(allow_sleep=False),
        )
        group = [
            Task(
                tid=i,
                size_mi=size,
                arrival_time=origin,
                act=window / 2.0,
                deadline=origin + window,
            )
            for i, (size, window) in enumerate(tasks)
        ]
        node.submit(TaskGroup(group, origin))
        gov = DVFSGovernor(safety_factor)
        horizon = gov._floor_horizon(node)
        floor = max(energy_optimal_scale(48.0, 95.0), MIN_FREQUENCY_SCALE)
        for t in (horizon, math.nextafter(horizon, -math.inf), horizon - back):
            assert gov.target_scale(node, t) == floor


class FullScanGovernor:
    """Reference governor: rescans every node's pending tasks and
    visits every processor on every pass, with no skip rules."""

    def __init__(self, safety_factor=1.5):
        self.safety_factor = safety_factor
        self.adjustments = 0
        self.telemetry = NULL_TELEMETRY
        self.nodes = []

    def watch(self, nodes):
        self.nodes = list(nodes)

    def target_scale(self, node, now):
        pending = [
            t for g in node._active_groups for t in g.tasks if not t.completed
        ]
        if not pending:
            return 1.0
        eps = np.float64(1e-6)
        k = min(len(pending), node.num_processors)
        total_size = sum(t.size_mi for t in pending)
        mean_window = sum(max(t.deadline - now, eps) for t in pending) / len(
            pending
        )
        per_proc_demand = (total_size / k) / mean_window
        mean_speed = node.total_speed_mips / node.num_processors
        needed = self.safety_factor * per_proc_demand / mean_speed
        profile = node.processors[0].profile
        floor = max(energy_optimal_scale(profile.p_min_w, profile.p_max_w), 0.5)
        return min(max(needed, floor), 1.0)

    def apply(self, now):
        tel = self.telemetry
        for node in self.nodes:
            theta = self.target_scale(node, now)
            for proc in node.processors:
                if proc.frequency_scale != theta:
                    previous = proc.frequency_scale
                    proc.set_frequency_scale(theta)
                    self.adjustments += 1
                    tel.emit(
                        CAT_ENERGY,
                        "dvfs",
                        now,
                        proc=proc.pid,
                        node=node.node_id,
                        scale=proc.frequency_scale,
                        previous=previous,
                    )


class SettleRuleGovernor(DVFSGovernor):
    """Reference for which nodes a pass evaluates: every pass scans
    every node and skips an idle node at nominal and a node with a live
    *settle*.  A settle records the node's work epoch, the
    ``pending_deadlines`` tuple object (the node builds a new one after
    each work change), and a time until which the target stays at the
    θ just set: ∞ for θ = 1.0, the floor horizon for the floor."""

    def watch(self, nodes):
        self._nodes = list(nodes)
        self._settled = {}

    def apply(self, now):
        tel = self.telemetry
        scaled = self._scaled
        settled = self._settled
        for node in self._nodes:
            if not node._active_groups and node not in scaled:
                continue
            deadlines = node.pending_deadlines
            settle = settled.get(node)
            if (
                settle is not None
                and settle[0] is deadlines
                and now <= settle[1]
            ):
                continue
            theta = self.target_scale(node, now)
            if deadlines:
                if theta == 1.0:
                    settled[node] = (deadlines, math.inf)
                elif theta == self._constants[node][1]:
                    settled[node] = (deadlines, self._floor_horizon(node))
            if theta == scaled.get(node, 1.0):
                continue
            if theta < 1.0:
                scaled[node] = theta
            else:
                del scaled[node]
            for proc in node.processors:
                previous = proc.frequency_scale
                if previous != theta:
                    proc.set_frequency_scale(theta)
                    self.adjustments += 1
                    tel.emit(
                        CAT_ENERGY,
                        "dvfs",
                        now,
                        proc=proc.pid,
                        node=node.node_id,
                        scale=proc.frequency_scale,
                        previous=previous,
                    )


#: One step of a governed 3-node run: submit a group, crash a node,
#: repair one or do nothing, then let simulated time pass.
STEPS = st.tuples(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(0, 2),
            st.lists(
                st.tuples(
                    # Sizes: short tasks, or long ones that hold a
                    # node's work unchanged across a floor horizon.
                    st.one_of(
                        st.floats(100.0, 20000.0), st.floats(2e4, 2e5)
                    ),
                    # Deadline windows: urgent (θ = 1.0) or slack-rich.
                    st.one_of(st.floats(0.5, 60.0), st.floats(60.0, 3000.0)),
                ),
                min_size=1,
                max_size=4,
            ),
        ),
        st.tuples(st.sampled_from(["fail", "repair", "wait"]), st.integers(0, 2)),
    ),
    st.floats(0.1, 30.0),
)


class GovernedWorld:
    """A 3-node platform driven by one governor through its own pass
    path (``watch``, then ``apply(now)``), recording its trace and the
    nodes each pass evaluates."""

    def __init__(self, governor, speeds):
        self.env = Environment()
        self.nodes = [
            ComputeNode(
                self.env,
                f"n{i}",
                "s",
                [
                    Processor(f"n{i}p{j}", speed, constant_power_profile())
                    for j, speed in enumerate(node_speeds)
                ],
            )
            for i, node_speeds in enumerate(speeds)
        ]
        self.governor = governor
        governor.telemetry = capture(trace=True, metrics=False)
        governor.watch(self.nodes)
        #: Per pass: the node ids ``target_scale`` was called for, and,
        #: for the wake-set governor, what ``due_nodes`` announced.
        self.evaluated = []
        self.due = []
        target_scale = governor.target_scale

        def counted(node, now):
            self.evaluated[-1].append(node.node_id)
            return target_scale(node, now)

        governor.target_scale = counted
        self.next_tid = 0
        self.env.run(until=1.0)  # start every node's executor

    def run_pass(self):
        now = self.env.now
        if type(self.governor) is DVFSGovernor:
            self.due.append([n.node_id for n in self.governor.due_nodes(now)])
        self.evaluated.append([])
        self.governor.apply(now)

    def step(self, step):
        (kind, index, *args), dt = step
        env = self.env
        node = self.nodes[index]
        if kind == "submit":
            tasks = []
            for size, window in args[0]:
                tasks.append(
                    Task(
                        tid=self.next_tid,
                        size_mi=size,
                        arrival_time=env.now,
                        act=window / 2.0,
                        deadline=env.now + window,
                    )
                )
                self.next_tid += 1
            node.try_submit(TaskGroup(tasks, env.now))
        elif kind == "fail":
            node.fail()
        elif kind == "repair":
            node.repair()
        self.run_pass()
        env.run(until=env.now + dt)
        self.run_pass()

    def observed(self):
        """θ per processor, adjustment count, and the dvfs events."""
        return (
            [p.frequency_scale for n in self.nodes for p in n.processors],
            self.governor.adjustments,
            [
                (e.t, e.fields)
                for e in self.governor.telemetry.trace.filter(CAT_ENERGY, "dvfs")
            ],
        )


class TestGovernorMatchesFullScan:
    @given(
        speeds=st.lists(
            st.lists(st.floats(500.0, 1000.0), min_size=1, max_size=4),
            min_size=3,
            max_size=3,
        ),
        steps=st.lists(STEPS, min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_scales_adjustments_and_events(self, speeds, steps):
        fast = GovernedWorld(DVFSGovernor(), speeds)
        settle = GovernedWorld(SettleRuleGovernor(), speeds)
        reference = GovernedWorld(FullScanGovernor(), speeds)
        for step in steps:
            fast.step(step)
            settle.step(step)
            reference.step(step)
            assert fast.observed() == reference.observed()
            assert settle.observed() == reference.observed()
            assert fast.env.now == reference.env.now
            # The wake set evaluates exactly the nodes the settle rule
            # does, in the same order, and announces them beforehand.
            assert fast.evaluated == settle.evaluated
            assert fast.due == fast.evaluated


class TestSchedulerIntegration:
    def test_dvfs_config_validates(self):
        from repro.core import AdaptiveRLConfig

        with pytest.raises(ValueError):
            AdaptiveRLConfig(dvfs_safety_factor=0.9)

    def test_nan_safety_factor_is_rejected_before_the_run(self):
        # A NaN survives the config's JSON round trip; it must stop the
        # run at scheduler construction, not crash it mid-simulation.
        from repro.experiments import ExperimentConfig, run_experiment

        config = ExperimentConfig(
            scheduler="adaptive-rl",
            num_tasks=50,
            seed=3,
            scheduler_kwargs={
                "dvfs_enabled": True,
                "dvfs_safety_factor": float("nan"),
            },
        )
        decoded = ExperimentConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert math.isnan(decoded.scheduler_kwargs["dvfs_safety_factor"])
        with pytest.raises(ValueError, match="safety_factor"):
            run_experiment(decoded)

    def test_dvfs_run_saves_energy_at_light_load(self):
        from repro.experiments import ExperimentConfig, run_experiment

        base = ExperimentConfig(scheduler="adaptive-rl", num_tasks=150, seed=6)
        off = run_experiment(base).metrics
        on = run_experiment(
            base.with_overrides(scheduler_kwargs={"dvfs_enabled": True})
        ).metrics
        assert on.ecs < off.ecs * 1.02  # never meaningfully worse
        assert on.success_rate > 0.9   # deadlines still safe
