"""Tests for the strict-mode invariant auditor (``repro.validate``).

Two families: *clean* runs — full experiments under audit must produce
zero violations while actually exercising every check — and *corruption*
runs — deliberately broken state must be caught and reported with a
structured, attributable violation.
"""

import heapq

import pytest

from repro.baselines import PredictionBasedScheduler
from repro.cluster import PlatformSpec, TaskGroup, build_system
from repro.core import AdaptiveRLConfig, AdaptiveRLScheduler
from repro.core.actions import GroupingAction, GroupingMode
from repro.core.shared_memory import Experience, SharedLearningMemory
from repro.energy.meter import ProcState
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.rl.dense import DenseQTable
from repro.rl.replay import ReplayRing
from repro.sim import Environment, RandomStreams
from repro.validate import (
    INV_CALENDAR,
    INV_CLOCK,
    INV_CONSOLIDATION,
    INV_DVFS,
    INV_ENERGY,
    INV_INDEX,
    INV_MEMORY,
    INV_ORDER,
    INV_PRIORITY,
    INV_QPARITY,
    INV_QUEUE,
    INV_USAGE,
    InvariantAuditor,
    InvariantViolationError,
    set_strict,
    strict_mode_enabled,
)
from repro.workload import Task
from repro.workload.priorities import Priority

SMALL_PLATFORM = PlatformSpec(
    num_sites=2, nodes_per_site=(2, 3), procs_per_node=(4, 4)
)


def small_config(**overrides):
    params = dict(
        num_tasks=120, seed=11, arrival_period=300.0, platform=SMALL_PLATFORM
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def make_audited_cluster(on_violation="collect"):
    env = Environment()
    streams = RandomStreams(seed=7)
    system = build_system(env, SMALL_PLATFORM, streams)
    auditor = InvariantAuditor(env, system, on_violation=on_violation)
    return env, system, auditor


def make_governed_cluster():
    """An audited cluster under Adaptive-RL with the DVFS governor on."""
    env = Environment()
    streams = RandomStreams(seed=7)
    system = build_system(env, SMALL_PLATFORM, streams)
    scheduler = AdaptiveRLScheduler(AdaptiveRLConfig(dvfs_enabled=True))
    scheduler.attach(env, system, streams)
    auditor = InvariantAuditor(env, system, scheduler, on_violation="collect")
    return system, scheduler.governor, auditor


def slack_rich_group(tid=0):
    """One small task with a huge deadline window (θ well below 1)."""
    task = Task(
        tid=tid, size_mi=100.0, arrival_time=0.0, act=0.2, deadline=1e6
    )
    return TaskGroup([task], created_at=0.0)


def skip_violations(auditor):
    """Sweep; the ``dvfs-skip`` violations reported so far."""
    auditor.sweep()
    return [v for v in auditor.report.violations if v.invariant == INV_DVFS]


class TestCleanRuns:
    """Full experiments under audit: every invariant holds."""

    @pytest.mark.parametrize("backend", ["dense", "dict"])
    def test_adaptive_rl_clean(self, backend, request):
        if backend == "dict":
            check_tables = request.getfixturevalue("dict_qtables")
        result = run_experiment(small_config(), strict=True)
        if backend == "dict":
            check_tables(result)
        assert result.audit is not None
        assert result.audit.ok, result.audit.summary()
        assert result.audit.finalized
        # The run actually exercised the checks, per invariant family.
        for inv in (INV_ENERGY, INV_QUEUE, INV_PRIORITY, INV_MEMORY):
            assert result.audit.checks.get(inv, 0) > 0
        assert result.audit.events_audited > 0
        assert result.audit.sweeps > 0

    def test_dense_backend_exercises_qparity(self):
        result = run_experiment(small_config(), strict=True)
        assert result.audit.checks.get(INV_QPARITY, 0) > 0

    def test_failures_and_dvfs_clean(self):
        """The hardest configuration: crash-stop failures force task
        resubmission and DVFS varies busy power per task."""
        result = run_experiment(
            small_config(
                seed=47,
                failure_mtbf=400.0,
                failure_mttr=40.0,
                scheduler_kwargs={"dvfs_enabled": True},
            ),
            strict=True,
        )
        assert result.audit.ok, result.audit.summary()
        assert result.audit.checks.get(INV_DVFS, 0) > 0
        assert result.audit.checks.get(INV_USAGE, 0) > 0
        assert result.audit.checks.get(INV_CALENDAR, 0) > 0

    def test_fcfs_clean(self):
        result = run_experiment(
            small_config(scheduler="fcfs"), strict=True
        )
        assert result.audit.ok, result.audit.summary()

    def test_audit_is_behavior_neutral(self):
        """Audited and unaudited runs yield bit-identical metrics."""
        plain = run_experiment(small_config(), strict=False)
        audited = run_experiment(small_config(), strict=True)
        assert plain.audit is None
        assert plain.metrics.avert == audited.metrics.avert
        assert plain.metrics.ecs == audited.metrics.ecs
        assert plain.metrics.makespan == audited.metrics.makespan

    def test_audit_leaves_memory_hit_tallies_alone(self):
        """Memory sweeps query the index but restore its hit-rate
        tallies, which the flight recorder samples."""
        tallies = []
        for strict in (False, True):
            memory = run_experiment(small_config(), strict=strict).scheduler.memory
            tallies.append((memory.queries, memory.state_hits))
        assert tallies[0] == tallies[1]
        assert tallies[0][0] > 0


class TestStrictModeToggle:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_STRICT", raising=False)
        set_strict(None)
        assert not strict_mode_enabled()

    @pytest.mark.parametrize("raw,expected", [
        ("1", True),
        ("true", True),
        ("yes", True),
        ("0", False),
        ("false", False),
        ("no", False),
        ("", False),
    ])
    def test_env_var_parsing(self, monkeypatch, raw, expected):
        set_strict(None)
        monkeypatch.setenv("REPRO_STRICT", raw)
        assert strict_mode_enabled() is expected

    def test_set_strict_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", "1")
        set_strict(False)
        try:
            assert not strict_mode_enabled()
        finally:
            set_strict(None)

    def test_run_experiment_honors_set_strict(self):
        set_strict(True)
        try:
            result = run_experiment(small_config())
        finally:
            set_strict(None)
        assert result.audit is not None and result.audit.ok


class TestAttachment:
    def test_second_auditor_rejected(self):
        env = Environment()
        InvariantAuditor(env)
        with pytest.raises(RuntimeError, match="already has an audit hook"):
            InvariantAuditor(env)

    def test_detach_releases_hook(self):
        env = Environment()
        auditor = InvariantAuditor(env)
        auditor.detach()
        assert env._audit_hook is None
        InvariantAuditor(env)  # reattachable

    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError):
            InvariantAuditor(Environment(), on_violation="log")
        with pytest.raises(ValueError):
            InvariantAuditor(Environment(), sweep_interval=0)


class TestCorruptionDetection:
    """Deliberately broken state must surface as structured violations."""

    def test_corrupted_meter_energy(self):
        env, system, auditor = make_audited_cluster()
        meter = system.processors[0].meter
        meter._bank.busy_energy[meter._row] += 1.0
        auditor.sweep()
        bad = [v for v in auditor.report.violations if v.invariant == INV_ENERGY]
        assert bad
        v = bad[0]
        assert v.subject  # pinned to a processor
        assert v.details["field"] == "busy_energy"
        assert v.details["observed"] != v.details["expected"]
        assert "busy_energy" in str(v)
        assert "VIOLATION" in auditor.report.summary()

    def test_corrupted_meter_raises_in_strict_mode(self):
        env, system, auditor = make_audited_cluster(on_violation="raise")
        meter = system.processors[0].meter
        meter._bank.idle_energy[meter._row] -= 0.5
        with pytest.raises(InvariantViolationError) as exc:
            auditor.sweep()
        assert exc.value.violation.invariant == INV_ENERGY
        assert not exc.value.report.ok

    def test_meter_time_written_behind_set_state(self):
        env, system, auditor = make_audited_cluster()
        meter = system.processors[0].meter
        meter._bank.busy_time[meter._row] += 1.0
        auditor.sweep()
        bad = [v for v in auditor.report.violations if v.invariant == INV_USAGE]
        assert [v.subject for v in bad] == ["system"]
        tallied, rescanned = bad[0].details["tallied"], bad[0].details["rescanned"]
        assert (tallied[0], rescanned[0]) == (0.0, 1.0)
        assert tallied[2] == rescanned[2] == 0

    def test_meter_time_written_behind_then_state_left(self):
        # The meter leaves the state before the sweep: its transition
        # adds the span it closes, not the written time, so the tally
        # still disagrees with the rescan.
        env, system, auditor = make_audited_cluster()
        meter = system.processors[0].meter
        meter.set_state(ProcState.BUSY, 0.0)
        meter._bank.busy_time[meter._row] += 1.0
        meter.set_state(ProcState.IDLE, 2.0)
        env.run(until=2.0)
        auditor.sweep()
        bad = [v for v in auditor.report.violations if v.invariant == INV_USAGE]
        assert [v.subject for v in bad] == ["system"]
        tallied, rescanned = bad[0].details["tallied"], bad[0].details["rescanned"]
        assert (tallied[0], rescanned[0]) == (2.0, 3.0)

    def test_calendar_count_drift(self):
        env, system, auditor = make_audited_cluster()
        env.timeout(3.0)
        env.timeout(3.0)
        auditor.sweep()
        assert auditor.report.checks[INV_CALENDAR] == 1
        assert not [
            v for v in auditor.report.violations if v.invariant == INV_CALENDAR
        ]
        # An insert that bypasses the count (a fourth calendar path).
        env._buckets[3.0].append((3.0, 1, next(env._eid), env.event()))
        auditor.sweep()
        bad = [
            v for v in auditor.report.violations if v.invariant == INV_CALENDAR
        ]
        assert [v.subject for v in bad] == ["env"]
        assert (bad[0].details["counted"], bad[0].details["recounted"]) == (
            env._calendar_len,
            env._calendar_len + 1,
        )

    def test_overfull_queue(self):
        env, system, auditor = make_audited_cluster()
        node = system.nodes[0]
        node.queue.extend(
            object() for _ in range(node.queue_slots + 1)
        )
        auditor.sweep()
        bad = [v for v in auditor.report.violations if v.invariant == INV_QUEUE]
        assert bad
        assert bad[0].details["occupancy"] > bad[0].details["qc"]
        assert bad[0].subject == node.node_id

    def test_corrupted_capacity_cache(self):
        env, system, auditor = make_audited_cluster()
        node = system.nodes[0]
        node._processing_capacity *= 2.0
        auditor.sweep()
        assert any(
            v.invariant == INV_QUEUE and "PCc" in v.message
            for v in auditor.report.violations
        )

    def test_clock_regression_detected(self):
        env = Environment()
        auditor = InvariantAuditor(env, on_violation="collect")
        env._now = 5.0
        auditor._on_event((4.0, 1, 0, None))
        assert any(
            v.invariant == INV_CLOCK for v in auditor.report.violations
        )

    def test_dispatch_order_violation_detected(self):
        env = Environment()
        auditor = InvariantAuditor(env, on_violation="collect")
        # A smaller entry still pending in the fallback heap while a
        # larger one dispatches is exactly the bug class this guards.
        heapq.heappush(env._queue, (1.0, 1, 0, None))
        auditor._on_event((2.0, 1, 1, None))
        bad = [v for v in auditor.report.violations if v.invariant == INV_ORDER]
        assert bad
        assert bad[0].details["source"] == "fallback-heap"

    def test_fifo_order_violation_detected(self):
        env = Environment()
        auditor = InvariantAuditor(env, on_violation="collect")
        auditor._on_event((3.0, 1, 9, None))
        auditor._on_event((3.0, 1, 4, None))  # same (t, prio), seq went back
        assert any(
            v.invariant == INV_ORDER and "FIFO" in v.message
            for v in auditor.report.violations
        )

    def test_clean_dispatch_accepted(self):
        env = Environment()
        auditor = InvariantAuditor(env, on_violation="raise")
        auditor._on_event((1.0, 1, 0, None))
        auditor._on_event((1.0, 1, 1, None))
        auditor._on_event((2.0, 0, 2, None))
        assert auditor.report.events_audited == 3

    def test_priority_misclassification_detected(self):
        env = Environment()
        auditor = InvariantAuditor(env, on_violation="collect")
        # slack fraction 1.0 → LOW per Eq. 1, but the task claims HIGH.
        task = Task(
            tid=1,
            size_mi=1000.0,
            arrival_time=0.0,
            act=1.0,
            deadline=2.0,
            priority=Priority.HIGH,
        )
        auditor._on_submit(task)
        bad = [
            v for v in auditor.report.violations if v.invariant == INV_PRIORITY
        ]
        assert bad
        assert "Eq. 1" in bad[0].message

    def test_memory_cap_breach_detected(self):
        env = Environment()
        auditor = InvariantAuditor(env, on_violation="collect")
        memory = SharedLearningMemory(cycles_per_agent=2)
        ring = ReplayRing(10)  # roomier than the cap, to fake a breach
        for i in range(3):
            ring.append(
                Experience(
                    agent_id="agent0",
                    cycle=i,
                    state=(0, 0, 0),
                    action=GroupingAction(GroupingMode.MIXED, 1),
                    l_val=float(i),
                    reward=0,
                    error=0.0,
                    time=float(i),
                )
            )
        memory._rings["agent0"] = ring
        auditor._memory = memory
        auditor.sweep()
        bad = [v for v in auditor.report.violations if v.invariant == INV_MEMORY]
        assert bad
        assert bad[0].details == {"held": 3, "cap": 2}

    def test_dense_qtable_divergence_detected(self):
        env = Environment()
        auditor = InvariantAuditor(env, on_violation="collect")
        table = DenseQTable(actions=("a", "b"))
        auditor._wrap_qtable("agent0", table)
        table.update("s0", "a", 1.0)
        table.update("s0", "b", 2.0)
        table._values[0, 0] += 0.25  # silent corruption
        auditor._sweep_qtables()
        bad = [v for v in auditor.report.violations if v.invariant == INV_QPARITY]
        assert bad
        assert bad[0].subject == "agent0"
        assert bad[0].details["differing"] == 1

    def test_dense_argmax_corruption_detected(self):
        env = Environment()
        auditor = InvariantAuditor(env, on_violation="collect")
        table = DenseQTable(actions=("a", "b"))
        auditor._wrap_qtable("agent0", table)
        table.update("s0", "a", 1.0)
        table.update("s0", "b", 2.0)
        row = table._state_index["s0"]
        table._best_col[row] = 0  # truth is column 1
        auditor._sweep_qtables()
        assert any(
            v.invariant == INV_QPARITY and "argmax" in v.message
            for v in auditor.report.violations
        )

    def test_corrupted_pending_deadline_cache(self):
        env, system, auditor = make_audited_cluster()
        node = system.nodes[0]
        node.submit(slack_rich_group())
        (deadline,) = node.pending_deadlines
        auditor.sweep()
        assert auditor.report.ok
        node._deadlines_cache = (deadline + 1.0,)
        auditor.sweep()
        assert any(
            v.invariant == INV_QUEUE and "pending-deadline" in v.message
            for v in auditor.report.violations
        )

    def test_corrupted_pending_size_cache(self):
        env, system, auditor = make_audited_cluster()
        node = system.nodes[0]
        node.submit(slack_rich_group())
        node._pending_size_cache = node.pending_size_mi + 1.0
        auditor.sweep()
        bad = [v for v in auditor.report.violations if v.invariant == INV_QUEUE]
        assert bad and bad[0].details["fresh_size"] == 100.0

    def test_processor_rescaled_behind_the_governor(self):
        system, governor, auditor = make_governed_cluster()
        auditor.sweep()
        assert auditor.report.checks[INV_DVFS] == len(system.nodes)
        assert auditor.report.ok
        # An idle node at θ = 1.0 is skipped; if anything else rescales
        # one of its processors, the governor would never undo it.
        system.nodes[1].processors[2].set_frequency_scale(0.7)
        auditor.sweep()
        bad = [v for v in auditor.report.violations if v.invariant == INV_DVFS]
        assert [v.subject for v in bad] == [system.nodes[1].node_id]
        assert bad[0].details["recorded"] == 1.0

    def test_false_saturation_claim(self):
        system, governor, auditor = make_governed_cluster()
        node = system.nodes[0]
        node.submit(slack_rich_group())
        assert governor.due_nodes(0.0) == [node]
        assert skip_violations(auditor) == []
        # Take the node out of the wake set as if asleep at θ = 1.0 for
        # its slack-rich work: the governor would skip a node whose
        # target is below 1.
        governor._wake.discard(node)
        (bad,) = skip_violations(auditor)
        assert bad.subject == node.node_id
        assert bad.details["target"] < 1.0
        assert bad.details["recorded"] == 1.0

    def test_floor_settle_past_the_crossing(self):
        system, governor, auditor = make_governed_cluster()
        node = system.nodes[0]
        # 20,000 MI due at t = 60: the target is the floor at t = 0 and
        # rises above it near t = 12, long before the task completes.
        task = Task(
            tid=0, size_mi=20000.0, arrival_time=0.0, act=40.0, deadline=60.0
        )
        node.submit(TaskGroup([task], created_at=0.0))
        governor.apply(0.0)
        floor = governor._scaled[node]
        horizon = governor._asleep[node]
        assert 0.0 < horizon < 20.0
        assert governor.due_nodes(horizon) == []
        auditor.env.run(until=horizon + 5.0)
        assert node.pending_tasks == 1 and governor._asleep[node] == horizon
        assert governor.due_nodes(horizon + 5.0) == [node]
        assert skip_violations(auditor) == []  # the horizon has passed
        # A horizon pushed past the crossing would skip a node whose
        # target has left the floor.
        governor._asleep[node] = horizon + 10.0
        (bad,) = skip_violations(auditor)
        assert bad.subject == node.node_id
        assert bad.details["target"] > floor
        assert bad.details["recorded"] == floor

    def test_collect_mode_keeps_running(self):
        env, system, auditor = make_audited_cluster()
        meter = system.processors[0].meter
        meter._bank.busy_energy[meter._row] += 1.0
        system.nodes[0].queue.extend(
            object() for _ in range(system.nodes[0].queue_slots + 1)
        )
        auditor.sweep()
        auditor.sweep()  # second sweep re-detects without raising
        kinds = {v.invariant for v in auditor.report.violations}
        assert {INV_ENERGY, INV_QUEUE} <= kinds
        assert not auditor.report.ok


class TestPlatformIndex:
    """Each index that routing, observation and the scheduling pass
    read instead of scanning is held to a rescan.  The DVFS governor's
    wake set, which replaced the platform's loaded-node list, is held
    to the ``dvfs-skip`` check: a node it leaves out must not need a
    new θ."""

    @staticmethod
    def index_violations(auditor):
        auditor.sweep()
        return [
            (v.subject, v.details["index"])
            for v in auditor.report.violations
            if v.invariant == INV_INDEX
        ]

    def test_clean_cluster_is_checked(self):
        env, system, auditor = make_audited_cluster()
        system.nodes[0].submit(slack_rich_group())
        auditor.sweep()
        assert auditor.report.ok
        # One check per site.
        assert auditor.report.checks[INV_INDEX] == len(system.sites)

    def test_node_pending_count(self):
        env, system, auditor = make_audited_cluster()
        node = system.nodes[0]
        node.submit(slack_rich_group())
        node._pending += 1
        assert self.index_violations(auditor) == [(node.node_id, "node-pending")]

    @pytest.mark.parametrize(
        "attr,index",
        [
            ("_pending", "pending"),
            ("_free_slots", "free-slots"),
            ("_slotted", "slotted"),
            ("_spare", "spare"),
        ],
    )
    def test_site_count(self, attr, index):
        env, system, auditor = make_audited_cluster()
        site = system.sites[1]
        setattr(site, attr, getattr(site, attr) - 1)
        assert self.index_violations(auditor) == [(site.site_id, index)]

    def test_open_node_missing(self):
        env, system, auditor = make_audited_cluster()
        site = system.sites[0]
        site._open.pop()
        assert self.index_violations(auditor) == [(site.site_id, "open")]

    def test_open_nodes_out_of_node_order(self):
        env, system, auditor = make_audited_cluster()
        site = system.sites[0]
        assert len(site.open_nodes) >= 2
        site._open.reverse()
        assert self.index_violations(auditor) == [(site.site_id, "open")]

    def test_loaded_node_missing(self):
        system, governor, auditor = make_governed_cluster()
        node = system.nodes[2]
        node.submit(slack_rich_group())
        governor.apply(0.0)
        assert governor._asleep[node] > 1e5  # at its floor until then
        # Urgent work arrives: the node rejoins the wake set.
        urgent = Task(
            tid=1, size_mi=1e9, arrival_time=0.0, act=5.0, deadline=10.0
        )
        node.submit(TaskGroup([urgent], created_at=0.0))
        assert governor.due_nodes(0.0) == [node]
        assert skip_violations(auditor) == []
        # A governor that missed the work change would sleep on.
        governor._wake.discard(node)
        (bad,) = skip_violations(auditor)
        assert bad.subject == node.node_id
        assert bad.details["target"] == 1.0

    def test_governor_forgets_a_drained_scaled_node(self):
        system, governor, auditor = make_governed_cluster()
        node = system.nodes[0]
        node.submit(slack_rich_group())
        governor.apply(0.0)
        assert governor._scaled[node] < 1.0
        node.fail()  # drains the node; it still runs below nominal
        assert governor.due_nodes(0.0) == [node]
        assert skip_violations(auditor) == []
        # A pass that visits only loaded nodes would leave it scaled.
        governor._wake.discard(node)
        (bad,) = skip_violations(auditor)
        assert bad.subject == node.node_id
        assert bad.details["target"] == 1.0

    def test_raises_in_strict_mode(self):
        env = Environment()
        system = build_system(env, SMALL_PLATFORM, RandomStreams(seed=7))
        auditor = InvariantAuditor(env, system)
        system.sites[0]._pending += 1
        with pytest.raises(InvariantViolationError) as info:
            auditor.sweep()
        assert info.value.violation.invariant == INV_INDEX


class TestConsolidationOrder:
    """Prediction's consolidation index is held to a fresh sort of the
    platform's nodes by ``consolidation_key``."""

    @staticmethod
    def make_prediction_cluster():
        env = Environment()
        streams = RandomStreams(seed=7)
        system = build_system(env, SMALL_PLATFORM, streams)
        scheduler = PredictionBasedScheduler()
        scheduler.attach(env, system, streams)
        auditor = InvariantAuditor(
            env, system, scheduler, on_violation="collect"
        )
        return system, scheduler.consolidation, auditor

    @staticmethod
    def order_violations(auditor):
        auditor.sweep()
        return [
            v for v in auditor.report.violations
            if v.invariant == INV_CONSOLIDATION
        ]

    def test_clean_index_is_checked(self):
        system, index, auditor = self.make_prediction_cluster()
        system.nodes[3].submit(slack_rich_group())
        system.nodes[1].submit(slack_rich_group(tid=1))
        system.nodes[1].submit(slack_rich_group(tid=2))
        assert self.order_violations(auditor) == []
        assert auditor.report.checks[INV_CONSOLIDATION] == 1
        assert index.nodes()[:2] == [system.nodes[1], system.nodes[3]]

    def test_misplaced_node(self):
        system, index, auditor = self.make_prediction_cluster()
        system.nodes[2].submit(slack_rich_group())
        assert self.order_violations(auditor) == []
        # Move the loaded node, first in the order, to the back.
        index._entries.append(index._entries.pop(0))
        (bad,) = self.order_violations(auditor)
        assert bad.subject == "scheduler"

    def test_missed_work_change(self):
        system, index, auditor = self.make_prediction_cluster()
        node = index.nodes()[-1]  # the slowest idle node
        # An index that misses a node's work change keeps its old key.
        node._work_watcher = None
        node.submit(slack_rich_group())
        (bad,) = self.order_violations(auditor)
        assert bad.subject == "scheduler"

    def test_strict_prediction_run_is_clean(self):
        result = run_experiment(
            small_config(scheduler="prediction", failure_mtbf=400.0,
                         failure_mttr=40.0),
            strict=True,
        )
        assert result.audit.ok, result.audit.summary()
        assert result.audit.checks.get(INV_CONSOLIDATION, 0) > 0


class TestReportSurface:
    def test_summary_counts_checks(self):
        result = run_experiment(small_config(), strict=True)
        text = result.audit.summary()
        assert "0 violation(s)" in text
        assert "energy-closure" in text
        assert "(not finalized)" not in text

    def test_violation_str_format(self):
        env, system, auditor = make_audited_cluster()
        meter = system.processors[0].meter
        meter._bank.sleep_time[meter._row] += 3.0
        auditor.sweep()
        v = auditor.report.violations[0]
        assert str(v).startswith(f"[{INV_ENERGY}] t=0 ")
