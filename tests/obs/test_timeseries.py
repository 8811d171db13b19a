"""Unit tests for the flight recorder's ring-buffer series and sampler."""

import pytest

from repro.cluster import PlatformSpec, TaskGroup
from repro.experiments import ExperimentConfig
from repro.experiments.runner import Run
from repro.obs import PeriodicSampler, SeriesBank, TimeSeries, make_run_probes
from repro.sim import Environment
from repro.workload import Task, WorkloadGenerator


class TestTimeSeries:
    def test_append_and_read_back_in_order(self):
        s = TimeSeries("x", capacity=8)
        for i in range(5):
            s.append(float(i), float(i * 10))
        assert len(s) == 5
        assert s.dropped == 0
        assert s.times().tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert s.values().tolist() == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert s.last() == 40.0

    def test_wraparound_keeps_newest_and_counts_drops(self):
        s = TimeSeries("x", capacity=4)
        for i in range(7):
            s.append(float(i), float(i))
        assert len(s) == 4
        assert s.dropped == 3
        # Oldest-first view across the wrap point.
        assert s.times().tolist() == [3.0, 4.0, 5.0, 6.0]
        assert s.values().tolist() == [3.0, 4.0, 5.0, 6.0]
        assert s.last() == 6.0

    def test_exact_capacity_boundary(self):
        s = TimeSeries("x", capacity=3)
        for i in range(3):
            s.append(float(i), float(i))
        assert len(s) == 3
        assert s.dropped == 0
        assert s.times().tolist() == [0.0, 1.0, 2.0]

    def test_empty_series(self):
        s = TimeSeries("x", capacity=4)
        assert len(s) == 0
        assert s.last() is None
        assert s.times().tolist() == []

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            TimeSeries("x", capacity=0)

    def test_dict_round_trip_preserves_order_and_drops(self):
        s = TimeSeries("x", capacity=4)
        for i in range(6):
            s.append(float(i), float(i * 2))
        restored = TimeSeries.from_dict("x", s.to_dict())
        assert restored.times().tolist() == s.times().tolist()
        assert restored.values().tolist() == s.values().tolist()
        assert restored.dropped == s.dropped == 2
        # Appending after a restore must not scramble the ring view.
        restored.append(6.0, 12.0)
        assert restored.times().tolist() == [3.0, 4.0, 5.0, 6.0]
        assert restored.dropped == 3


class TestSeriesBank:
    def test_get_or_create_and_names_sorted(self):
        bank = SeriesBank()
        bank.record("b", 0.0, 1.0)
        bank.record("a", 0.0, 2.0)
        bank.record("b", 1.0, 3.0)
        assert bank.names() == ["a", "b"]
        assert len(bank) == 2
        assert bank.get("b").last() == 3.0
        assert bank.get("missing") is None

    def test_dict_round_trip(self):
        bank = SeriesBank()
        bank.record("x", 0.0, 1.0)
        bank.record("x", 1.0, 2.0)
        restored = SeriesBank.from_dict(bank.as_dict())
        assert restored.names() == ["x"]
        assert restored.get("x").values().tolist() == [1.0, 2.0]

    def test_merge_interleaves_by_time(self):
        a = SeriesBank()
        b = SeriesBank()
        for t in (0.0, 2.0, 4.0):
            a.record("x", t, 1.0)
        for t in (1.0, 3.0):
            b.record("x", t, 2.0)
        b.record("only_b", 0.0, 9.0)
        a.merge_from(b)
        assert a.get("x").times().tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert a.get("x").values().tolist() == [1.0, 2.0, 1.0, 2.0, 1.0]
        assert a.get("only_b").last() == 9.0

    def test_merge_tie_keeps_existing_first(self):
        a = SeriesBank()
        b = SeriesBank()
        a.record("x", 1.0, 10.0)
        b.record("x", 1.0, 20.0)
        a.merge_from(b)
        assert a.get("x").values().tolist() == [10.0, 20.0]

    def test_merge_adds_drop_counts(self):
        a = SeriesBank(capacity=4)
        b = SeriesBank(capacity=4)
        for i in range(6):
            a.record("x", float(i), 0.0)
            b.record("x", float(i) + 0.5, 1.0)
        a.merge_from(b)
        merged = a.get("x")
        # 2 dropped on each side before the merge, plus re-ringing the 8
        # surviving points into capacity 4 drops 4 more.
        assert merged.dropped == 2 + 2 + 4
        assert len(merged) == 4


class TestPeriodicSampler:
    def test_samples_on_cadence(self):
        env = Environment()
        bank = SeriesBank()
        seen = []

        def probe(b, now):
            seen.append(now)
            b.record("tick", now, now)

        sampler = PeriodicSampler(
            bank, every=10.0, until=55.0, probes=[probe]
        ).attach(env)
        env.timeout(100.0)  # keep the run alive past the sampler horizon
        env.run()
        assert seen == [10.0, 20.0, 30.0, 40.0, 50.0]
        assert sampler.samples == 5
        assert bank.get("tick").times().tolist() == seen

    def test_no_tick_past_horizon(self):
        env = Environment()
        sampler = PeriodicSampler(SeriesBank(), every=10.0, until=5.0)
        sampler.attach(env)
        env.run()
        assert sampler.samples == 0
        assert env.now == 0.0

    def test_cadence_must_be_positive(self):
        with pytest.raises(ValueError, match="cadence"):
            PeriodicSampler(SeriesBank(), every=0.0, until=10.0)

    @pytest.mark.parametrize("every", [float("nan"), float("inf")])
    def test_cadence_must_be_finite(self, every):
        """``now + every <= until`` is never true for these, so the
        sampler would never arm."""
        with pytest.raises(ValueError, match="cadence"):
            PeriodicSampler(SeriesBank(), every=every, until=10.0)


class TestRunProbes:
    """The standard probes record the platform's power and its
    processor-state and pending-task counts."""

    @pytest.fixture
    def bank(self, env, no_sleep_system):
        bank = SeriesBank()
        PeriodicSampler(
            bank,
            every=10.0,
            until=1000.0,
            probes=make_run_probes(no_sleep_system, None, env),
        ).attach(env)
        task = Task(
            tid=1, size_mi=200_000.0, arrival_time=0.0, act=1.0, deadline=5000.0
        )
        no_sleep_system.nodes[0].submit(TaskGroup([task], created_at=0.0))
        env.run(until=1000.5)
        return bank

    def test_processor_states_partition(self, bank, no_sleep_system):
        busy, idle, sleeping = (
            bank.get(name).values()
            for name in ("procs.busy", "procs.idle", "procs.sleeping")
        )
        assert len(busy) == 100
        assert (busy + idle + sleeping == no_sleep_system.num_processors).all()

    def test_power_and_counts_track_execution(self, bank):
        busy = bank.get("procs.busy").values()
        assert busy[0] >= 1 and busy[-1] == 0
        assert bank.get("queue.pending_tasks").values()[0] >= 1
        power = bank.get("power.system").values()
        assert power[0] > power[-1] > 0

    @pytest.mark.parametrize("scheduler", ["qplus", "adaptive-rl"])
    def test_queue_gauges_equal_a_scan_of_the_nodes(self, scheduler):
        """The pending and free-slot gauges add the site index's counts;
        at every sample they equal the sums over the nodes, failed ones
        included."""
        config = ExperimentConfig(
            scheduler=scheduler,
            seed=5,
            num_tasks=150,
            arrival_period=300.0,
            failure_mtbf=200.0,
            failure_mttr=40.0,
            platform=PlatformSpec(
                num_sites=2, nodes_per_site=(2, 3), procs_per_node=(2, 4)
            ),
        )
        run = Run(config, strict=False)
        scanned = []

        def scan(bank, now):
            nodes = run.system.nodes
            scanned.append(
                (
                    sum(n.pending_tasks for n in nodes),
                    sum(n.free_slots for n in nodes),
                    sum(n.failed for n in nodes),
                )
            )

        bank = SeriesBank()
        probes = make_run_probes(run.system, run.scheduler, run.env)
        PeriodicSampler(
            bank, every=2.0, until=1e9, probes=[probes[0], scan]
        ).attach(run.env)
        run.admit(WorkloadGenerator(run.workload_spec(), run.streams).generate())
        run.drain()
        recorded = list(
            zip(
                *(
                    bank.get(name).values().tolist()
                    for name in (
                        "queue.pending_tasks",
                        "queue.free_slots",
                        "nodes.failed",
                    )
                )
            )
        )
        assert recorded == scanned
        assert len(scanned) > 50
        assert any(failed for *_, failed in scanned)
        assert len({pending for pending, *_ in scanned}) > 3
