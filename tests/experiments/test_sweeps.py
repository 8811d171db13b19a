"""Unit tests for sweep helpers."""

import pytest

from repro.experiments import ExperimentConfig, figures
from repro.experiments.sweeps import ablation_table, sweep
from repro.parallel import RecordView


@pytest.fixture(scope="module")
def points():
    base = ExperimentConfig(scheduler="edf", num_tasks=30)
    return sweep(
        base,
        variations={
            "control": lambda c: c,
            "fcfs": lambda c: c.with_overrides(scheduler="fcfs"),
        },
        seeds=(1, 2),
    )


class TestSweep:
    def test_one_point_per_variation(self, points):
        assert set(points) == {"control", "fcfs"}

    def test_aggregates_over_seeds(self, points):
        p = points["control"]
        assert p.avert.n == 2
        assert len(p.runs) == 2
        assert p.avert.mean > 0
        assert p.ecs.mean > 0

    def test_variations_actually_vary(self, points):
        schedulers = {m.scheduler for m in points["fcfs"].runs}
        assert schedulers == {"FCFS"}

    def test_runs_are_record_views(self, points):
        assert all(isinstance(m, RecordView) for m in points["fcfs"].runs)


def _summary(points):
    """Each point's aggregates and host-independent run records."""
    return {
        label: (
            (p.avert, p.ecs, p.success_rate, p.utilization),
            [
                {k: v for k, v in m.record.items() if k != "wall_seconds"}
                for m in p.runs
            ],
        )
        for label, p in points.items()
    }


class TestDuplicateConfigs:
    """Two labels that derive the same config share one run, and the
    job count does not change what a sweep returns."""

    BASE = ExperimentConfig(scheduler="edf", num_tasks=30)
    VARIATIONS = {
        "control": lambda c: c,
        "same": lambda c: c.with_overrides(scheduler="edf"),
    }

    @pytest.fixture(scope="class")
    def by_jobs(self):
        return {
            jobs: sweep(self.BASE, self.VARIATIONS, seeds=(1, 2), jobs=jobs)
            for jobs in (1, 2)
        }

    def test_serial_and_parallel_points_equal(self, by_jobs):
        assert _summary(by_jobs[1]) == _summary(by_jobs[2])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_labels_share_the_run(self, by_jobs, jobs):
        points = by_jobs[jobs]
        assert all(
            a is b
            for a, b in zip(points["control"].runs, points["same"].runs)
        )

    def test_one_run_per_distinct_config(self, monkeypatch):
        calls = []
        run = figures.run_experiment

        def counting(config, *args, **kwargs):
            calls.append(config)
            return run(config, *args, **kwargs)

        monkeypatch.setattr(figures, "run_experiment", counting)
        sweep(self.BASE, self.VARIATIONS, seeds=(1, 2))
        assert sorted(c.seed for c in calls) == [1, 2]


class TestAblationTable:
    def test_renders_all_variants(self, points):
        text = ablation_table(points)
        assert "control" in text and "fcfs" in text
        assert "AveRT" in text and "ECS (M)" in text

    def test_empty(self):
        assert "no sweep points" in ablation_table({})
