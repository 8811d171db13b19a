"""Unit tests for the figure plan (reduced scale)."""

import json

import pytest

from repro.experiments.config import grid
from repro.experiments.figures import FigureData, FigurePlan, run_configs
from repro.obs import SeriesBank, Telemetry, use

SMALL_COUNTS = (60, 120)
SMALL_SEEDS = (1,)


def build(plan: FigurePlan) -> dict:
    """``{figure_id: FigureData}``: *plan* run serially, then built."""
    runs = run_configs(plan.configs())
    return {fid: plan.figure(fid, runs) for fid in plan.figure_ids}


class TestFigureData:
    def test_series_length_validated(self):
        with pytest.raises(ValueError):
            FigureData(
                figure_id="x",
                title="t",
                x_label="x",
                y_label="y",
                x_values=(1, 2),
                series={"s": (1.0,)},
            )


class TestFigurePlan:
    def test_workload_fields_reach_every_config(self):
        plan = FigurePlan(
            ("fig7", "fig9", "fig11"),
            task_counts=SMALL_COUNTS,
            heavy_tasks=120,
            light_tasks=60,
            workload_overrides={"arrival_process": "mmpp"},
            workload_trace="t.jsonl",
        )
        configs = plan.configs()
        # A trace replay ignores the task count, so one run per
        # scheduler serves Figs 7 and 9, and one per heterogeneity level
        # serves both of Fig 11's loads.
        assert len(configs) == 4 + 5
        for config in configs:
            assert config.workload_overrides == {"arrival_process": "mmpp"}
            assert config.workload_trace == "t.jsonl"


class TestComparisonFigures:
    @pytest.fixture(scope="class")
    def figs(self):
        return build(
            FigurePlan(("fig7", "fig8"), task_counts=SMALL_COUNTS, seeds=SMALL_SEEDS)
        )

    def test_figure7_structure(self, figs):
        fig = figs["fig7"]
        assert fig.figure_id == "fig7"
        assert fig.x_values == SMALL_COUNTS
        assert "Adaptive RL" in fig.series
        assert all(len(ys) == 2 for ys in fig.series.values())
        assert all(y > 0 for ys in fig.series.values() for y in ys)

    def test_figure8_structure(self, figs):
        fig = figs["fig8"]
        assert fig.figure_id == "fig8"
        assert fig.y_label.startswith("energy")
        # ECS reported in millions.
        assert all(y < 100 for ys in fig.series.values() for y in ys)

    def test_shared_sweep_consistency(self, figs):
        assert set(figs["fig7"].series) == set(figs["fig8"].series)


class TestUtilizationFigures:
    @pytest.fixture(scope="class")
    def figs(self):
        return build(FigurePlan(("fig9", "fig10"), heavy_tasks=80, light_tasks=80))

    def test_figure9_structure(self, figs):
        fig = figs["fig9"]
        assert fig.figure_id == "fig9"
        assert len(fig.x_values) == 10
        assert set(fig.series) == {
            "Adaptive RL (heavily-loaded)",
            "Online RL (heavily-loaded)",
        }
        assert all(0 <= y <= 1 for ys in fig.series.values() for y in ys)

    def test_figure10_structure(self, figs):
        fig = figs["fig10"]
        assert fig.figure_id == "fig10"
        assert all("lightly-loaded" in name for name in fig.series)


class TestHeterogeneityFigures:
    @pytest.fixture(scope="class")
    def figs(self):
        return build(
            FigurePlan(
                ("fig11", "fig12"), seeds=(1,), light_tasks=50, heavy_tasks=120
            )
        )

    def test_figure11_structure(self, figs):
        fig = figs["fig11"]
        assert fig.figure_id == "fig11"
        assert set(fig.series) == {"Heavily-loaded", "Lightly-loaded"}
        assert all(0 <= y <= 1 for ys in fig.series.values() for y in ys)

    def test_figure12_structure(self, figs):
        fig = figs["fig12"]
        assert fig.figure_id == "fig12"
        assert all(y > 0 for ys in fig.series.values() for y in ys)


class TestRunConfigsSeriesMerge:
    """A parallel ``run_configs`` folds each worker's flight-recorder
    bank into the ambient telemetry (the ``cli --jobs N --sample-every``
    path) — and the merged bank must equal the same per-worker files
    merged in pure Python."""

    def test_parallel_series_equal_pure_python_merge(self, tmp_path):
        telemetry = Telemetry(series=SeriesBank(), sample_every=50.0)
        ck = tmp_path / "ck"
        with use(telemetry):
            runs = run_configs(
                grid(["edf", "fcfs"], [25], [1]), jobs=2, checkpoint_dir=ck
            )
        assert len(runs) == 2
        assert (ck / "series.json").exists()

        worker_files = sorted((ck / "obs").glob("series-*.json"))
        assert len(worker_files) == 2
        # Same fold order as the engine (sorted per-job filenames), so
        # same-time ties land identically.
        expected = SeriesBank()
        for path in worker_files:
            expected.merge_from(
                SeriesBank.from_dict(json.loads(path.read_text()))
            )

        got = telemetry.series
        assert got.names() == expected.names()
        for name in expected.names():
            assert (
                got.get(name).times().tolist()
                == expected.get(name).times().tolist()
            ), name
            # Wall-clock-derived rates differ across processes; every
            # simulated-state series must match point for point.
            if name != "sim.events_per_sec":
                assert (
                    got.get(name).values().tolist()
                    == expected.get(name).values().tolist()
                ), name
