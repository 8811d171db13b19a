"""Unit tests for the figure regenerators (reduced scale)."""

import json

import pytest

from repro.experiments import (
    comparison_sweep,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
)
from repro.experiments.config import grid
from repro.experiments.figures import FigureData, run_configs
from repro.obs import SeriesBank, Telemetry, use

SMALL_COUNTS = (60, 120)
SMALL_SEEDS = (1,)


@pytest.fixture(scope="module")
def small_sweep():
    return comparison_sweep(SMALL_COUNTS, SMALL_SEEDS, schedulers=("adaptive-rl", "edf"))


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


class TestComparisonFigures:
    def test_figure7_structure(self, small_sweep):
        fig = figure7(SMALL_COUNTS, SMALL_SEEDS, sweep=small_sweep)
        assert fig.figure_id == "fig7"
        assert fig.x_values == SMALL_COUNTS
        assert "Adaptive RL" in fig.series
        assert all(len(ys) == 2 for ys in fig.series.values())
        assert all(y > 0 for ys in fig.series.values() for y in ys)

    def test_figure8_structure(self, small_sweep):
        fig = figure8(SMALL_COUNTS, SMALL_SEEDS, sweep=small_sweep)
        assert fig.figure_id == "fig8"
        assert fig.y_label.startswith("energy")
        # ECS reported in millions.
        assert all(y < 100 for ys in fig.series.values() for y in ys)

    def test_shared_sweep_consistency(self, small_sweep):
        f7 = figure7(SMALL_COUNTS, SMALL_SEEDS, sweep=small_sweep)
        f8 = figure8(SMALL_COUNTS, SMALL_SEEDS, sweep=small_sweep)
        assert set(f7.series) == set(f8.series)


class TestUtilizationFigures:
    def test_figure9_structure(self):
        fig = figure9(num_tasks=80, seed=1)
        assert fig.figure_id == "fig9"
        assert len(fig.x_values) == 10
        assert set(fig.series) == {
            "Adaptive RL (heavily-loaded)",
            "Online RL (heavily-loaded)",
        }
        assert all(0 <= y <= 1 for ys in fig.series.values() for y in ys)

    def test_figure10_structure(self):
        fig = figure10(num_tasks=80, seed=1)
        assert fig.figure_id == "fig10"
        assert all("lightly-loaded" in name for name in fig.series)


class TestHeterogeneityFigures:
    @pytest.fixture(scope="class")
    def h_sweep(self):
        from repro.experiments.figures import heterogeneity_sweep

        return heterogeneity_sweep(
            (0.1, 0.9), seeds=(1,), light_tasks=50, heavy_tasks=120
        )

    def test_figure11_structure(self, h_sweep):
        fig = figure11((0.1, 0.9), sweep=h_sweep)
        assert fig.figure_id == "fig11"
        assert set(fig.series) == {"Heavily-loaded", "Lightly-loaded"}
        assert all(0 <= y <= 1 for ys in fig.series.values() for y in ys)

    def test_figure12_structure(self, h_sweep):
        fig = figure12((0.1, 0.9), sweep=h_sweep)
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
