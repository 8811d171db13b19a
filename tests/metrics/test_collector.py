"""Unit tests for run-level metric assembly."""

import pytest

from repro.experiments import ExperimentConfig, run_experiment


@pytest.fixture(scope="module")
def run_result():
    cfg = ExperimentConfig(scheduler="edf", num_tasks=60, seed=21)
    return run_experiment(cfg)


class TestRunMetrics:
    def test_headline_fields(self, run_result):
        m = run_result.metrics
        assert m.scheduler == "EDF-greedy"
        assert m.num_tasks == 60
        assert m.response.count == 60
        assert m.avert > 0
        assert m.ecs > 0
        assert 0 <= m.success_rate <= 1
        assert 0 <= m.utilization <= 1
        assert m.learning_cycles > 0

    def test_makespan_bounds_response_times(self, run_result):
        m = run_result.metrics
        assert m.makespan >= m.response.maximum

    def test_utilization_series_attached(self, run_result):
        m = run_result.metrics
        assert len(m.utilization_series) == 10
        assert all(0 <= p.utilization <= 1 for p in m.utilization_series)

    def test_energy_consistency(self, run_result):
        m = run_result.metrics
        # ECS is the sum of per-node means and must be below total energy
        # (nodes have >1 processor each).
        assert m.ecs < m.energy.total_energy
        assert m.energy.num_processors == run_result.system.num_processors

    def test_streamed_response_summary_matches_rescan(self, run_result):
        # collect_metrics took the streamed path (columnar completion
        # logs); the end-of-run object rescan must agree bit for bit.
        from repro.metrics.response_time import summarize_response_times

        sched = run_result.scheduler
        streamed = sched.stream.response_summary()
        rescanned = summarize_response_times(sched.completed)
        assert streamed == rescanned
        assert run_result.metrics.response == rescanned

    def test_streamed_logs_track_completion_order(self, run_result):
        import numpy as np

        sched = run_result.scheduler
        assert np.array_equal(
            sched.stream.response_log,
            np.array([t.response_time for t in sched.completed]),
        )
        assert np.array_equal(
            sched.stream.wait_log,
            np.array([t.waiting_time for t in sched.completed]),
        )

    def test_success_submitted_denominator(self, run_result):
        m = run_result.metrics
        assert m.success.submitted == 60
