"""Unit tests for the single-run experiment runner."""

import pytest

from repro.experiments import (
    ExperimentConfig,
    SimulationStalled,
    run_experiment,
)


def small_config(**overrides):
    params = dict(scheduler="edf", num_tasks=30, seed=8)
    params.update(overrides)
    return ExperimentConfig(**params)


class TestRunExperiment:
    def test_runs_to_completion(self):
        result = run_experiment(small_config())
        assert len(result.tasks) == 30
        assert all(t.completed for t in result.tasks)
        assert result.metrics.response.count == 30

    def test_meters_finalized(self):
        result = run_experiment(small_config())
        proc = result.system.processors[0]
        with pytest.raises(RuntimeError):
            proc.meter.set_state(
                __import__("repro.energy", fromlist=["ProcState"]).ProcState.BUSY,
                1e9,
            )

    def test_deterministic_given_seed(self):
        a = run_experiment(small_config(seed=33)).metrics
        b = run_experiment(small_config(seed=33)).metrics
        assert a.avert == pytest.approx(b.avert)
        assert a.ecs == pytest.approx(b.ecs)
        assert a.success_rate == b.success_rate

    def test_different_seeds_differ(self):
        a = run_experiment(small_config(seed=33)).metrics
        b = run_experiment(small_config(seed=34)).metrics
        assert a.avert != pytest.approx(b.avert)

    def test_prebuilt_scheduler_override(self):
        from repro.baselines import RandomScheduler

        sched = RandomScheduler()
        result = run_experiment(small_config(), scheduler=sched)
        assert result.scheduler is sched
        assert result.metrics.scheduler == "Random"

    def test_stall_detection(self):
        class StallingScheduler(__import__("repro.baselines", fromlist=["FCFSScheduler"]).FCFSScheduler):
            name = "staller"

            def _scheduling_pass(self):
                pass  # never places anything

        with pytest.raises(SimulationStalled):
            run_experiment(
                small_config(sim_time_factor=2.0),
                scheduler=StallingScheduler(),
            )

    def test_zero_tasks_config_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(num_tasks=0)

    def test_nan_workload_override_rejected(self):
        """A NaN MMPP burstiness in ``workload_overrides`` used to hang
        the arrival draw; the config now refuses it before any run."""
        with pytest.raises(ValueError, match="mmpp_burstiness"):
            run_experiment(
                small_config(
                    workload_overrides={
                        "arrival_process": "mmpp",
                        "mmpp_burstiness": float("nan"),
                    }
                )
            )

    def test_empty_workload_raises_clear_error(self, monkeypatch):
        # Regression: an empty task list used to crash on
        # ``tasks[-1].arrival_time`` with a bare IndexError.
        from repro.workload.generator import WorkloadGenerator

        monkeypatch.setattr(WorkloadGenerator, "generate", lambda self: [])
        with pytest.raises(ValueError, match="no tasks"):
            run_experiment(small_config())

    def test_all_registered_schedulers_complete(self):
        from repro.experiments import SCHEDULER_NAMES

        for name in SCHEDULER_NAMES:
            result = run_experiment(small_config(scheduler=name))
            assert len(result.scheduler.completed) == 30, name
