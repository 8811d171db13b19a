"""Unit tests for experiment configuration."""

import json

import pytest

from repro.cluster.node import SleepPolicy
from repro.experiments import ExperimentConfig, default_platform, grid

NAN = float("nan")
INF = float("inf")


class TestExperimentConfig:
    def test_defaults_mirror_paper(self):
        cfg = ExperimentConfig()
        assert cfg.scheduler == "adaptive-rl"
        assert cfg.arrival_period == 2500.0
        assert cfg.reference_speed_mips == 500.0
        assert cfg.platform.num_sites == 5

    def test_fixed_period_interarrival_scaling(self):
        """DESIGN.md A12: N=500 reproduces the stated mean iat of 5."""
        assert (
            ExperimentConfig(num_tasks=500).effective_mean_interarrival == 5.0
        )
        assert ExperimentConfig(
            num_tasks=3000
        ).effective_mean_interarrival == pytest.approx(2500 / 3000)

    def test_direct_interarrival_mode(self):
        cfg = ExperimentConfig(arrival_period=None, mean_interarrival=7.0)
        assert cfg.effective_mean_interarrival == 7.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_tasks=0),
            dict(mean_interarrival=0),
            dict(arrival_period=0),
            dict(size_range_mi=(0, 10)),
            dict(reference_speed_mips=0),
            dict(sim_time_factor=1.0),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(reference_speed_mips=NAN),
            dict(reference_speed_mips=INF),
            dict(arrival_period=NAN),
            dict(arrival_period=INF),
            dict(arrival_period=None, mean_interarrival=NAN),
            dict(sim_time_factor=NAN),
            dict(sim_time_factor=INF),
            dict(size_range_mi=(600.0, INF)),
        ],
    )
    def test_non_finite_run_parameters_rejected(self, kwargs):
        """A NaN reference speed used to run to a success rate of 0.0;
        the others ended in ``SimulationStalled`` or infinite sizes."""
        with pytest.raises(ValueError, match="must"):
            ExperimentConfig(num_tasks=20, seed=3, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(failure_mtbf=NAN),
            dict(failure_mtbf=100.0, failure_mttr=NAN),
            dict(failure_mtbf=100.0, failure_mttr=INF),
        ],
    )
    def test_non_finite_failure_parameters_rejected(self, kwargs):
        """A NaN MTBF used to run with no failures, a NaN MTTR to stall."""
        with pytest.raises(ValueError, match="failure_mt"):
            ExperimentConfig(num_tasks=20, seed=3, **kwargs)

    def test_infinite_mtbf_runs_like_no_failures(self):
        from repro.experiments import run_experiment

        base = ExperimentConfig(scheduler="edf", num_tasks=20, seed=3)
        never = run_experiment(base.with_overrides(failure_mtbf=INF)).metrics
        none = run_experiment(base).metrics
        assert (never.avert, never.ecs, never.success_rate) == (
            none.avert,
            none.ecs,
            none.success_rate,
        )

    def test_nan_workload_override_rejected(self):
        """It used to pass until a run built its spec, and a campaign
        retried that deterministic failure with backoff."""
        with pytest.raises(ValueError, match="mmpp_burstiness"):
            ExperimentConfig(
                workload_overrides={
                    "arrival_process": "mmpp",
                    "mmpp_burstiness": NAN,
                }
            )

    def test_unknown_workload_override_rejected(self):
        with pytest.raises(TypeError, match="mmpp_burstines"):
            ExperimentConfig(workload_overrides={"mmpp_burstines": 2.0})

    def test_with_overrides(self):
        cfg = ExperimentConfig(num_tasks=100)
        other = cfg.with_overrides(seed=9)
        assert other.seed == 9
        assert other.num_tasks == 100
        assert cfg.seed == 1  # original untouched


class TestSerialization:
    """Configs travel to worker processes and journals by value."""

    def test_default_round_trip(self):
        cfg = ExperimentConfig()
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_customized_round_trip_through_json(self):
        cfg = ExperimentConfig(
            scheduler="fcfs",
            scheduler_kwargs={},
            seed=11,
            num_tasks=321,
            arrival_period=None,
            mean_interarrival=3.5,
            size_range_mi=(100.0, 200.0),
            reference_speed_mips=None,
            workload_overrides={"arrival_process": "mmpp"},
            platform=default_platform(
                num_sites=3,
                heterogeneity_cv=0.7,
                power_model="proportional",
                sleep_policy=SleepPolicy(allow_sleep=False),
                split_enabled=False,
            ),
            failure_mtbf=500.0,
            failure_mttr=25.0,
        )
        # Through an actual JSON round-trip, as the journal does it.
        payload = json.loads(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_dict(payload) == cfg

    def test_workload_trace_round_trips(self):
        cfg = ExperimentConfig(workload_trace="some/trace.jsonl")
        payload = json.loads(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_dict(payload) == cfg

    def test_old_journals_without_workload_trace_still_load(self):
        """Journals written before the trace-replay field existed."""
        payload = ExperimentConfig().to_dict()
        del payload["workload_trace"]
        assert ExperimentConfig.from_dict(payload).workload_trace is None

    def test_from_dict_validates(self):
        payload = ExperimentConfig().to_dict()
        payload["num_tasks"] = 0
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(payload)

    def test_from_dict_rejects_nan_from_json(self):
        """``json`` writes and reads a NaN, so a journaled config can
        carry one back; rebuilding it must fail."""
        payload = ExperimentConfig().to_dict()
        payload["reference_speed_mips"] = NAN
        payload = json.loads(json.dumps(payload))
        with pytest.raises(ValueError, match="reference_speed_mips"):
            ExperimentConfig.from_dict(payload)

    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"diurnal_amplitude": NAN}, ValueError),
            ({"no_such_field": 1.0}, TypeError),
        ],
    )
    def test_from_dict_checks_workload_overrides(self, overrides, error):
        payload = ExperimentConfig().to_dict()
        payload["workload_overrides"] = overrides
        payload = json.loads(json.dumps(payload))
        with pytest.raises(error, match=next(iter(overrides))):
            ExperimentConfig.from_dict(payload)

    def test_unknown_version_rejected(self):
        payload = ExperimentConfig().to_dict()
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            ExperimentConfig.from_dict(payload)

    def test_round_trip_preserves_behavior(self):
        """A rebuilt config drives the exact same simulation."""
        from repro.experiments import run_experiment

        cfg = ExperimentConfig(scheduler="edf", num_tasks=25, seed=5)
        clone = ExperimentConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict()))
        )
        a = run_experiment(cfg).metrics
        b = run_experiment(clone).metrics
        assert (a.avert, a.ecs, a.success_rate) == (b.avert, b.ecs, b.success_rate)


class TestDefaultPlatform:
    def test_paper_range_low_end(self):
        p = default_platform()
        assert p.num_sites == 5
        assert p.nodes_per_site == (5, 10)
        assert p.procs_per_node == (4, 6)

    def test_overrides_pass_through(self):
        p = default_platform(num_sites=7, heterogeneity_cv=0.5)
        assert p.num_sites == 7
        assert p.heterogeneity_cv == 0.5


class TestGrid:
    def test_full_cross_product(self):
        configs = grid(["edf", "fcfs"], [20, 40], [1, 2, 3])
        assert len(configs) == 12
        assert {c.scheduler for c in configs} == {"edf", "fcfs"}
        assert {c.num_tasks for c in configs} == {20, 40}

    def test_common_kwargs_forwarded(self):
        configs = grid(["edf"], [20], [1], arrival_period=999.0)
        assert configs[0].arrival_period == 999.0

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            grid([], [20], [1])
