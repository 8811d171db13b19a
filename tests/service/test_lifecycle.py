"""SchedulerService: state machine, drain paths, resume, replay."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.service import (
    SchedulerService,
    ServiceError,
    ServiceState,
    SliceEngine,
)
from repro.sim.rng import RandomStreams
from repro.workload.generator import WorkloadGenerator
from repro.workload.task import Task
from repro.workload.traces import iter_trace_jsonl, save_trace_jsonl


def small_config(**overrides) -> ExperimentConfig:
    params = dict(
        scheduler="fcfs", seed=5, num_tasks=40, arrival_period=400.0
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def producer(engine: SliceEngine):
    return WorkloadGenerator(
        engine.workload_spec(), RandomStreams(engine.config.seed)
    ).iter_tasks()


class TestRunToCompletion:
    def test_streams_everything_and_stops(self):
        service = SchedulerService(small_config(), producer, max_queue=8)
        report = service.run()
        assert service.state is ServiceState.STOPPED
        assert report.state == "stopped"
        assert report.admitted == 40
        assert report.tasks_injected == 40
        assert report.completed == 40
        assert report.metrics is not None
        assert report.metrics.num_tasks == 40
        assert report.depth_high <= 8

    def test_report_to_dict_is_json_shaped(self):
        service = SchedulerService(small_config(), producer)
        data = service.run().to_dict()
        assert data["state"] == "stopped"
        assert data["completed"] == 40
        assert set(data["metrics"]) == {
            "makespan", "avert", "ecs", "success_rate",
        }

    def test_step_after_stop_returns_false(self):
        service = SchedulerService(small_config(), producer)
        service.run()
        assert not service.step()

    def test_report_before_stop_raises(self):
        service = SchedulerService(small_config(), producer)
        with pytest.raises(ServiceError, match="no report"):
            service.report()


class TestDrainTriggers:
    def test_drain_after_cuts_the_stream(self):
        service = SchedulerService(
            small_config(), producer, drain_after=100.0
        )
        report = service.run()
        assert 0 < report.admitted < 40
        assert report.completed == report.tasks_injected == report.admitted
        # Every admitted arrival lies within the horizon.
        assert all(
            t.arrival_time <= 100.0 for t in service.engine.injected
        )

    def test_request_drain_finishes_admitted_work(self):
        service = SchedulerService(small_config(), producer, max_queue=4)
        for _ in range(3):
            assert service.step()
        service.request_drain()
        assert not service.step()  # the draining step returns False
        report = service.report()
        assert report.state == "stopped"
        assert 0 < report.admitted < 40
        assert report.completed == report.tasks_injected

    def test_failure_injection_runs_under_service_mode(self):
        """The old refusal is gone: a config carrying failure_mtbf
        streams to completion, resubmitting crashed work, and reports
        the fault counters under their unambiguous names."""
        service = SchedulerService(
            small_config(failure_mtbf=150.0, failure_mttr=30.0), producer
        )
        report = service.run()
        assert report.state == "stopped"
        assert report.completed == report.tasks_injected == 40
        assert report.failures_injected > 0
        data = report.to_dict()
        assert data["tasks_injected"] == 40
        assert data["failures_injected"] == report.failures_injected
        assert data["repairs_completed"] == report.repairs_completed
        assert data["tasks_resubmitted"] == report.tasks_resubmitted
        # The deprecated "injected" report alias is gone for good.
        assert "injected" not in data
        assert not hasattr(report, "injected")

    def test_resume_requires_journal_dir(self):
        with pytest.raises(ValueError, match="journal directory"):
            SchedulerService(small_config(), producer, resume=True)


class TestProgrammaticUse:
    def test_submit_then_drain(self):
        service = SchedulerService(small_config(), producer=None)
        tasks = WorkloadGenerator(
            service.engine.workload_spec(),
            RandomStreams(service.config.seed),
        ).generate()[:10]
        for task in tasks:
            assert service.submit(task)
        service.request_drain()
        report = service.run()
        assert report.admitted == 10
        assert report.completed == 10

    def test_empty_service_drains_to_no_metrics(self):
        service = SchedulerService(small_config(), producer=None)
        service.request_drain()
        report = service.run()
        assert report.state == "stopped"
        assert report.admitted == 0
        assert report.completed == 0
        assert report.metrics is None


class TestReplayProducer:
    def test_jsonl_trace_replays_identically(self, tmp_path):
        config = small_config()
        direct = SchedulerService(config, producer, max_queue=8)
        direct_report = direct.run()

        trace_path = tmp_path / "trace.jsonl"
        tasks = WorkloadGenerator(
            direct.engine.workload_spec(), RandomStreams(config.seed)
        ).generate()
        assert save_trace_jsonl(tasks, trace_path) == 40

        replayed = SchedulerService(
            config,
            lambda engine: iter_trace_jsonl(trace_path),
            max_queue=8,
        )
        replay_report = replayed.run()
        assert replay_report.metrics.avert == direct_report.metrics.avert
        assert replay_report.metrics.ecs == direct_report.metrics.ecs

    def test_swf_log_feeds_the_service(self):
        """--replay dispatches on suffix: an SWF job log streams straight
        into the ingress queue."""
        from pathlib import Path

        import repro.workload as workload
        from repro.workload.traces import iter_workload

        swf = (
            Path(workload.__file__).resolve().parent
            / "scenarios/swf-excerpt/excerpt.swf"
        )
        service = SchedulerService(
            small_config(), lambda engine: iter_workload(swf), max_queue=16
        )
        report = service.run()
        assert report.state == "stopped"
        assert report.admitted == 108  # runnable jobs in the excerpt
        assert report.completed == 108


class TestResume:
    def test_exactly_once_across_crash(self, tmp_path):
        config = small_config()
        life1 = SchedulerService(
            config, producer, max_queue=6, journal_dir=tmp_path, slice_len=8.0
        )
        for _ in range(6):
            life1.step()
        admitted_before = life1.ingress.admitted
        assert 0 < admitted_before < 40
        life1.journal.close()  # crash: no drain marker

        life2 = SchedulerService(
            config,
            producer,
            max_queue=6,
            journal_dir=tmp_path,
            resume=True,
            slice_len=8.0,
        )
        assert len(life2._recovered) == admitted_before
        report = life2.run()
        assert report.resumed
        assert report.recovered == admitted_before
        assert report.admitted == 40
        assert report.completed == 40

    def test_resume_ignores_divergent_config(self, tmp_path):
        config = small_config()
        life1 = SchedulerService(config, producer, journal_dir=tmp_path)
        life1.step()
        life1.journal.close()
        other = small_config(scheduler="edf", seed=99, num_tasks=7)
        life2 = SchedulerService(
            other, producer, journal_dir=tmp_path, resume=True
        )
        # The journal's stored config governs the resumed life.
        assert life2.config.scheduler == "fcfs"
        assert life2.config.seed == 5
        assert life2.config.num_tasks == 40

    def test_resume_of_drained_journal_is_noop(self, tmp_path):
        config = small_config()
        SchedulerService(config, producer, journal_dir=tmp_path).run()
        resumed = SchedulerService(
            config, producer, journal_dir=tmp_path, resume=True
        )
        assert resumed.state is ServiceState.STOPPED
        report = resumed.run()
        assert report.already_drained
        assert report.admitted == 40
        assert report.completed == 40


class TestStall:
    """A scheduler that never places a task stalls the drain at the
    batch time cap, in the service as in the batch runner."""

    @pytest.fixture
    def staller(self):
        from repro.baselines import FCFSScheduler
        from repro.experiments import register_scheduler, unregister_scheduler

        class StallingScheduler(FCFSScheduler):
            name = "staller"

            def _scheduling_pass(self):
                pass  # never places anything

        register_scheduler("staller", StallingScheduler)
        try:
            yield small_config(scheduler="staller", sim_time_factor=2.0)
        finally:
            unregister_scheduler("staller")

    def test_service_raises_service_stalled_at_the_cap(self, staller):
        from repro.service import ServiceStalled

        service = SchedulerService(staller, producer)
        with pytest.raises(ServiceStalled, match="0/40 tasks completed"):
            service.run()
        assert service.state is ServiceState.FAILED
        last_arrival = service.engine.injected[-1].arrival_time
        assert service.engine.now == max(last_arrival, 1.0) * 2.0

    def test_batch_raises_simulation_stalled(self, staller):
        from repro.experiments import SimulationStalled, run_experiment

        with pytest.raises(SimulationStalled, match="0/40 tasks completed"):
            run_experiment(staller)


class TestOrderingGuard:
    def test_engine_refuses_time_travel(self):
        """A task arriving before the kernel clock is an invariant break."""
        from repro.service import IngressQueue

        engine = SliceEngine(small_config())
        ingress = IngressQueue()
        late = Task(
            tid=0, size_mi=100.0, arrival_time=50.0, act=10.0, deadline=61.0
        )
        ingress.submit(late)
        engine.advance(ingress, slice_len=200.0)
        assert engine.now > 0
        # Bypass the ingress frontier check to hit the engine's guard.
        early = Task(
            tid=1, size_mi=100.0, arrival_time=1.0, act=10.0, deadline=12.0
        )
        with pytest.raises(ServiceError, match="frontier invariant"):
            engine._inject(early)
