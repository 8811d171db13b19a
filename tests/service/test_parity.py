"""Batch/service determinism parity.

The service's headline guarantee: for a fixed admitted task sequence,
the sliced, incrementally-driven service run is *bit-identical* to the
one-shot batch run — same AveRT, same ECS, same success rate, down to
the IEEE-754 bit pattern.  These tests pin that equality against the
golden-seed digest table, with deliberately awkward slice lengths and
queue bounds so slice boundaries land everywhere.
"""

import hashlib

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.obs import capture
from repro.service import SchedulerService, SliceEngine
from repro.sim.rng import RandomStreams
from repro.workload.generator import WorkloadGenerator

from ..integration.test_golden_seeds import (
    ARRIVAL_PERIOD,
    DVFS_GOLDEN,
    GOLDEN_DIGESTS,
    NUM_TASKS,
    dvfs_config,
)


def _config(scheduler: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        scheduler=scheduler,
        seed=seed,
        num_tasks=NUM_TASKS,
        arrival_period=ARRIVAL_PERIOD,
    )


def _producer(engine: SliceEngine):
    return WorkloadGenerator(
        engine.workload_spec(), RandomStreams(engine.config.seed)
    ).iter_tasks()


def _digest(metrics) -> str:
    payload = "|".join(
        [
            metrics.avert.hex(),
            metrics.ecs.hex(),
            float(metrics.success_rate).hex(),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "scheduler,seed",
    [("adaptive-rl", 11), ("adaptive-rl", 47), ("fcfs", 23)],
)
def test_service_matches_golden_digest(scheduler: str, seed: int) -> None:
    """The service run reproduces the pinned batch digests exactly."""
    service = SchedulerService(
        _config(scheduler, seed),
        _producer,
        max_queue=19,       # prime, small: constant backpressure
        slice_len=13.7,     # never aligned with arrival epochs
    )
    report = service.run()
    assert report.completed == NUM_TASKS
    digest = _digest(report.metrics)
    expected = GOLDEN_DIGESTS[f"{scheduler}/seed{seed}"]
    assert digest == expected, (
        f"{scheduler} seed={seed}: service digest {digest} != golden "
        f"{expected}; slicing has perturbed the simulation trajectory"
    )


def test_dvfs_service_matches_golden_digest() -> None:
    """DVFS + failure injection: the sliced service run lands on the
    pinned batch digest and makes exactly the batch's frequency changes.

    The governor runs inside every scheduling pass, so a slice boundary
    that added, dropped or moved a pass would rescale a processor at a
    different time and shift both the digest and the adjustment count.
    """
    service = SchedulerService(
        dvfs_config(23, failures=True),
        _producer,
        max_queue=19,
        slice_len=13.7,
    )
    report = service.run()
    assert report.completed == NUM_TASKS
    assert report.failures_injected > 0
    expected_digest, expected_adjustments = DVFS_GOLDEN["dvfs+failures/seed23"]
    assert _digest(report.metrics) == expected_digest
    assert service.engine.scheduler.governor.adjustments == expected_adjustments


def test_slice_length_is_irrelevant() -> None:
    """Wildly different slicing yields the same bits (fcfs, seed 11)."""
    digests = set()
    for slice_len, max_queue in ((3.1, 7), (250.0, 5000), (40.0, 64)):
        service = SchedulerService(
            _config("fcfs", 11),
            _producer,
            max_queue=max_queue,
            slice_len=slice_len,
        )
        digests.add(_digest(service.run().metrics))
    assert digests == {GOLDEN_DIGESTS["fcfs/seed11"]}


def test_full_metrics_equality_not_just_digest() -> None:
    """Makespan and the digest components all match the batch run."""
    config = _config("fcfs", 47)
    batch = run_experiment(config).metrics
    service = SchedulerService(config, _producer, max_queue=17, slice_len=9.3)
    served = service.run().metrics
    assert served.makespan == batch.makespan
    assert served.avert == batch.avert
    assert served.ecs == batch.ecs
    assert served.success_rate == batch.success_rate
    assert served.num_tasks == batch.num_tasks


def _failure_config(scheduler: str = "fcfs", seed: int = 11) -> ExperimentConfig:
    return ExperimentConfig(
        scheduler=scheduler,
        seed=seed,
        num_tasks=NUM_TASKS,
        arrival_period=ARRIVAL_PERIOD,
        failure_mtbf=400.0,
        failure_mttr=60.0,
    )


class TestFailureInjectionParity:
    """Bitwise batch/service equality *with failure injection on*.

    The frontier-following injector draws every node's lifecycle from a
    per-node substream and fires transitions at absolute epochs, so the
    failure schedule — and the crash-resubmission accounting downstream
    of it — must be bit-identical no matter how the run is sliced, cut,
    or crash-resumed.
    """

    def test_service_matches_batch_bit_for_bit(self) -> None:
        config = _failure_config()
        batch = run_experiment(config)
        assert batch.scheduler.tasks_resubmitted > 0, (
            "failure model too mild: no node crash orphaned work, the "
            "parity claim would be vacuous"
        )
        service = SchedulerService(
            config, _producer, max_queue=19, slice_len=13.7
        )
        report = service.run()
        assert report.completed == NUM_TASKS
        assert report.failures_injected > 0
        assert report.tasks_resubmitted == batch.scheduler.tasks_resubmitted
        assert _digest(report.metrics) == _digest(batch.metrics)
        assert report.metrics.makespan == batch.metrics.makespan

    def test_slice_cut_is_irrelevant_under_failures(self) -> None:
        results = []
        for slice_len, max_queue in ((3.1, 7), (250.0, 5000)):
            service = SchedulerService(
                _failure_config(),
                _producer,
                max_queue=max_queue,
                slice_len=slice_len,
            )
            report = service.run()
            results.append(
                (
                    _digest(report.metrics),
                    report.failures_injected,
                    report.repairs_completed,
                    report.tasks_resubmitted,
                )
            )
        assert results[0] == results[1]
        assert results[0][1] > 0

    def test_crash_resume_lands_on_the_batch_bits(self, tmp_path) -> None:
        """kill -9 mid-stream, then --resume: the fresh engine re-derives
        the per-node failure substreams and replays the journaled
        admissions, landing on the exact batch digest — and the drained
        marker records the fault counters."""
        from repro.service.journal import AdmissionJournal

        config = _failure_config()
        batch = run_experiment(config)

        life1 = SchedulerService(
            config, _producer, max_queue=16,
            journal_dir=tmp_path, slice_len=10.0,
        )
        for _ in range(30):
            assert life1.step()
        assert life1.ingress.admitted > 0
        life1.journal.close()  # process dies; fsynced admits survive

        life2 = SchedulerService(
            config, _producer, max_queue=16,
            journal_dir=tmp_path, resume=True, slice_len=10.0,
        )
        report = life2.run()
        assert report.resumed
        assert report.completed == NUM_TASKS
        assert report.failures_injected > 0
        assert _digest(report.metrics) == _digest(batch.metrics)
        assert report.tasks_resubmitted == batch.scheduler.tasks_resubmitted

        state = AdmissionJournal.load(tmp_path)
        assert state.drained
        assert state.failures_injected == report.failures_injected
        assert state.repairs_completed == report.repairs_completed

    def test_parity_holds_under_strict_mode(self) -> None:
        """REPRO_STRICT semantics: the auditor rides along — including
        the orphans == resubmissions conservation leg — without
        perturbing the bits."""
        from repro.validate import set_strict, strict_mode_enabled

        config = _failure_config(seed=47)
        was = strict_mode_enabled()
        set_strict(True)
        try:
            batch = run_experiment(config)
            service = SchedulerService(
                config, _producer, max_queue=19, slice_len=13.7
            )
            report = service.run()
        finally:
            set_strict(was)
        assert service.engine.audit is not None
        assert service.engine.audit.violations == []
        assert report.failures_injected > 0
        assert _digest(report.metrics) == _digest(batch.metrics)


def test_parity_survives_crash_resume(tmp_path) -> None:
    """A mid-stream crash plus resume still lands on the golden bits.

    The resumed engine replays the journaled admissions from simulated
    time zero, so determinism is restored from the log alone.
    """
    config = _config("fcfs", 11)
    life1 = SchedulerService(
        config, _producer, max_queue=16, journal_dir=tmp_path, slice_len=10.0
    )
    for _ in range(30):
        assert life1.step()
    assert life1.ingress.admitted > 0
    life1.journal.close()  # process dies; fsynced admits survive

    life2 = SchedulerService(
        config,
        _producer,
        max_queue=16,
        journal_dir=tmp_path,
        resume=True,
        slice_len=10.0,
    )
    report = life2.run()
    assert report.resumed
    assert report.completed == NUM_TASKS
    assert _digest(report.metrics) == GOLDEN_DIGESTS["fcfs/seed11"]


#: Configs whose batch and sliced service runs are compared end to end:
#: an RL scheduler, a baseline, and DVFS with failure injection.
PARITY_CONFIGS = {
    "adaptive-rl/seed11": lambda: _config("adaptive-rl", 11),
    "fcfs/seed23": lambda: _config("fcfs", 23),
    "dvfs+failures/seed23": lambda: dvfs_config(23, failures=True),
}


def _batch_and_service(config: ExperimentConfig, **telemetry):
    """Run *config* in batch and as a sliced service, each observed by
    a fresh ``capture(**telemetry)``; returns both metrics and
    telemetries."""
    batch_tel = capture(**telemetry)
    batch = run_experiment(config, telemetry=batch_tel).metrics
    served_tel = capture(**telemetry)
    served = SchedulerService(
        config, _producer, max_queue=19, slice_len=13.7, telemetry=served_tel
    ).run().metrics
    return (batch, batch_tel), (served, served_tel)


@pytest.mark.parametrize("key", ["adaptive-rl/seed11", "fcfs/seed23"])
def test_batch_and_service_end_the_run_identically(key: str) -> None:
    """One endgame: the energy counters agree bit for bit, the seconds
    are the collected metrics' state times, and ``run.end`` matches."""
    (batch, batch_tel), (served, served_tel) = _batch_and_service(
        PARITY_CONFIGS[key]()
    )
    names = [n for n in batch_tel.metrics.names() if n.startswith("energy.")]
    assert names == [
        n for n in served_tel.metrics.names() if n.startswith("energy.")
    ]
    assert len(names) == 6
    for name in names:
        assert (
            served_tel.metrics.counter(name).value.hex()
            == batch_tel.metrics.counter(name).value.hex()
        ), name
    for metrics, tel in ((batch, batch_tel), (served, served_tel)):
        for state in ("busy", "idle", "sleep"):
            seconds = tel.metrics.counter(f"energy.seconds.{state}").value
            assert seconds == getattr(metrics.energy, f"{state}_time")
    (batch_end,) = batch_tel.trace.filter(category="run", name="end")
    (served_end,) = served_tel.trace.filter(category="run", name="end")
    assert served_end.t == batch_end.t
    assert served_end.fields == batch_end.fields


@pytest.mark.parametrize("key", sorted(PARITY_CONFIGS))
def test_flight_recorder_matches_batch(key: str) -> None:
    """The service records the batch run's samples, value for value.

    ``sim.events`` also counts the slices' stop-sentinels, and
    ``sim.events_per_sec`` is wall-clock, so those two are excluded.
    """
    (_, batch_tel), (_, served_tel) = _batch_and_service(
        PARITY_CONFIGS[key](),
        trace=False, metrics=False, series=True, sample_every=50.0,
    )
    skipped = {"sim.events", "sim.events_per_sec"}
    names = [n for n in batch_tel.series.names() if n not in skipped]
    assert "power.system" in names
    for name in names:
        ours, theirs = served_tel.series.get(name), batch_tel.series.get(name)
        assert ours.times().tolist() == theirs.times().tolist(), name
        assert ours.values().tolist() == theirs.values().tolist(), name


def test_service_sample_count_follows_the_cadence() -> None:
    config = PARITY_CONFIGS["fcfs/seed23"]()
    counts = []
    for every in (50.0, 500.0):
        tel = capture(trace=False, metrics=False, series=True, sample_every=every)
        SchedulerService(
            config, _producer, max_queue=19, slice_len=13.7, telemetry=tel
        ).run()
        times = tel.series.get("power.system").times().tolist()
        assert times == [every * (i + 1) for i in range(len(times))]
        counts.append(len(times))
    assert counts[0] > counts[1] > 0
