"""The simulation runs on Python scalars, never NumPy ones.

Task fields and meter cells are plain lists of Python floats and ints
(:mod:`repro.sim.columnar`), so the clock, every timestamp and every
energy accumulator stay Python floats.  A NumPy scalar that leaks into
that path — an ndarray cell read, say — turns the clock into a
``numpy.float64`` for the rest of the run and makes every later event
slower without moving a single result bit, so no digest notices it.
These runs check the types instead: the clock at every completion and
at the end, every task field, and every meter cell.
"""

from __future__ import annotations

import pytest

from repro.core.base import Scheduler
from repro.energy.meter import BANK
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.service import SchedulerService
from repro.sim.rng import RandomStreams
from repro.workload.generator import WorkloadGenerator

from .test_golden_seeds import ARRIVAL_PERIOD, NUM_TASKS, dvfs_config

TASK_FLOATS = (
    "size_mi",
    "arrival_time",
    "act",
    "deadline",
    "start_time",
    "finish_time",
    "waiting_time",
    "response_time",
)
METER_FLOATS = (
    "since",
    "busy_time",
    "idle_time",
    "sleep_time",
    "busy_energy",
    "idle_energy",
    "sleep_energy",
    "power_override",
    "finalized_at",
    "p_busy",
    "p_idle",
    "p_sleep",
)


@pytest.fixture
def clock_types(monkeypatch):
    """The clock's type at every task completion, in delivery order."""
    seen: list[type] = []
    orig = Scheduler._task_completed

    def spy(self, task, node):
        seen.append(type(self.env.now))
        orig(self, task, node)

    monkeypatch.setattr(Scheduler, "_task_completed", spy)
    return seen


def _assert_python_scalars(env, tasks, processors, clock_types) -> None:
    assert clock_types and set(clock_types) == {float}
    assert type(env.now) is float
    for task in tasks:
        assert type(task.tid) is int
        for name in TASK_FLOATS:
            value = getattr(task, name)
            assert type(value) is float, (task.tid, name, type(value))
    rows = [p.meter._row for p in processors]
    for row in rows:
        assert type(BANK.state[row]) is int
        for name in METER_FLOATS:
            value = getattr(BANK, name)[row]
            assert type(value) is float, (row, name, type(value))


def test_batch_run_keeps_python_scalars(clock_types):
    result = run_experiment(
        ExperimentConfig(
            scheduler="adaptive-rl",
            seed=11,
            num_tasks=NUM_TASKS,
            arrival_period=ARRIVAL_PERIOD,
        )
    )
    sched = result.scheduler
    assert len(sched.completed) == NUM_TASKS
    _assert_python_scalars(
        sched.env, sched.completed, result.system.processors, clock_types
    )


def test_sliced_service_run_keeps_python_scalars(clock_types):
    service = SchedulerService(
        dvfs_config(23, failures=True),
        lambda engine: WorkloadGenerator(
            engine.workload_spec(), RandomStreams(engine.config.seed)
        ).iter_tasks(),
        max_queue=19,
        slice_len=13.7,
    )
    report = service.run()
    assert report.completed == NUM_TASKS
    engine = service.engine
    _assert_python_scalars(
        engine.env,
        engine.scheduler.completed,
        engine.system.processors,
        clock_types,
    )
