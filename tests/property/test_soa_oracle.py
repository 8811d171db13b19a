"""Columnar-vs-oracle equivalence: the SoA refactor changes no bits.

The oracle rebuilds every generated task through the scalar
constructor — ``Task(tid, size_mi, arrival_time, act, deadline)``, a
row of its own in the scratch store, its priority re-derived by
``classify_slack`` — instead of keeping the generator's columnar
``TaskStore.bulk_append`` views.  These properties drive the *same*
experiment config through both paths and require equality at every
completion — task state, queue depth, and the running energy
accumulator — not just at the end of the run, so an ordering or
accumulation divergence anywhere in the hot loop fails loudly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PlatformSpec
from repro.core.base import Scheduler
from repro.experiments import ExperimentConfig, run_experiment
from repro.workload.generator import WorkloadGenerator
from repro.workload.task import _SCRATCH, Task


_columnar_generate = WorkloadGenerator.generate


def scalar_generate(self):
    """``WorkloadGenerator.generate`` through the scalar constructor."""
    return [
        Task(t.tid, t.size_mi, t.arrival_time, t.act, t.deadline)
        for t in _columnar_generate(self)
    ]


@st.composite
def small_configs(draw):
    scheduler = draw(st.sampled_from(["adaptive-rl", "edf", "fcfs"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_tasks = draw(st.integers(min_value=5, max_value=40))
    platform = PlatformSpec(
        num_sites=draw(st.integers(min_value=1, max_value=2)),
        nodes_per_site=(1, 2),
        procs_per_node=(2, 4),
    )
    return ExperimentConfig(
        scheduler=scheduler,
        seed=seed,
        num_tasks=num_tasks,
        arrival_period=draw(st.sampled_from([100.0, 400.0])),
        platform=platform,
    )


def _run_traced(config, oracle: bool, strict=None):
    """Run *config*, recording a per-completion state snapshot.

    The spy shadows ``Scheduler._task_completed`` at class level so it
    sees every completion in delivery order, before the scheduler
    reacts — capturing task execution record, platform queue depth,
    busy count, and the ``ECS`` energy accumulator at that instant.
    """
    trace = []
    orig = Scheduler._task_completed

    def spy(self, task, node):
        trace.append(
            (
                task.tid,
                task.size_mi.hex(),
                task.arrival_time.hex(),
                task.deadline.hex(),
                int(task.priority),
                task.start_time.hex(),
                task.finish_time.hex(),
                task.processor_id,
                task.site_id,
                bool(task.met_deadline),
                self.env.now.hex(),
                sum(n.pending_tasks for n in self.system.nodes),
                self.system.busy_processors(),
                self.system.energy(self.env.now).ecs.hex(),
            )
        )
        orig(self, task, node)

    generated = []

    def spy_generate(self):
        tasks = scalar_generate(self) if oracle else _columnar_generate(self)
        generated.extend(tasks)
        return tasks

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WorkloadGenerator, "generate", spy_generate)
        mp.setattr(Scheduler, "_task_completed", spy)
        result = run_experiment(config, strict=strict)
    # The substitution took effect: every oracle task is a scalar
    # construction, a row of the scratch store, and no columnar one is.
    assert len(generated) == config.num_tasks
    assert all((t._store is _SCRATCH) == oracle for t in generated)
    digest = (
        result.metrics.avert.hex(),
        result.metrics.ecs.hex(),
        float(result.metrics.success_rate).hex(),
        result.metrics.makespan.hex(),
    )
    return trace, digest


class TestColumnarOracleEquivalence:
    @given(config=small_configs())
    @settings(max_examples=10, deadline=None)
    def test_bit_identical_at_every_completion(self, config):
        columnar_trace, columnar_digest = _run_traced(config, oracle=False)
        oracle_trace, oracle_digest = _run_traced(config, oracle=True)

        assert len(columnar_trace) == config.num_tasks
        # Every completion event matches field-for-field, bit-for-bit,
        # in the same delivery order.
        assert columnar_trace == oracle_trace
        assert columnar_digest == oracle_digest


#: Cases Hypothesis drew above while a node's worker ran the task
#: callbacks before ``group.task_done()``: the spy's ``pending_tasks``
#: read cached a count one too high and marked it clean, which the
#: strict auditor reports as ``queue-bound``.  ``(seed, tasks, period)``.
STALE_PENDING_CASES = [(40, 14, 400.0), (0, 24, 100.0)]


class TestPendingCacheAfterCompletion:
    @pytest.mark.parametrize("seed,num_tasks,period", STALE_PENDING_CASES)
    def test_callback_reads_leave_no_stale_cache(self, seed, num_tasks, period):
        config = ExperimentConfig(
            scheduler="adaptive-rl",
            seed=seed,
            num_tasks=num_tasks,
            arrival_period=period,
            platform=PlatformSpec(
                num_sites=1, nodes_per_site=(1, 2), procs_per_node=(2, 4)
            ),
        )
        trace, _ = _run_traced(config, oracle=False, strict=True)
        assert len(trace) == num_tasks
