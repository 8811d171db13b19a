"""The platform index equals its rescan at every learning cycle.

Small platforms (1–3 sites of 1–4 nodes, 1–4 queue slots) run 40–120
Adaptive-RL tasks, with failure injection and the DVFS governor each
drawn on or off, under an auditor that sweeps after every learning
cycle.  Each sweep holds every index to a rescan of the nodes (the
``platform-index`` invariant, which raises), and each agent's
observation to :func:`observe_site` over its site's nodes, bit for bit.
"""

from __future__ import annotations

from dataclasses import astuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PlatformSpec
from repro.core.state import observe_site
from repro.experiments import ExperimentConfig
from repro.experiments.runner import Run
from repro.validate import INV_INDEX, InvariantAuditor
from repro.workload import WorkloadGenerator


@st.composite
def small_runs(draw):
    num_tasks = draw(st.integers(min_value=40, max_value=120))
    nodes = draw(st.integers(min_value=1, max_value=4))
    platform = PlatformSpec(
        num_sites=draw(st.integers(min_value=1, max_value=3)),
        nodes_per_site=(1, nodes),
        procs_per_node=(1, 4),
        queue_slots=draw(st.integers(min_value=1, max_value=4)),
    )
    failures = (
        {"failure_mtbf": 400.0, "failure_mttr": 40.0}
        if draw(st.booleans())
        else {}
    )
    return ExperimentConfig(
        scheduler="adaptive-rl",
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        num_tasks=num_tasks,
        # Slow enough for one small processor to keep up.
        arrival_period=50.0 * num_tasks,
        platform=platform,
        scheduler_kwargs={"dvfs_enabled": draw(st.booleans())},
        **failures,
    )


def _bits(obs) -> tuple[str, ...]:
    return tuple(
        v.hex() if isinstance(v, float) else repr(v) for v in astuple(obs)
    )


@given(config=small_runs())
@settings(max_examples=20, deadline=None)
def test_index_matches_its_rescan_every_cycle(config):
    run = Run(config, strict=False)
    auditor = InvariantAuditor(
        run.env, run.system, run.scheduler, sweep_interval=1
    )
    agents = list(run.scheduler.agents.values())
    sweep = auditor.sweep
    observed = 0

    def sweep_and_observe(*, final=False):
        nonlocal observed
        sweep(final=final)
        for agent in agents:
            _, obs = agent.observe()
            reference = observe_site(
                agent.site.nodes, agent._max_power_w, agent._total_queue_slots
            )
            assert _bits(obs) == _bits(reference), agent.agent_id
            observed += 1

    auditor.sweep = sweep_and_observe
    run.admit(WorkloadGenerator(run.workload_spec(), run.streams).generate())
    result = run.drain()
    report = auditor.finalize()
    assert report.ok, report.summary()
    assert len(result.scheduler.completed) == config.num_tasks
    assert report.checks[INV_INDEX] >= report.sweeps
    assert observed == report.sweeps * len(agents)
