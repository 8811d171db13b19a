"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.cluster import PlatformSpec, SleepPolicy, build_system
from repro.sim import Environment, RandomStreams
from repro.workload import WorkloadGenerator, WorkloadSpec


@pytest.fixture(scope="session", autouse=True)
def strict_mode_from_env():
    """``REPRO_STRICT=1 pytest`` runs every ``run_experiment`` in the
    suite under the invariant auditor (see docs/architecture.md,
    "Strict mode").  Violations raise, failing the responsible test."""
    from repro.validate import set_strict, strict_mode_enabled

    if os.environ.get("REPRO_STRICT"):
        set_strict(strict_mode_enabled())
        yield
        set_strict(None)
    else:
        yield


@pytest.fixture
def dict_qtables(monkeypatch):
    """Build Adaptive-RL's tabular models over the dict ``QTable``.

    The dense Q table is bit-identical to the dict reference; a test
    that proves it substitutes the reference here and passes each run's
    result to the returned check, so a substitution that missed its
    target fails instead of comparing the dense table with itself.
    """
    from repro.core import value_models
    from repro.rl.qlearning import QTable

    def dict_table(actions, alpha, gamma):
        return QTable(alpha=alpha, gamma=gamma)

    monkeypatch.setattr(value_models, "DenseQTable", dict_table)

    def check(result) -> None:
        agents = result.scheduler.agents.values()
        assert agents
        assert all(type(a.value_model.table) is QTable for a in agents)

    return check


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(seed=1234)


@pytest.fixture
def small_platform_spec() -> PlatformSpec:
    """Tiny deterministic platform: 2 sites × 2–3 nodes × 4 procs."""
    return PlatformSpec(
        num_sites=2,
        nodes_per_site=(2, 3),
        procs_per_node=(4, 4),
    )


@pytest.fixture
def small_system(env, streams, small_platform_spec):
    return build_system(env, small_platform_spec, streams)


@pytest.fixture
def no_sleep_system(env, streams):
    spec = PlatformSpec(
        num_sites=2,
        nodes_per_site=(2, 2),
        procs_per_node=(4, 4),
        sleep_policy=SleepPolicy(allow_sleep=False),
    )
    return build_system(env, spec, streams)


@pytest.fixture
def small_workload(streams):
    """Small task list at the paper's literal scale (fast to execute)."""
    spec = WorkloadSpec(num_tasks=40, mean_interarrival=2.0)
    return WorkloadGenerator(spec, streams).generate()
