"""What a finished run keeps alive.

An idle worker waits on ``get | timeout | policy change``, and the
waits subscribed to a node's next policy change live until the sleep
policy changes, which Adaptive-RL never does.  Unless a fired wait left
the subscription list, every fired wait would stay on it, holding the
worker's task and through it every task group of the run.  With the
release the list holds at most the one live wait of each processor.

A node crash parks its workers, and their abandoned waits fire nothing
more: none of them stays subscribed while the node is down, or a policy
change would still hold them (and wake nothing).
"""

from __future__ import annotations

import pytest

from repro.cluster import ComputeNode
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment

from .test_golden_seeds import (
    ARRIVAL_PERIOD,
    GOLDEN_DIGESTS,
    NUM_TASKS,
    SCENARIO_GOLDEN,
    SCENARIOS,
    _digest_payload,
    _kernel_config,
)


def _policy_waits(system) -> dict[str, tuple[int, int]]:
    """Per node: (waits subscribed to its next policy change,
    processors)."""
    return {
        node.node_id: (len(node._policy_waits), len(node.processors))
        for node in system.nodes
    }


def test_policy_events_hold_at_most_one_wait_per_processor() -> None:
    result = run_experiment(_kernel_config())
    assert _digest_payload(result.metrics)[0] == GOLDEN_DIGESTS[
        "adaptive-rl/seed11"
    ]
    held = _policy_waits(result.system)
    assert all(waits <= procs for waits, procs in held.values()), held


def test_crashed_workers_leave_no_wait_on_the_policy_event(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Every worker of a down node is parked: count the node's
    # subscribed waits just before each repair.
    held_while_down: list[int] = []
    repair = ComputeNode.repair

    def counted_repair(node: ComputeNode) -> None:
        held_while_down.append(len(node._policy_waits))
        repair(node)

    monkeypatch.setattr(ComputeNode, "repair", counted_repair)
    config = ExperimentConfig(
        scheduler="adaptive-rl",
        seed=11,
        num_tasks=NUM_TASKS,
        arrival_period=ARRIVAL_PERIOD,
        **SCENARIOS["failures"],
    )
    result = run_experiment(config)
    assert _digest_payload(result.metrics)[0] == SCENARIO_GOLDEN[
        "failures/seed11"
    ]
    assert sum(node.failures for node in result.system.nodes) > 0
    assert held_while_down and not any(held_while_down)
    held = _policy_waits(result.system)
    assert all(waits <= procs for waits, procs in held.values()), held
