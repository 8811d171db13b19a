"""What a finished run keeps alive.

An idle worker waits on ``get_ev | timeout | policy_changed``.  The
node's policy event lives until the sleep policy changes, which
Adaptive-RL never does.  Unless a triggered condition released its
constituents, every fired wait would stay on that event, holding the
processed ``StoreGet`` and through it every task group of the run (904
callbacks for 193 processors on the pin run below).  With the release
the event holds at most the one live wait of each processor.

A node crash interrupts its workers and cancels their store requests.
A worker that was waiting on ``get_ev | policy_changed`` (asleep, or
idle without sleep gating) releases that wait, since nothing but a
policy change could fire it any more.
"""

from __future__ import annotations

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
    """Per node: (callbacks on its policy event, processors)."""
    return {
        node.node_id: (len(node._policy_event.callbacks), len(node.processors))
        for node in system.nodes
    }


def test_policy_events_hold_at_most_one_wait_per_processor() -> None:
    result = run_experiment(_kernel_config())
    assert _digest_payload(result.metrics)[0] == GOLDEN_DIGESTS[
        "adaptive-rl/seed11"
    ]
    held = _policy_waits(result.system)
    assert all(waits <= procs for waits, procs in held.values()), held


def test_crashed_workers_leave_no_wait_on_the_policy_event() -> None:
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
    held = _policy_waits(result.system)
    assert all(waits <= procs for waits, procs in held.values()), held
