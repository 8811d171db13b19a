"""What a finished run keeps alive.

An idle worker waits on ``get_ev | timeout | policy_changed``.  The
node's policy event lives until the sleep policy changes, which
Adaptive-RL never does.  Unless a triggered condition released its
constituents, every fired wait would stay on that event, holding the
processed ``StoreGet`` and through it every task group of the run (904
callbacks for 193 processors on the pin run below).  With the release
the event holds at most the one live wait of each processor.
"""

from __future__ import annotations

from repro.experiments.runner import run_experiment

from .test_golden_seeds import GOLDEN_DIGESTS, _digest_payload, _kernel_config


def test_policy_events_hold_at_most_one_wait_per_processor() -> None:
    result = run_experiment(_kernel_config())
    assert _digest_payload(result.metrics)[0] == GOLDEN_DIGESTS[
        "adaptive-rl/seed11"
    ]
    held = {
        node.node_id: (len(node._policy_event.callbacks), len(node.processors))
        for node in result.system.nodes
    }
    assert all(waits <= procs for waits, procs in held.values()), held
