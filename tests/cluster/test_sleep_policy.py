"""Sleep timings that would stall a run are rejected when the policy is
built, including from JSON, which carries NaN through."""

import json
import math

import pytest

from repro.cluster import ComputeNode, Processor, SleepPolicy
from repro.energy import ProcState, constant_power_profile


def test_nan_idle_timeout_is_rejected():
    # The idle timer would fire at time NaN: an Adaptive-RL run of 200
    # tasks on the default platform completed none and stalled.
    with pytest.raises(ValueError, match="idle_timeout"):
        SleepPolicy(True, idle_timeout=math.nan)


def test_nan_wake_latency_is_rejected():
    # The usage tally could not convert the NaN wake time.
    with pytest.raises(ValueError, match="wake_latency"):
        SleepPolicy(True, wake_latency=math.nan)


def test_infinite_wake_latency_is_rejected():
    # A woken processor would never run its task: the run stalled.
    with pytest.raises(ValueError, match="wake_latency"):
        SleepPolicy(True, wake_latency=math.inf)


def test_json_round_trip_rejects_nan():
    text = json.dumps(dict(SleepPolicy().to_dict(), idle_timeout=math.nan))
    with pytest.raises(ValueError, match="idle_timeout"):
        SleepPolicy.from_dict(json.loads(text))


def test_infinite_idle_timeout_never_gates(env):
    proc = Processor("p", 1000.0, constant_power_profile())
    ComputeNode(env, "n", "s", [proc], sleep_policy=SleepPolicy(True, math.inf))
    env.run(until=1e6)
    assert proc.state is ProcState.IDLE
