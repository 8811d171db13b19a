"""The kernel's calendar count stays exact on every insert and merge path.

``Environment`` counts its calendar entries instead of summing bucket
lengths, so ``queue_size`` and the metered ``sim.queue_depth`` gauge
are O(1) per event.  A Hypothesis test mixes every way an entry
enters the calendar (timeouts, ``schedule``, ``schedule_at``) with
processes, tick batches and ``run(until=...)`` slices, and checks the
count against a brute-force recount after every event, in each of the
three run loops.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, SeriesBank, Telemetry
from repro.sim import Environment
from repro.sim.events import NORMAL, URGENT, Event

#: Few distinct delays, so many entries share a fire time (and a bucket).
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5])

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("timeout"), DELAYS),
        st.tuples(
            st.just("schedule"),
            DELAYS,
            st.sampled_from([URGENT, NORMAL, NORMAL, NORMAL + 1]),
        ),
        st.tuples(st.just("at"), DELAYS),
        st.tuples(st.just("process"), st.lists(DELAYS, min_size=1, max_size=4)),
        st.tuples(st.just("ticks"), st.lists(DELAYS, min_size=1, max_size=5)),
        st.tuples(st.just("run"), DELAYS),
    ),
    max_size=40,
)


def recount(env: Environment) -> int:
    """Every pending entry, counted the slow way."""
    return (
        len(env._queue)
        + len(env._active)
        + len(env._urgent)
        + len(env._normal)
        + sum(len(bucket) for bucket in env._buckets.values())
        + sum(batch.remaining for batch in env._tick_batches)
    )


def check(env: Environment) -> None:
    assert env.queue_size == recount(env)


class RecountingGauge:
    """Stands in for the kernel's queue-depth gauge: checks each value
    the metered loop sets against a recount, then forwards it."""

    def __init__(self, env: Environment, gauge) -> None:
        self.env = env
        self.gauge = gauge
        self.recounts = []

    def set(self, value) -> None:
        expected = recount(self.env)
        assert value == expected
        check(self.env)
        self.recounts.append(expected)
        self.gauge.set(value)


def _telemetry(mode: str) -> Telemetry:
    if mode == "metered":
        return Telemetry(metrics=MetricsRegistry())
    if mode == "sampled":
        return Telemetry(series=SeriesBank())
    return Telemetry()


def drive(env: Environment, ops) -> None:
    """Apply *ops*, checking the count after each, then run dry."""

    def checked(event: Event) -> None:
        check(env)

    def proc(delays):
        for delay in delays:
            yield env.timeout(delay)
            check(env)

    for op in ops:
        kind = op[0]
        if kind == "timeout":
            env.timeout(op[1]).callbacks.append(checked)
        elif kind == "schedule":
            event = Event(env)
            event._value = None
            event.callbacks.append(checked)
            env.schedule(event, priority=op[2], delay=op[1])
        elif kind == "at":
            event = Event(env)
            event._value = None
            event.callbacks.append(checked)
            env.schedule_at(event, env.now + op[1])
        elif kind == "process":
            env.process(proc(op[1]))
        elif kind == "ticks":
            times = [env.now]
            for delay in op[1]:
                times.append(times[-1] + delay)
            env.schedule_ticks(times[1:])
        else:
            env.run(until=env.now + op[1])
        check(env)
    env.run()
    assert env.queue_size == recount(env) == 0


@pytest.mark.parametrize("mode", ["plain", "sampled", "metered"])
@settings(max_examples=100, deadline=None)
@given(ops=OPS)
def test_count_matches_recount_after_every_event(mode, ops):
    env = Environment(telemetry=_telemetry(mode))
    probe = None
    if mode == "metered":
        probe = RecountingGauge(env, env._g_queue)
        env._g_queue = probe
    drive(env, ops)
    if probe is not None:
        gauge = probe.gauge
        events = env.events_processed
        assert len(probe.recounts) == events
        assert gauge.value == (probe.recounts[-1] if events else 0.0)
        assert gauge.high == max(probe.recounts, default=0.0)


def test_shared_fire_time_merges_as_one_bucket():
    env = Environment(telemetry=_telemetry("metered"))
    for _ in range(5):
        env.timeout(2.0)
    env.schedule_at(Event(env), 2.0)
    assert env._calendar_len == 6 and len(env._buckets) == 1
    env.run(until=2.0)  # pops only the stop sentinel: six pending
    assert env.queue_size == 6
    env.run()  # one merge moves all six to the active ring
    assert env._calendar_len == 0
    gauge = env._g_queue
    assert (gauge.value, gauge.high) == (0, 6)
