"""Unit tests for columnar tick batches."""

import numpy as np
import pytest

from repro.obs import capture
from repro.sim import EmptySchedule, Environment


class TestScheduleTicksValidation:
    def test_rejects_empty_and_bad_shapes(self):
        env = Environment()
        with pytest.raises(ValueError, match="at least one"):
            env.schedule_ticks([])
        with pytest.raises(ValueError, match="1-D"):
            env.schedule_ticks([[1.0, 2.0]])
        with pytest.raises(ValueError, match="finite"):
            env.schedule_ticks([1.0, float("inf")])
        with pytest.raises(ValueError, match="non-decreasing"):
            env.schedule_ticks([2.0, 1.0])

    def test_rejects_past_ticks(self):
        env = Environment()
        env.timeout(10.0)
        env.run()
        with pytest.raises(ValueError, match="before the current"):
            env.schedule_ticks([5.0])

    def test_input_array_is_copied(self):
        env = Environment()
        times = np.array([1.0, 2.0])
        batch = env.schedule_ticks(times)
        times[0] = 99.0
        assert batch.times[0] == 1.0


class TestTickDraining:
    def test_pure_ticks_advance_clock_to_last(self):
        env = Environment()
        env.schedule_ticks(np.linspace(0.0, 50.0, 101))
        env.run()
        assert env.now == 50.0

    def test_ticks_interleave_with_timeouts(self):
        env = Environment()
        env.schedule_ticks([1.0, 2.0, 3.0, 4.0])
        seen = []
        env.timeout(2.5).callbacks.append(lambda e: seen.append(env.now))
        env.timeout(5.0).callbacks.append(lambda e: seen.append(env.now))
        env.run()
        assert seen == [2.5, 5.0]
        assert env.now == 5.0

    def test_queue_size_and_peek_see_pending_ticks(self):
        env = Environment()
        env.schedule_ticks([3.0, 4.0])
        env.timeout(5.0)
        assert env.queue_size == 3
        assert env.peek() == 3.0

    def test_run_until_fences_same_time_ticks(self):
        # The stop sentinel outranks NORMAL ticks at its own time, so
        # run(until=t) returns with ticks at exactly t still pending.
        env = Environment()
        env.schedule_ticks([1.0, 2.0, 3.0])
        env.run(until=2.0)
        assert env.now == 2.0
        assert env.queue_size == 2  # ticks at 2.0 and 3.0 unconsumed

    def test_step_pops_single_ticks(self):
        env = Environment()
        env.schedule_ticks([1.0, 2.0])
        env.step()
        assert env.now == 1.0
        assert env.queue_size == 1
        env.step()
        assert env.now == 2.0
        with pytest.raises(EmptySchedule):
            env.step()

    def test_same_time_insertion_order_ties(self):
        # A timeout scheduled before the batch wins the time tie; one
        # scheduled after loses it.  Observable through step(): the
        # first step must fire the earlier-inserted source.
        env = Environment()
        first = env.timeout(1.0)
        env.schedule_ticks([1.0])
        env.step()
        assert first.processed
        env.step()
        assert env.queue_size == 0

        env2 = Environment()
        batch = env2.schedule_ticks([1.0])
        late = env2.timeout(1.0)
        env2.step()
        assert batch.remaining == 0
        assert not late.processed

    def test_two_batches_interleave_by_head(self):
        env = Environment()
        a = env.schedule_ticks([1.0, 4.0])
        b = env.schedule_ticks([2.0, 3.0])
        env.step()
        assert (a.remaining, b.remaining) == (1, 2)  # a's 1.0 fired
        env.step()
        assert (a.remaining, b.remaining) == (1, 1)  # b's 2.0 fired
        env.run()
        assert env.now == 4.0

    def test_counter_loop_counts_drained_ticks(self):
        tel = capture(trace=False, metrics=True)
        env = Environment(telemetry=tel)
        env.schedule_ticks(np.linspace(0.0, 100.0, 101))
        env.timeout(50.5)
        env.run()
        assert tel.metrics.get("sim.events_processed").value == 102

    def test_chunked_drain_matches_event_order(self):
        # Many ticks cut into chunks by interleaved timeouts: the clock
        # at each timeout callback reflects every earlier tick drained.
        env = Environment()
        env.schedule_ticks(np.linspace(0.0, 10.0, 1001))
        order = []
        for at in (2.55, 7.05):
            env.timeout(at).callbacks.append(
                lambda e, at=at: order.append((at, env.now))
            )
        env.run()
        assert order == [(2.55, 2.55), (7.05, 7.05)]
        assert env.now == 10.0
