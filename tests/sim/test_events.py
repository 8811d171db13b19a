"""Unit tests for the event primitives."""

import pytest

from repro.obs import MetricsRegistry, Telemetry
from repro.sim import AllOf, AnyOf, Environment, Event, Timeout
from repro.sim.events import ConditionValue


class TestEventLifecycle:
    def test_new_event_is_pending(self, env):
        e = Event(env)
        assert not e.triggered
        assert not e.processed

    def test_value_unavailable_before_trigger(self, env):
        e = Event(env)
        with pytest.raises(AttributeError):
            _ = e.value
        with pytest.raises(AttributeError):
            _ = e.ok

    def test_succeed_sets_value(self, env):
        e = Event(env)
        e.succeed(42)
        assert e.triggered
        assert e.ok
        assert e.value == 42

    def test_succeed_twice_raises(self, env):
        e = Event(env)
        e.succeed()
        with pytest.raises(RuntimeError):
            e.succeed()

    def test_fail_requires_exception(self, env):
        e = Event(env)
        with pytest.raises(TypeError):
            e.fail("not an exception")

    def test_fail_sets_exception_value(self, env):
        e = Event(env)
        exc = ValueError("boom")
        e.fail(exc)
        assert e.triggered
        assert not e.ok
        assert e.value is exc

    def test_processed_after_run(self, env):
        e = Event(env)
        e.succeed("x")
        env.run()
        assert e.processed

    def test_callbacks_receive_event(self, env):
        e = Event(env)
        seen = []
        e.callbacks.append(seen.append)
        e.succeed()
        env.run()
        assert seen == [e]

    def test_unhandled_failure_propagates_from_run(self, env):
        e = Event(env)
        e.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_defused_failure_does_not_propagate(self, env):
        e = Event(env)
        e.fail(RuntimeError("handled"))
        e.defused = True
        env.run()  # no raise


class TestTimeout:
    def test_fires_after_delay(self, env):
        t = env.timeout(5, value="done")
        result = env.run(until=t)
        assert result == "done"
        assert env.now == 5

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_zero_delay_fires_at_current_time(self, env):
        t = env.timeout(0)
        env.run(until=t)
        assert env.now == 0

    def test_delay_property(self, env):
        assert env.timeout(3.5).delay == 3.5

    def test_timeouts_fire_in_order(self, env):
        order = []
        for d in (3, 1, 2):
            ev = env.timeout(d, value=d)
            ev.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == [1, 2, 3]


class TestConditions:
    def test_any_of_triggers_on_first(self, env):
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(5, value="slow")
        result = env.run(until=AnyOf(env, [t1, t2]))
        assert env.now == 1
        assert t1 in result
        assert t2 not in result

    def test_all_of_waits_for_all(self, env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(5, value="b")
        result = env.run(until=AllOf(env, [t1, t2]))
        assert env.now == 5
        assert result[t1] == "a"
        assert result[t2] == "b"

    def test_or_operator(self, env):
        t1, t2 = env.timeout(1), env.timeout(2)
        env.run(until=t1 | t2)
        assert env.now == 1

    def test_and_operator(self, env):
        t1, t2 = env.timeout(1), env.timeout(2)
        env.run(until=t1 & t2)
        assert env.now == 2

    def test_empty_any_of_triggers_immediately(self, env):
        cond = AnyOf(env, [])
        env.run(until=cond)
        assert cond.triggered

    def test_empty_all_of_triggers_immediately(self, env):
        cond = AllOf(env, [])
        env.run(until=cond)
        assert cond.triggered

    def test_failed_constituent_fails_condition(self, env):
        t = env.timeout(10)
        bad = Event(env)
        bad.fail(ValueError("inner"))
        cond = AnyOf(env, [t, bad])
        with pytest.raises(ValueError, match="inner"):
            env.run(until=cond)

    def test_condition_over_already_processed_event(self, env):
        t = env.timeout(1, value="early")
        env.run(until=t)
        cond = AnyOf(env, [t])
        env.run(until=cond)
        assert cond.triggered

    def test_cross_environment_rejected(self, env):
        other = Environment()
        t1 = env.timeout(1)
        t2 = other.timeout(1)
        with pytest.raises(ValueError):
            AnyOf(env, [t1, t2])

    def test_nested_conditions_flatten_values(self, env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(1, value="b")
        t3 = env.timeout(1, value="c")
        result = env.run(until=(t1 | t2) & t3)
        assert result[t3] == "c"


class TestConditionRelease:
    """A triggered condition drops its check from the constituents still
    waiting, so a long-lived event does not keep fired conditions (and
    what their values reach) alive."""

    def test_fired_condition_leaves_no_check_on_the_others(self, env):
        fast, slow, never = env.timeout(1), env.timeout(5), Event(env)
        cond = AnyOf(env, [fast, slow, never])
        env.run(until=cond)
        assert cond.ok
        assert slow.callbacks == [] and never.callbacks == []

    def test_failed_constituent_releases_the_checks(self, env):
        waiting, bad = Event(env), Event(env)
        cond = AnyOf(env, [waiting, bad])
        bad.fail(ValueError("inner"))
        with pytest.raises(ValueError, match="inner"):
            env.run(until=cond)
        assert not cond.ok
        assert waiting.callbacks == []

    def test_nested_condition_keeps_its_checks(self):
        env = Environment(telemetry=Telemetry(metrics=MetricsRegistry()))
        never, late, early = Event(env), env.timeout(5), env.timeout(1)
        inner = never | late
        outer = inner | early
        env.run(until=outer)
        assert env.now == 1
        # The outer condition let go of the inner one, which still
        # waits on its own constituents...
        assert inner.callbacks == [] and late.callbacks == [inner._check]
        env.run()
        # ...and fires when one of them does.
        assert inner.processed and inner.ok and late in inner.value
        assert never.callbacks == []
        # early, outer, late, inner: as many events as before the rule.
        assert env.events_processed == 4

    def test_condition_over_a_processed_event_subscribes_to_nothing(self, env):
        done = env.timeout(1)
        env.run(until=done)
        before, after = Event(env), env.timeout(3)
        cond = AnyOf(env, [before, done, after])
        assert cond.triggered
        assert before.callbacks == [] and after.callbacks == []
        env.run()
        assert done in cond.value


class TestConditionValue:
    def test_mapping_protocol(self, env):
        t1 = env.timeout(1, value="x")
        t2 = env.timeout(1, value="y")
        result = env.run(until=AllOf(env, [t1, t2]))
        assert isinstance(result, ConditionValue)
        assert len(result) == 2
        assert list(result.keys()) == [t1, t2]
        assert list(result.values()) == ["x", "y"]
        assert dict(result.items()) == {t1: "x", t2: "y"}
        assert result == {t1: "x", t2: "y"}

    def test_missing_key_raises(self, env):
        t1 = env.timeout(1)
        other = env.timeout(2)
        result = env.run(until=AllOf(env, [t1]))
        with pytest.raises(KeyError):
            result[other]
