"""Unit tests for the Task model (Eq. 1, Eq. 3)."""

import pytest

from repro.workload import Priority, Task


def make_task(**overrides):
    params = dict(tid=1, size_mi=5000.0, arrival_time=10.0, act=10.0, deadline=25.0)
    params.update(overrides)
    return Task(**params)


class TestSpec:
    def test_priority_derived_from_slack(self):
        # rel deadline 15, act 10 → slack 0.5 → medium
        assert make_task().priority is Priority.MEDIUM

    def test_high_priority(self):
        t = make_task(deadline=21.0)  # slack 0.1
        assert t.priority is Priority.HIGH

    def test_low_priority(self):
        t = make_task(deadline=30.0)  # slack 1.0
        assert t.priority is Priority.LOW

    def test_relative_deadline_and_slack(self):
        t = make_task()
        assert t.relative_deadline == 15.0
        assert t.slack_fraction == pytest.approx(0.5)

    def test_execution_time_eq3(self):
        t = make_task()
        assert t.execution_time_on(1000.0) == pytest.approx(5.0)

    def test_execution_time_invalid_speed(self):
        with pytest.raises(ValueError):
            make_task().execution_time_on(0)

    @pytest.mark.parametrize(
        "field,value",
        [("size_mi", 0), ("size_mi", -5), ("act", 0), ("deadline", 5.0)],
    )
    def test_invalid_spec_rejected(self, field, value):
        with pytest.raises(ValueError):
            make_task(**{field: value})

    @pytest.mark.parametrize(
        "field,message",
        [
            ("size_mi", "task 1: size must be positive"),
            ("act", "task 1: ACT must be positive"),
            ("deadline", "task 1: deadline precedes arrival"),
            ("arrival_time", "task 1: deadline precedes arrival"),
        ],
    )
    def test_nan_field_rejected(self, field, message):
        with pytest.raises(ValueError, match=message):
            make_task(**{field: float("nan")})


class TestExecutionRecord:
    def test_lifecycle(self):
        t = make_task()
        assert not t.completed
        t.mark_started(12.0, "p0", "site0")
        assert t.waiting_time == pytest.approx(2.0)
        t.mark_finished(20.0)
        assert t.completed
        assert t.response_time == pytest.approx(10.0)
        assert t.met_deadline
        assert t.processor_id == "p0"
        assert t.site_id == "site0"

    def test_missed_deadline(self):
        t = make_task()
        t.mark_started(12.0, "p0", "s0")
        t.mark_finished(26.0)
        assert not t.met_deadline

    def test_deadline_met_at_exact_boundary(self):
        t = make_task()
        t.mark_started(12.0, "p0", "s0")
        t.mark_finished(25.0)
        assert t.met_deadline

    def test_double_start_rejected(self):
        t = make_task()
        t.mark_started(12.0, "p0", "s0")
        with pytest.raises(RuntimeError):
            t.mark_started(13.0, "p1", "s0")

    def test_finish_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            make_task().mark_finished(20.0)

    def test_double_finish_rejected(self):
        t = make_task()
        t.mark_started(12.0, "p0", "s0")
        t.mark_finished(20.0)
        with pytest.raises(RuntimeError):
            t.mark_finished(21.0)

    def test_start_before_arrival_rejected(self):
        with pytest.raises(ValueError):
            make_task().mark_started(5.0, "p0", "s0")

    def test_finish_before_start_rejected(self):
        t = make_task()
        t.mark_started(12.0, "p0", "s0")
        with pytest.raises(ValueError):
            t.mark_finished(11.0)

    def test_metrics_unavailable_before_events(self):
        t = make_task()
        with pytest.raises(ValueError):
            _ = t.waiting_time
        with pytest.raises(ValueError):
            _ = t.response_time
        with pytest.raises(ValueError):
            _ = t.met_deadline
