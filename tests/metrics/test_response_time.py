"""Unit tests for response-time metrics (Eq. 4)."""

import numpy as np
import pytest

from repro.metrics import average_response_time, summarize_response_times
from repro.metrics.response_time import summarize_samples
from repro.workload import Task


def completed_task(tid, arrival, start, finish):
    t = Task(tid=tid, size_mi=100.0, arrival_time=arrival, act=1.0, deadline=arrival + 100)
    t.mark_started(start, "p", "s")
    t.mark_finished(finish)
    return t


class TestAverageResponseTime:
    def test_eq4_mean_of_wait_plus_execution(self):
        tasks = [
            completed_task(1, arrival=0.0, start=2.0, finish=5.0),   # RT 5
            completed_task(2, arrival=1.0, start=1.0, finish=10.0),  # RT 9
        ]
        assert average_response_time(tasks) == pytest.approx(7.0)

    def test_ignores_incomplete(self):
        done = completed_task(1, 0.0, 0.0, 4.0)
        pending = Task(tid=2, size_mi=100.0, arrival_time=0.0, act=1.0, deadline=10.0)
        assert average_response_time([done, pending]) == pytest.approx(4.0)

    def test_empty_is_zero(self):
        assert average_response_time([]) == 0.0


class TestSummary:
    def test_summary_fields(self):
        tasks = [
            completed_task(i, arrival=0.0, start=float(i), finish=float(i) + 10.0)
            for i in range(10)
        ]
        s = summarize_response_times(tasks)
        assert s.count == 10
        assert s.mean == pytest.approx(sum(i + 10 for i in range(10)) / 10)
        assert s.maximum == pytest.approx(19.0)
        assert s.mean_wait == pytest.approx(4.5)
        assert s.mean_execution == pytest.approx(10.0)
        assert s.median <= s.p95 <= s.maximum

    def test_empty_summary(self):
        s = summarize_response_times([])
        assert s.count == 0
        assert s.mean == 0.0

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
    @pytest.mark.parametrize("ties", [False, True])
    def test_median_and_p95_equal_numpy_bit_for_bit(self, scale, ties):
        """One sort with NumPy's ``linear`` rule written out, so the
        result equals ``np.median`` and ``np.percentile`` exactly."""
        rng = np.random.default_rng(7)
        for n in range(1, 160):
            rts = rng.exponential(scale, n)
            if ties:
                rts = np.round(rts / scale, 1) * scale
            s = summarize_samples(rts.tolist(), (rts / 2).tolist())
            expected = (np.median(rts), np.percentile(rts, 95), rts.max())
            assert [v.hex() for v in (s.median, s.p95, s.maximum)] == [
                float(v).hex() for v in expected
            ], n
