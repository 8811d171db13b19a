"""Unit tests for the columnar TaskStore and its Task view parity."""

import numpy as np
import pytest

from repro.workload import Priority, Task, TaskStore


def _spec(i):
    """A valid scalar task spec with index-dependent slack."""
    size = 600.0 + 50.0 * i
    act = size / 500.0
    arrival = 5.0 * i
    deadline = arrival + act * (1.0 + 0.15 * (i % 10))
    return dict(
        tid=i, size_mi=size, arrival_time=arrival, act=act, deadline=deadline
    )


class TestBulkScalarParity:
    def test_bulk_matches_sequential_constructions(self):
        specs = [_spec(i) for i in range(40)]
        scalar = [Task(**s) for s in specs]

        store = TaskStore()
        rows = store.bulk_append(
            [s["tid"] for s in specs],
            [s["size_mi"] for s in specs],
            [s["arrival_time"] for s in specs],
            [s["act"] for s in specs],
            [s["deadline"] for s in specs],
        )
        bulk = [Task._view(store, r) for r in range(rows.start, rows.stop)]

        assert len(bulk) == len(scalar)
        for a, b in zip(scalar, bulk):
            assert a == b  # spec-field equality, bit for bit
            assert a.priority is b.priority
            assert a.slack_fraction.hex() == b.slack_fraction.hex()
            assert b.start_time is None and b.finish_time is None
            assert not b.completed

    def test_explicit_priority_codes_skip_classification(self):
        store = TaskStore()
        rows = store.bulk_append(
            [0, 1],
            [600.0, 700.0],
            [0.0, 1.0],
            [1.2, 1.4],
            [1.0, 2.0],  # deadline < arrival + act: slack negative
            prio_code=[0, 2],
        )
        tasks = [Task._view(store, r) for r in range(rows.start, rows.stop)]
        assert tasks[0].priority is Priority.HIGH
        assert tasks[1].priority is Priority.LOW

    def test_zero_slack_boundary_classifies_high(self):
        store = TaskStore()
        store.bulk_append([0], [500.0], [10.0], [1.0], [11.0])
        assert Task._view(store, 0).priority is Priority.HIGH


class TestBulkValidation:
    def test_first_offending_row_raises_with_scalar_message(self):
        store = TaskStore()
        with pytest.raises(ValueError, match="task 2: size must be positive"):
            store.bulk_append(
                [0, 1, 2, 3],
                [600.0, 700.0, -1.0, 800.0],
                [0.0, 1.0, 2.0, 3.0],
                [1.0, 1.0, 1.0, -1.0],  # row 3 also bad, but row 2 is first
                [10.0, 11.0, 12.0, 13.0],
            )
        assert len(store) == 0  # nothing committed

    @pytest.mark.parametrize(
        "column,message",
        [
            (1, "task 2: size must be positive"),
            (3, "task 2: ACT must be positive"),
            (4, "task 2: deadline precedes arrival"),
            (2, "task 2: deadline precedes arrival"),
        ],
    )
    def test_nan_field_rejected_at_first_offending_row(self, column, message):
        """A NaN passes no comparison; the bulk checks fail it exactly
        as the scalar constructor does, at the first NaN row."""
        columns = [
            [0, 1, 2, 3],
            [600.0, 700.0, 800.0, 900.0],
            [0.0, 1.0, 2.0, 3.0],
            [1.0, 1.0, 1.0, 1.0],
            [10.0, 11.0, 12.0, 13.0],
        ]
        columns[column][2] = columns[column][3] = float("nan")
        store = TaskStore()
        with pytest.raises(ValueError, match=message):
            store.bulk_append(*columns)
        assert len(store) == 0

    def test_check_order_matches_scalar_constructor(self):
        # One row failing several checks reports them in the scalar
        # constructor's order: size, ACT, deadline, slack.
        store = TaskStore()
        with pytest.raises(ValueError, match="task 0: ACT must be positive"):
            store.bulk_append([0], [600.0], [5.0], [-2.0], [1.0])
        with pytest.raises(
            ValueError, match="task 0: deadline precedes arrival"
        ):
            store.bulk_append([0], [600.0], [5.0], [2.0], [1.0])
        with pytest.raises(ValueError, match="slack fraction"):
            store.bulk_append([0], [600.0], [5.0], [2.0], [6.0])

    def test_length_mismatch(self):
        store = TaskStore()
        with pytest.raises(ValueError, match="equal length"):
            store.bulk_append([0, 1], [600.0], [0.0], [1.0], [10.0])
        with pytest.raises(ValueError, match="equal length"):
            store.bulk_append(
                [0], [600.0], [0.0], [1.0], [10.0], prio_code=[0, 1]
            )


class TestViewLifetime:
    def test_views_survive_column_growth(self):
        store = TaskStore()
        row = store.append(0, 600.0, 0.0, 1.2, 10.0, 0)
        view = Task._view(store, row)
        before = view.size_mi
        # Force several growths past the initial capacity.
        for i in range(1, 200):
            s = _spec(i)
            store.append(
                s["tid"], s["size_mi"], s["arrival_time"], s["act"],
                s["deadline"], 0,
            )
        assert view.size_mi == before  # row survived reallocation
        view.mark_started(1.0, "p0", "site0")
        view.mark_finished(2.0)
        assert view.completed and view.finish_time == 2.0

    def test_execution_record_round_trip(self):
        store = TaskStore()
        row = store.append(7, 600.0, 1.0, 1.2, 10.0, 1)
        t = Task._view(store, row)
        assert t.tid == 7 and isinstance(t.tid, int)
        t.mark_started(2.0, "site0.node0.p1", "site0")
        assert t.processor_id == "site0.node0.p1"
        assert t.site_id == "site0"
        t.reset_execution()
        assert t.start_time is None and t.processor_id is None
        t.mark_started(3.0, "p", "s")
        t.mark_finished(4.5)
        assert t.waiting_time == 2.0
        assert t.response_time == 3.5
        assert isinstance(t.met_deadline, bool) and t.met_deadline
