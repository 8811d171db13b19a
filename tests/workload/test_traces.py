"""Unit tests for trace record/replay."""

import json

import numpy as np
import pytest

from repro.sim import RandomStreams
from repro.workload import (
    Task,
    WorkloadGenerator,
    WorkloadSpec,
    load_trace,
    records_to_tasks,
    save_trace,
    trace_to_records,
)


@pytest.fixture
def tasks():
    spec = WorkloadSpec(num_tasks=25)
    return WorkloadGenerator(spec, RandomStreams(seed=11)).generate()


class TestRoundTrip:
    def test_save_load_round_trip(self, tasks, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(tasks, path)
        loaded = load_trace(path)
        assert len(loaded) == len(tasks)
        for orig, back in zip(tasks, loaded):
            assert back.tid == orig.tid
            assert back.size_mi == pytest.approx(orig.size_mi)
            assert back.arrival_time == pytest.approx(orig.arrival_time)
            assert back.deadline == pytest.approx(orig.deadline)
            assert back.priority is orig.priority

    def test_loaded_tasks_are_unexecuted(self, tasks, tmp_path):
        tasks[0].mark_started(tasks[0].arrival_time + 1, "p", "s")
        path = tmp_path / "trace.json"
        save_trace(tasks, path)
        loaded = load_trace(path)
        assert loaded[0].start_time is None

    def test_records_only_contain_spec(self, tasks):
        record = trace_to_records(tasks)[0]
        assert set(record) == {
            "tid",
            "size_mi",
            "arrival_time",
            "act",
            "deadline",
            "priority",
        }

    def test_priority_mismatch_detected(self, tasks):
        records = trace_to_records(tasks)
        records[0]["priority"] = "nonsense"
        with pytest.raises(ValueError, match="priority"):
            records_to_tasks(records)

    def test_version_check(self, tasks, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(tasks, path)
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_trace(path)


class TestJsonlTraces:
    def test_jsonl_round_trip_is_bit_exact(self, tasks, tmp_path):
        from repro.workload.traces import iter_trace_jsonl, save_trace_jsonl

        path = tmp_path / "trace.jsonl"
        assert save_trace_jsonl(tasks, path) == len(tasks)
        replayed = list(iter_trace_jsonl(path))
        assert len(replayed) == len(tasks)
        for orig, back in zip(tasks, replayed):
            assert back.tid == orig.tid
            assert back.size_mi == orig.size_mi          # bit-exact
            assert back.arrival_time == orig.arrival_time
            assert back.act == orig.act
            assert back.deadline == orig.deadline
            assert back.priority is orig.priority
            assert back.start_time is None

    def test_iteration_is_lazy(self, tasks, tmp_path):
        from repro.workload.traces import iter_trace_jsonl, save_trace_jsonl

        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(tasks, path)
        stream = iter_trace_jsonl(path)
        first = next(stream)
        assert first.tid == tasks[0].tid
        # Corrupt the untouched remainder: a non-lazy reader would
        # already have parsed (and choked on) it.
        second = next(stream)
        assert second.tid == tasks[1].tid
        stream.close()

    def test_malformed_line_reports_line_number(self, tasks, tmp_path):
        from repro.workload.traces import iter_trace_jsonl, save_trace_jsonl

        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(tasks[:3], path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-4]  # truncate mid-record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"trace\.jsonl:2"):
            list(iter_trace_jsonl(path))

    def test_blank_lines_are_skipped(self, tasks, tmp_path):
        from repro.workload.traces import iter_trace_jsonl, save_trace_jsonl

        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(tasks[:2], path)
        with path.open("a", encoding="utf-8") as fh:
            fh.write("\n   \n")
        assert [t.tid for t in iter_trace_jsonl(path)] == [
            tasks[0].tid,
            tasks[1].tid,
        ]


class TestRecordErrors:
    """Malformed records must fail with a ValueError naming the source
    (file and line when available), never a bare KeyError."""

    def _write_jsonl(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_missing_field_names_file_line_and_field(self, tasks, tmp_path):
        from repro.workload.traces import (
            _task_record,
            iter_trace_jsonl,
        )

        records = [_task_record(t) for t in tasks[:3]]
        del records[1]["deadline"]
        path = self._write_jsonl(tmp_path, records)
        with pytest.raises(ValueError, match=r"trace\.jsonl:2.*'deadline'"):
            list(iter_trace_jsonl(path))

    def test_missing_field_is_not_a_keyerror(self, tasks):
        from repro.workload.traces import _task_record

        record = _task_record(tasks[0])
        del record["size_mi"]
        with pytest.raises(ValueError, match="size_mi"):
            records_to_tasks([record])

    def test_non_numeric_field_names_source(self, tasks, tmp_path):
        from repro.workload.traces import _task_record, iter_trace_jsonl

        records = [_task_record(t) for t in tasks[:2]]
        records[1]["arrival_time"] = "soon"
        path = self._write_jsonl(tmp_path, records)
        with pytest.raises(ValueError, match=r"trace\.jsonl:2"):
            list(iter_trace_jsonl(path))

    def test_nan_size_rejected_on_load(self, tasks, tmp_path):
        """Python's json reads ``NaN``; the record must fail where it is
        loaded, not as a start-before-arrival error deep in a run."""
        path = tmp_path / "trace.json"
        save_trace(tasks, path)
        payload = json.loads(path.read_text())
        payload["tasks"][3]["size_mi"] = float("nan")
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="size must be positive"):
            load_trace(path)

    def test_batch_errors_name_record_index(self, tasks):
        from repro.workload.traces import _task_record

        records = [_task_record(t) for t in tasks[:5]]
        del records[3]["act"]
        with pytest.raises(ValueError, match=r"#3.*'act'"):
            records_to_tasks(records, where="memory")


class TestSoARoundTrip:
    """Traces must round-trip columnar (``Task._view``) tasks exactly —
    the SoA refactor made views the common case for generated and SWF
    workloads alike."""

    def _stream_tasks(self, seed=11, n=40, **overrides):
        from repro.workload import WorkloadGenerator, WorkloadSpec
        from repro.sim import RandomStreams

        spec = WorkloadSpec(num_tasks=n, **overrides)
        return list(WorkloadGenerator(spec, RandomStreams(seed=seed)).iter_tasks())

    def test_view_tasks_round_trip_bit_exact(self, tmp_path):
        from repro.workload.task import _SCRATCH
        from repro.workload.traces import iter_trace_jsonl, save_trace_jsonl

        streamed = self._stream_tasks()
        # Generated tasks are views onto the generator's bulk store, not
        # scalar tasks in the shared scratch store.
        assert all(t._store is not _SCRATCH for t in streamed)
        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(streamed, path)
        for orig, back in zip(streamed, iter_trace_jsonl(path)):
            assert back.tid == orig.tid
            assert back.size_mi.hex() == orig.size_mi.hex()
            assert back.arrival_time.hex() == orig.arrival_time.hex()
            assert back.act.hex() == orig.act.hex()
            assert back.deadline.hex() == orig.deadline.hex()
            assert back.priority is orig.priority

    def test_view_tasks_round_trip_json_document(self, tmp_path, tasks):
        from repro.workload.traces import save_trace

        streamed = self._stream_tasks()
        path = tmp_path / "trace.json"
        save_trace(streamed, path)
        loaded = load_trace(path)
        assert [t.priority for t in loaded] == [t.priority for t in streamed]
        assert [t.deadline for t in loaded] == [t.deadline for t in streamed]

    def test_slack_band_boundaries_preserve_priority(self, tmp_path):
        """Deadlines sitting exactly on the HIGH/LOW slack cutoffs must
        classify identically after a save/load cycle."""
        from repro.workload.priorities import (
            HIGH_SLACK_MAX,
            LOW_SLACK_MIN,
            MAX_SLACK,
        )
        from repro.workload.taskstore import TaskStore
        from repro.workload.traces import iter_trace_jsonl, save_trace_jsonl

        slacks = [0.0, HIGH_SLACK_MAX, LOW_SLACK_MIN, MAX_SLACK]
        store = TaskStore()
        act = 10.0
        rows = store.bulk_append(
            list(range(1, len(slacks) + 1)),
            np.full(len(slacks), act * 500.0),
            np.arange(len(slacks), dtype=float),
            np.full(len(slacks), act),
            np.array([i + act * (1.0 + s) for i, s in enumerate(slacks)]),
        )
        boundary = [Task._view(store, r) for r in range(rows.start, rows.stop)]
        labels = [t.priority for t in boundary]
        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(boundary, path)
        replayed = list(iter_trace_jsonl(path))
        assert [t.priority for t in replayed] == labels
        assert [t.deadline.hex() for t in replayed] == [
            t.deadline.hex() for t in boundary
        ]

    def test_round_trip_under_scalar_oracle(self, tmp_path):
        """The same tasks rebuilt through the scalar constructor (rows
        of the scratch store, priorities from ``classify_slack``) must
        write the very same bytes as the columnar views."""
        from repro.workload.task import _SCRATCH, Task
        from repro.workload.traces import save_trace_jsonl

        columnar = self._stream_tasks()
        columnar_path = tmp_path / "columnar.jsonl"
        save_trace_jsonl(columnar, columnar_path)

        oracle = [
            Task(t.tid, t.size_mi, t.arrival_time, t.act, t.deadline)
            for t in self._stream_tasks()
        ]
        assert all(t._store is _SCRATCH for t in oracle)
        assert all(t._store is not _SCRATCH for t in columnar)
        oracle_path = tmp_path / "oracle.jsonl"
        save_trace_jsonl(oracle, oracle_path)
        assert oracle_path.read_bytes() == columnar_path.read_bytes()
