"""Engine tests: serial/parallel record equality, retries, validation.

These spawn real worker processes; grids stay tiny (see conftest).
"""

import threading

import pytest

from repro.experiments.config import grid
from repro.parallel import (
    CheckpointJournal,
    RetryBudgetExceeded,
    run_parallel,
)

from .conftest import comparable, small_grid


class TestRecordEquality:
    @pytest.fixture(scope="class")
    def parallel_result(self, tmp_path_factory):
        ck = tmp_path_factory.mktemp("pool") / "ck"
        return run_parallel(small_grid(), jobs=2, checkpoint_dir=ck)

    def test_matches_serial_records(self, parallel_result, serial_records):
        assert [
            comparable(r) for r in parallel_result.records
        ] == serial_records

    def test_every_job_executed_once(self, parallel_result):
        assert len(parallel_result.executed) == len(small_grid())
        assert parallel_result.skipped == ()
        assert parallel_result.retries == 0

    def test_journal_complete(self, parallel_result):
        state = CheckpointJournal.load(parallel_result.journal_path)
        assert len(state.completed) == len(small_grid())
        assert state.interrupted_jobs == set()


class TestSubmissionOrder:
    def test_longest_first_records_in_grid_order(self):
        configs = grid(["fcfs", "edf"], [10, 30, 20], [1])
        finished = []
        # One worker completes jobs in the order they were submitted.
        result = run_parallel(configs, jobs=1, on_record=finished.append)

        def key(record):
            return record["config_scheduler"], record["num_tasks"]

        assert [key(r) for r in finished] == [
            ("fcfs", 30), ("edf", 30), ("fcfs", 20), ("edf", 20),
            ("fcfs", 10), ("edf", 10),
        ]
        assert [key(r) for r in result.records] == [
            (c.scheduler, c.num_tasks) for c in configs
        ]


class TestWithoutCheckpoint:
    def test_runs_and_returns_records(self, serial_records):
        result = run_parallel(small_grid()[:2], jobs=2)
        assert [comparable(r) for r in result.records] == serial_records[:2]
        assert result.journal_path is None
        assert result.series_path is None


class TestShutdown:
    def test_no_thread_outlives_the_call(self):
        """A completed campaign joins its pool before returning: a
        manager thread left running races the interpreter's exit
        handler for its wakeup pipe."""
        before = set(threading.enumerate())
        run_parallel(grid(["fcfs"], [10, 20, 30], [1]), jobs=2)
        assert set(threading.enumerate()) == before


class TestRetries:
    def test_transient_failure_retried(self, serial_records):
        result = run_parallel(
            small_grid()[:2],
            jobs=2,
            backoff_base=0.01,
            _fault_spec={0: ("raise", 1)},
        )
        assert result.retries == 1
        assert [comparable(r) for r in result.records] == serial_records[:2]

    def test_dead_worker_recovered(self, serial_records):
        result = run_parallel(
            small_grid()[:2],
            jobs=2,
            backoff_base=0.01,
            _fault_spec={0: ("exit", 1)},
        )
        # The pool break is unattributable, so surviving in-flight jobs
        # may also count a retry — but every record must still arrive.
        assert result.retries >= 1
        assert [comparable(r) for r in result.records] == serial_records[:2]

    def test_budget_exhaustion_raises(self, tmp_path):
        with pytest.raises(RetryBudgetExceeded):
            run_parallel(
                small_grid()[:2],
                jobs=2,
                max_retries=1,
                backoff_base=0.01,
                _fault_spec={1: ("raise", 10)},
            )

    def test_failures_journaled(self, tmp_path):
        ck = tmp_path / "ck"
        run_parallel(
            small_grid()[:2],
            jobs=2,
            checkpoint_dir=ck,
            backoff_base=0.01,
            _fault_spec={0: ("raise", 1)},
        )
        state = CheckpointJournal.load(ck / "journal.jsonl")
        assert sum(state.failures.values()) == 1
        assert len(state.completed) == 2


class TestValidation:
    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="resume"):
            run_parallel(small_grid(), resume=True)

    @pytest.mark.parametrize("every", [float("nan"), float("inf")])
    def test_sample_every_must_be_positive_and_finite(self, tmp_path, every):
        with pytest.raises(ValueError, match="sample_every"):
            run_parallel(
                small_grid(), checkpoint_dir=tmp_path, sample_every=every
            )

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_parallel(small_grid(), jobs=0)
