"""Group-committed admission journal: durability points and crash tails.

Admission lines are written unsynced and made durable in groups, so
these tests pin the two points where durability is owed — before a task
reaches the scheduler, and before ``SchedulerService.submit`` returns —
and show that a crash cutting the unsynced tail anywhere still resumes
to exactly-once admission and the batch digest.
"""

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.service import AdmissionJournal, AdmissionRejected, SchedulerService
from repro.service.ingress import IngressQueue
from repro.service.journal import JOURNAL_FILENAME
from repro.workload.task import Task
from repro.workload.traces import record_to_task

from .test_parity import _digest, _producer

NUM_TASKS = 120


def _config() -> ExperimentConfig:
    return ExperimentConfig(
        scheduler="fcfs", seed=5, num_tasks=NUM_TASKS, arrival_period=400.0
    )


def _service(journal_dir, **kwargs) -> SchedulerService:
    params = dict(max_queue=16, slice_len=10.0, pump_batch=8)
    params.update(kwargs)
    return SchedulerService(
        _config(), _producer, journal_dir=journal_dir, **params
    )


@contextmanager
def recording_fsyncs():
    """Patch ``os.fsync`` to record each synced file's size: the length
    of its durable prefix at that moment."""
    sizes = []
    real_fsync = os.fsync

    def fsync(fd):
        real_fsync(fd)
        sizes.append(os.fstat(fd).st_size)

    with mock.patch("os.fsync", fsync):
        yield sizes


def _admitted_tids(data: bytes) -> list:
    return [
        record_to_task(entry["task"]).tid
        for entry in map(json.loads, data.splitlines())
        if entry.get("ev") == "admit"
    ]


class TestDurabilityPoints:
    def test_no_task_is_simulated_before_its_admit_is_durable(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        submitted = []
        with recording_fsyncs() as synced:
            service = _service(tmp_path)
            scheduler = service.engine.scheduler
            submit = scheduler.submit

            def checked_submit(task):
                durable = path.read_bytes()[: synced[-1]]
                assert task.tid in _admitted_tids(durable), (
                    f"task {task.tid} reached the scheduler before its "
                    "admit line was fsynced"
                )
                submitted.append(task.tid)
                return submit(task)

            scheduler.submit = checked_submit
            report = service.run()
        assert report.completed == NUM_TASKS
        assert sorted(set(submitted)) == list(range(NUM_TASKS))

    def test_submit_acks_only_durable_decisions(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        service = SchedulerService(
            _config(), None, journal_dir=tmp_path, max_queue=2,
            policy="reject",
        )
        producer = _producer(service.engine)
        with recording_fsyncs() as synced:
            for _ in range(3):
                try:
                    service.submit(next(producer), block=False)
                except AdmissionRejected:
                    pass  # the third: queue-full
                # Everything decided so far is on disk and fsynced.
                assert synced and synced[-1] == path.stat().st_size
        state = AdmissionJournal.load(tmp_path)
        assert (state.admitted, state.rejected) == (2, 1)
        service.journal.close()

    def test_fsyncs_are_bounded_by_slices(self, tmp_path):
        with recording_fsyncs() as synced:
            service = _service(tmp_path)
            advance = service.engine.advance
            slices = []

            def counted_advance(*args, **kwargs):
                slices.append(1)
                return advance(*args, **kwargs)

            service.engine.advance = counted_advance
            report = service.run()
        assert report.admitted == NUM_TASKS
        # One per slice, plus the header, the drain's pops and the
        # drained marker — not one per admission.
        assert len(synced) <= len(slices) + 3
        assert len(slices) + 3 < NUM_TASKS


def test_threaded_submitters_and_pops_keep_the_journal_whole(tmp_path):
    """Producer threads write admits while the consumer pops (and so
    syncs): every popped task's admit is already durable, and the
    journal ends whole and complete."""
    path = tmp_path / JOURNAL_FILENAME
    journal = AdmissionJournal(tmp_path).open_fresh(seed=1, config={})
    ingress = IngressQueue(max_queue=8, journal=journal)
    threads, per_thread = 4, 50
    total = threads * per_thread

    def produce(k):
        for i in range(per_thread):
            tid = k * per_thread + i
            task = Task(
                tid=tid, size_mi=1.0, arrival_time=0.0, act=1.0, deadline=2.0
            )
            assert ingress.submit(task, timeout=30.0)

    popped = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with recording_fsyncs() as synced:
            workers = [
                threading.Thread(target=produce, args=(k,), daemon=True)
                for k in range(threads)
            ]
            for worker in workers:
                worker.start()
            deadline = time.monotonic() + 60.0
            while len(popped) < total and time.monotonic() < deadline:
                task = ingress.pop_next(float("inf"))
                if task is None:
                    time.sleep(0.0001)
                    continue
                durable = path.read_bytes()[: synced[-1]]
                assert task.tid in _admitted_tids(durable)
                popped.append(task.tid)
            for worker in workers:
                worker.join(timeout=10.0)
                assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    journal.close()
    assert sorted(popped) == list(range(total))
    state = AdmissionJournal.load(tmp_path)
    assert state.admitted == total
    assert sorted(t.tid for t in state.pending_tasks) == list(range(total))


@pytest.fixture(scope="module")
def crashed_journal(tmp_path_factory):
    """A journal as a crash would find it: the fsynced prefix plus an
    unsynced tail of several admit lines.

    Returns ``(data, durable)``: the full journal bytes had every write
    reached the disk, and the length of the fsynced prefix."""
    journal_dir = tmp_path_factory.mktemp("life1")
    with recording_fsyncs() as synced:
        life1 = _service(journal_dir, max_queue=64, pump_batch=10)
        for _ in range(5):
            assert life1.step()
        life1._pump()  # admits written, not yet synced by a pop
        durable = synced[-1]
    life1.journal._writer._fh.flush()
    data = (journal_dir / JOURNAL_FILENAME).read_bytes()
    life1.journal.close()  # the bytes above are the crash image
    assert data.count(b"\n", durable) == 10, "expected an unsynced tail"
    return data, durable


@pytest.fixture(scope="module")
def batch_digest():
    return _digest(run_experiment(_config()).metrics)


def _check_cut(journal_dir, data: bytes, cut: int, batch_digest) -> None:
    """Crash with the journal cut at *cut*, resume, and check the
    resumed run admitted every producer task exactly once."""
    journal_dir.mkdir(exist_ok=True)
    path = journal_dir / JOURNAL_FILENAME
    path.write_bytes(data[:cut])
    report = _service(journal_dir, resume=True).run()
    assert report.resumed
    assert sorted(_admitted_tids(path.read_bytes())) == list(
        range(NUM_TASKS)
    ), cut
    state = AdmissionJournal.load(journal_dir)
    assert state.drained and state.admitted == NUM_TASKS
    assert report.completed == NUM_TASKS
    assert _digest(report.metrics) == batch_digest, cut


def test_every_line_boundary_of_the_tail_resumes_exactly_once(
    tmp_path, crashed_journal, batch_digest
):
    data, durable = crashed_journal
    ends = [durable] + [
        i + 1 for i in range(durable, len(data)) if data[i] == ord("\n")
    ]
    cuts = sorted(
        {c for end in ends for c in (end - 1, end, end + 1)
         if durable <= c <= len(data)}
    )
    for cut in cuts:
        _check_cut(tmp_path / f"cut{cut}", data, cut, batch_digest)


@settings(max_examples=15, deadline=None)
@given(draw=st.data())
def test_any_cut_in_the_unsynced_tail_resumes_exactly_once(
    tmp_path_factory, crashed_journal, batch_digest, draw
):
    data, durable = crashed_journal
    cut = draw.draw(st.integers(min_value=durable, max_value=len(data)))
    _check_cut(tmp_path_factory.mktemp("cut"), data, cut, batch_digest)
