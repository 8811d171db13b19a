"""AdmissionJournal: durability, torn tails, exactly-once replay state."""

import json

import pytest

from repro.service import AdmissionJournal, ServiceJournalError
from repro.service.journal import JOURNAL_FILENAME
from repro.workload.task import Task


def make_task(tid: int, arrival: float = 0.0) -> Task:
    return Task(
        tid=tid,
        size_mi=100.0,
        arrival_time=arrival,
        act=10.0,
        deadline=arrival + 11.0,
    )


def fresh_journal(directory) -> AdmissionJournal:
    return AdmissionJournal(directory).open_fresh(
        seed=7, config={"scheduler": "fcfs"}
    )


class TestRoundTrip:
    def test_admits_come_back_as_pending(self, tmp_path):
        with fresh_journal(tmp_path) as j:
            j.write_admit(0, make_task(10, 1.0))
            j.write_admit(1, make_task(11, 2.0))
        state = AdmissionJournal.load(tmp_path)
        assert state.seed == 7
        assert state.config == {"scheduler": "fcfs"}
        assert [t.tid for t in state.pending_tasks] == [10, 11]
        assert state.pending_tasks[0] == make_task(10, 1.0)
        assert state.consumed == 2
        assert not state.drained

    def test_shed_cancels_its_admit(self, tmp_path):
        with fresh_journal(tmp_path) as j:
            j.write_admit(0, make_task(10, 1.0))
            j.write_admit(1, make_task(11, 2.0))
            j.write_shed(10)
        state = AdmissionJournal.load(tmp_path)
        assert [t.tid for t in state.pending_tasks] == [11]
        assert state.shed == 1
        assert state.consumed == 2  # shed input was still consumed

    def test_reject_counts_as_consumed_not_pending(self, tmp_path):
        with fresh_journal(tmp_path) as j:
            j.write_admit(0, make_task(10, 1.0))
            j.write_reject(99)
        state = AdmissionJournal.load(tmp_path)
        assert [t.tid for t in state.pending_tasks] == [10]
        assert state.rejected == 1
        assert state.consumed == 2

    def test_drained_marker_empties_pending(self, tmp_path):
        with fresh_journal(tmp_path) as j:
            j.write_admit(0, make_task(10, 1.0))
            j.write_drained(admitted=1, completed=1)
        state = AdmissionJournal.load(tmp_path)
        assert state.drained
        assert state.completed == 1
        assert state.pending_tasks == []

    def test_resume_marker_counted(self, tmp_path):
        with fresh_journal(tmp_path) as j:
            j.write_admit(0, make_task(10, 1.0))
        AdmissionJournal(tmp_path).open_resume(recovered=1).close()
        state = AdmissionJournal.load(tmp_path)
        assert state.resumes == 1
        assert [t.tid for t in state.pending_tasks] == [10]


class TestCrashSafety:
    def test_torn_final_line_is_dropped(self, tmp_path):
        with fresh_journal(tmp_path) as j:
            j.write_admit(0, make_task(10, 1.0))
            j.write_admit(1, make_task(11, 2.0))
        path = tmp_path / JOURNAL_FILENAME
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"ev":"admit","seq":2,"task":{"tid":12,')  # torn
        state = AdmissionJournal.load(tmp_path)
        assert [t.tid for t in state.pending_tasks] == [10, 11]

    @pytest.mark.parametrize(
        "tail",
        ['{"ev":"admit","seq":2,"task":{"tid":12,', '{"ev":"reject","tid":12}'],
        ids=["torn", "unterminated"],
    )
    def test_resume_after_torn_tail_appends_cleanly(self, tmp_path, tail):
        with fresh_journal(tmp_path) as j:
            j.write_admit(0, make_task(10, 1.0))
            j.write_admit(1, make_task(11, 2.0))
        path = tmp_path / JOURNAL_FILENAME
        with path.open("a", encoding="utf-8") as fh:
            fh.write(tail)  # a crash's last write, without its newline
        state = AdmissionJournal.load(tmp_path)
        with AdmissionJournal(tmp_path).open_resume(
            len(state.pending_tasks)
        ) as j:
            j.write_admit(state.admitted, make_task(13, 3.0))
        state = AdmissionJournal.load(tmp_path)
        assert [t.tid for t in state.pending_tasks] == [10, 11, 13]
        assert state.resumes == 1
        # A whole final line that only lacked its newline is kept.
        assert state.rejected == (1 if tail.endswith("}") else 0)

    def test_mid_file_corruption_raises(self, tmp_path):
        with fresh_journal(tmp_path) as j:
            j.write_admit(0, make_task(10, 1.0))
            j.write_admit(1, make_task(11, 2.0))
        path = tmp_path / JOURNAL_FILENAME
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-5]  # corrupt a non-final line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServiceJournalError, match="malformed"):
            AdmissionJournal.load(tmp_path)


class TestGroupCommit:
    def test_decisions_are_durable_only_after_sync(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        j = fresh_journal(tmp_path)
        header = path.read_bytes()
        assert header.endswith(b"\n")  # the header is synced on open
        j.write_admit(0, make_task(10, 1.0))
        j.write_shed(10)
        j.write_reject(11)
        assert path.read_bytes() == header
        j.sync()
        state = AdmissionJournal.load(tmp_path)
        assert (state.admitted, state.shed, state.rejected) == (1, 1, 1)
        j.close()

    def test_markers_sync_before_returning(self, tmp_path):
        j = fresh_journal(tmp_path)
        j.write_admit(0, make_task(10, 1.0))
        j.write_drained(admitted=1, completed=1)
        # Read while the journal is still open: nothing is buffered.
        state = AdmissionJournal.load(tmp_path)
        assert state.drained and state.admitted == 1
        j.close()


class TestInvariants:
    def test_missing_journal(self, tmp_path):
        with pytest.raises(ServiceJournalError, match="no admission journal"):
            AdmissionJournal.load(tmp_path)
        assert not AdmissionJournal.exists(tmp_path)

    def test_seq_gap_refused(self, tmp_path):
        with fresh_journal(tmp_path) as j:
            j.write_admit(0, make_task(10, 1.0))
            j.write_admit(2, make_task(11, 2.0))  # gap: 1 skipped
            j.write_admit(3, make_task(12, 3.0))  # pad so the gap is not a torn tail
        with pytest.raises(ServiceJournalError, match="contiguous"):
            AdmissionJournal.load(tmp_path)

    def test_missing_header_refused(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        record = {"ev": "admit", "seq": 0, "task": {"tid": 1}}
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ServiceJournalError, match="header"):
            AdmissionJournal.load(tmp_path)

    def test_wrong_version_refused(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        path.write_text(
            '{"ev":"service","version":99,"seed":1,"config":{}}\n'
            '{"ev":"reject","tid":1}\n'
        )
        with pytest.raises(ServiceJournalError, match="version"):
            AdmissionJournal.load(tmp_path)

    def test_shed_of_unknown_tid_refused(self, tmp_path):
        with fresh_journal(tmp_path) as j:
            j.write_shed(404)
            j.write_reject(1)  # pad: the shed must not look like a torn tail
        with pytest.raises(ServiceJournalError, match="unknown tid"):
            AdmissionJournal.load(tmp_path)

    def test_unknown_event_refused(self, tmp_path):
        with fresh_journal(tmp_path) as j:
            j._writer.append({"ev": "mystery"})
            j.write_reject(1)
        with pytest.raises(ServiceJournalError, match="unknown journal event"):
            AdmissionJournal.load(tmp_path)

    def test_resume_without_journal_refused(self, tmp_path):
        with pytest.raises(ServiceJournalError, match="cannot resume"):
            AdmissionJournal(tmp_path).open_resume(recovered=0)
