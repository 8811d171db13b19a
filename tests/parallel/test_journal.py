"""Unit tests for the JSONL checkpoint journal."""

import json

import pytest

from repro.parallel import CheckpointJournal, JournalError


def write_journal(path, *, fresh=True):
    return CheckpointJournal(path).open(fresh=fresh)


class TestRoundTrip:
    def test_full_lifecycle(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with write_journal(path) as j:
            j.write_header("camp", ["a1", "b2"], total=2)
            j.write_start("a1", attempt=1)
            j.write_done("a1", attempt=1, record={"avert": 1.0, "seed": 1})
            j.write_start("b2", attempt=1)
            j.write_fail("b2", attempt=1, error="boom")
            j.write_start("b2", attempt=2)
            j.write_done("b2", attempt=2, record={"avert": 2.0, "seed": 2})
        state = CheckpointJournal.load(path)
        assert state.header["name"] == "camp"
        assert state.header["total"] == 2
        assert state.completed == {
            "a1": {"avert": 1.0, "seed": 1},
            "b2": {"avert": 2.0, "seed": 2},
        }
        assert state.failures == {"b2": 1}
        assert state.interrupted_jobs == set()

    def test_interrupted_job_detected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with write_journal(path) as j:
            j.write_header("camp", ["a1", "b2"], total=2)
            j.write_start("a1", attempt=1)
            j.write_done("a1", attempt=1, record={})
            j.write_start("b2", attempt=1)  # never finished
        state = CheckpointJournal.load(path)
        assert state.interrupted_jobs == {"b2"}

    def test_append_preserves_history(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with write_journal(path) as j:
            j.write_header("camp", ["a1"], total=1)
            j.write_start("a1", attempt=1)
            j.write_done("a1", attempt=1, record={"seed": 1})
        with write_journal(path, fresh=False) as j:
            j.write_resume(pending=0)
        state = CheckpointJournal.load(path)
        assert state.completed == {"a1": {"seed": 1}}


    @pytest.mark.parametrize(
        "tail",
        ['{"ev": "do', '{"ev":"start","job":"b2","attempt":1}'],
        ids=["torn", "unterminated"],
    )
    def test_resume_after_torn_tail(self, tmp_path, tail):
        path = tmp_path / "journal.jsonl"
        with write_journal(path) as j:
            j.write_header("camp", ["a1", "b2"], total=2)
            j.write_start("a1", attempt=1)
            j.write_done("a1", attempt=1, record={"seed": 1})
        with path.open("a", encoding="utf-8") as fh:
            fh.write(tail)  # the crash's last write, without its newline
        CheckpointJournal.load(path)
        with write_journal(path, fresh=False) as j:
            j.write_resume(pending=1)
            j.write_start("b2", attempt=2)
            j.write_done("b2", attempt=2, record={"seed": 2})
        state = CheckpointJournal.load(path)
        assert state.completed == {"a1": {"seed": 1}, "b2": {"seed": 2}}
        assert state.started["b2"] == 2


class TestCorruption:
    def _valid_lines(self):
        return [
            json.dumps({"ev": "campaign", "version": 1, "name": "c",
                        "total": 1, "job_ids": ["a1"]}),
            json.dumps({"ev": "done", "job": "a1", "attempt": 1,
                        "record": {"seed": 1}}),
        ]

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("\n".join(self._valid_lines()) + '\n{"ev": "do')
        state = CheckpointJournal.load(path)
        assert state.completed == {"a1": {"seed": 1}}

    def test_mid_file_corruption_rejected(self, tmp_path):
        lines = self._valid_lines()
        lines.insert(1, "{garbage")
        path = tmp_path / "journal.jsonl"
        path.write_text("\n".join(lines))
        with pytest.raises(JournalError, match="malformed"):
            CheckpointJournal.load(path)

    def test_unknown_event_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            json.dumps({"ev": "mystery"}) + "\n" + self._valid_lines()[1] + "\n"
        )
        with pytest.raises(JournalError, match="unknown journal event"):
            CheckpointJournal.load(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            json.dumps({"ev": "campaign", "version": 99}) + "\n"
            + self._valid_lines()[1] + "\n"
        )
        with pytest.raises(JournalError, match="version"):
            CheckpointJournal.load(path)

    def test_write_requires_open(self, tmp_path):
        j = CheckpointJournal(tmp_path / "journal.jsonl")
        with pytest.raises(JournalError, match="not open"):
            j.write_start("a1", attempt=1)
