"""Shared crash-safe JSONL primitives (extracted journal idiom)."""

import pytest

from repro.parallel.errors import JournalError
from repro.parallel.jsonl import JsonlAppender, read_journal_entries


class _CustomError(Exception):
    pass


class TestJsonlAppender:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlAppender(path).open(fresh=True) as writer:
            writer.append({"ev": "a", "n": 1})
            writer.append({"ev": "b", "n": 2})
        entries = read_journal_entries(path)
        assert entries == [(1, {"ev": "a", "n": 1}), (2, {"ev": "b", "n": 2})]

    def test_fresh_truncates_append_preserves(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlAppender(path).open(fresh=True) as writer:
            writer.append({"n": 1})
        with JsonlAppender(path).open(fresh=False) as writer:
            writer.append({"n": 2})
        assert [e for _, e in read_journal_entries(path)] == [
            {"n": 1},
            {"n": 2},
        ]
        with JsonlAppender(path).open(fresh=True) as writer:
            writer.append({"n": 3})
        assert [e for _, e in read_journal_entries(path)] == [{"n": 3}]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "log.jsonl"
        with JsonlAppender(path).open(fresh=True) as writer:
            writer.append({"ok": True})
        assert path.is_file()

    def test_append_while_closed_raises_configured_error(self, tmp_path):
        writer = JsonlAppender(tmp_path / "log.jsonl", error=_CustomError)
        assert not writer.is_open
        with pytest.raises(_CustomError, match="not open"):
            writer.append({"n": 1})

    def test_default_error_is_journal_error(self, tmp_path):
        with pytest.raises(JournalError):
            JsonlAppender(tmp_path / "log.jsonl").append({"n": 1})


class TestTornWriteRecovery:
    def test_torn_final_line_dropped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlAppender(path).open(fresh=True) as writer:
            writer.append({"n": 1})
            writer.append({"n": 2})
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"n": 3, "tor')  # the interrupted-fsync tail
        assert [e for _, e in read_journal_entries(path)] == [
            {"n": 1},
            {"n": 2},
        ]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\n{"n": 2\n{"n": 3}\n')
        with pytest.raises(JournalError, match="malformed"):
            read_journal_entries(path)

    def test_mid_file_corruption_raises_configured_error(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\nbroken\n{"n": 3}\n')
        with pytest.raises(_CustomError):
            read_journal_entries(path, error=_CustomError)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\n\n{"n": 2}\n   \n')
        assert [e for _, e in read_journal_entries(path)] == [
            {"n": 1},
            {"n": 2},
        ]

    def test_lineno_reported_for_corruption(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\nbroken\n{"n": 3}\n')
        with pytest.raises(JournalError, match=r"log\.jsonl:2"):
            read_journal_entries(path)


class TestGroupCommit:
    def test_write_is_buffered_until_sync(self, tmp_path, monkeypatch):
        fsyncs = []
        monkeypatch.setattr("os.fsync", fsyncs.append)
        path = tmp_path / "log.jsonl"
        writer = JsonlAppender(path).open(fresh=True)
        writer.write({"n": 1})
        writer.write({"n": 2})
        assert path.read_text() == ""
        assert fsyncs == []
        writer.sync()
        assert len(fsyncs) == 1
        assert [e for _, e in read_journal_entries(path)] == [
            {"n": 1},
            {"n": 2},
        ]
        writer.close()

    def test_sync_without_pending_lines_is_free(self, tmp_path, monkeypatch):
        fsyncs = []
        monkeypatch.setattr("os.fsync", fsyncs.append)
        writer = JsonlAppender(tmp_path / "log.jsonl").open(fresh=True)
        writer.sync()
        writer.append({"n": 1})
        writer.sync()
        writer.close()
        assert len(fsyncs) == 1

    def test_close_syncs_pending_lines(self, tmp_path, monkeypatch):
        fsyncs = []
        monkeypatch.setattr("os.fsync", fsyncs.append)
        path = tmp_path / "log.jsonl"
        with JsonlAppender(path).open(fresh=True) as writer:
            writer.write({"n": 1})
        assert len(fsyncs) == 1
        assert [e for _, e in read_journal_entries(path)] == [{"n": 1}]


class TestResumeAfterTornTail:
    """Reopening for append cuts the file back to its last whole entry,
    so the next entry never glues onto a crash's partial line."""

    def test_every_cut_point_resumes_cleanly(self, tmp_path):
        path = tmp_path / "log.jsonl"
        first, second = b'{"n":1}\n', b'{"n":2,"pad":"xxxxxxxxxx"}\n'
        for cut in range(len(second) + 1):
            path.write_bytes(first + second[:cut])
            with JsonlAppender(path).open(fresh=False) as writer:
                writer.append({"n": 3})
            # Only the whole line survives, with or without its "\n".
            kept = second if cut >= len(second) - 1 else b""
            assert path.read_bytes() == first + kept + b'{"n":3}\n', cut

    def test_trailing_blank_lines_trimmed(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"n":1}\n\n  \n')
        with JsonlAppender(path).open(fresh=False) as writer:
            writer.append({"n": 2})
        assert path.read_bytes() == b'{"n":1}\n{"n":2}\n'

    def test_torn_first_line_empties_the_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"n":')
        with JsonlAppender(path).open(fresh=False) as writer:
            writer.append({"n": 2})
        assert path.read_bytes() == b'{"n":2}\n'
