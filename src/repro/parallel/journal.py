"""Append-only JSONL checkpoint journal for campaign runs.

One journal file records the life of a campaign as a sequence of JSON
lines, flushed and fsynced per event so a crash loses at most the line
being written:

- ``{"ev": "campaign", "version": 1, "name": ..., "total": N, "job_ids": [...]}``
  — written once when a journal is created (and a ``{"ev": "resume"}``
  marker on each subsequent resumed invocation);
- ``{"ev": "start", "job": id, "attempt": k}`` — a job was submitted to
  a worker (at-least-once visibility: a ``start`` without a matching
  ``done`` means the attempt was lost to a crash or interruption);
- ``{"ev": "done", "job": id, "attempt": k, "record": {...}}`` — the
  job finished; ``record`` is the full campaign record, so a resumed run
  never re-executes this job (exactly-once completion);
- ``{"ev": "fail", "job": id, "attempt": k, "error": "..."}`` — the
  attempt raised; the engine may retry it.

Loading tolerates a truncated *final* line (the crash case); any other
malformed line raises :class:`~repro.parallel.errors.JournalError`
because it means the file was edited or interleaved.  Reopening for a
resume first cuts such a line off, so the ``resume`` marker and later
entries start on a line of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import JournalError
from .jsonl import JsonlAppender, read_journal_entries

__all__ = ["CheckpointJournal", "JournalState", "JOURNAL_FILENAME"]

#: File name used inside a checkpoint directory.
JOURNAL_FILENAME = "journal.jsonl"

_FORMAT_VERSION = 1


@dataclass
class JournalState:
    """Everything recoverable from a journal file."""

    header: Optional[dict] = None
    #: job id → campaign record, for every journaled completion.
    completed: dict = field(default_factory=dict)
    #: job id → number of ``fail`` entries seen.
    failures: dict = field(default_factory=dict)
    #: job id → highest ``start`` attempt seen (lost attempts included).
    started: dict = field(default_factory=dict)
    #: total parsed journal lines.
    entries: int = 0

    @property
    def interrupted_jobs(self) -> set:
        """Jobs that were started but never journaled as done."""
        return set(self.started) - set(self.completed)


class CheckpointJournal:
    """Writer/loader for one campaign's checkpoint journal."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._writer = JsonlAppender(self.path, error=JournalError)

    # ------------------------------------------------------------------
    # Loading

    @classmethod
    def load(cls, path: Union[str, Path]) -> JournalState:
        """Parse *path* into a :class:`JournalState`.

        A malformed final line (torn write from a crash) is dropped;
        malformed lines elsewhere raise :class:`JournalError`.
        """
        state = JournalState()
        for lineno, entry in read_journal_entries(path, error=JournalError):
            state.entries += 1
            ev = entry.get("ev")
            if ev == "campaign":
                if entry.get("version") != _FORMAT_VERSION:
                    raise JournalError(
                        f"{path}: unsupported journal version "
                        f"{entry.get('version')!r}"
                    )
                state.header = entry
            elif ev == "start":
                jid = entry["job"]
                state.started[jid] = max(
                    state.started.get(jid, 0), int(entry.get("attempt", 1))
                )
            elif ev == "done":
                state.completed[entry["job"]] = entry["record"]
            elif ev == "fail":
                jid = entry["job"]
                state.failures[jid] = state.failures.get(jid, 0) + 1
            elif ev == "resume":
                pass
            else:
                raise JournalError(
                    f"{path}:{lineno}: unknown journal event {ev!r}"
                )
        return state

    # ------------------------------------------------------------------
    # Writing

    def open(self, fresh: bool) -> "CheckpointJournal":
        """Open for appending; ``fresh=True`` truncates any prior file."""
        self._writer.open(fresh)
        return self

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _append(self, entry: dict) -> None:
        self._writer.append(entry)

    def write_header(
        self, name: str, job_ids: Sequence[str], total: int
    ) -> None:
        self._append(
            {
                "ev": "campaign",
                "version": _FORMAT_VERSION,
                "name": name,
                "total": total,
                "job_ids": list(job_ids),
            }
        )

    def write_resume(self, pending: int) -> None:
        self._append({"ev": "resume", "pending": pending})

    def write_start(self, job_id: str, attempt: int) -> None:
        self._append({"ev": "start", "job": job_id, "attempt": attempt})

    def write_done(self, job_id: str, attempt: int, record: dict) -> None:
        self._append(
            {"ev": "done", "job": job_id, "attempt": attempt, "record": record}
        )

    def write_fail(self, job_id: str, attempt: int, error: str) -> None:
        self._append(
            {"ev": "fail", "job": job_id, "attempt": attempt, "error": error}
        )
