"""Crash-safe JSONL primitives shared by every journal in the tree.

Two journals need the same durability idiom — the campaign checkpoint
journal (:mod:`repro.parallel.journal`) and the service admission log
(:mod:`repro.service.journal`): append one JSON object per line, make
lines durable with flush + fsync, and on load tolerate a torn *final*
line while rejecting corruption anywhere else.  This module is that
idiom, extracted once:

- :class:`JsonlAppender` — the append side.  :meth:`~JsonlAppender.append`
  fsyncs per entry (the checkpoint journal's contract: a crash loses
  at most the line being written); :meth:`~JsonlAppender.write` plus
  :meth:`~JsonlAppender.sync` group-commit several lines under one
  fsync (the admission log's contract: a crash loses at most the
  unsynced tail, whose owner must not have acted on it yet).  Either
  way a crash can leave a torn final line at any byte offset, so
  reopening for append first cuts the file back to its last whole
  entry;
- :func:`read_journal_entries` — the tolerant replay side.

Both are format-agnostic: event vocabulary, versioning, and state
reconstruction stay with each journal.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Tuple, Type, Union

from .errors import JournalError

__all__ = ["JsonlAppender", "read_journal_entries"]


class JsonlAppender:
    """Append-only JSONL writer with explicit durability points.

    A line is durable once :meth:`sync` (or :meth:`append`, which
    syncs) returns: the journal is the crash-recovery source of truth,
    so its owner must not act on an entry before then.

    Parameters
    ----------
    path:
        The journal file (parent directories are created on
        :meth:`open`).
    error:
        Exception class raised on misuse (writing while closed), so
        each journal surfaces its own error taxonomy.
    """

    def __init__(
        self,
        path: Union[str, Path],
        error: Type[Exception] = JournalError,
    ) -> None:
        self.path = Path(path)
        self._error = error
        self._fh = None
        self._pending = False

    @property
    def is_open(self) -> bool:
        return self._fh is not None

    def open(self, fresh: bool) -> "JsonlAppender":
        """Open for appending; ``fresh=True`` truncates any prior file.

        ``fresh=False`` first trims a torn tail, so the next entry
        starts on its own line instead of being glued to a crash's
        partial write.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not fresh and self.path.is_file():
            _trim_torn_tail(self.path)
        self._fh = self.path.open("w" if fresh else "a", encoding="utf-8")
        return self

    def close(self) -> None:
        """Sync any pending lines, then close."""
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def write(self, entry: dict) -> None:
        """Serialize *entry* and buffer it; durable only after :meth:`sync`."""
        if self._fh is None:
            raise self._error("journal is not open for writing")
        self._fh.write(json.dumps(entry, separators=(",", ":")))
        self._fh.write("\n")
        self._pending = True

    def sync(self) -> None:
        """Flush and fsync, when any line is pending since the last sync."""
        if self._pending:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._pending = False

    def append(self, entry: dict) -> None:
        """Serialize *entry*, append it, and force it through to disk."""
        self.write(entry)
        self.sync()


def _trim_torn_tail(path: Union[str, Path]) -> None:
    """Make *path* end right after its last entry that parses.

    :func:`read_journal_entries` tolerates a malformed final line; an
    append after it would turn that line into a malformed *middle*
    line.  So the final line is truncated when it does not parse, and
    gets its missing ``\n`` when it parses (a crash between the
    closing brace and the newline).  Trailing blank lines go too.
    """
    path = Path(path)
    data = path.read_bytes()
    end = len(data.rstrip())
    start = data.rfind(b"\n", 0, end) + 1
    try:
        json.loads(data[start:end])
    except ValueError:  # JSONDecodeError, UnicodeDecodeError
        keep, tail = start, b""
    else:
        keep, tail = end, b"\n"
    if data[keep:] != tail:
        with path.open("r+b") as fh:
            fh.truncate(keep)
            fh.seek(keep)
            fh.write(tail)


def read_journal_entries(
    path: Union[str, Path],
    error: Type[Exception] = JournalError,
) -> List[Tuple[int, dict]]:
    """Parse *path* into ``[(lineno, entry), ...]``.

    A malformed *final* line is dropped silently — that is the torn
    write a crash leaves behind.  A malformed line anywhere else raises
    *error*, because it means the file was edited or interleaved, and
    replaying a half-trusted journal is worse than failing.
    """
    raw_lines = Path(path).read_text(encoding="utf-8").splitlines()
    lines = [(i, l) for i, l in enumerate(raw_lines) if l.strip()]
    entries: List[Tuple[int, dict]] = []
    for pos, (lineno, line) in enumerate(lines):
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            if pos == len(lines) - 1:
                break  # torn tail from an interrupted write
            raise error(
                f"{path}:{lineno + 1}: malformed journal line: {exc}"
            ) from exc
        entries.append((lineno + 1, entry))
    return entries
