"""Durable admission log: exactly-once task admission across crashes.

The service's crash-recovery contract is narrow and therefore strong:
the *simulation* is deterministic given the admitted task sequence, so
the only state worth making durable is that sequence.  Every admission
decision is appended — one JSON object per line, via the same
:class:`~repro.parallel.jsonl.JsonlAppender` idiom the campaign
checkpoint journal uses — *before* it takes effect in the queue.

Admission lines (``admit``, ``shed``, ``reject``) are group-committed:
written unsynced, then made durable by one :meth:`AdmissionJournal.sync`
before any of their tasks leaves the ingress for the kernel
(:meth:`~repro.service.ingress.IngressQueue.pop_next`) and before
:meth:`~repro.service.lifecycle.SchedulerService.submit` acknowledges
an outside caller.  The header, ``resume`` and ``drained`` lines, and
:meth:`AdmissionJournal.close`, sync before returning.  The invariant:
no task is simulated, and no outside submit is acknowledged, before
its admit line is durable.  So a crash loses at most the unsynced
tail — decisions no task in the kernel depends on — possibly cut
mid-line.  The service's producers (the synthetic generator and
``--replay``) replay what they produced, so the resumed life simply
admits that tail again.  After a crash, :meth:`AdmissionJournal.load`
reconstructs:

- the admitted-but-not-shed tasks (replayed into a fresh engine, which
  re-runs them deterministically);
- how many producer items were consumed (so the resumed producer skips
  exactly that many — no task is admitted twice, none is lost);
- whether the service already drained (resume becomes a no-op).

Event vocabulary (one ``ev`` per line)::

    {"ev":"service","version":1,"seed":...,"config":{...}}   header
    {"ev":"admit","seq":N,"task":{...trace record...}}
    {"ev":"shed","tid":T}            cancels the admit carrying tid T
    {"ev":"reject","tid":T}          producer item consumed, never queued
    {"ev":"resume","recovered":N}    a new process life took over
    {"ev":"drained","admitted":N,"completed":M,
     "failures_injected":F,"repairs_completed":R}  clean shutdown marker

``seq`` must be contiguous from 0 — a gap means entries were lost to
something other than a torn tail, and the journal refuses to replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..parallel.jsonl import JsonlAppender, read_journal_entries
from ..workload.task import Task
from ..workload.traces import record_to_task, trace_to_records
from .errors import ServiceJournalError

__all__ = ["AdmissionJournal", "JournalState"]

_FORMAT_VERSION = 1

#: Journal file name inside the journal directory.
JOURNAL_FILENAME = "admissions.jsonl"


@dataclass
class JournalState:
    """Everything :meth:`AdmissionJournal.load` recovers from disk."""

    seed: int
    config: Dict[str, object]
    #: Admitted-and-not-shed tasks, in admission (= arrival) order.
    pending_tasks: List[Task] = field(default_factory=list)
    #: Producer items consumed (admits + rejects) — the resume skip count.
    consumed: int = 0
    admitted: int = 0
    shed: int = 0
    rejected: int = 0
    resumes: int = 0
    drained: bool = False
    #: Completion count recorded by a ``drained`` marker (if any).
    completed: Optional[int] = None
    #: Failure-injection counters recorded by a ``drained`` marker
    #: (0 for journals written without a failure model, and for
    #: pre-failure-injection journals that lack the keys).
    failures_injected: int = 0
    repairs_completed: int = 0


class AdmissionJournal:
    """Append side of the admission log (the load side is a classmethod).

    One journal per service run, living at
    ``<journal_dir>/admissions.jsonl``.  Open it exactly one of two
    ways: :meth:`open_fresh` (truncates; writes the header) for a new
    run, or :meth:`open_resume` (appends; writes a ``resume`` marker)
    after :meth:`load` recovered a prior life's state.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_FILENAME
        self._writer = JsonlAppender(self.path, error=ServiceJournalError)

    # -- lifecycle -------------------------------------------------------
    @classmethod
    def exists(cls, directory: Union[str, Path]) -> bool:
        return (Path(directory) / JOURNAL_FILENAME).is_file()

    def open_fresh(self, seed: int, config: Dict[str, object]) -> "AdmissionJournal":
        """Start a new journal (truncating any prior one) with a header."""
        self._writer.open(fresh=True)
        self._writer.append(
            {
                "ev": "service",
                "version": _FORMAT_VERSION,
                "seed": int(seed),
                "config": config,
            }
        )
        return self

    def open_resume(self, recovered: int) -> "AdmissionJournal":
        """Reopen an existing journal for appending after a crash.

        Trims a torn tail, then writes a ``resume`` marker recording
        how many pending tasks the new life recovered — an audit trail
        of process deaths.  Its sync also makes durable whatever the
        prior life wrote but never synced, so the recovered tasks are
        durable before the new life simulates them.
        """
        if not self.path.is_file():
            raise ServiceJournalError(
                f"cannot resume: no journal at {self.path}"
            )
        self._writer.open(fresh=False)
        self._writer.append({"ev": "resume", "recovered": int(recovered)})
        return self

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "AdmissionJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def is_open(self) -> bool:
        return self._writer.is_open

    # -- append events ---------------------------------------------------
    # Admission decisions are buffered until sync().
    def write_admit(self, seq: int, task: Task) -> None:
        record = trace_to_records([task])[0]
        self._writer.write({"ev": "admit", "seq": int(seq), "task": record})

    def write_shed(self, tid: int) -> None:
        self._writer.write({"ev": "shed", "tid": int(tid)})

    def write_reject(self, tid: int) -> None:
        self._writer.write({"ev": "reject", "tid": int(tid)})

    def sync(self) -> None:
        """Make every decision written so far durable (one fsync, and
        none when nothing is pending)."""
        self._writer.sync()

    def write_drained(
        self,
        admitted: int,
        completed: int,
        failures_injected: int = 0,
        repairs_completed: int = 0,
    ) -> None:
        self._writer.append(
            {
                "ev": "drained",
                "admitted": int(admitted),
                "completed": int(completed),
                "failures_injected": int(failures_injected),
                "repairs_completed": int(repairs_completed),
            }
        )

    # -- load / replay ---------------------------------------------------
    @classmethod
    def load(cls, directory: Union[str, Path]) -> JournalState:
        """Reconstruct the admission state from ``admissions.jsonl``.

        Tolerates a torn final line (a crash mid-write); raises
        :class:`ServiceJournalError` on anything else that breaks the
        journal's invariants — missing header, wrong version, a ``seq``
        gap, a shed for an unknown tid.
        """
        path = Path(directory) / JOURNAL_FILENAME
        if not path.is_file():
            raise ServiceJournalError(f"no admission journal at {path}")
        entries = read_journal_entries(path, error=ServiceJournalError)
        if not entries:
            raise ServiceJournalError(f"{path}: journal is empty")
        lineno, header = entries[0]
        if header.get("ev") != "service":
            raise ServiceJournalError(
                f"{path}:{lineno}: journal does not start with a "
                f"service header"
            )
        version = header.get("version")
        if version != _FORMAT_VERSION:
            raise ServiceJournalError(
                f"{path}:{lineno}: unsupported journal version {version!r}"
            )
        state = JournalState(
            seed=int(header["seed"]), config=dict(header.get("config", {}))
        )
        admitted: List[Task] = []
        shed_tids = set()
        for lineno, entry in entries[1:]:
            ev = entry.get("ev")
            if ev == "admit":
                seq = entry.get("seq")
                if seq != len(admitted):
                    raise ServiceJournalError(
                        f"{path}:{lineno}: admit seq {seq!r} breaks the "
                        f"contiguous sequence (expected {len(admitted)})"
                    )
                try:
                    task = record_to_task(entry["task"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise ServiceJournalError(
                        f"{path}:{lineno}: unreadable admitted task: {exc}"
                    ) from exc
                admitted.append(task)
            elif ev == "shed":
                tid = entry.get("tid")
                if not any(t.tid == tid for t in admitted):
                    raise ServiceJournalError(
                        f"{path}:{lineno}: shed of unknown tid {tid!r}"
                    )
                if tid in shed_tids:
                    raise ServiceJournalError(
                        f"{path}:{lineno}: tid {tid!r} shed twice"
                    )
                shed_tids.add(tid)
                state.shed += 1
            elif ev == "reject":
                state.rejected += 1
            elif ev == "resume":
                state.resumes += 1
            elif ev == "drained":
                state.drained = True
                state.completed = int(entry.get("completed", 0))
                state.failures_injected = int(
                    entry.get("failures_injected", 0)
                )
                state.repairs_completed = int(
                    entry.get("repairs_completed", 0)
                )
            elif ev == "service":
                raise ServiceJournalError(
                    f"{path}:{lineno}: duplicate service header"
                )
            else:
                raise ServiceJournalError(
                    f"{path}:{lineno}: unknown journal event {ev!r}"
                )
        state.admitted = len(admitted)
        state.consumed = len(admitted) + state.rejected
        if not state.drained:
            state.pending_tasks = [
                t for t in admitted if t.tid not in shed_tids
            ]
        return state
