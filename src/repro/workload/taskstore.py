"""Columnar task storage — the struct-of-arrays backing for :class:`Task`.

A :class:`TaskStore` holds one field across many tasks in one plain
Python list (see :mod:`repro.sim.columnar` for why lists): the
immutable specification (tid, size, arrival, ACT, deadline, priority
code) and the mutable execution record (start/finish times with NaN =
"not yet", processor/site ids with None).  A
:class:`~repro.workload.task.Task` is a 2-slot ``(store, row)`` view —
the object API is unchanged, and every field it returns is a Python
``float``, ``int`` or ``str``.  Bulk construction (the workload
generator, the SWF loader) validates and classifies a whole block with
NumPy and fills the lists with ``ndarray.tolist()``.

Thread-safety
-------------
Several producer threads may append (the service ingress builds tasks
from a producer thread while the engine fills execution records).  An
append writes one cell to every list, so two unlocked appends could
interleave and misalign rows; every append therefore holds the store's
:attr:`~TaskStore.lock`.  A row, once returned, never moves, and a
single list-cell write is atomic, so execution-record writes (each
task's record is written only by its owning thread) and all reads are
lock-free.

Validation parity
-----------------
:meth:`TaskStore.bulk_append` enforces exactly the scalar
:class:`Task` constructor contract — same checks, same error messages,
and the *first offending row* (by index) raises, with its first failing
check, so a bulk fill of ``k`` tasks is indistinguishable from ``k``
sequential constructions.  Slack classification matches
:func:`~repro.workload.priorities.classify_slack` bit for bit: the
slack fraction is re-derived from the stored fields with the same
IEEE-754 expression the scalar property uses.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from .priorities import HIGH_SLACK_MAX, LOW_SLACK_MIN

#: Execution-record marker for "not yet".
_NAN = float("nan")

__all__ = ["TaskStore"]


class TaskStore:
    """Struct-of-arrays storage for task fields.

    Columns are append-only; a row index, once returned, is stable for
    the lifetime of the store.  Execution-record columns start as
    NaN/None and are written through the :class:`Task` view's
    ``mark_started``/``mark_finished``/``reset_execution`` hooks.
    """

    __slots__ = (
        "tids",
        "size_mi",
        "arrival_time",
        "act",
        "deadline",
        "prio_code",
        "start_time",
        "finish_time",
        "processor_ids",
        "site_ids",
        "lock",
    )

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.tids: list[int] = []
        self.size_mi: list[float] = []
        self.arrival_time: list[float] = []
        self.act: list[float] = []
        self.deadline: list[float] = []
        self.prio_code: list[int] = []
        self.start_time: list[float] = []
        self.finish_time: list[float] = []
        self.processor_ids: list[Optional[str]] = []
        self.site_ids: list[Optional[str]] = []

    def __len__(self) -> int:
        return len(self.tids)

    # -- scalar path -----------------------------------------------------
    def append(
        self,
        tid: int,
        size_mi: float,
        arrival_time: float,
        act: float,
        deadline: float,
        prio_code: int,
    ) -> int:
        """Append one *pre-validated* task spec; returns its row."""
        with self.lock:
            row = len(self.tids)
            self.tids.append(tid)
            self.size_mi.append(float(size_mi))
            self.arrival_time.append(float(arrival_time))
            self.act.append(float(act))
            self.deadline.append(float(deadline))
            self.prio_code.append(int(prio_code))
            self.start_time.append(_NAN)
            self.finish_time.append(_NAN)
            self.processor_ids.append(None)
            self.site_ids.append(None)
        return row

    # -- bulk path -------------------------------------------------------
    def bulk_append(
        self,
        tids,
        size_mi,
        arrival_time,
        act,
        deadline,
        prio_code=None,
    ) -> slice:
        """Append a block of task specs; returns the row slice they occupy.

        Validates and (when *prio_code* is ``None``) slack-classifies the
        whole block vectorized, with exact scalar-constructor parity (see
        module docstring).  Nothing is appended unless every row passes.
        """
        sizes = np.asarray(size_mi, dtype=np.float64)
        arrivals = np.asarray(arrival_time, dtype=np.float64)
        acts = np.asarray(act, dtype=np.float64)
        deadlines = np.asarray(deadline, dtype=np.float64)
        n = len(sizes)
        if not (len(arrivals) == len(acts) == len(deadlines) == n):
            raise ValueError("task field columns must have equal length")
        tids = list(tids)
        if len(tids) != n:
            raise ValueError("task field columns must have equal length")

        # The scalar constructor's checks, elementwise and negated like
        # them, so that a NaN field fails.  The slack fraction is
        # re-derived from the stored fields with the same expression as
        # Task.slack_fraction so classification bits match.
        bad_size = ~(sizes > 0)
        bad_act = ~(acts > 0)
        bad_deadline = ~(deadlines >= arrivals)
        with np.errstate(divide="ignore", invalid="ignore"):
            slack = ((deadlines - arrivals) - acts) / acts
        bad_slack = slack <= -1e-9
        bad = bad_size | bad_act | bad_deadline
        if prio_code is None:
            bad = bad | bad_slack
        if bad.any():
            i = int(np.argmax(bad))
            if bad_size[i]:
                raise ValueError(f"task {tids[i]}: size must be positive")
            if bad_act[i]:
                raise ValueError(f"task {tids[i]}: ACT must be positive")
            if bad_deadline[i]:
                raise ValueError(f"task {tids[i]}: deadline precedes arrival")
            raise ValueError(
                f"slack fraction must be non-negative, got {slack[i]}"
            )

        if prio_code is None:
            clamped = np.where(slack < 0, 0.0, slack)
            codes = np.where(
                clamped <= HIGH_SLACK_MAX,
                np.int8(0),
                np.where(clamped >= LOW_SLACK_MIN, np.int8(2), np.int8(1)),
            ).astype(np.int8)
        else:
            codes = np.asarray(prio_code, dtype=np.int8)
            if len(codes) != n:
                raise ValueError("task field columns must have equal length")

        sizes, arrivals = sizes.tolist(), arrivals.tolist()
        acts, deadlines = acts.tolist(), deadlines.tolist()
        codes = codes.tolist()
        with self.lock:
            start = len(self.tids)
            self.tids.extend(tids)
            self.size_mi.extend(sizes)
            self.arrival_time.extend(arrivals)
            self.act.extend(acts)
            self.deadline.extend(deadlines)
            self.prio_code.extend(codes)
            self.start_time.extend([_NAN] * n)
            self.finish_time.extend([_NAN] * n)
            self.processor_ids.extend([None] * n)
            self.site_ids.extend([None] * n)
        return slice(start, start + n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TaskStore size={len(self.tids)}>"
