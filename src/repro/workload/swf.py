"""Standard Workload Format (SWF) loader — real HPC logs as workloads.

The Parallel Workloads Archive's SWF is the de-facto interchange format
for HPC job logs (and what RLScheduler trains on, PAPERS.md).  An SWF
file is line-oriented: header/comment lines start with ``;`` (header
*directives* are ``; Key: value`` pairs), every other non-blank line is
one job of exactly 18 whitespace-separated numeric fields.

Field mapping (SWF → :class:`~repro.workload.task.Task`)
--------------------------------------------------------

====  =======================  ==========================================
 #    SWF field                task spec use
====  =======================  ==========================================
 1    job number               ``tid``
 2    submit time (s)          ``arrival_time`` (rebased so the first
                               job arrives at ``mapping.first_arrival``)
 4    run time (s)             ``size_mi = run_time ·
                               mapping.reference_speed_mips`` — the MI
                               count a ``reference_speed_mips`` processor
                               retires in the logged runtime, so ``ACT``
                               equals the logged runtime exactly
 9    requested time (s)       deadline slack: ``slack = (requested −
                               run) / run`` clamped to ``[0,
                               mapping.max_slack]``; jobs without a
                               usable request fall back to
                               ``mapping.default_slack``
====  =======================  ==========================================

``deadline = arrival + ACT · (1 + slack)`` — the paper's §III.A deadline
model, with the user's requested walltime standing in for the private
deadline the original users never logged.  All remaining fields (waits,
processor counts, memory, status, user/group/queue ids) are carried in
:class:`SWFJob` for filtering but do not shape the task: the paper's
application model is independent single-processor tasks, so a job's
parallelism is deliberately not folded into its size (document-level
knob: pre-scale the log, or extend :class:`SWFMapping`).

Jobs that cannot form a task — non-positive run time (cancelled or
still-queued entries, status 0/5, or the ``-1`` "unknown" marker) or
negative submit time — are *skipped* and counted, matching how trace
consumers in the literature treat them.  Structurally malformed lines
(wrong field count, non-numeric fields, submit times that go backwards)
raise :class:`ValueError` citing ``file:line`` — an SWF log is trusted
input, and silent repair would change the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from .priorities import MAX_SLACK
from .task import Task
from .taskstore import TaskStore

__all__ = [
    "SWF_FIELDS",
    "SWFJob",
    "SWFMapping",
    "SWFParseStats",
    "read_swf_header",
    "iter_swf_jobs",
    "iter_swf_tasks",
    "load_swf",
]

#: The 18 standard SWF v2.x fields, in file order.
SWF_FIELDS = (
    "job_number",
    "submit_time",
    "wait_time",
    "run_time",
    "allocated_processors",
    "average_cpu_time",
    "used_memory",
    "requested_processors",
    "requested_time",
    "requested_memory",
    "status",
    "user_id",
    "group_id",
    "executable_number",
    "queue_number",
    "partition_number",
    "preceding_job",
    "think_time",
)

_NUM_FIELDS = len(SWF_FIELDS)


@dataclass(frozen=True)
class SWFJob:
    """One raw SWF job record (all 18 fields, file units)."""

    job_number: int
    submit_time: float
    wait_time: float
    run_time: float
    allocated_processors: int
    average_cpu_time: float
    used_memory: float
    requested_processors: int
    requested_time: float
    requested_memory: float
    status: int
    user_id: int
    group_id: int
    executable_number: int
    queue_number: int
    partition_number: int
    preceding_job: int
    think_time: float

    @property
    def runnable(self) -> bool:
        """True when the job can form a task (positive runtime/submit)."""
        return self.run_time > 0 and self.submit_time >= 0


@dataclass(frozen=True)
class SWFMapping:
    """Tunable knobs of the SWF → task-spec mapping (module docstring)."""

    #: MIPS of the reference processor the logged runtime is priced at
    #: (the paper's slowest resource, §III.A).
    reference_speed_mips: float = 500.0
    #: Slack fraction when the log has no usable requested time.
    default_slack: float = 0.5
    #: Upper clamp on request-derived slack (paper: add_t ≤ 150 % ACT).
    max_slack: float = MAX_SLACK
    #: Simulated time the first job arrives at (submits are rebased).
    first_arrival: float = 0.0
    #: Keep absolute submit times instead of rebasing to the first job.
    rebase_arrivals: bool = True
    #: Cap on emitted tasks (None = whole log) — excerpt construction.
    max_jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.reference_speed_mips <= 0:
            raise ValueError("reference_speed_mips must be positive")
        if self.default_slack < 0:
            raise ValueError("default_slack must be non-negative")
        if self.max_slack < self.default_slack:
            raise ValueError("max_slack must be >= default_slack")
        if self.first_arrival < 0:
            raise ValueError("first_arrival must be non-negative")
        if self.max_jobs is not None and self.max_jobs <= 0:
            raise ValueError("max_jobs must be positive")

    def slack_for(self, job: SWFJob) -> float:
        """Deadline slack fraction for one job (deterministic, no RNG)."""
        if job.requested_time > 0 and job.run_time > 0:
            slack = (job.requested_time - job.run_time) / job.run_time
            return min(max(slack, 0.0), self.max_slack)
        return self.default_slack


@dataclass
class SWFParseStats:
    """Mutable tally filled in while a log streams through the parser."""

    header: dict = field(default_factory=dict)
    jobs_seen: int = 0
    jobs_skipped: int = 0
    tasks_emitted: int = 0


def _parse_directive(line: str, header: dict) -> None:
    """Fold one ``;``-comment line into the header-directive dict."""
    body = line.lstrip(";").strip()
    if ":" not in body:
        return  # free-form comment, not a directive
    key, _, value = body.partition(":")
    key = key.strip()
    if not key or " " in key:
        return  # prose that happens to contain a colon
    value = value.strip()
    if key in header:
        # Multi-line directives (e.g. repeated Note:) accumulate.
        header[key] = f"{header[key]}\n{value}"
    else:
        header[key] = value


def read_swf_header(path: Union[str, Path]) -> dict:
    """Parse only the ``; Key: value`` header directives of an SWF log."""
    header: dict = {}
    with Path(path).open("r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith(";"):
                _parse_directive(stripped, header)
            else:
                break  # first job line ends the header
    return header


def _parse_job(path, lineno: int, line: str) -> SWFJob:
    fields = line.split()
    if len(fields) != _NUM_FIELDS:
        raise ValueError(
            f"{path}:{lineno}: SWF job line has {len(fields)} fields, "
            f"expected {_NUM_FIELDS}"
        )
    try:
        return SWFJob(
            job_number=int(fields[0]),
            submit_time=float(fields[1]),
            wait_time=float(fields[2]),
            run_time=float(fields[3]),
            allocated_processors=int(fields[4]),
            average_cpu_time=float(fields[5]),
            used_memory=float(fields[6]),
            requested_processors=int(fields[7]),
            requested_time=float(fields[8]),
            requested_memory=float(fields[9]),
            status=int(fields[10]),
            user_id=int(fields[11]),
            group_id=int(fields[12]),
            executable_number=int(fields[13]),
            queue_number=int(fields[14]),
            partition_number=int(fields[15]),
            preceding_job=int(fields[16]),
            think_time=float(fields[17]),
        )
    except ValueError as exc:
        raise ValueError(
            f"{path}:{lineno}: malformed SWF job line: {exc}"
        ) from exc


def iter_swf_jobs(
    path: Union[str, Path], stats: Optional[SWFParseStats] = None
) -> Iterator[SWFJob]:
    """Lazily yield every raw :class:`SWFJob` in file order.

    Header directives land in ``stats.header`` (when *stats* is given)
    before the first job is yielded.  Submit times must be
    non-decreasing, as the SWF standard requires — a regression raises
    with the offending line number.
    """
    last_submit: Optional[float] = None
    with Path(path).open("r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith(";"):
                if stats is not None:
                    _parse_directive(stripped, stats.header)
                continue
            job = _parse_job(path, lineno, stripped)
            if stats is not None:
                stats.jobs_seen += 1
            if job.submit_time >= 0:
                if last_submit is not None and job.submit_time < last_submit:
                    raise ValueError(
                        f"{path}:{lineno}: submit time {job.submit_time:g} "
                        f"precedes the previous job's {last_submit:g} — SWF "
                        "logs must be sorted by submit time"
                    )
                last_submit = job.submit_time
            yield job


def iter_swf_tasks(
    path: Union[str, Path],
    mapping: SWFMapping = SWFMapping(),
    chunk: int = 1024,
    stats: Optional[SWFParseStats] = None,
) -> Iterator[Task]:
    """Stream an SWF log as fresh :class:`Task` specs.

    Tasks are materialized through the same columnar
    :meth:`~repro.workload.taskstore.TaskStore.bulk_append` path as the
    synthetic generator — jobs accumulate into chunks of *chunk* rows,
    one vectorized validated append per chunk, tasks yielded as
    2-slot ``(store, row)`` views — so a multi-million-job log streams
    without one constructor call per job.
    """
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    store = TaskStore()

    tids: list[int] = []
    sizes: list[float] = []
    arrivals: list[float] = []
    acts: list[float] = []
    deadlines: list[float] = []

    def flush() -> Iterator[Task]:
        rows = store.bulk_append(
            tids,
            np.asarray(sizes),
            np.asarray(arrivals),
            np.asarray(acts),
            np.asarray(deadlines),
        )
        tids.clear()
        sizes.clear()
        arrivals.clear()
        acts.clear()
        deadlines.clear()
        for row in range(rows.start, rows.stop):
            yield Task._view(store, row)

    base: Optional[float] = None
    emitted = 0
    for job in iter_swf_jobs(path, stats=stats):
        if not job.runnable:
            if stats is not None:
                stats.jobs_skipped += 1
            continue
        if base is None:
            base = job.submit_time if mapping.rebase_arrivals else 0.0
        arrival = mapping.first_arrival + (job.submit_time - base)
        act = job.run_time
        slack = mapping.slack_for(job)
        tids.append(job.job_number)
        sizes.append(job.run_time * mapping.reference_speed_mips)
        arrivals.append(arrival)
        acts.append(act)
        deadlines.append(arrival + act * (1.0 + slack))
        emitted += 1
        if stats is not None:
            stats.tasks_emitted = emitted
        if len(tids) >= chunk:
            yield from flush()
        if mapping.max_jobs is not None and emitted >= mapping.max_jobs:
            break
    if tids:
        yield from flush()


def load_swf(
    path: Union[str, Path],
    mapping: SWFMapping = SWFMapping(),
    stats: Optional[SWFParseStats] = None,
) -> list[Task]:
    """Load an SWF log into a task list (see :func:`iter_swf_tasks`)."""
    return list(iter_swf_tasks(path, mapping=mapping, stats=stats))
