"""Workload trace record/replay.

The paper assumes "the task's profile is available and can be provided by
the user using job profiling, analytical models or historical information"
(§III.A).  Traces make experiments byte-reproducible: a generated workload
can be frozen to JSON and replayed against any scheduler.

Three on-disk formats are understood, dispatched by suffix in
:func:`load_workload` / :func:`iter_workload`:

- ``.json``  — one document with a version header (:func:`save_trace`);
- ``.jsonl`` — one task record per line, streamable
  (:func:`save_trace_jsonl`);
- ``.swf``   — Standard Workload Format HPC logs
  (:mod:`repro.workload.swf`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

from .task import Task

__all__ = [
    "trace_to_records",
    "record_to_task",
    "records_to_tasks",
    "save_trace",
    "load_trace",
    "save_trace_jsonl",
    "iter_trace_jsonl",
    "iter_trace_records",
    "load_workload",
    "iter_workload",
]

_TRACE_VERSION = 1

#: The spec fields every serialized task record carries.
TRACE_FIELDS = ("tid", "size_mi", "arrival_time", "act", "deadline", "priority")


def _task_record(t: Task) -> dict:
    """Serialize one task *specification* to a plain dict."""
    return {
        "tid": t.tid,
        "size_mi": t.size_mi,
        "arrival_time": t.arrival_time,
        "act": t.act,
        "deadline": t.deadline,
        "priority": t.priority.label,
    }


def trace_to_records(tasks: Iterable[Task]) -> list[dict]:
    """Serialize task *specifications* (not execution records) to dicts."""
    return [_task_record(t) for t in tasks]


def record_to_task(r: dict, where: Optional[str] = None) -> Task:
    """Reconstruct one fresh (unexecuted) task from a serialized record.

    *where* (e.g. ``"trace.jsonl:17"``) prefixes every error so a bad
    record in a hand-edited trace is attributable to its file and line.
    """
    prefix = f"{where}: " if where else ""
    try:
        task = Task(
            tid=int(r["tid"]),
            size_mi=float(r["size_mi"]),
            arrival_time=float(r["arrival_time"]),
            act=float(r["act"]),
            deadline=float(r["deadline"]),
        )
    except KeyError as exc:
        raise ValueError(
            f"{prefix}trace record is missing field {exc.args[0]!r}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{prefix}invalid trace record: {exc}") from exc
    expected = r.get("priority")
    if expected is not None and task.priority.label != expected:
        raise ValueError(
            f"{prefix}trace task {task.tid}: stored priority {expected!r} "
            f"does not match derived priority {task.priority.label!r}"
        )
    return task


def records_to_tasks(
    records: Sequence[dict], where: Optional[str] = None
) -> list[Task]:
    """Reconstruct fresh (unexecuted) tasks from serialized records."""
    source = where or "trace"
    return [
        record_to_task(r, where=f"{source}: task #{i}")
        for i, r in enumerate(records)
    ]


def save_trace(tasks: Iterable[Task], path: Union[str, Path]) -> None:
    """Write a workload trace as JSON to *path*."""
    payload = {"version": _TRACE_VERSION, "tasks": trace_to_records(tasks)}
    Path(path).write_text(json.dumps(payload, indent=1))


def load_trace(path: Union[str, Path]) -> list[Task]:
    """Load a workload trace previously written by :func:`save_trace`."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("version")
    if version != _TRACE_VERSION:
        raise ValueError(f"unsupported trace version {version!r}")
    return records_to_tasks(payload["tasks"], where=str(path))


def save_trace_jsonl(tasks: Iterable[Task], path: Union[str, Path]) -> int:
    """Write a streaming trace: one task record per line.

    The line-oriented twin of :func:`save_trace` for workloads too
    large (or too endless) to hold as one JSON document — the service
    ingress replays these incrementally.  Each line costs one record
    dict, O(1) per task.  Returns the task count.
    """
    n = 0
    with Path(path).open("w", encoding="utf-8") as fh:
        for task in tasks:
            fh.write(json.dumps(_task_record(task), separators=(",", ":")))
            fh.write("\n")
            n += 1
    return n


def iter_trace_records(path: Union[str, Path]) -> Iterator[tuple[int, dict]]:
    """Lazily yield ``(lineno, record)`` pairs from a JSONL trace.

    The schema-agnostic layer under :func:`iter_trace_jsonl`, shared
    with the standalone verifier (:mod:`repro.workload.verify`), which
    reads records without materializing :class:`Task` objects.
    Malformed JSON raises :class:`ValueError` citing ``file:line``.
    """
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed trace line: {exc}"
                ) from exc
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{lineno}: trace line is not a JSON object"
                )
            yield lineno, record


def iter_trace_jsonl(path: Union[str, Path]) -> Iterator[Task]:
    """Lazily yield tasks from a :func:`save_trace_jsonl` file.

    Reads line by line, so a multi-gigabyte trace streams in O(1)
    memory.  Malformed lines — bad JSON *or* records missing a field —
    raise :class:`ValueError` citing ``file:line``; a replay source is
    trusted input, unlike a crash journal.
    """
    for lineno, record in iter_trace_records(path):
        yield record_to_task(record, where=f"{path}:{lineno}")


def iter_workload(path: Union[str, Path]) -> Iterator[Task]:
    """Stream tasks from any supported trace format, by suffix.

    ``.swf`` → :func:`repro.workload.swf.iter_swf_tasks` (default field
    mapping); ``.json`` → :func:`load_trace` (whole-document, yielded
    lazily); anything else is treated as JSONL.
    """
    suffix = Path(path).suffix.lower()
    if suffix == ".swf":
        from .swf import iter_swf_tasks

        yield from iter_swf_tasks(path)
    elif suffix == ".json":
        yield from load_trace(path)
    else:
        yield from iter_trace_jsonl(path)


def load_workload(path: Union[str, Path]) -> list[Task]:
    """Load any supported trace format into a task list (see
    :func:`iter_workload`)."""
    return list(iter_workload(path))
