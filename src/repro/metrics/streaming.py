"""O(1)-per-completion accumulation of run-level metrics.

End-of-run reporting used to rescan the full completion list for every
aggregate.  :class:`StreamingRunStats` maintains the scan-free subset —
integer deadline counters, the running makespan maximum, and running
response/wait sums — as tasks complete, so assembling
:class:`~repro.metrics.collector.RunMetrics` no longer grows with task
count for those fields.

Only order-insensitive accumulators live here: integer counts are exact
and ``max`` is associative, so the streamed values are bit-identical to
the batch rescans they replace.  Distributional statistics (median, p95)
need the full sample, so :meth:`StreamingRunStats.record` also appends
each completion's response/wait time to a plain list of Python floats
(see :mod:`repro.sim.columnar`); because appends happen in completion
order, the logs carry the exact values, in the exact order, of the
end-of-run rescan ``[t.response_time for t in completed]`` — so
:meth:`StreamingRunStats.response_summary`, which builds its arrays
from them when called, is bit-identical to
:func:`~repro.metrics.response_time.summarize_response_times` without
the O(N) object walk.
"""

from __future__ import annotations

from ..workload.priorities import Priority
from ..workload.task import Task
from .response_time import ResponseTimeSummary, summarize_samples
from .success_rate import SuccessSummary

__all__ = ["StreamingRunStats"]


class StreamingRunStats:
    """Incremental per-completion metric accumulator.

    Call :meth:`record` exactly once per completed task (the scheduler
    does this from its completion callback).  Tasks are recorded after
    ``mark_finished``, so every observed field is final.
    """

    __slots__ = (
        "completed",
        "hits",
        "makespan",
        "response_sum",
        "wait_sum",
        "response_log",
        "wait_log",
        "_per_priority",
    )

    def __init__(self) -> None:
        self.completed = 0
        #: Completions at or before their deadline (``rew_val``).
        self.hits = 0
        #: Latest finish time seen so far.
        self.makespan = 0.0
        self.response_sum = 0.0
        self.wait_sum = 0.0
        #: Logs in completion order — the full sample the
        #: distributional summary needs, without rescanning tasks.
        self.response_log: list[float] = []
        self.wait_log: list[float] = []
        self._per_priority: dict[Priority, list[int]] = {
            prio: [0, 0] for prio in Priority
        }

    def record(self, task: Task) -> None:
        """Fold one completed *task* into the aggregates."""
        priority, arrival, deadline, start, finish = task.completion_fields()
        self.completed += 1
        # The checks and reads of met_deadline, response_time and
        # waiting_time, on the fields read once above.
        if finish != finish:
            raise ValueError(f"task {task.tid} has not finished")
        met = finish <= deadline
        if met:
            self.hits += 1
        counts = self._per_priority[priority]
        counts[1] += 1
        if met:
            counts[0] += 1
        if finish > self.makespan:
            self.makespan = finish
        response = finish - arrival
        if start != start:
            raise ValueError(f"task {task.tid} has not started")
        wait = start - arrival
        self.response_sum += response
        self.wait_sum += wait
        self.response_log.append(response)
        self.wait_log.append(wait)

    @property
    def mean_response(self) -> float:
        """Running ``AveRT`` (Eq. 4) over recorded completions."""
        return self.response_sum / self.completed if self.completed else 0.0

    def response_summary(self) -> ResponseTimeSummary:
        """Distributional summary over the streamed completion logs.

        The logs hold the same values, in the same (completion) order,
        as the completed-task list, so this equals
        :func:`~repro.metrics.response_time.summarize_response_times`
        over that list bit for bit, without the per-task property walk.
        """
        return summarize_samples(self.response_log, self.wait_log)

    def success_summary(self, submitted: int) -> SuccessSummary:
        """Deadline outcomes so far, against *submitted* total tasks."""
        return SuccessSummary(
            submitted=submitted,
            completed=self.completed,
            hits=self.hits,
            per_priority={
                prio: (counts[0], counts[1])
                for prio, counts in self._per_priority.items()
            },
        )
