"""Parallel campaign execution with checkpoint/resume.

A zero-dependency engine that fans a campaign's config grid out over a
process pool:

- deterministic per-config job ids (:func:`job_id`) give exactly-once
  completion semantics;
- a flushed JSONL checkpoint journal (:class:`CheckpointJournal`) lets
  an interrupted campaign resume, skipping completed jobs;
- failed attempts and dead workers are retried with exponential backoff;
- per-worker flight-recorder banks merge into one campaign series bank
  (:mod:`repro.parallel.merge`).

Entry points: :func:`run_parallel` (engine),
:func:`repro.experiments.figures.run_configs` (the one grid executor,
which the figure CLI and :func:`repro.experiments.sweeps.sweep` plan
over), ``python -m repro.experiments.cli --jobs N`` (figures), and
``python -m repro.parallel.selfcheck`` (interrupt/resume verification).
See ``docs/parallel.md``.
"""

from .._lazy import lazy_exports

__all__ = [
    "ParallelError",
    "JournalError",
    "DuplicateJobError",
    "JobFailedError",
    "RetryBudgetExceeded",
    "CampaignInterrupted",
    "Job",
    "RecordView",
    "build_jobs",
    "job_id",
    "CheckpointJournal",
    "JournalState",
    "JOURNAL_FILENAME",
    "merge_series_files",
    "merge_series_dicts",
    "ParallelResult",
    "run_parallel",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".errors": (
            "CampaignInterrupted",
            "DuplicateJobError",
            "JobFailedError",
            "JournalError",
            "ParallelError",
            "RetryBudgetExceeded",
        ),
        ".jobs": ("Job", "RecordView", "build_jobs", "job_id"),
        ".journal": ("JOURNAL_FILENAME", "CheckpointJournal", "JournalState"),
        ".merge": ("merge_series_dicts", "merge_series_files"),
        ".pool": ("ParallelResult", "run_parallel"),
    },
)
