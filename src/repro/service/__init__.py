"""Streaming scheduler-as-a-service over the simulation kernel.

Where the batch harness (:mod:`repro.experiments`) runs a pre-generated
workload to completion in one call, this package runs the same physics
*as a service*: tasks stream in through a bounded ingress with explicit
admission policies (block / reject / shed-low), a slice engine advances
the kernel incrementally while preserving batch-run determinism, a
durable admission journal gives exactly-once admission across crashes,
and the live ops surface (counters, watermark gauges, flight-recorder
series, ``/metrics``) shows the run while it happens.

Entry points::

    python -m repro.service --scheduler adaptive-rl --num-tasks 10000 ...
    python -m repro.service.selfcheck        # CI smoke: drain + resume

or programmatically via :class:`SchedulerService` — see
``docs/service.md``.
"""

from .._lazy import lazy_exports

__all__ = [
    "SchedulerService",
    "ServiceReport",
    "ServiceState",
    "SliceEngine",
    "DEFAULT_SLICE",
    "IngressQueue",
    "ADMISSION_POLICIES",
    "AdmissionJournal",
    "JournalState",
    "ServiceError",
    "ServiceJournalError",
    "ServiceStalled",
    "AdmissionRejected",
    "ADMISSION_REASONS",
    "REASON_QUEUE_FULL",
    "REASON_CLOSED",
    "REASON_SHED",
    "REASON_OUT_OF_ORDER",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".engine": ("DEFAULT_SLICE", "SliceEngine"),
        ".errors": (
            "ADMISSION_REASONS",
            "REASON_CLOSED",
            "REASON_OUT_OF_ORDER",
            "REASON_QUEUE_FULL",
            "REASON_SHED",
            "AdmissionRejected",
            "ServiceError",
            "ServiceJournalError",
            "ServiceStalled",
        ),
        ".ingress": ("ADMISSION_POLICIES", "IngressQueue"),
        ".journal": ("AdmissionJournal", "JournalState"),
        ".lifecycle": ("SchedulerService", "ServiceReport", "ServiceState"),
    },
)
