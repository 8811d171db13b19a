"""The `Telemetry` facade bundling trace + metrics + profiling.

One object carries all three pillars through a run; each pillar is
independently optional.  The module-level singleton
:data:`NULL_TELEMETRY` (everything off) is the default everywhere, so
instrumented hot paths cost one attribute check when observability is
disabled.

An *ambient* telemetry can be installed for code paths that cannot
thread the object explicitly (the figure functions call
``run_experiment`` internally): ``with use(tel): ...`` scopes it,
:func:`get_telemetry` reads it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Optional

from .metrics import MetricsRegistry
from .profiler import Profiler
from .timeseries import DEFAULT_SAMPLE_EVERY, SeriesBank
from .trace import InMemoryRecorder, NullRecorder, TraceRecorder

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "capture",
    "get_telemetry",
    "set_telemetry",
    "use",
]


class Telemetry:
    """Bundle of (optional) trace recorder, metrics registry, profiler.

    Parameters
    ----------
    trace:
        A :class:`~repro.obs.trace.TraceRecorder`; ``None`` disables
        tracing (a shared null recorder is substituted).
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry`; ``None`` disables
        metric collection.
    profiler:
        A :class:`~repro.obs.profiler.Profiler`; ``None`` disables the
        profiling spans.
    series:
        A :class:`~repro.obs.timeseries.SeriesBank`; ``None`` disables
        the flight recorder (the kernel-level periodic sampler).
    sample_every:
        Sampling cadence in simulated time units (flight recorder only;
        defaults to :data:`~repro.obs.timeseries.DEFAULT_SAMPLE_EVERY`).
    """

    __slots__ = ("trace", "metrics", "profiler", "series", "sample_every",
                 "tracing", "metering", "profiling", "sampling", "active")

    def __init__(
        self,
        trace: Optional[TraceRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[Profiler] = None,
        series: Optional[SeriesBank] = None,
        sample_every: Optional[float] = None,
    ) -> None:
        self.trace = trace if trace is not None else _NULL_RECORDER
        self.metrics = metrics
        self.profiler = profiler
        self.series = series
        self.sample_every = (
            float(sample_every)
            if sample_every is not None
            else DEFAULT_SAMPLE_EVERY
        )
        if not 0 < self.sample_every < math.inf:
            raise ValueError("sample_every must be positive and finite")
        # Pillar flags are plain precomputed booleans: hot paths read
        # them once per operation and skip all telemetry work when off.
        self.tracing: bool = self.trace.active
        self.metering: bool = metrics is not None
        self.profiling: bool = profiler is not None
        self.sampling: bool = series is not None
        self.active: bool = (
            self.tracing or self.metering or self.profiling or self.sampling
        )

    def emit(self, category: str, name: str, t: float, **fields) -> None:
        """Forward one trace event to the recorder (no-op when off)."""
        self.trace.emit(category, name, t, **fields)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        on = [
            flag
            for flag, enabled in (
                ("trace", self.tracing),
                ("metrics", self.metering),
                ("profile", self.profiling),
                ("series", self.sampling),
            )
            if enabled
        ]
        return f"<Telemetry {'+'.join(on) if on else 'off'}>"


_NULL_RECORDER = NullRecorder()

#: The do-nothing default telemetry: every flag False, safe to share.
NULL_TELEMETRY = Telemetry()


def capture(
    trace: bool = True,
    metrics: bool = True,
    profile: bool = False,
    series: bool = False,
    sample_every: Optional[float] = None,
) -> Telemetry:
    """Convenience constructor: a fully-armed recording telemetry."""
    return Telemetry(
        trace=InMemoryRecorder() if trace else None,
        metrics=MetricsRegistry() if metrics else None,
        profiler=Profiler() if profile else None,
        series=SeriesBank() if series else None,
        sample_every=sample_every,
    )


_current: Telemetry = NULL_TELEMETRY


def get_telemetry() -> Telemetry:
    """The ambient telemetry (``NULL_TELEMETRY`` unless installed)."""
    return _current


def set_telemetry(telemetry: Optional[Telemetry]) -> None:
    """Install *telemetry* as the ambient default (None resets)."""
    global _current
    _current = telemetry if telemetry is not None else NULL_TELEMETRY


@contextmanager
def use(telemetry: Telemetry):
    """Scope *telemetry* as the ambient default within a ``with`` block."""
    global _current
    previous = _current
    _current = telemetry
    try:
        yield telemetry
    finally:
        _current = previous
