"""Observability: structured tracing, live metrics, profiling hooks.

A zero-dependency telemetry layer threaded through the simulation
kernel, the Adaptive-RL core, the energy model, and the experiment
harness.  Everything is off by default (:data:`NULL_TELEMETRY`), so the
instrumented hot paths cost a single boolean check per operation; see
``docs/observability.md`` for the event taxonomy and usage.
"""

from .._lazy import lazy_exports

__all__ = [
    "TraceEvent",
    "CATEGORIES",
    "CAT_RUN",
    "CAT_TASK",
    "CAT_GROUP",
    "CAT_RL",
    "CAT_MEMORY",
    "CAT_ENERGY",
    "CAT_NODE",
    "CAT_AUDIT",
    "TraceRecorder",
    "NullRecorder",
    "InMemoryRecorder",
    "save_jsonl",
    "load_jsonl",
    "export_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "estimate_bucket_quantiles",
    "Profiler",
    "SpanStats",
    "TimeSeries",
    "SeriesBank",
    "PeriodicSampler",
    "DEFAULT_SAMPLE_EVERY",
    "make_run_probes",
    "ConvergenceProbes",
    "render_prometheus",
    "parse_prometheus",
    "check_exposition",
    "MetricsServer",
    "render_dashboard",
    "Telemetry",
    "NULL_TELEMETRY",
    "capture",
    "get_telemetry",
    "set_telemetry",
    "use",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".events": (
            "CAT_AUDIT",
            "CAT_ENERGY",
            "CAT_GROUP",
            "CAT_MEMORY",
            "CAT_NODE",
            "CAT_RL",
            "CAT_RUN",
            "CAT_TASK",
            "CATEGORIES",
            "TraceEvent",
        ),
        ".convergence": ("ConvergenceProbes",),
        ".dashboard": ("render_dashboard",),
        ".exposition": (
            "MetricsServer",
            "check_exposition",
            "parse_prometheus",
            "render_prometheus",
        ),
        ".metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "estimate_bucket_quantiles",
        ),
        ".profiler": ("Profiler", "SpanStats"),
        ".timeseries": (
            "DEFAULT_SAMPLE_EVERY",
            "PeriodicSampler",
            "SeriesBank",
            "TimeSeries",
            "make_run_probes",
        ),
        ".telemetry": (
            "NULL_TELEMETRY",
            "Telemetry",
            "capture",
            "get_telemetry",
            "set_telemetry",
            "use",
        ),
        ".trace": (
            "InMemoryRecorder",
            "NullRecorder",
            "TraceRecorder",
            "export_chrome_trace",
            "load_jsonl",
            "save_jsonl",
        ),
    },
)
