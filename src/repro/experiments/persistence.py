"""JSON persistence for reproduced figures and run metrics.

Regenerating the full-scale figures takes minutes; persisting their data
makes EXPERIMENTS.md diffs and cross-machine comparisons cheap.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Union

from ..metrics.collector import RunMetrics
from .figures import FigureData

__all__ = [
    "figure_to_dict",
    "figure_from_dict",
    "save_figure",
    "load_figure",
    "metrics_to_dict",
    "run_record",
]

_FORMAT_VERSION = 1


def figure_to_dict(fig: FigureData) -> dict:
    """Serialize a :class:`FigureData` to plain JSON-compatible types."""
    return {
        "version": _FORMAT_VERSION,
        "figure_id": fig.figure_id,
        "title": fig.title,
        "x_label": fig.x_label,
        "y_label": fig.y_label,
        "x_values": list(fig.x_values),
        "series": {k: list(v) for k, v in fig.series.items()},
        "errors": {k: list(v) for k, v in (fig.errors or {}).items()},
        "meta": {k: _jsonable(v) for k, v in (fig.meta or {}).items()},
    }


def figure_from_dict(payload: dict) -> FigureData:
    """Reconstruct a :class:`FigureData` from :func:`figure_to_dict`."""
    version = payload.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported figure format version {version!r}")
    return FigureData(
        figure_id=payload["figure_id"],
        title=payload["title"],
        x_label=payload["x_label"],
        y_label=payload["y_label"],
        x_values=tuple(payload["x_values"]),
        series={k: tuple(v) for k, v in payload["series"].items()},
        errors={k: tuple(v) for k, v in payload.get("errors", {}).items()},
        meta=payload.get("meta", {}),
    )


def save_figure(fig: FigureData, path: Union[str, Path]) -> None:
    """Write *fig* as JSON to *path*."""
    Path(path).write_text(json.dumps(figure_to_dict(fig), indent=1))


def load_figure(path: Union[str, Path]) -> FigureData:
    """Load a figure previously written by :func:`save_figure`."""
    return figure_from_dict(json.loads(Path(path).read_text()))


def metrics_to_dict(metrics: RunMetrics) -> dict:
    """Flatten the headline numbers of a run for JSON logging.

    The Figs 9–10 utilization series rides along as one dict per
    checkpoint, so those figures can be built from a record alone; JSON
    floats round-trip exactly.
    """
    return {
        "scheduler": metrics.scheduler,
        "num_tasks": metrics.num_tasks,
        "makespan": metrics.makespan,
        "avert": metrics.avert,
        "ecs": metrics.ecs,
        "success_rate": metrics.success_rate,
        "utilization": metrics.utilization,
        "learning_cycles": metrics.learning_cycles,
        "response": {
            "count": metrics.response.count,
            "mean": metrics.response.mean,
            "median": metrics.response.median,
            "p95": metrics.response.p95,
            "max": metrics.response.maximum,
            "mean_wait": metrics.response.mean_wait,
        },
        "energy": {
            "ecs": metrics.energy.ecs,
            "total": metrics.energy.total_energy,
            "busy_time": metrics.energy.busy_time,
            "idle_time": metrics.energy.idle_time,
            "sleep_time": metrics.energy.sleep_time,
        },
        "utilization_series": [asdict(p) for p in metrics.utilization_series],
    }


def run_record(config, metrics: RunMetrics, wall_seconds: float) -> dict:
    """The canonical per-run campaign record.

    Both the serial campaign loop and the parallel engine's worker
    processes build records through this one function, so a parallel run
    reproduces the serial record set exactly (``wall_seconds`` is the
    only host-dependent field).
    """
    record = metrics_to_dict(metrics)
    record["seed"] = config.seed
    record["config_scheduler"] = config.scheduler
    record["wall_seconds"] = wall_seconds
    return record


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
