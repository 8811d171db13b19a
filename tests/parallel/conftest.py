"""Shared fixtures for the parallel-engine tests.

The engine tests spawn real worker processes, so the grids stay tiny
(non-learning schedulers, a few dozen tasks) and serial reference
records are computed once per session.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import grid
from repro.experiments.persistence import run_record
from repro.experiments.runner import run_experiment

#: The standard small grid: 2 schedulers × 1 task count × 2 seeds.
GRID_KWARGS = dict(schedulers=["edf", "fcfs"], task_counts=[25], seeds=[1, 2])


def small_grid():
    return grid(**GRID_KWARGS)


def comparable(record: dict) -> dict:
    """Strip the only host-dependent field from a campaign record."""
    return {k: v for k, v in record.items() if k != "wall_seconds"}


@pytest.fixture(scope="session")
def serial_records():
    """Reference records for the small grid, computed serially in-process."""
    return [
        comparable(run_record(cfg, run_experiment(cfg).metrics, 0.0))
        for cfg in small_grid()
    ]
