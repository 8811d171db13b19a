"""Pinned digests of all six paper figures at a small scale.

One :class:`~repro.experiments.figures.FigurePlan` of Figs 7–12 at task
counts (60, 120), two seeds (so the confidence half-widths are not
zero), heavy 120 and light 60 tasks, run serially.  Each pin is the
first 16 hex digits of the sha256 of the figure's sorted-key JSON, so a
change to any run, to the aggregation or to a title, label or
provenance field moves it.

Figs 7–8 include Prediction, whose regression runs NumPy BLAS calls, as
its golden-seed digests do.  Refreshing (only after an intentional
behaviour change) prints every value:

    PYTHONPATH=src python tests/experiments/test_figure_pins.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.figures import ALL_FIGURES, FigurePlan, run_configs
from repro.experiments.persistence import figure_to_dict

FIGURE_PINS = {
    "fig7": "82cacf6efe166033",
    "fig8": "3934cd59d7bc7565",
    "fig9": "ae5b65a6a5bc02f2",
    "fig10": "e7685ba10b77da11",
    "fig11": "f61a28b90dfc6463",
    "fig12": "fdc206d0df52a8c0",
}


def _plan() -> FigurePlan:
    return FigurePlan(
        ALL_FIGURES,
        task_counts=(60, 120),
        seeds=(1, 2),
        heavy_tasks=120,
        light_tasks=60,
    )


def figure_digests() -> dict:
    """``{figure_id: pin}`` for the plan above."""
    plan = _plan()
    runs = run_configs(plan.configs())
    digests = {}
    for figure_id in plan.figure_ids:
        fig = plan.figure(figure_id, runs)
        payload = json.dumps(figure_to_dict(fig), sort_keys=True)
        digests[figure_id] = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return digests


@pytest.fixture(scope="module")
def digests():
    return figure_digests()


def test_every_figure_is_pinned():
    assert set(FIGURE_PINS) == set(ALL_FIGURES)


@pytest.mark.parametrize("figure_id", sorted(FIGURE_PINS))
def test_figure_digest(digests, figure_id):
    assert digests[figure_id] == FIGURE_PINS[figure_id]


if __name__ == "__main__":  # pragma: no cover - refresh helper
    for figure_id, digest in figure_digests().items():
        print(f'    "{figure_id}": "{digest}",')
