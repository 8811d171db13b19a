"""Shared configuration for the benchmark suite.

Every bench runs an ablation, robustness, resilience, parallel or micro
study at a reduced-but-representative scale and asserts its outcome, so
`pytest benchmarks/ --benchmark-only` both times the harness and
validates the reproduction.

The paper's figures are regenerated by ``python -m
repro.experiments.cli`` (see EXPERIMENTS.md); ``--quick`` runs them at
a reduced scale and checks their shapes.
"""

from __future__ import annotations

import pytest

BENCH_SEEDS = (1,)


@pytest.fixture
def once(benchmark):
    """Run the benched callable exactly once (sweeps are heavy)."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
