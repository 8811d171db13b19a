"""Tier-1 size of the selfcheck's soak: a service stream keeps bounded
traced memory per completion (``python -m repro.service.selfcheck``
runs the same check at 10,000 tasks)."""

from __future__ import annotations

from repro.service.selfcheck import SOAK_BOUND_MB, soak_growth


def test_stream_growth_per_completion_is_bounded() -> None:
    # 0.10 MB per 1,000 completions at this length, where the workload's
    # task columns are all allocated before the first mark (0.42 MB at
    # 10,000 tasks).  It read 1.86 MB before fired conditions released
    # their constituents and the cycle log was packed.
    assert soak_growth(2000) < SOAK_BOUND_MB
