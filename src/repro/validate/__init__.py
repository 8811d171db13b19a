"""Strict-mode invariant auditing for the simulation core.

Opt-in sanitizer-style validation: an :class:`InvariantAuditor` attaches
to an experiment before it runs and independently re-checks the physics
the paper defines — clock/dispatch order, the Eq. 2 queue bound, task
conservation, Eq. 5 energy closure, Eq. 1 priority classes, the
15-cycle shared-memory cap, dense-vs-dict Q-table parity, the DVFS
governor's skip rules, the exact running usage tally, the platform
index and Prediction's consolidation order.  See
``docs/architecture.md`` ("Strict mode") for the full catalogue.

Three ways to turn it on:

- ``run_experiment(config, strict=True)`` — explicit per call;
- ``repro.experiments.cli ... --strict`` — for figure regeneration;
- ``REPRO_STRICT=1`` in the environment — picked up by
  :func:`strict_mode_enabled` (and by the test suite through the
  fixture in ``tests/conftest.py``), so CI can run the whole tier-1
  suite under audit without touching any call site.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from .._lazy import lazy_exports

__all__ = [
    "InvariantAuditor",
    "AuditReport",
    "Violation",
    "InvariantViolationError",
    "strict_mode_enabled",
    "set_strict",
    "strict_scope",
    "INV_CLOCK",
    "INV_ORDER",
    "INV_QUEUE",
    "INV_CONSERVATION",
    "INV_ENERGY",
    "INV_PRIORITY",
    "INV_MEMORY",
    "INV_QPARITY",
    "INV_DVFS",
    "INV_USAGE",
    "INV_CALENDAR",
    "INV_INDEX",
    "INV_CONSOLIDATION",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".auditor": (
            "INV_CALENDAR",
            "INV_CLOCK",
            "INV_CONSERVATION",
            "INV_CONSOLIDATION",
            "INV_DVFS",
            "INV_ENERGY",
            "INV_INDEX",
            "INV_MEMORY",
            "INV_ORDER",
            "INV_PRIORITY",
            "INV_QPARITY",
            "INV_QUEUE",
            "INV_USAGE",
            "InvariantAuditor",
        ),
        ".report": ("AuditReport", "InvariantViolationError", "Violation"),
    },
)

#: Process-wide override; ``None`` defers to the REPRO_STRICT env var.
_STRICT_OVERRIDE: Optional[bool] = None


def set_strict(enabled: Optional[bool]) -> None:
    """Force strict mode on/off for this process (``None`` = defer to
    the ``REPRO_STRICT`` environment variable)."""
    global _STRICT_OVERRIDE
    _STRICT_OVERRIDE = enabled


def strict_mode_enabled() -> bool:
    """Should experiments run under the invariant auditor?

    :func:`set_strict` wins when called; otherwise ``REPRO_STRICT``
    decides (any value except empty/``0``/``false``/``no`` enables).
    The env-var path means worker processes spawned by the parallel
    campaign engine inherit strict mode automatically.
    """
    if _STRICT_OVERRIDE is not None:
        return _STRICT_OVERRIDE
    raw = os.environ.get("REPRO_STRICT", "")
    return raw.strip().lower() not in ("", "0", "false", "no")


@contextmanager
def strict_scope() -> Iterator[None]:
    """Strict mode for the duration of a block: on in this process and,
    through ``REPRO_STRICT``, in every process started inside it (the
    campaign's ``--jobs`` workers).  The override and the variable are
    restored when the block ends or raises."""
    global _STRICT_OVERRIDE
    previous_override = _STRICT_OVERRIDE
    previous_env = os.environ.get("REPRO_STRICT")
    os.environ["REPRO_STRICT"] = "1"
    _STRICT_OVERRIDE = True
    try:
        yield
    finally:
        _STRICT_OVERRIDE = previous_override
        if previous_env is None:
            os.environ.pop("REPRO_STRICT", None)
        else:
            os.environ["REPRO_STRICT"] = previous_env
