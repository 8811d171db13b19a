"""Every name the end-to-end benchmark's tracer wraps still resolves.

``benchmarks/e2e/spans.py`` patches public functions and methods by
module path at run time, and reads two process-global column stores.
A change that deletes or renames one of them passes every other tier-1
test and fails only in a traced benchmark run.  This test installs the
tracer (reading the harness, never changing it), records the column
stores' row counts, and restores every patched attribute.
"""

from __future__ import annotations

from pathlib import Path

from repro.sim.core import Environment

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def test_tracer_installs_and_uninstalls(monkeypatch):
    # The harness modules import each other as top-level modules.
    monkeypatch.syspath_prepend(str(E2E))
    from spans import Tracer

    run = Environment.__dict__["run"]
    tracer = Tracer()
    try:
        tracer.install()
        assert Environment.__dict__["run"] is not run
        tracer.note_process_rows()
        assert {"energy.bank_rows", "workload.scratch_rows"} <= set(
            tracer.counts
        )
    finally:
        tracer.uninstall()
    assert Environment.__dict__["run"] is run
