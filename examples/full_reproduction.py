"""Full reproduction run: regenerate the paper's figures with artifacts.

Regenerates Figures 7–12 (at a configurable scale), saves each figure's
data as JSON, runs the paper-shape checks, and writes a campaign-style
markdown summary — everything EXPERIMENTS.md is built from, as a single
script.

Usage::

    python examples/full_reproduction.py [out_dir] [scale]

``scale`` ∈ {"quick", "paper"} (default quick).
"""

import sys
from pathlib import Path

from repro.experiments import (
    ALL_FIGURES,
    FigurePlan,
    render_figure,
    run_configs,
    save_figure,
    shape_checks,
)
from repro.experiments.figures import HEAVY_TASKS, PAPER_TASK_COUNTS

QUICK_COUNTS = (500, 1500, 3000)


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("reproduction_out")
    scale = sys.argv[2] if len(sys.argv) > 2 else "quick"
    if scale not in ("quick", "paper"):
        raise SystemExit(f"unknown scale {scale!r}; use quick or paper")
    counts = PAPER_TASK_COUNTS if scale == "paper" else QUICK_COUNTS
    heavy = HEAVY_TASKS if scale == "paper" else 2000
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"Regenerating Figures 7–12 at {scale} scale → {out_dir}/")
    plan = FigurePlan(ALL_FIGURES, task_counts=counts, heavy_tasks=heavy)
    runs = run_configs(plan.configs())
    figures = [plan.figure(fid, runs) for fid in plan.figure_ids]

    all_checks = []
    report_lines = ["# Reproduction report", ""]
    for fig in figures:
        save_figure(fig, out_dir / f"{fig.figure_id}.json")
        table = render_figure(fig)
        checks = shape_checks(fig)
        all_checks.extend(checks)
        print()
        print(table)
        for c in checks:
            print(c)
        report_lines.append("```")
        report_lines.append(table)
        report_lines.append("```")
        report_lines.extend(str(c) for c in checks)
        report_lines.append("")

    passed = sum(1 for c in all_checks if c.passed)
    summary = f"shape checks: {passed}/{len(all_checks)} passed"
    report_lines.append(summary)
    (out_dir / "report.md").write_text("\n".join(report_lines))
    print()
    print(summary)
    print(f"artifacts: {sorted(p.name for p in out_dir.iterdir())}")


if __name__ == "__main__":
    main()
