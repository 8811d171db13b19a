"""Standalone scenario verifier — scheduler-independent run scoring.

A *scenario* freezes a workload (a trace, its sha256, tolerances and a
per-scheduler baseline) so any scheduler — in this repo or outside it —
can be benchmarked on identical input and scored by an auditor that
shares no code with the thing it audits.  This module imports **no
scheduler, kernel, or experiment code**: it re-derives every number
from the frozen trace plus the run's raw execution records.

Scenario layout (``src/repro/workload/scenarios/<name>/``)::

    scenario.json   name, description, trace file + sha256, provenance
                    ("source"), run hints ("run"), tolerances
    trace.jsonl     the frozen workload (one task record per line)
    excerpt.swf     (SWF scenarios) the log the trace was derived from
    baseline.json   per-scheduler expected headline metrics

A *results file* is what a run under test emits (any scheduler; this
repo's producer is ``python -m repro.experiments.scenario``)::

    {"version": 1, "scenario": ..., "trace_sha256": ...,
     "scheduler": ..., "seed": ...,
     "metrics": {"avert", "ecs", "success_rate", "makespan",
                 "completed", "submitted"},
     "tasks": [{"tid", "start", "finish", "processor", "site"}, ...],
     "processors": [{"pid", "node", "busy_time", "idle_time",
                     "sleep_time", "energy"}, ...]}

Verification re-checks, from raw records only:

- **trace integrity** — parseable records, positive sizes/ACTs,
  deadlines at/after arrivals, non-decreasing arrivals, unique tids,
  sha256 pin;
- **feasibility** — every trace task executed exactly once, no task
  starts before its arrival, finishes follow starts, and no two tasks
  overlap on one processor;
- **metric recomputation** — success rate (deadline hits recomputed
  from raw finish times vs frozen deadlines), mean response time
  (AveRT, Eq. 4), makespan, and system energy ``ECS`` (Eq. 6 node
  aggregation re-derived from per-processor energies; per-processor
  busy seconds cross-checked against the summed task intervals) — each
  compared against what the run *reported*;
- **baseline** — recomputed metrics vs the committed per-scheduler
  baseline, within the scenario's pinned tolerance.

CLI::

    python -m repro.workload.verify SCENARIO [--results FILE ...]
    python -m repro.workload.verify --list

``SCENARIO`` is a directory or the name of a committed scenario.  With
no ``--results``, only scenario integrity is checked.  Exit code 0 iff
every check passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from .traces import TRACE_FIELDS, iter_trace_records

__all__ = [
    "Check",
    "VerifyReport",
    "Scenario",
    "builtin_scenario_dir",
    "list_scenarios",
    "load_scenario",
    "file_sha256",
    "verify_scenario",
    "verify_results",
    "main",
]

SCENARIO_FILE = "scenario.json"
BASELINE_FILE = "baseline.json"

#: Headline metrics a baseline pins and the verifier recomputes.
BASELINE_METRICS = ("avert", "ecs", "success_rate", "makespan")

_DEFAULT_TOLERANCES = {
    # Absolute slop on time comparisons (starts vs arrivals, overlaps).
    "feasibility": 1e-9,
    # Relative slop between recomputed and reported metrics.
    "metrics_rel": 1e-9,
    # Relative slop between recomputed metrics and the committed baseline.
    "baseline_rel": 1e-6,
}


@dataclass(frozen=True)
class Check:
    """One named verification outcome."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok " if self.passed else "FAIL"
        return f"[{mark}] {self.name}" + (f": {self.detail}" if self.detail else "")


@dataclass
class VerifyReport:
    """All checks from one verification pass."""

    scenario: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario directory."""

    name: str
    directory: Path
    description: str
    trace_path: Path
    trace_sha256: Optional[str]
    source: dict
    run: dict
    tolerances: dict
    baselines: dict

    def tolerance(self, key: str) -> float:
        return float(self.tolerances.get(key, _DEFAULT_TOLERANCES[key]))


def builtin_scenario_dir() -> Path:
    """The committed scenario collection shipped with the package."""
    return Path(__file__).resolve().parent / "scenarios"


def list_scenarios(root: Optional[Path] = None) -> list[str]:
    """Names of every scenario under *root* (default: the committed set)."""
    root = root or builtin_scenario_dir()
    if not root.is_dir():
        return []
    return sorted(
        p.parent.name for p in root.glob(f"*/{SCENARIO_FILE}") if p.is_file()
    )


def load_scenario(ref: Union[str, Path]) -> Scenario:
    """Load a scenario from a directory path or a committed-scenario name."""
    path = Path(ref)
    if not path.is_dir():
        candidate = builtin_scenario_dir() / str(ref)
        if candidate.is_dir():
            path = candidate
        else:
            known = ", ".join(list_scenarios()) or "(none committed)"
            raise FileNotFoundError(
                f"no scenario directory {ref!r}; known scenarios: {known}"
            )
    meta_path = path / SCENARIO_FILE
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FileNotFoundError(f"{path} has no {SCENARIO_FILE}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{meta_path}: malformed JSON: {exc}") from exc
    version = meta.get("version")
    if version != 1:
        raise ValueError(f"{meta_path}: unsupported scenario version {version!r}")

    baselines: dict = {}
    baseline_path = path / BASELINE_FILE
    if baseline_path.is_file():
        try:
            payload = json.loads(baseline_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{baseline_path}: malformed JSON: {exc}") from exc
        if payload.get("version") != 1:
            raise ValueError(
                f"{baseline_path}: unsupported baseline version "
                f"{payload.get('version')!r}"
            )
        baselines = dict(payload.get("schedulers", {}))

    return Scenario(
        name=str(meta.get("name", path.name)),
        directory=path,
        description=str(meta.get("description", "")),
        trace_path=path / str(meta.get("trace", "trace.jsonl")),
        trace_sha256=meta.get("trace_sha256"),
        source=dict(meta.get("source", {})),
        run=dict(meta.get("run", {})),
        tolerances=dict(meta.get("tolerances", {})),
        baselines=baselines,
    )


def file_sha256(path: Union[str, Path]) -> str:
    """Hex sha256 of a file's bytes (the trace pin)."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# scenario integrity


def _read_trace(scenario: Scenario, report: VerifyReport) -> dict[int, dict]:
    """Parse and sanity-check the frozen trace; returns records by tid."""
    by_tid: dict[int, dict] = {}
    prev_arrival = None
    problems: list[str] = []
    try:
        for lineno, record in iter_trace_records(scenario.trace_path):
            missing = [f for f in TRACE_FIELDS if f not in record]
            if missing:
                problems.append(f"line {lineno}: missing {missing}")
                continue
            tid = int(record["tid"])
            arrival = float(record["arrival_time"])
            if tid in by_tid:
                problems.append(f"line {lineno}: duplicate tid {tid}")
            if float(record["size_mi"]) <= 0 or float(record["act"]) <= 0:
                problems.append(f"line {lineno}: non-positive size/ACT")
            if float(record["deadline"]) < arrival:
                problems.append(f"line {lineno}: deadline precedes arrival")
            if prev_arrival is not None and arrival < prev_arrival:
                problems.append(
                    f"line {lineno}: arrival {arrival:g} precedes "
                    f"previous {prev_arrival:g}"
                )
            prev_arrival = arrival
            by_tid[tid] = record
    except (OSError, ValueError) as exc:
        report.add("trace.parse", False, str(exc))
        return by_tid
    report.add(
        "trace.parse",
        not problems,
        f"{len(by_tid)} tasks"
        + ("" if not problems else "; " + "; ".join(problems[:5])),
    )
    return by_tid


def verify_scenario(scenario: Scenario) -> tuple[VerifyReport, dict[int, dict]]:
    """Integrity checks on the frozen scenario itself."""
    report = VerifyReport(scenario=scenario.name)
    trace = _read_trace(scenario, report)
    if scenario.trace_sha256:
        actual = file_sha256(scenario.trace_path)
        report.add(
            "trace.sha256",
            actual == scenario.trace_sha256,
            f"committed {scenario.trace_sha256[:12]}…, actual {actual[:12]}…",
        )
    else:
        report.add("trace.sha256", False, "scenario.json pins no trace_sha256")
    if scenario.baselines:
        bad = [
            name
            for name, metrics in scenario.baselines.items()
            if not all(k in metrics for k in BASELINE_METRICS)
        ]
        report.add(
            "baseline.schema",
            not bad,
            f"{len(scenario.baselines)} scheduler(s)"
            + ("" if not bad else f"; incomplete: {bad}"),
        )
    else:
        report.add("baseline.schema", False, f"no {BASELINE_FILE} entries")
    return report, trace


# ---------------------------------------------------------------------------
# run verification


def _rel_close(a: float, b: float, rel: float) -> bool:
    scale = max(abs(a), abs(b), 1e-12)
    return abs(a - b) <= rel * scale


def verify_results(
    scenario: Scenario,
    results: dict,
    trace: dict[int, dict],
    report: VerifyReport,
    check_baseline: bool = True,
) -> None:
    """Verify one run's results file against the frozen trace."""
    tag = str(results.get("scheduler", "?"))
    tol = scenario.tolerance("feasibility")

    report.add(
        f"{tag}.results.version",
        results.get("version") == 1,
        f"version={results.get('version')!r}",
    )
    claimed = results.get("trace_sha256")
    if scenario.trace_sha256:
        report.add(
            f"{tag}.results.trace-pin",
            claimed == scenario.trace_sha256,
            "results ran against the committed trace"
            if claimed == scenario.trace_sha256
            else f"results pin {str(claimed)[:12]}…, scenario pins "
            f"{scenario.trace_sha256[:12]}…",
        )

    records = results.get("tasks", [])
    seen: dict[int, dict] = {}
    duplicates: list[int] = []
    unknown: list[int] = []
    for r in records:
        tid = int(r["tid"])
        if tid in seen:
            duplicates.append(tid)
        seen[tid] = r
        if tid not in trace:
            unknown.append(tid)
    missing = sorted(set(trace) - set(seen))
    report.add(
        f"{tag}.coverage",
        not duplicates and not unknown and not missing,
        f"{len(seen)}/{len(trace)} trace tasks executed"
        + (f"; duplicated {duplicates[:5]}" if duplicates else "")
        + (f"; not in trace {unknown[:5]}" if unknown else "")
        + (f"; never executed {missing[:5]}" if missing else ""),
    )

    # Feasibility from raw records: starts after arrivals, finishes
    # after starts, and per-processor serial execution.
    violations: list[str] = []
    by_processor: dict[str, list[tuple[float, float, int]]] = {}
    completed: list[tuple[int, float]] = []
    for tid, r in seen.items():
        spec = trace.get(tid)
        if spec is None:
            continue
        start, finish = r.get("start"), r.get("finish")
        if start is None or finish is None:
            violations.append(f"task {tid}: incomplete execution record")
            continue
        start, finish = float(start), float(finish)
        arrival = float(spec["arrival_time"])
        if start < arrival - tol:
            violations.append(
                f"task {tid}: started {start:g} before arrival {arrival:g}"
            )
        if finish < start - tol:
            violations.append(
                f"task {tid}: finished {finish:g} before start {start:g}"
            )
        proc = r.get("processor")
        if proc is None:
            violations.append(f"task {tid}: no processor recorded")
        else:
            by_processor.setdefault(str(proc), []).append((start, finish, tid))
        completed.append((tid, finish))
    for proc, spans in by_processor.items():
        spans.sort()
        for (s0, f0, t0), (s1, f1, t1) in zip(spans, spans[1:]):
            if s1 < f0 - tol:
                violations.append(
                    f"processor {proc}: tasks {t0} and {t1} overlap "
                    f"({f0:g} > {s1:g})"
                )
    report.add(
        f"{tag}.feasibility",
        not violations,
        "starts/finishes/serial-execution consistent"
        if not violations
        else "; ".join(violations[:5]),
    )

    # Metric recomputation from raw records vs the run's own report.
    reported = dict(results.get("metrics", {}))
    submitted = int(reported.get("submitted", len(trace)))
    hits = sum(
        1
        for tid, finish in completed
        if finish <= float(trace[tid]["deadline"])
    )
    success = hits / submitted if submitted else 0.0
    responses = [
        finish - float(trace[tid]["arrival_time"]) for tid, finish in completed
    ]
    avert = sum(responses) / len(responses) if responses else 0.0
    makespan = max((finish for _, finish in completed), default=0.0)

    rel = scenario.tolerance("metrics_rel")
    for name, recomputed in (
        ("success_rate", success),
        ("avert", avert),
        ("makespan", makespan),
    ):
        value = reported.get(name)
        if value is None:
            report.add(f"{tag}.recompute.{name}", False, "metric not reported")
            continue
        report.add(
            f"{tag}.recompute.{name}",
            _rel_close(float(value), recomputed, rel),
            f"reported {float(value):.6g}, recomputed {recomputed:.6g}",
        )

    # Energy: re-derive Eq. 6 — per-node mean processor energy, summed —
    # and cross-check busy seconds against the summed task intervals.
    procs = results.get("processors", [])
    if procs:
        nodes: dict[str, list[float]] = {}
        busy_bad: list[str] = []
        for p in procs:
            nodes.setdefault(str(p["node"]), []).append(float(p["energy"]))
            spans = by_processor.get(str(p["pid"]), [])
            executed = sum(f - s for s, f, _ in spans)
            if not _rel_close(executed, float(p["busy_time"]), max(rel, 1e-9)):
                busy_bad.append(
                    f"{p['pid']}: busy {float(p['busy_time']):.6g} != "
                    f"Σ task spans {executed:.6g}"
                )
        ecs = sum(sum(e) / len(e) for e in nodes.values())
        report.add(
            f"{tag}.recompute.busy-seconds",
            not busy_bad,
            f"{len(procs)} processors" if not busy_bad else "; ".join(busy_bad[:5]),
        )
        value = reported.get("ecs")
        if value is None:
            report.add(f"{tag}.recompute.ecs", False, "metric not reported")
        else:
            report.add(
                f"{tag}.recompute.ecs",
                _rel_close(float(value), ecs, rel),
                f"reported {float(value):.6g}, recomputed {ecs:.6g} "
                f"over {len(nodes)} nodes",
            )
        recomputed_ecs = ecs
    else:
        report.add(f"{tag}.recompute.ecs", False, "no processor records")
        recomputed_ecs = None

    if not check_baseline:
        return
    baseline = scenario.baselines.get(tag)
    if baseline is None:
        report.add(
            f"{tag}.baseline",
            False,
            f"no committed baseline for scheduler {tag!r}",
        )
        return
    brel = scenario.tolerance("baseline_rel")
    recomputed_by_name = {
        "avert": avert,
        "ecs": recomputed_ecs,
        "success_rate": success,
        "makespan": makespan,
    }
    for name in BASELINE_METRICS:
        expected = baseline.get(name)
        actual = recomputed_by_name.get(name)
        if expected is None or actual is None:
            report.add(f"{tag}.baseline.{name}", False, "value unavailable")
            continue
        report.add(
            f"{tag}.baseline.{name}",
            _rel_close(float(expected), float(actual), brel),
            f"baseline {float(expected):.6g}, recomputed {float(actual):.6g}",
        )


# ---------------------------------------------------------------------------
# CLI


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload.verify",
        description="Scheduler-independent scenario verifier.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        help="scenario directory, or the name of a committed scenario",
    )
    parser.add_argument(
        "--results",
        metavar="FILE",
        nargs="+",
        default=[],
        help="results file(s) from runs under test (any scheduler)",
    )
    parser.add_argument(
        "--skip-baseline",
        action="store_true",
        help="verify feasibility/metrics only, ignore committed baselines",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--list", action="store_true", help="list committed scenarios and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in list_scenarios():
            print(name)
        return 0
    if args.scenario is None:
        parser.error("a scenario is required (or --list)")

    try:
        scenario = load_scenario(args.scenario)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report, trace = verify_scenario(scenario)
    for results_path in args.results:
        try:
            results = json.loads(Path(results_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            report.add(f"results[{results_path}]", False, str(exc))
            continue
        verify_results(
            scenario,
            results,
            trace,
            report,
            check_baseline=not args.skip_baseline,
        )

    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(f"scenario: {scenario.name} — {scenario.description}")
        for check in report.checks:
            print(f"  {check}")
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{status}: {len(report.checks) - len(report.failures)}/"
            f"{len(report.checks)} checks passed"
        )
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
