"""End-to-end service check: stream, scrape, SIGTERM, crash, resume.

Drives ``python -m repro.service`` as a real subprocess through the two
shutdown paths the service guarantees:

1. **Graceful drain** — start a journaled streaming run with the live
   metrics server, poll ``/metrics`` until admissions are flowing, send
   SIGTERM, and assert the process exits 0 with every admitted task
   completed and a ``drained`` journal marker; a ``--resume`` of that
   journal must then report *already drained* with zero pending work.
2. **Crash + resume** — start another run, watch the admission journal
   grow, SIGKILL the process mid-stream (no drain, no marker), then
   ``--resume`` and assert exactly-once admission: every producer task
   admitted exactly once across both lives, all of them completed.
3. **Double crash** — as phase 2, but SIGKILL the resumed life too,
   mid-stream, and resume a second time.  A kill can cut the
   group-committed journal anywhere its text buffer happened to flush;
   when the first kill left a whole final line, the check tears one
   itself, so the second life always has to append after a torn tail.

The first two phases run twice: once plain and once with
``--failure-mtbf`` so node crashes and crash-resubmission ride along.
With failures on, the checks additionally assert ``completed ==
tasks_injected`` (the scheduler resubmitted every orphan), a nonzero
``failures_injected`` in the report *and* in the journal's drained
marker, and that the resumed life re-derives the failure schedule from
the journal's stored config alone (``--resume`` passes no failure
flags).  The journal is always read as a resume reads it
(:func:`~repro.parallel.jsonl.read_journal_entries`), which tolerates
a torn *final* line only.

Last, a **soak** runs in this process: a 10,000-task stream of the
benchmark's ``service-stream`` shape under tracemalloc, which must keep
less than :data:`SOAK_BOUND_MB` of traced memory per 1,000 completions
(:func:`soak_growth`; the figure is printed).

CI runs this as ``python -m repro.service.selfcheck``; it is equally
useful locally after touching the service.  Exit status 0 means every
assertion held.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import urllib.request
from pathlib import Path
from typing import Callable, List, Optional

from ..experiments.config import ExperimentConfig
from ..obs import NULL_TELEMETRY
from ..parallel.jsonl import read_journal_entries
from ..sim.rng import RandomStreams
from ..workload.generator import WorkloadGenerator
from .engine import SliceEngine
from .errors import ServiceJournalError
from .ingress import IngressQueue
from .journal import JOURNAL_FILENAME, AdmissionJournal

__all__ = ["main", "soak_growth", "SOAK_BOUND_MB", "SOAK_TASKS"]

#: Traced memory a service stream may keep per 1,000 completions, in MB
#: (2**20 bytes).  A 10,000-task stream kept 2.25 MB while fired
#: conditions stayed on their node's policy event and every learning
#: cycle kept a dataclass, and keeps 0.42 MB since (Python 3.11).
SOAK_BOUND_MB = 1.2
#: Stream length of the selfcheck's soak.
SOAK_TASKS = 10_000
#: Input seed of the soak's workload.
_SOAK_SEED = 328

_PORT_PREFIX = "serving live telemetry on http://127.0.0.1:"


def _spawn(args: List[str]) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def _read_port(proc: subprocess.Popen, deadline: float) -> int:
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError("service exited before announcing its port")
        if line.startswith(_PORT_PREFIX):
            return int(line[len(_PORT_PREFIX):].split()[0].rstrip("/"))
    raise AssertionError("timed out waiting for the metrics port line")


def _scrape(port: int, path: str = "/metrics") -> str:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=5
    ) as resp:
        return resp.read().decode("utf-8")


def _metric(text: str, name: str) -> Optional[float]:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return None


def _parse_report(output: str) -> dict:
    for line in reversed(output.splitlines()):
        if line.startswith("SERVICE-REPORT "):
            return json.loads(line[len("SERVICE-REPORT "):])
    raise AssertionError(f"no SERVICE-REPORT line in output:\n{output}")


def _journal_admits(journal_dir: Path) -> List[int]:
    """Admitted tids; raises on a malformed line other than the last."""
    return [
        entry["task"]["tid"]
        for _, entry in read_journal_entries(
            journal_dir / JOURNAL_FILENAME, error=ServiceJournalError
        )
        if entry.get("ev") == "admit"
    ]


def _assert_fault_counters(
    tag: str, report: dict, jdir: Path, failures: List[str]
) -> None:
    """With failure injection on, the report and the journal's drained
    marker must both carry a nonzero failure count, the scheduler must
    have resubmitted every orphan (completed == tasks_injected), and the
    two sources must agree."""
    if report["completed"] != report["tasks_injected"]:
        failures.append(
            f"{tag}: {report['completed']} completed != "
            f"{report['tasks_injected']} tasks_injected — "
            "crash-resubmission lost work"
        )
    if report.get("failures_injected", 0) <= 0:
        failures.append(
            f"{tag}: failures_injected is zero — the injector never "
            "fired (mtbf too high for this stream?)"
        )
    state = AdmissionJournal.load(jdir)
    if state.failures_injected != report.get("failures_injected"):
        failures.append(
            f"{tag}: drained marker records "
            f"{state.failures_injected} failures, report says "
            f"{report.get('failures_injected')}"
        )
    if state.repairs_completed != report.get("repairs_completed"):
        failures.append(
            f"{tag}: drained marker records "
            f"{state.repairs_completed} repairs, report says "
            f"{report.get('repairs_completed')}"
        )


def _stream_args(
    jdir: Path, num_tasks: int, failure_mtbf: Optional[float]
) -> List[str]:
    extra = (
        ["--failure-mtbf", str(failure_mtbf), "--failure-mttr", "40"]
        if failure_mtbf is not None
        else []
    )
    return [
        "--scheduler", "fcfs",
        "--num-tasks", str(num_tasks),
        "--arrival-rate", "0.4",
        "--max-queue", "64",
        "--journal-dir", str(jdir),
        "--quiet",
        *extra,
    ]


def _check_graceful(
    workdir: Path,
    num_tasks: int,
    timeout: float,
    failure_mtbf: Optional[float] = None,
) -> List[str]:
    failures: List[str] = []
    tag = "graceful+failures" if failure_mtbf is not None else "graceful"
    jdir = workdir / tag
    proc = _spawn(
        _stream_args(jdir, num_tasks, failure_mtbf) + ["--serve-metrics", "0"]
    )
    deadline = time.monotonic() + timeout
    try:
        port = _read_port(proc, deadline)
        admitted = 0.0
        while time.monotonic() < deadline:
            text = _scrape(port)
            admitted = _metric(text, "repro_service_admitted") or 0.0
            if admitted >= 50:
                break
            time.sleep(0.05)
        if admitted < 50:
            failures.append(
                f"{tag}: only {admitted:.0f} admissions before timeout"
            )
        if _metric(_scrape(port), "repro_service_queue_depth") is None:
            failures.append(f"{tag}: /metrics lacks the queue depth gauge")
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        failures.append(f"{tag}: exit code {proc.returncode}, expected 0")
        return failures
    report = _parse_report(out)
    if report["state"] != "stopped":
        failures.append(f"{tag}: final state {report['state']!r}")
    if report["completed"] != report["tasks_injected"]:
        failures.append(
            f"{tag}: {report['completed']} completed != "
            f"{report['tasks_injected']} injected — drain lost tasks"
        )
    if report["admitted"] >= num_tasks:
        failures.append(
            f"{tag}: the full stream was admitted before SIGTERM — "
            "the drain path was never exercised (raise --tasks)"
        )
    state = AdmissionJournal.load(jdir)
    if not state.drained:
        failures.append(f"{tag}: journal has no drained marker")
    if failure_mtbf is not None:
        _assert_fault_counters(tag, report, jdir, failures)
    # Resuming a drained journal must be a clean no-op.
    proc2 = _spawn(["--journal-dir", str(jdir), "--resume", "--quiet"])
    out2, _ = proc2.communicate(timeout=timeout)
    if proc2.returncode != 0:
        failures.append(f"{tag} resume: exit code {proc2.returncode}")
    else:
        report2 = _parse_report(out2)
        if not report2["already_drained"]:
            failures.append(f"{tag} resume: expected already_drained")
        if report2["admitted"] != report["admitted"]:
            failures.append(
                f"{tag} resume: admitted count changed "
                f"({report['admitted']} -> {report2['admitted']})"
            )
    if not failures:
        extra_note = (
            f", {report.get('failures_injected', 0)} node failures "
            f"({report.get('tasks_resubmitted', 0)} resubmissions)"
            if failure_mtbf is not None
            else ""
        )
        print(
            f"{tag} drain ok: SIGTERM after {report['admitted']} "
            f"admissions, {report['completed']} completed{extra_note}, "
            "exit 0, resume reports already drained"
        )
    return failures


def _kill_mid_stream(
    args: List[str], jdir: Path, admits: int, timeout: float
) -> Optional[str]:
    """Run the service with *args* and SIGKILL it once the journal holds
    at least *admits* admissions; returns a failure message, or None."""
    journal_path = jdir / JOURNAL_FILENAME
    proc = _spawn(args)
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            if journal_path.is_file() and len(_journal_admits(jdir)) >= admits:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        if proc.poll() is not None:
            proc.communicate()
            return (
                "service finished before the kill point — raise --tasks "
                "or lower --kill-after"
            )
        proc.kill()  # SIGKILL: no drain, no marker, maybe a torn line
        proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    journaled = len(_journal_admits(jdir))
    if journaled < admits:
        return f"only {journaled} admits journaled at kill time"
    return None


def _tear_tail(journal_path: Path) -> None:
    """Leave the journal as a kill in mid-flush would: half a line,
    unterminated (unless the kill already did)."""
    data = journal_path.read_bytes()
    if data.endswith(b"\n"):
        last = data[data.rfind(b"\n", 0, len(data) - 1) + 1:]
        with journal_path.open("ab") as fh:
            fh.write(last[: len(last) // 2])


def _check_crash_resume(
    workdir: Path,
    num_tasks: int,
    kill_after: int,
    timeout: float,
    failure_mtbf: Optional[float] = None,
    crashes: int = 1,
) -> List[str]:
    failures: List[str] = []
    tag = "crash" if crashes == 1 else "double-crash"
    if failure_mtbf is not None:
        tag += "+failures"
    jdir = workdir / tag
    args = _stream_args(jdir, num_tasks, failure_mtbf)
    killed_after: List[int] = []
    for life in range(crashes):
        if life:
            # Every resumed life after the first must append after a
            # torn tail.  No flags on resume: the journal's stored
            # config must carry the workload and failure model alone.
            _tear_tail(jdir / JOURNAL_FILENAME)
            args = ["--journal-dir", str(jdir), "--resume", "--quiet"]
        target = (killed_after[-1] if killed_after else 0) + kill_after
        problem = _kill_mid_stream(args, jdir, target, timeout)
        if problem is not None:
            return [f"{tag} life {life + 1}: {problem}"]
        killed_after.append(len(_journal_admits(jdir)))
    proc = _spawn(["--journal-dir", str(jdir), "--resume", "--quiet"])
    out, _ = proc.communicate(timeout=timeout * 4)
    if proc.returncode != 0:
        failures.append(f"{tag} resume: exit code {proc.returncode}\n{out}")
        return failures
    report = _parse_report(out)
    tids = _journal_admits(jdir)
    if sorted(tids) != list(range(num_tasks)):
        dupes = len(tids) - len(set(tids))
        failures.append(
            f"{tag} resume: admission not exactly-once "
            f"({len(tids)} admits, {dupes} duplicates, {num_tasks} expected)"
        )
    if report["admitted"] != num_tasks:
        failures.append(
            f"{tag} resume: report admitted {report['admitted']}, "
            f"expected {num_tasks}"
        )
    if report["completed"] != report["admitted"] - report["shed"]:
        failures.append(
            f"{tag} resume: completed {report['completed']} != admitted "
            f"{report['admitted']} - shed {report['shed']}"
        )
    if not report["resumed"]:
        failures.append(f"{tag} resume: report not marked as resumed")
    state = AdmissionJournal.load(jdir)
    if not state.drained:
        failures.append(f"{tag} resume: journal has no drained marker")
    if state.resumes != crashes:
        failures.append(
            f"{tag} resume: journal records {state.resumes} resumes, "
            f"expected {crashes}"
        )
    if failure_mtbf is not None:
        _assert_fault_counters(f"{tag} resume", report, jdir, failures)
    if not failures:
        extra_note = (
            f", {report.get('failures_injected', 0)} node failures "
            f"({report.get('tasks_resubmitted', 0)} resubmissions)"
            if failure_mtbf is not None
            else ""
        )
        print(
            f"{tag} resume ok: killed after "
            f"{' and '.join(map(str, killed_after))} admissions, "
            f"resumed to {report['admitted']} exactly-once, "
            f"{report['completed']} completed{extra_note}"
        )
    return failures


def _soak_stream(
    num_tasks: int, measure: Optional[Callable[[SliceEngine], None]] = None
) -> SliceEngine:
    """Stream *num_tasks* tasks of the benchmark's ``service-stream``
    shape (Adaptive-RL, 1.2 arrivals per second) through a
    :class:`SliceEngine`, in this process, keeping the
    :class:`IngressQueue` full until the producer runs dry.  The auditor
    (which keeps one record per task by design) and telemetry are off.
    Calls *measure* with the engine once a fifth of the stream has
    completed.
    """
    config = ExperimentConfig(
        scheduler="adaptive-rl",
        seed=_SOAK_SEED,
        num_tasks=num_tasks,
        arrival_period=None,
        mean_interarrival=1.0 / 1.2,
    )
    engine = SliceEngine(config, telemetry=NULL_TELEMETRY, strict=False)
    ingress = IngressQueue()
    generator = WorkloadGenerator(
        engine.workload_spec(), RandomStreams(_SOAK_SEED)
    )
    for task in generator.iter_tasks():
        while not ingress.submit(task, block=False):
            engine.advance(ingress)
            if measure is not None and engine.completed >= num_tasks // 5:
                measure(engine)
                measure = None
    ingress.close()
    engine.drain(ingress)
    return engine


def soak_growth(num_tasks: int) -> float:
    """Traced memory a service stream keeps per 1,000 completions, in MB.

    Compares what tracemalloc counts, after a full collection, once a
    fifth of a *num_tasks* stream has completed and once it has drained.
    A short untraced stream runs first, so the one-off costs of a
    process's first run (NumPy's median imports ``numpy.ma`` at the
    first drain) are not read as growth, whatever ran before.
    """
    _soak_stream(100)
    marks = []

    def measure(engine: SliceEngine) -> None:
        gc.collect()
        marks.append((engine.completed, tracemalloc.get_traced_memory()[0]))

    tracemalloc.start()
    try:
        measure(_soak_stream(num_tasks, measure))
    finally:
        tracemalloc.stop()
    if len(marks) != 2:
        raise ValueError(f"{num_tasks} tasks are too few to fill the ingress")
    (done0, kept0), (done1, kept1) = marks
    return (kept1 - kept0) / (done1 - done0) * 1000 / 2**20


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tasks", type=int, default=2000,
        help="stream length per phase (default: 2000)",
    )
    parser.add_argument(
        "--kill-after", type=int, default=200,
        help="journaled admissions before the SIGKILL (default: 200)",
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0,
        help="per-phase timeout in seconds (default: 120)",
    )
    parser.add_argument(
        "--failure-mtbf", type=float, default=250.0,
        help="mean time between node failures for the fault-injection "
        "phases (simulated time; default: 250)",
    )
    parser.add_argument(
        "--dir", default=None, help="work dir (default: temp dir)"
    )
    args = parser.parse_args(argv)
    workdir = Path(args.dir) if args.dir else Path(tempfile.mkdtemp())

    failures = _check_graceful(workdir, args.tasks, args.timeout)
    failures += _check_crash_resume(
        workdir, args.tasks, args.kill_after, args.timeout
    )
    failures += _check_graceful(
        workdir, args.tasks, args.timeout, failure_mtbf=args.failure_mtbf
    )
    failures += _check_crash_resume(
        workdir, args.tasks, args.kill_after, args.timeout,
        failure_mtbf=args.failure_mtbf,
    )
    failures += _check_crash_resume(
        workdir, args.tasks, args.kill_after, args.timeout, crashes=2
    )
    growth = soak_growth(SOAK_TASKS)
    print(
        f"soak: a {SOAK_TASKS}-task stream keeps {growth:.3f} MB of traced "
        f"memory per 1,000 completions (bound {SOAK_BOUND_MB} MB)"
    )
    if growth >= SOAK_BOUND_MB:
        failures.append(
            f"soak: {growth:.3f} MB per 1,000 completions is not below "
            f"{SOAK_BOUND_MB} MB"
        )
    for message in failures:
        print(f"FAIL: {message}")
    if not failures:
        print(
            "service selfcheck ok: graceful drain + crash resume "
            "verified, with and without failure injection, a double "
            "crash, and bounded traced growth"
        )
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
