"""Process-pool campaign execution with checkpointing and retry.

:func:`run_parallel` fans a list of experiment configs out over a
``concurrent.futures.ProcessPoolExecutor``:

- every config gets a deterministic job id (:func:`repro.parallel.jobs.job_id`);
- pending jobs are submitted longest first (by ``num_tasks``), so no
  long job starts last while the other workers idle;
- completions are journaled (JSONL, fsynced) as they land, so an
  interrupted campaign resumed with ``resume=True`` re-executes only
  unfinished jobs — exactly-once completion keyed on job id;
- a job whose attempt raises, or whose worker process dies, is retried
  with exponential backoff up to ``max_retries`` times;
- with ``sample_every`` each worker arms its flight recorder and writes
  a per-job series bank, merged into one bank when the campaign
  completes.

Workers rebuild their config from its dict form
(``ExperimentConfig.from_dict``) and produce records through the same
:func:`~repro.experiments.persistence.run_record` builder as the serial
campaign path, so at equal seeds a parallel run yields the identical
record set (modulo the host-dependent ``wall_seconds`` field).
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from concurrent.futures.process import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Tuple, Union

from ..experiments.config import ExperimentConfig
from .errors import CampaignInterrupted, JournalError, RetryBudgetExceeded
from .jobs import Job, build_jobs
from .journal import JOURNAL_FILENAME, CheckpointJournal, JournalState
from .merge import merge_series_files

__all__ = ["ParallelResult", "run_parallel"]


@dataclass(frozen=True)
class ParallelResult:
    """Outcome of one :func:`run_parallel` invocation."""

    #: Per-run campaign records, in the order of the input configs.
    records: list
    wall_seconds: float
    #: Job ids executed by this invocation.
    executed: Tuple[str, ...]
    #: Job ids satisfied from the journal (resume skips).
    skipped: Tuple[str, ...]
    #: Attempts beyond the first across all jobs.
    retries: int
    journal_path: Optional[Path] = None
    #: Merged flight-recorder bank (``sample_every`` runs only).
    series_path: Optional[Path] = None


def _execute_job(payload: dict) -> dict:
    """Worker entry point: run one config, return its campaign record.

    Top-level so it pickles under every multiprocessing start method.
    Imports of the simulation stack happen lazily to keep spawn-mode
    worker startup from paying for them before they are needed.
    """
    fault = payload.get("fault")
    attempt = payload["attempt"]
    if fault is not None:
        kind, failing_attempts = fault
        if attempt <= failing_attempts:
            if kind == "exit":  # simulate a dying worker process
                os._exit(13)
            raise RuntimeError(f"injected fault on attempt {attempt}")

    from ..experiments.persistence import run_record
    from ..experiments.runner import run_experiment
    from ..obs import SeriesBank, Telemetry

    config = ExperimentConfig.from_dict(payload["config"])
    obs_dir = payload.get("obs_dir")
    telemetry = (
        Telemetry(series=SeriesBank(), sample_every=payload["sample_every"])
        if obs_dir is not None
        else None
    )

    started = time.perf_counter()
    run = run_experiment(config, telemetry=telemetry)
    wall = time.perf_counter() - started
    record = run_record(config, run.metrics, wall)

    if obs_dir is not None:
        out = Path(obs_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"series-{payload['job_id']}.json").write_text(
            json.dumps(telemetry.series.as_dict()), encoding="utf-8"
        )
    return {"job_id": payload["job_id"], "record": record}


def run_parallel(
    configs: Sequence[ExperimentConfig],
    *,
    jobs: int = 2,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    campaign_name: str = "campaign",
    max_retries: int = 2,
    backoff_base: float = 0.25,
    backoff_cap: float = 4.0,
    sample_every: Optional[float] = None,
    stop_after: Optional[int] = None,
    on_record: Optional[Callable[[dict], None]] = None,
    mp_context=None,
    _fault_spec: Optional[Mapping[int, tuple]] = None,
) -> ParallelResult:
    """Execute *configs* over a pool of *jobs* worker processes.

    Parameters
    ----------
    configs:
        The campaign grid; duplicates are rejected (exactly-once
        execution keys on the deterministic per-config job id).  Jobs
        are submitted longest first by ``num_tasks``, ties in grid
        order; records come back in grid order.
    jobs:
        Worker process count (≥ 1).
    checkpoint_dir:
        Directory for the checkpoint journal (``journal.jsonl``) and,
        with ``sample_every``, the per-job series banks plus their
        merged ``series.json``.  ``None`` runs without any
        checkpointing.
    resume:
        Skip every job the directory's journal records as done and
        append to that journal.  A missing journal starts fresh.
    max_retries:
        Extra attempts allowed per job after its first (worker death
        counts against every job that was in flight, since the engine
        cannot attribute the crash).
    backoff_base / backoff_cap:
        Retry delay: ``min(cap, base * 2**(attempt-1))`` seconds.
    sample_every:
        Arm each worker's flight recorder on this sampling cadence
        (simulated time); the per-job series banks merge into one
        ``series.json`` at the end.  Requires ``checkpoint_dir`` (the
        per-job banks land next to the journal).
    stop_after:
        Test/CI hook — raise :class:`CampaignInterrupted` (journal
        flushed) once this many jobs complete in this invocation.
    on_record:
        Callback invoked with each fresh record as it completes.
    mp_context:
        ``multiprocessing`` context; default interpreter choice.
    _fault_spec:
        Test hook: ``{config_index: ("raise"|"exit", n_attempts)}``
        makes the job fail its first ``n_attempts`` attempts.

    Raises
    ------
    CampaignInterrupted
        On ``stop_after`` or ``KeyboardInterrupt`` — the journal is
        consistent and the run can be resumed.
    RetryBudgetExceeded
        When a job fails every allowed attempt.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint_dir")
    if sample_every is not None and checkpoint_dir is None:
        raise ValueError("sample_every requires a checkpoint_dir")
    if sample_every is not None and not 0 < sample_every < math.inf:
        raise ValueError("sample_every must be positive and finite")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")

    job_list = build_jobs(configs)
    by_id = {job.job_id: job for job in job_list}
    fault_by_id = {
        job_list[i].job_id: tuple(spec)
        for i, spec in (_fault_spec or {}).items()
    }

    checkpoint_path = Path(checkpoint_dir) if checkpoint_dir else None
    want_series = checkpoint_path is not None and sample_every is not None
    obs_dir = checkpoint_path / "obs" if want_series else None

    # --- recover prior state -------------------------------------------------
    state = JournalState()
    journal_path = checkpoint_path / JOURNAL_FILENAME if checkpoint_path else None
    if resume and journal_path is not None and journal_path.exists():
        state = CheckpointJournal.load(journal_path)
        unknown = set(state.completed) - set(by_id)
        if state.header is not None and unknown == set(state.completed) and state.completed:
            raise JournalError(
                f"{journal_path}: no journaled job matches this grid — "
                "wrong checkpoint directory?"
            )

    completed: dict = {
        jid: record for jid, record in state.completed.items() if jid in by_id
    }
    pending = [job for job in job_list if job.job_id not in completed]
    skipped = tuple(job.job_id for job in job_list if job.job_id in completed)

    journal: Optional[CheckpointJournal] = None
    if journal_path is not None:
        journal = CheckpointJournal(journal_path).open(
            fresh=not (resume and journal_path.exists())
        )
        if state.entries:
            journal.write_resume(pending=len(pending))
        else:
            journal.write_header(
                campaign_name, [j.job_id for j in job_list], len(job_list)
            )

    executed: list = []
    attempts: dict = {job.job_id: 0 for job in pending}
    retries = 0
    finished_this_run = 0
    started_wall = time.monotonic()

    def payload_for(job: Job) -> dict:
        attempts[job.job_id] += 1
        if journal is not None:
            journal.write_start(job.job_id, attempts[job.job_id])
        return {
            "job_id": job.job_id,
            "attempt": attempts[job.job_id],
            "config": job.config.to_dict(),
            "obs_dir": str(obs_dir) if obs_dir is not None else None,
            "sample_every": sample_every,
            "fault": fault_by_id.get(job.job_id),
        }

    def register_failure(job: Job, message: str) -> None:
        nonlocal retries
        attempt = attempts[job.job_id]
        if journal is not None:
            journal.write_fail(job.job_id, attempt, message)
        if attempt > max_retries:
            raise RetryBudgetExceeded(job.job_id, attempt, message)
        retries += 1

    def backoff_for(job: Job) -> float:
        return min(backoff_cap, backoff_base * 2 ** (attempts[job.job_id] - 1))

    try:
        # Longest first; ``sorted`` is stable, so ties keep grid order.
        to_run = sorted(pending, key=lambda job: -job.config.num_tasks)
        while to_run:
            pool = ProcessPoolExecutor(max_workers=jobs, mp_context=mp_context)
            futures = {pool.submit(_execute_job, payload_for(j)): j for j in to_run}
            to_run = []
            settled = False
            try:
                while futures:
                    done_set, _ = wait(
                        list(futures), return_when=FIRST_COMPLETED
                    )
                    pool_broken = False
                    for future in done_set:
                        job = futures.pop(future)
                        try:
                            outcome = future.result()
                        except BrokenExecutor:
                            # The pool is dead; every in-flight job must
                            # be re-run on a fresh pool.  The crash is
                            # unattributable, so it counts as a failed
                            # attempt for each of them.
                            survivors = [job, *futures.values()]
                            futures.clear()
                            for lost in survivors:
                                register_failure(lost, "worker process died")
                            time.sleep(max(backoff_for(j) for j in survivors))
                            to_run.extend(survivors)
                            pool_broken = True
                            break
                        except Exception as exc:  # job-level failure
                            register_failure(job, f"{type(exc).__name__}: {exc}")
                            time.sleep(backoff_for(job))
                            futures[
                                pool.submit(_execute_job, payload_for(job))
                            ] = job
                            continue
                        record = outcome["record"]
                        completed[job.job_id] = record
                        executed.append(job.job_id)
                        finished_this_run += 1
                        if journal is not None:
                            journal.write_done(
                                job.job_id, attempts[job.job_id], record
                            )
                        if on_record is not None:
                            on_record(record)
                        if (
                            stop_after is not None
                            and finished_this_run >= stop_after
                            and (futures or to_run)
                        ):
                            raise CampaignInterrupted(
                                completed=finished_this_run,
                                remaining=len(futures) + len(to_run),
                            )
                    if pool_broken:
                        break
                settled = not pool_broken
            finally:
                # Every future resolved: join the pool, so none of its
                # threads outlives the call.  An interrupt, an exhausted
                # retry budget or a broken pool leaves at once.
                pool.shutdown(wait=settled, cancel_futures=not settled)
    except KeyboardInterrupt as exc:
        remaining = len(job_list) - len(completed)
        raise CampaignInterrupted(
            completed=finished_this_run, remaining=remaining
        ) from exc
    finally:
        if journal is not None:
            journal.close()

    records = [completed[job.job_id] for job in job_list]
    series_path = None
    if obs_dir is not None:
        series_files = sorted(obs_dir.glob("series-*.json"))
        if series_files:
            series_path = checkpoint_path / "series.json"
            merge_series_files(series_files, out=series_path)

    return ParallelResult(
        records=records,
        wall_seconds=time.monotonic() - started_wall,
        executed=tuple(executed),
        skipped=skipped,
        retries=retries,
        journal_path=journal_path,
        series_path=series_path,
    )
