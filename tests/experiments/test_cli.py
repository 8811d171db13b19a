"""Unit tests for the figure-regeneration CLI."""

from pathlib import Path

import pytest

from repro.experiments import cli
from repro.experiments.figures import FigurePlan

#: A frozen workload trace shipped with the package.
TRACE = (
    Path(cli.__file__).resolve().parents[1]
    / "workload/scenarios/swf-excerpt/trace.jsonl"
)


def _capture_plan(monkeypatch, run=False):
    """Record the plan ``cli.main`` builds; run it only when *run*."""
    plans = []
    real = cli._run_figures

    def capture(args, plan):
        plans.append(plan)
        return real(args, plan) if run else 0

    monkeypatch.setattr(cli, "_run_figures", capture)
    return plans


class TestCLI:
    def test_unknown_figure_errors(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fig99"])

    def test_quick_single_figure_runs(self, capsys, monkeypatch):
        # Shrink further for test speed.
        monkeypatch.setattr(cli, "QUICK_TASK_COUNTS", (40, 80))
        monkeypatch.setattr(cli, "QUICK_HEAVY", 80)
        rc = cli.main(["fig9", "--quick"])
        out = capsys.readouterr().out
        assert "FIG9" in out
        assert "shape checks:" in out
        assert rc in (0, 1)

    def test_workload_trace_flag_replays_frozen_input(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "QUICK_HEAVY", 60)
        plans = _capture_plan(monkeypatch, run=True)
        rc = cli.main(["fig9", "--quick", "--workload-trace", str(TRACE)])
        out = capsys.readouterr().out
        assert "replaying trace" in out
        assert rc in (0, 1)
        (plan,) = plans
        assert {c.workload_trace for c in plan.configs()} == {str(TRACE)}

    def test_workload_trace_flag_requires_existing_file(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fig9", "--workload-trace", "/no/such/file.jsonl"])
        assert "no such file" in capsys.readouterr().err

    @pytest.mark.parametrize("every", ["nan", "inf"])
    def test_sample_every_must_be_positive_and_finite(self, capsys, every):
        """A NaN or infinite cadence never arms the sampler: the run
        used to exit 0 with no series recorded."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["fig10", "--quick", "--sample-every", every])
        assert exc.value.code == 2
        assert "--sample-every" in capsys.readouterr().err

    def test_arrival_process_flag_sets_default(self, capsys, monkeypatch):
        """The flag reaches every config of the plan, and nothing else."""
        plans = _capture_plan(monkeypatch)
        rc = cli.main(["--quick", "--arrival-process", "diurnal"])
        assert rc == 0
        (plan,) = plans
        configs = plan.configs()
        assert len(configs) == 24
        for config in configs:
            assert config.workload_overrides == {"arrival_process": "diurnal"}
            assert config.workload_trace is None
        assert "diurnal" in capsys.readouterr().out

    def test_workload_flags_do_not_outlive_main(self, capsys, monkeypatch):
        """A config built after ``main`` returns carries neither flag."""
        from repro.experiments.config import ExperimentConfig

        monkeypatch.setattr(cli, "QUICK_HEAVY", 60)
        argv = ["fig9", "--quick", "--arrival-process", "mmpp"]
        assert cli.main(argv + ["--workload-trace", str(TRACE)]) in (0, 1)
        capsys.readouterr()
        config = ExperimentConfig()
        assert config.workload_overrides == {}
        assert config.workload_trace is None

    def test_strict_mode_does_not_outlive_main(self, capsys, monkeypatch):
        """``--strict`` holds while the figures run and is undone after,
        so later runs in the process are not audited."""
        import os

        from repro.validate import strict_mode_enabled

        seen = []

        def stub(args, plan):
            seen.append((os.environ.get("REPRO_STRICT"), strict_mode_enabled()))
            return 0

        monkeypatch.setattr(cli, "_run_figures", stub)
        before = (os.environ.get("REPRO_STRICT"), strict_mode_enabled())
        assert cli.main(["fig9", "--quick", "--strict"]) == 0
        assert seen == [("1", True)]
        assert (os.environ.get("REPRO_STRICT"), strict_mode_enabled()) == before

        def crash(args, plan):
            raise RuntimeError("run failed")

        monkeypatch.setattr(cli, "_run_figures", crash)
        with pytest.raises(RuntimeError):
            cli.main(["fig9", "--quick", "--strict"])
        assert (os.environ.get("REPRO_STRICT"), strict_mode_enabled()) == before
        capsys.readouterr()

    def test_trace_plan_runs_each_simulation_once(self, capsys, monkeypatch):
        """A trace replay ignores the task count, so the plan runs one
        config per (scheduler, seed, platform): 4 comparison schedulers
        and 5 heterogeneity levels, where it planned 24."""
        plans = _capture_plan(monkeypatch)
        assert cli.main(["--quick", "--workload-trace", str(TRACE)]) == 0
        capsys.readouterr()
        (plan,) = plans
        configs = plan.configs()
        assert len(configs) == 9
        assert {
            (c.scheduler, c.seed, c.platform) for c in configs
        } == {
            (c.scheduler, c.seed, c.platform)
            for c in FigurePlan(plan.figure_ids, task_counts=plan.task_counts).configs()
        }

    def test_save_dir_writes_figure_json(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "QUICK_HEAVY", 60)
        cli.main(["fig9", "--quick", "--save-dir", str(tmp_path)])
        capsys.readouterr()
        from repro.experiments.persistence import load_figure

        fig = load_figure(tmp_path / "fig9.json")
        assert fig.figure_id == "fig9"

    def test_trace_and_metrics_flags_write_artifacts(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(cli, "QUICK_HEAVY", 60)
        trace_path = tmp_path / "run.jsonl"
        chrome_path = tmp_path / "run.chrome.json"
        metrics_path = tmp_path / "metrics.json"
        cli.main(
            [
                "fig9",
                "--quick",
                "--trace", str(trace_path),
                "--chrome-trace", str(chrome_path),
                "--metrics-out", str(metrics_path),
                "--profile",
            ]
        )
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "span" in out  # the --profile table printed

        from repro.obs import load_jsonl

        events = load_jsonl(trace_path)
        assert events, "trace file is empty"
        cats = {e.category for e in events}
        assert {"run", "task", "group", "rl", "energy"} <= cats

        import json

        chrome = json.loads(chrome_path.read_text())
        assert chrome["traceEvents"]
        metrics = json.loads(metrics_path.read_text())
        assert metrics["sim.events_processed"]["value"] > 0

    def test_ambient_telemetry_reset_after_main(self, capsys, monkeypatch, tmp_path):
        from repro.obs import NULL_TELEMETRY, get_telemetry

        monkeypatch.setattr(cli, "QUICK_HEAVY", 60)
        cli.main(["fig9", "--quick", "--trace", str(tmp_path / "t.jsonl")])
        capsys.readouterr()
        assert get_telemetry() is NULL_TELEMETRY

    def test_every_figure_runs_each_job_once(self, capsys, monkeypatch):
        from repro.experiments import ExperimentConfig, PAPER_COMPARISON, figures
        from repro.parallel import job_id

        calls = []
        real = figures.run_experiment

        def counting_run(config, *args, **kwargs):
            calls.append(job_id(config))
            return real(config, *args, **kwargs)

        # Fig 10's light count is a Fig 7/8 count; Fig 9's heavy one is not.
        monkeypatch.setattr(cli, "QUICK_TASK_COUNTS", (30, 60))
        monkeypatch.setattr(cli, "QUICK_HEAVY", 45)
        monkeypatch.setattr(cli, "LIGHT_TASKS", 30)
        monkeypatch.setattr(figures, "run_experiment", counting_run)
        rc = cli.main(["--quick"])
        out = capsys.readouterr().out
        assert rc in (0, 1)
        assert all(f"FIG{i}" in out for i in range(7, 13))

        def ids(schedulers, n):
            return {
                job_id(ExperimentConfig(scheduler=s, num_tasks=n, seed=1))
                for s in schedulers
            }

        comparison = ids(PAPER_COMPARISON, 30) | ids(PAPER_COMPARISON, 60)
        fig9 = ids(("adaptive-rl", "online-rl"), 45)
        # Each job once: the comparison grid, Fig 9's own pair and the
        # 2 loads x 5 heterogeneity levels -- Fig 10 adds no run.
        assert len(calls) == len(set(calls)) == len(comparison) + 2 + 10
        assert comparison | fig9 <= set(calls)
        assert "campaign: 20 distinct runs" in out

    def test_two_workers_write_the_serial_figures(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.experiments import figures

        monkeypatch.setattr(cli, "QUICK_TASK_COUNTS", (30, 60))
        monkeypatch.setattr(cli, "QUICK_HEAVY", 60)
        monkeypatch.setattr(cli, "LIGHT_TASKS", 30)
        cli.main(["--quick", "--jobs", "1", "--save-dir", str(tmp_path / "serial")])

        def no_run_in_this_process(config, *args, **kwargs):
            raise AssertionError("--jobs 2 ran a simulation outside the pool")

        monkeypatch.setattr(figures, "run_experiment", no_run_in_this_process)
        cli.main(["--quick", "--jobs", "2", "--save-dir", str(tmp_path / "par")])
        capsys.readouterr()
        for fid in figures.ALL_FIGURES:
            serial = (tmp_path / "serial" / f"{fid}.json").read_bytes()
            assert (tmp_path / "par" / f"{fid}.json").read_bytes() == serial, fid
