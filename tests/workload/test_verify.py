"""Unit tests for the standalone scenario verifier.

The verifier's contract is adversarial: given a scenario (frozen trace +
baseline) and a results file, it must recompute every headline metric
from raw task/processor records and catch any tampering — without ever
importing scheduler code.
"""

import copy
import json
import subprocess
import sys

import pytest

from repro.workload.verify import (
    BASELINE_METRICS,
    Scenario,
    VerifyReport,
    builtin_scenario_dir,
    file_sha256,
    list_scenarios,
    load_scenario,
    verify_results,
    verify_scenario,
)


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("synthetic-diurnal")


@pytest.fixture(scope="module")
def fcfs_results(scenario):
    """One real scheduler pass, shared by every tamper test."""
    from repro.experiments.scenario import export_run_records, run_scenario

    result = run_scenario(scenario, "fcfs")
    return export_run_records(result, scenario)


@pytest.fixture()
def trace(scenario):
    report, trace = verify_scenario(scenario)
    assert report.passed, report.failures
    return trace


class TestScenarioLoading:
    def test_builtin_scenarios_listed(self):
        names = list_scenarios()
        assert "synthetic-diurnal" in names
        assert "synthetic-burst" in names
        assert "swf-excerpt" in names

    def test_load_by_name_and_by_path(self):
        by_name = load_scenario("swf-excerpt")
        by_path = load_scenario(builtin_scenario_dir() / "swf-excerpt")
        assert by_name.trace_sha256 == by_path.trace_sha256

    def test_unknown_scenario(self):
        with pytest.raises(FileNotFoundError, match="known scenarios"):
            load_scenario("does-not-exist")

    def test_every_builtin_scenario_verifies(self):
        for name in list_scenarios():
            report, _ = verify_scenario(load_scenario(name))
            assert report.passed, (name, report.failures)

    def test_baselines_cover_two_schedulers(self):
        """The acceptance bar: adaptive-rl plus at least one baseline."""
        for name in list_scenarios():
            scenario = load_scenario(name)
            assert "adaptive-rl" in scenario.baselines
            assert len(scenario.baselines) >= 2
            for metrics in scenario.baselines.values():
                assert set(BASELINE_METRICS) <= set(metrics)


class TestTraceIntegrity:
    def _tampered(self, scenario, tmp_path, mutate):
        lines = scenario.trace_path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        mutate(records)
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(json.dumps(r) + "\n" for r in records))
        data = json.loads((scenario.directory / "scenario.json").read_text())
        data["trace_sha256"] = file_sha256(trace)
        (tmp_path / "scenario.json").write_text(json.dumps(data))
        (tmp_path / "baseline.json").write_text(
            (scenario.directory / "baseline.json").read_text()
        )
        return load_scenario(tmp_path)

    def test_sha_mismatch_detected(self, scenario, tmp_path):
        tampered = self._tampered(scenario, tmp_path, lambda r: None)
        object.__setattr__(tampered, "trace_sha256", "0" * 64)
        report, _ = verify_scenario(tampered)
        assert not report.passed
        assert any("sha256" in f.name for f in report.failures)

    def test_duplicate_tid_detected(self, scenario, tmp_path):
        def mutate(records):
            records[1]["tid"] = records[0]["tid"]

        report, _ = verify_scenario(self._tampered(scenario, tmp_path, mutate))
        assert not report.passed
        assert any("duplicate" in f.detail for f in report.failures)

    def test_deadline_before_arrival_detected(self, scenario, tmp_path):
        def mutate(records):
            records[0]["deadline"] = records[0]["arrival_time"] - 1.0

        report, _ = verify_scenario(self._tampered(scenario, tmp_path, mutate))
        assert not report.passed

    def test_arrival_regression_detected(self, scenario, tmp_path):
        def mutate(records):
            records[5]["arrival_time"] = records[4]["arrival_time"] - 50.0

        report, _ = verify_scenario(self._tampered(scenario, tmp_path, mutate))
        assert not report.passed


class TestResultVerification:
    def test_honest_results_pass(self, scenario, trace, fcfs_results):
        report = VerifyReport(scenario=scenario.name)
        verify_results(scenario, fcfs_results, trace, report)
        assert report.passed, [f.name for f in report.failures]

    @pytest.mark.parametrize(
        "mutate, expect",
        [
            (lambda r: r["metrics"].__setitem__("success_rate", 1.0001),
             "recompute.success_rate"),
            (lambda r: r["metrics"].__setitem__("avert", r["metrics"]["avert"] * 0.5),
             "recompute.avert"),
            (lambda r: r["metrics"].__setitem__("makespan", 1.0),
             "recompute.makespan"),
            (lambda r: r["tasks"][0].__setitem__(
                "start", r["tasks"][0]["start"] - 1e6), "feasibility"),
            (lambda r: r["tasks"].pop(3), "coverage"),
            (lambda r: r["processors"][0].__setitem__(
                "busy_time", r["processors"][0]["busy_time"] + 500.0),
             "busy-seconds"),
            (lambda r: r.__setitem__("trace_sha256", "f" * 64), "trace-pin"),
        ],
        ids=[
            "inflated-success-rate",
            "halved-avert",
            "shrunk-makespan",
            "start-before-arrival",
            "dropped-task",
            "padded-busy-time",
            "wrong-trace-pin",
        ],
    )
    def test_tampering_caught(self, scenario, trace, fcfs_results, mutate, expect):
        results = copy.deepcopy(fcfs_results)
        mutate(results)
        report = VerifyReport(scenario=scenario.name)
        verify_results(scenario, results, trace, report)
        assert not report.passed
        assert any(expect in f.name for f in report.failures), (
            expect,
            [f.name for f in report.failures],
        )

    def test_two_tasks_on_one_processor_must_not_overlap(
        self, scenario, trace, fcfs_results
    ):
        results = copy.deepcopy(fcfs_results)
        tasks = sorted(results["tasks"], key=lambda t: t["start"])
        a, b = tasks[0], tasks[1]
        b["processor"] = a["processor"]
        b["start"] = a["start"]  # force an overlap on a's processor
        report = VerifyReport(scenario=scenario.name)
        verify_results(scenario, results, trace, report)
        assert not report.passed

    def test_baseline_drift_caught(self, scenario, trace, fcfs_results):
        drifted = Scenario(
            name=scenario.name,
            directory=scenario.directory,
            description=scenario.description,
            trace_path=scenario.trace_path,
            trace_sha256=scenario.trace_sha256,
            source=scenario.source,
            run=scenario.run,
            tolerances=scenario.tolerances,
            baselines={
                **scenario.baselines,
                "fcfs": {
                    **scenario.baselines["fcfs"],
                    "avert": scenario.baselines["fcfs"]["avert"] * 1.5,
                },
            },
        )
        report = VerifyReport(scenario=scenario.name)
        verify_results(drifted, fcfs_results, trace, report)
        assert any("baseline.avert" in f.name for f in report.failures)

    def test_skip_baseline_ignores_unknown_scheduler(
        self, scenario, trace, fcfs_results
    ):
        results = copy.deepcopy(fcfs_results)
        results["scheduler"] = "not-in-baselines"
        report = VerifyReport(scenario=scenario.name)
        verify_results(scenario, results, trace, report, check_baseline=False)
        assert report.passed, [f.name for f in report.failures]


class TestCommittedScenarios:
    @pytest.mark.parametrize("scheduler", ["adaptive-rl", "fcfs"])
    @pytest.mark.parametrize("name", list_scenarios())
    def test_scheduler_results_verify(self, name, scheduler):
        """CI's recipe: run, export as JSON, verify incl. the baseline."""
        from repro.experiments.scenario import export_run_records, run_scenario

        scenario = load_scenario(name)
        result = run_scenario(scenario, scheduler)
        results = json.loads(json.dumps(export_run_records(result, scenario)))
        report, trace = verify_scenario(scenario)
        verify_results(scenario, results, trace, report)
        assert report.passed, [f.name for f in report.failures]


class TestCommandLine:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.workload.verify", *argv],
            capture_output=True,
            text=True,
        )

    def test_scenario_only_pass(self):
        proc = self._run("synthetic-burst")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS" in proc.stdout

    def test_results_pass_and_json(self, scenario, fcfs_results, tmp_path):
        res = tmp_path / "results.json"
        res.write_text(json.dumps(fcfs_results))
        proc = self._run("synthetic-diurnal", "--results", str(res), "--json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["passed"] is True

    def test_tampered_results_exit_1(self, scenario, fcfs_results, tmp_path):
        bad = copy.deepcopy(fcfs_results)
        bad["metrics"]["success_rate"] = 1.0001
        res = tmp_path / "results.json"
        res.write_text(json.dumps(bad))
        proc = self._run("synthetic-diurnal", "--results", str(res))
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_unknown_scenario_exit_2(self):
        assert self._run("no-such-scenario").returncode == 2

    def test_list(self):
        proc = self._run("--list")
        assert proc.returncode == 0
        assert "swf-excerpt" in proc.stdout

    def test_cli_never_imports_scheduler_code(self):
        """The whole point of the standalone verifier: rerunning the
        checks must not touch the scheduler/RL stack it is auditing."""
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; import repro.workload.verify as v; "
                "v.main(['synthetic-burst']); "
                "bad = [m for m in sys.modules if m.startswith("
                "('repro.core', 'repro.baselines', 'repro.rl', "
                "'repro.experiments'))]; "
                "sys.exit(3 if bad else 0)",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
