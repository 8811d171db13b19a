"""The parallel bench claims a speedup only where the host can give one."""

from benchmarks.bench_parallel import speedups

TIMINGS = {"serial": 4.0, "jobs2": 2.5, "jobs4": 2.2}


def test_one_cpu_withholds_every_speedup():
    out = speedups(TIMINGS, cpus=1)
    assert out["speedup_vs_serial"] is None
    assert "cpu_count is 1" in out["speedup_reason"]


def test_job_counts_above_the_cpu_count_are_withheld():
    out = speedups(TIMINGS, cpus=2)
    assert out["speedup_vs_serial"] == {"jobs2": 1.6, "jobs4": None}
    assert set(out["speedup_reason"]) == {"jobs4"}


def test_enough_cpus_reports_every_speedup():
    out = speedups(TIMINGS, cpus=4)
    assert out["speedup_vs_serial"] == {"jobs2": 1.6, "jobs4": 1.818}
    assert out["speedup_reason"] == {}
