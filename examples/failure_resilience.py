"""Failure resilience: crash-stop nodes, resubmitted tasks, power timeline.

The paper motivates energy management partly through reliability
("system overheating causes system freeze and frequent system
failures", §I).  This example injects exponential node failures while
Adaptive-RL runs, shows that every task still completes exactly once
(abandoned work is resubmitted transparently), and renders the
instantaneous platform power, recorded by the flight recorder
(:class:`repro.obs.PeriodicSampler`), as an ASCII timeline.

Usage::

    python examples/failure_resilience.py [num_tasks] [mtbf]
"""

import math
import sys

from repro.cluster import FailureInjector, FailureModel, PlatformSpec, build_system
from repro.core import AdaptiveRLScheduler
from repro.metrics import collect_metrics
from repro.obs import PeriodicSampler, SeriesBank, make_run_probes
from repro.sim import Environment, RandomStreams
from repro.workload import WorkloadGenerator, WorkloadSpec


def ascii_plot(times, values, width=60, height=10) -> str:
    """Render a sampled series as a small ASCII chart."""
    if len(values) < 2:
        return "(insufficient samples)"
    lo, hi = min(values), max(values)
    span = hi - lo or 1.0
    step = max(1, len(values) // width)
    cols = [
        sum(values[i : i + step]) / len(values[i : i + step])
        for i in range(0, len(values), step)
    ][:width]
    rows = []
    for level in range(height, 0, -1):
        threshold = lo + span * (level - 0.5) / height
        rows.append("".join("#" if c >= threshold else " " for c in cols))
    rows.append("-" * len(cols))
    rows.append(f"power: {lo:.0f}–{hi:.0f} W over t=[0, {times[-1]:.0f}]")
    return "\n".join(rows)


def main() -> None:
    num_tasks = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    mtbf = float(sys.argv[2]) if len(sys.argv) > 2 else 800.0

    env = Environment()
    streams = RandomStreams(seed=21)
    system = build_system(
        env,
        PlatformSpec(num_sites=3, nodes_per_site=(4, 6), procs_per_node=(4, 6)),
        streams,
    )
    tasks = WorkloadGenerator(
        WorkloadSpec(
            num_tasks=num_tasks,
            mean_interarrival=2500.0 / num_tasks,
            size_range_mi=(600.0 * 24, 7200.0 * 24),
        ),
        streams,
    ).generate()

    scheduler = AdaptiveRLScheduler()
    scheduler.attach(env, system, streams)
    done = scheduler.expect(len(tasks))
    model = FailureModel(mean_time_between_failures=mtbf, mean_time_to_repair=60.0)
    injector = FailureInjector(env, system.nodes, model, streams)
    injector.advance_frontier(math.inf)  # no horizon: inject without bound
    bank = SeriesBank()
    PeriodicSampler(
        bank,
        every=10.0,
        until=tasks[-1].arrival_time * 50,
        probes=make_run_probes(system, scheduler, env),
    ).attach(env)

    def arrivals():
        for t in tasks:
            if env.now < t.arrival_time:
                yield env.timeout(t.arrival_time - env.now)
            scheduler.submit(t)

    env.process(arrivals())
    env.run(until=done)
    for proc in system.processors:
        proc.meter.finalize(env.now)
    metrics = collect_metrics(scheduler, system, tasks)

    print(f"platform         : {system}  (node availability {model.availability:.1%})")
    print(f"failures injected: {injector.failures_injected} "
          f"(repairs {injector.repairs_completed})")
    print(f"tasks resubmitted: {scheduler.tasks_resubmitted}")
    print(f"completed        : {metrics.response.count}/{num_tasks} "
          f"(every task exactly once)")
    print(f"AveRT            : {metrics.avert:.1f}   "
          f"success: {metrics.success_rate:.1%}   "
          f"ECS: {metrics.ecs / 1e6:.3f}M")
    print()
    print("instantaneous platform power:")
    power = bank.get("power.system")
    print(ascii_plot(power.times(), power.values().tolist(), width=70, height=8))


if __name__ == "__main__":
    main()
