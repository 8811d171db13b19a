"""Unit tests for the prediction-based baseline [13]."""

import numpy as np
import pytest

from repro.baselines import PredictionBasedScheduler, ResponseTimePredictor
from repro.sim import RandomStreams
from repro.workload import Task


def make_task(tid, arrival=0.0, size=1000.0, slack=100.0):
    return Task(
        tid=tid,
        size_mi=size,
        arrival_time=arrival,
        act=1.0,
        deadline=arrival + 1.0 * (1 + slack),
    )


class TestPredictor:
    def test_cold_start_uses_analytic_estimate(self):
        p = ResponseTimePredictor()
        assert not p.trained
        # features = [1, service, queue]: estimate = service + queue
        assert p.predict([1.0, 2.0, 3.0]) == pytest.approx(5.0)

    def test_refit_requires_min_samples(self):
        p = ResponseTimePredictor(min_samples=5)
        for i in range(4):
            p.observe([1.0, float(i), 0.0], float(i))
        assert not p.refit()
        p.observe([1.0, 4.0, 0.0], 4.0)
        assert p.refit()
        assert p.trained

    def test_learns_linear_relationship(self):
        p = ResponseTimePredictor(min_samples=5)
        # rt = 2·service + 0.5·queue
        for s in range(1, 20):
            for q in range(0, 5):
                p.observe([1.0, float(s), float(q)], 2.0 * s + 0.5 * q)
        p.refit()
        assert p.predict([1.0, 10.0, 2.0]) == pytest.approx(21.0, rel=0.05)

    def test_prediction_clamped_nonnegative(self):
        p = ResponseTimePredictor(min_samples=3)
        for i in range(5):
            p.observe([1.0, float(i), 0.0], 0.01)
        p.refit()
        assert p.predict([1.0, -100.0, 0.0]) >= 0.0

    def test_history_bounded(self):
        p = ResponseTimePredictor(min_samples=3, max_history=10)
        for i in range(50):
            p.observe([1.0, float(i), 0.0], float(i))
        assert len(p._x) == 10

    @pytest.mark.parametrize("observations", [23, 40, 41, 97])
    def test_refit_uses_the_last_max_history_rows(self, observations):
        # Past max_history observations the model must fit exactly the
        # coefficients lstsq gives over the last max_history rows, built
        # from lists as the rows arrived; both fits run on this host.
        rng = np.random.default_rng(observations)
        p = ResponseTimePredictor(min_samples=3, max_history=10)
        rows, outcomes = [], []
        for _ in range(observations):
            size, queue = rng.uniform(0.1, 50.0, size=2).tolist()
            row = [1.0, size, queue]
            outcome = 2.0 * size + 0.5 * queue + rng.normal()
            rows.append(row)
            outcomes.append(outcome)
            p.observe(list(row), outcome)
        assert p.refit()
        expected, *_ = np.linalg.lstsq(
            np.asarray(rows[-10:]), np.asarray(outcomes[-10:]), rcond=None
        )
        assert p._coef.tobytes() == expected.tobytes()

    def test_invalid_min_samples(self):
        with pytest.raises(ValueError):
            ResponseTimePredictor(min_samples=2)


class TestScheduler:
    def drive(self, env, system, n_tasks=40):
        sched = PredictionBasedScheduler(refit_every=10)
        sched.attach(env, system, RandomStreams(seed=5))
        tasks = [make_task(i, arrival=i * 0.2) for i in range(n_tasks)]
        done = sched.expect(len(tasks))

        def arrivals():
            for t in tasks:
                if env.now < t.arrival_time:
                    yield env.timeout(t.arrival_time - env.now)
                sched.submit(t)

        env.process(arrivals())
        env.run(until=done)
        return sched, tasks

    def test_completes_workload(self, env, small_system):
        sched, _ = self.drive(env, small_system)
        assert len(sched.completed) == 40

    def test_predictor_trains_from_completions(self, env, small_system):
        sched, _ = self.drive(env, small_system)
        assert sched.predictor.trained
        assert sched.predictor.refits >= 1

    def test_consolidation_prefers_active_nodes(self, env, small_system):
        sched = PredictionBasedScheduler()
        sched.attach(env, small_system, RandomStreams(seed=5))
        # Occupy one node, keep the rest idle.
        from repro.cluster import TaskGroup

        busy = small_system.nodes[0]
        busy.submit(TaskGroup([make_task(99, size=20000.0)], created_at=0.0))
        order = sched._consolidation_order()
        assert order[0] is busy

    def test_infeasible_deadline_falls_back_to_fastest_prediction(
        self, env, small_system
    ):
        sched = PredictionBasedScheduler()
        sched.attach(env, small_system, RandomStreams(seed=5))
        hopeless = Task(
            tid=0, size_mi=1e6, arrival_time=0.0, act=1.0, deadline=1.0
        )
        node = sched._pick_node(hopeless)
        assert node is not None

    def test_invalid_refit_every(self):
        with pytest.raises(ValueError):
            PredictionBasedScheduler(refit_every=0)
