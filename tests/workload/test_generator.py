"""Unit tests for the synthetic workload generator (§V.A)."""

import numpy as np
import pytest

from repro.sim import RandomStreams
from repro.workload import Priority, WorkloadGenerator, WorkloadSpec

NAN = float("nan")
INF = float("inf")


def generate(seed=1, **overrides):
    spec = WorkloadSpec(**overrides)
    return WorkloadGenerator(spec, RandomStreams(seed=seed)).generate()


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_tasks=0),
            dict(mean_interarrival=0),
            dict(size_range_mi=(0, 100)),
            dict(size_range_mi=(200, 100)),
            dict(priority_mix=(0.5, 0.5)),
            dict(priority_mix=(0.5, 0.4, 0.2)),
            dict(priority_mix=(-0.1, 0.6, 0.5)),
            dict(reference_speed_mips=0),
            dict(diurnal_period=0),
            dict(diurnal_amplitude=-0.1),
            dict(diurnal_amplitude=1.5),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(arrival_process="mmpp", mmpp_burstiness=NAN),
            dict(arrival_process="diurnal", diurnal_period=NAN),
            dict(arrival_process="diurnal", diurnal_phase=NAN),
            dict(arrival_process="diurnal", diurnal_phase=INF),
        ],
    )
    def test_non_finite_modulation_rejected(self, kwargs):
        """A NaN rate parameter never ends the MMPP or thinning draw
        loops: generation used to hang instead of failing here."""
        with pytest.raises(ValueError, match="must be"):
            WorkloadSpec(num_tasks=20, **kwargs)

    @pytest.mark.parametrize("field", ["mean_interarrival", "first_arrival"])
    @pytest.mark.parametrize("value", [NAN, INF])
    def test_non_finite_arrival_rejected(self, field, value):
        """These used to build tasks with NaN or infinite arrivals."""
        with pytest.raises(ValueError, match=field):
            WorkloadSpec(num_tasks=20, **{field: value})

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(reference_speed_mips=NAN),
            dict(reference_speed_mips=INF),
            dict(pareto_alpha=NAN, size_distribution="bounded-pareto"),
            dict(size_range_mi=(600.0, INF)),
        ],
    )
    def test_non_finite_size_or_speed_rejected(self, kwargs):
        """These used to build tasks with NaN or infinite sizes, ACTs and
        deadlines."""
        with pytest.raises(ValueError, match="must be"):
            WorkloadSpec(num_tasks=20, **kwargs)

    def test_degenerate_pareto_range_rejected(self):
        """A point-mass size range silently breaks bounded-Pareto inversion
        (lo == hi makes the CDF inversion divide 0/0); the spec must name
        both offending fields instead of generating NaNs downstream."""
        with pytest.raises(ValueError, match="size_range_mi.*bounded-pareto"):
            WorkloadSpec(
                size_range_mi=(5000.0, 5000.0),
                size_distribution="bounded-pareto",
            )

    def test_degenerate_range_fine_for_uniform(self):
        tasks = generate(num_tasks=10, size_range_mi=(5000.0, 5000.0))
        assert all(t.size_mi == 5000.0 for t in tasks)


class TestGeneration:
    def test_count_and_sorted_arrivals(self):
        tasks = generate(num_tasks=200)
        assert len(tasks) == 200
        arrivals = [t.arrival_time for t in tasks]
        assert arrivals == sorted(arrivals)
        assert all(t.arrival_time >= 0 for t in tasks)

    def test_sizes_within_range(self):
        tasks = generate(num_tasks=500, size_range_mi=(600.0, 7200.0))
        assert all(600 <= t.size_mi <= 7200 for t in tasks)

    def test_act_matches_reference_speed(self):
        tasks = generate(num_tasks=50, reference_speed_mips=500.0)
        for t in tasks:
            assert t.act == pytest.approx(t.size_mi / 500.0)

    def test_deadline_band(self):
        """Deadlines lie within [ACT, 2.5·ACT] after arrival (0–150% slack)."""
        tasks = generate(num_tasks=300)
        for t in tasks:
            rel = t.relative_deadline
            assert rel >= t.act - 1e-9
            assert rel <= 2.5 * t.act + 1e-9

    def test_mean_interarrival_close_to_spec(self):
        tasks = generate(num_tasks=4000, mean_interarrival=5.0)
        iats = np.diff([t.arrival_time for t in tasks])
        assert iats.mean() == pytest.approx(5.0, rel=0.1)

    def test_priority_mix_respected(self):
        tasks = generate(num_tasks=3000, priority_mix=(0.6, 0.3, 0.1))
        counts = {p: 0 for p in Priority}
        for t in tasks:
            counts[t.priority] += 1
        assert counts[Priority.HIGH] / 3000 == pytest.approx(0.6, abs=0.05)
        assert counts[Priority.MEDIUM] / 3000 == pytest.approx(0.3, abs=0.05)
        assert counts[Priority.LOW] / 3000 == pytest.approx(0.1, abs=0.05)

    def test_pure_priority_class(self):
        tasks = generate(num_tasks=100, priority_mix=(1.0, 0.0, 0.0))
        assert all(t.priority is Priority.HIGH for t in tasks)

    def test_deterministic_given_seed(self):
        a = generate(seed=9, num_tasks=50)
        b = generate(seed=9, num_tasks=50)
        assert [(t.size_mi, t.arrival_time, t.deadline) for t in a] == [
            (t.size_mi, t.arrival_time, t.deadline) for t in b
        ]

    def test_different_seeds_differ(self):
        a = generate(seed=1, num_tasks=50)
        b = generate(seed=2, num_tasks=50)
        assert [t.size_mi for t in a] != [t.size_mi for t in b]

    def test_unique_increasing_tids(self):
        tasks = generate(num_tasks=30)
        assert [t.tid for t in tasks] == list(range(30))

    def test_first_arrival_offset(self):
        tasks = generate(num_tasks=20, first_arrival=100.0)
        assert all(t.arrival_time >= 100.0 for t in tasks)

    def test_iter_protocol(self):
        spec = WorkloadSpec(num_tasks=10)
        gen = WorkloadGenerator(spec, RandomStreams(seed=1))
        assert len(list(gen)) == 10


class TestBatchedTailBitIdentity:
    """The vectorized generation tail must reproduce the scalar loop
    bit for bit — same RNG stream consumption, same IEEE-754 doubles."""

    @staticmethod
    def _reference_tasks(spec, seed):
        """The original per-task scalar loop, kept as the oracle: every
        column drawn in full, one ``Task(...)`` per task."""
        from repro.workload import distributions as dist
        from repro.workload.priorities import slack_band
        from repro.workload.task import Task

        streams = RandomStreams(seed=seed)
        arrivals_rng = streams["workload.arrivals"]
        sizes_rng = streams["workload.sizes"]
        slack_rng = streams["workload.slack"]
        n = spec.num_tasks
        if spec.arrival_process == "poisson":
            iats = arrivals_rng.exponential(spec.mean_interarrival, size=n)
        elif spec.arrival_process == "mmpp":
            params = dist.MMPP2.with_mean_interarrival(
                spec.mean_interarrival, burstiness=spec.mmpp_burstiness
            )
            iats = dist.mmpp2_interarrivals(n, params, arrivals_rng)
        else:
            profile = dist.DiurnalRate(
                base_rate=1.0 / spec.mean_interarrival,
                period=spec.diurnal_period,
                amplitude=spec.diurnal_amplitude,
                phase=spec.diurnal_phase,
            )
            iats = dist.diurnal_interarrivals(
                n, profile, arrivals_rng, t0=spec.first_arrival
            )
        arrivals = spec.first_arrival + np.cumsum(iats)
        if spec.size_distribution == "uniform":
            sizes = sizes_rng.uniform(*spec.size_range_mi, size=n)
        else:
            sizes = dist.bounded_pareto(
                n, *spec.size_range_mi, spec.pareto_alpha, sizes_rng
            )
        prio_idx = slack_rng.choice(3, size=n, p=list(spec.priority_mix))
        slack_u = slack_rng.uniform(0.0, 1.0, size=n)
        priorities = (Priority.HIGH, Priority.MEDIUM, Priority.LOW)
        tasks = []
        for i in range(n):
            lo, hi = slack_band(priorities[int(prio_idx[i])])
            slack_fraction = lo + (hi - lo) * float(slack_u[i])
            act = float(sizes[i]) / spec.reference_speed_mips
            arrival = float(arrivals[i])
            deadline = arrival + act * (1.0 + slack_fraction)
            tasks.append(
                Task(
                    tid=i,
                    size_mi=float(sizes[i]),
                    arrival_time=arrival,
                    act=act,
                    deadline=deadline,
                )
            )
        return tasks

    @pytest.mark.parametrize("seed", [1, 77, 2024])
    def test_bit_identical_to_scalar_reference(self, seed):
        spec = WorkloadSpec(num_tasks=400, priority_mix=(0.6, 0.3, 0.1))
        got = WorkloadGenerator(spec, RandomStreams(seed=seed)).generate()
        TestIterTasksEquivalence._assert_same(
            got, self._reference_tasks(spec, seed)
        )

    @pytest.mark.parametrize(
        "name", ["mmpp", "diurnal", "pareto", "offset-mix"]
    )
    def test_every_variant_matches_scalar_reference(self, name):
        spec = TestIterTasksEquivalence.SPECS[name]
        got = WorkloadGenerator(spec, RandomStreams(seed=42)).generate()
        TestIterTasksEquivalence._assert_same(
            got, self._reference_tasks(spec, 42)
        )


class TestIterTasksEquivalence:
    """Lazy streaming must consume the RNG streams exactly as the batch
    path does: ``iter_tasks()`` is bit-identical to ``generate()`` for
    every chunk size and every spec variant."""

    SPECS = {
        "poisson-uniform": WorkloadSpec(num_tasks=300),
        "mmpp": WorkloadSpec(num_tasks=300, arrival_process="mmpp"),
        "diurnal": WorkloadSpec(
            num_tasks=300,
            arrival_process="diurnal",
            diurnal_period=400.0,
            diurnal_amplitude=0.9,
        ),
        "pareto": WorkloadSpec(
            num_tasks=300, size_distribution="bounded-pareto"
        ),
        "offset-mix": WorkloadSpec(
            num_tasks=300,
            first_arrival=250.0,
            priority_mix=(0.5, 0.3, 0.2),
        ),
    }

    @staticmethod
    def _assert_same(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tid == w.tid
            assert g.size_mi.hex() == w.size_mi.hex()
            assert g.arrival_time.hex() == w.arrival_time.hex()
            assert g.act.hex() == w.act.hex()
            assert g.deadline.hex() == w.deadline.hex()
            assert g.priority is w.priority

    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("chunk", [1, 7, 64, 300, 1024])
    def test_bit_identical_to_generate(self, name, chunk):
        spec = self.SPECS[name]
        want = WorkloadGenerator(spec, RandomStreams(seed=42)).generate()
        got = list(
            WorkloadGenerator(spec, RandomStreams(seed=42)).iter_tasks(
                chunk=chunk
            )
        )
        self._assert_same(got, want)

    def test_lazy_prefix_matches(self):
        """Consuming a prefix draws the same values as the batch head."""
        import itertools

        spec = WorkloadSpec(num_tasks=500)
        want = WorkloadGenerator(spec, RandomStreams(seed=9)).generate()[:130]
        stream = WorkloadGenerator(spec, RandomStreams(seed=9)).iter_tasks(
            chunk=50
        )
        got = list(itertools.islice(stream, 130))
        self._assert_same(got, want)

    def test_dunder_iter_is_lazy_stream(self):
        spec = WorkloadSpec(num_tasks=20)
        gen = WorkloadGenerator(spec, RandomStreams(seed=3))
        it = iter(gen)
        assert next(it).tid == 0
        want = WorkloadGenerator(spec, RandomStreams(seed=3)).generate()
        self._assert_same([next(it) for _ in range(19)], want[1:])

    def test_chunk_must_be_positive(self):
        gen = WorkloadGenerator(WorkloadSpec(num_tasks=5), RandomStreams(1))
        with pytest.raises(ValueError, match="chunk"):
            list(gen.iter_tasks(chunk=0))
