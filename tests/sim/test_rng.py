"""Unit tests for the named RNG stream registry."""

import numpy as np
import pytest

from repro.sim import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_stream_reproduces(self):
        a = RandomStreams(seed=7)["x"].random(10)
        b = RandomStreams(seed=7)["x"].random(10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=7)["x"].random(10)
        b = RandomStreams(seed=8)["x"].random(10)
        assert not np.array_equal(a, b)

    def test_different_names_are_independent(self):
        s = RandomStreams(seed=7)
        a = s["first"].random(10)
        b = s["second"].random(10)
        assert not np.array_equal(a, b)

    def test_creation_order_does_not_matter(self):
        s1 = RandomStreams(seed=3)
        _ = s1["a"].random(5)
        x1 = s1["b"].random(5)

        s2 = RandomStreams(seed=3)
        x2 = s2["b"].random(5)  # "b" created first this time
        assert np.array_equal(x1, x2)

    def test_stream_is_cached(self):
        s = RandomStreams(seed=1)
        assert s["x"] is s["x"]

    def test_invalid_seed_type(self):
        with pytest.raises(TypeError):
            RandomStreams(seed="7")  # type: ignore[arg-type]

    def test_invalid_name(self):
        s = RandomStreams(seed=1)
        with pytest.raises(KeyError):
            s[""]

    def test_registry_protocols(self):
        s = RandomStreams(seed=1)
        _ = s["x"]
        assert "x" in s
        assert "y" not in s
        assert list(s) == ["x"]
        assert len(s) == 1

    def test_reset_rederives_identically(self):
        s = RandomStreams(seed=5)
        a = s["x"].random(4)
        s.reset()
        b = s["x"].random(4)
        assert np.array_equal(a, b)


class TestBatchDraw:
    """batch_draw(n) must consume the stream exactly like n scalar draws."""

    @pytest.mark.parametrize(
        "dist,args,kwargs",
        [
            ("uniform", (0.0, 1.0), {}),
            ("uniform", (600.0, 7200.0), {}),
            ("exponential", (5.0,), {}),
            ("normal", (0.0, 1.0), {}),
            ("standard_normal", (), {}),
            ("random", (), {}),
            ("poisson", (3.5,), {}),
        ],
    )
    def test_bit_identical_to_sequential_draws(self, dist, args, kwargs):
        n = 257  # odd, > one buffer's worth, exercises fill order
        batch = RandomStreams(seed=11).batch_draw(
            "stream", n, dist, *args, **kwargs
        )
        seq_gen = RandomStreams(seed=11)["stream"]
        seq = np.array(
            [getattr(seq_gen, dist)(*args, **kwargs) for _ in range(n)]
        )
        assert batch.shape == (n,)
        assert np.array_equal(batch, seq)

    def test_integers_bit_identical_to_sequential(self):
        batch = RandomStreams(seed=11).batch_draw("s", 100, "integers", 0, 50)
        gen = RandomStreams(seed=11)["s"]
        seq = np.array([gen.integers(0, 50) for _ in range(100)])
        assert np.array_equal(batch, seq)

    def test_leaves_stream_in_sequential_state(self):
        s1 = RandomStreams(seed=4)
        s1.batch_draw("w", 33, "exponential", 5.0)
        after_batch = s1["w"].random(8)

        s2 = RandomStreams(seed=4)
        g = s2["w"]
        for _ in range(33):
            g.exponential(5.0)
        after_seq = g.random(8)
        assert np.array_equal(after_batch, after_seq)

    def test_zero_draws_consume_nothing(self):
        s = RandomStreams(seed=2)
        empty = s.batch_draw("x", 0, "random")
        assert empty.shape == (0,)
        assert np.array_equal(
            s["x"].random(4), RandomStreams(seed=2)["x"].random(4)
        )

    def test_rejects_negative_and_unknown(self):
        s = RandomStreams(seed=1)
        with pytest.raises(ValueError, match="non-negative"):
            s.batch_draw("x", -1, "random")
        with pytest.raises(ValueError, match="unsupported distribution"):
            s.batch_draw("x", 4, "shuffle")
