"""Unit tests for the FIFO store."""

import pytest

from repro.sim import Store


class TestStore:
    def test_put_get_fifo(self, env):
        store = Store(env)
        got = []

        def producer(env):
            for i in range(3):
                yield store.put(i)

        def consumer(env):
            for _ in range(3):
                got.append((yield store.get()))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == [0, 1, 2]

    def test_capacity_blocks_put(self, env):
        store = Store(env, capacity=1)
        events = []

        def producer(env):
            yield store.put("a")
            events.append(("put-a", env.now))
            yield store.put("b")
            events.append(("put-b", env.now))

        def consumer(env):
            yield env.timeout(5)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert events[0] == ("put-a", 0)
        assert events[1][1] == 5  # second put waited for the get

    def test_get_blocks_until_item(self, env):
        store = Store(env)
        got = []

        def consumer(env):
            got.append((yield store.get()))

        def producer(env):
            yield env.timeout(3)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == ["late"]
        assert env.now == 3

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_level_tracks_items(self, env):
        store = Store(env)
        store.put("x")
        env.run()
        assert store.level == 1

    def test_get_cancel_removes_request(self, env):
        store = Store(env)
        req = store.get()
        req.cancel()
        store.put("x")
        env.run()
        assert not req.triggered
        assert store.items == ["x"]

    def test_put_cancel_removes_request(self, env):
        store = Store(env, capacity=1)
        ok = store.put("a")
        blocked = store.put("b")
        blocked.cancel()
        env.run()
        assert store.items == ["a"]
        assert not blocked.triggered

    def test_multiple_getters_fifo_order(self, env):
        store = Store(env)
        got = []

        def consumer(env, name):
            item = yield store.get()
            got.append((name, item))

        env.process(consumer(env, "first"))
        env.process(consumer(env, "second"))

        def producer(env):
            yield env.timeout(1)
            yield store.put(1)
            yield store.put(2)

        env.process(producer(env))
        env.run()
        assert got == [("first", 1), ("second", 2)]
