"""Fixed-capacity experience replay ring buffer."""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

import numpy as np

__all__ = ["ReplayRing"]

T = TypeVar("T")


class ReplayRing(Generic[T]):
    """Ring buffer that overwrites its oldest entries when full.

    The shared-learning memory caps each agent at "15 cycles of its
    learning experiences" (§III.B); this is the generic container backing
    that policy and the neural learner's replay.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._buf: list[T] = []
        self._next = 0
        self.total_appended = 0

    def append(self, item: T) -> None:
        """Add *item*, evicting the oldest entry when at capacity."""
        if len(self._buf) < self.capacity:
            self._buf.append(item)
        else:
            self._buf[self._next] = item
        self._next = (self._next + 1) % self.capacity
        self.total_appended += 1

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self) -> Iterator[T]:
        """Iterate oldest → newest."""
        if len(self._buf) < self.capacity:
            yield from self._buf
        else:
            yield from self._buf[self._next :]
            yield from self._buf[: self._next]

    def newest(self) -> T:
        if not self._buf:
            raise IndexError("replay ring is empty")
        return self._buf[(self._next - 1) % len(self._buf)]

    def oldest(self) -> T:
        if not self._buf:
            raise IndexError("replay ring is empty")
        if len(self._buf) < self.capacity:
            return self._buf[0]
        return self._buf[self._next]

    def sample(self, k: int, rng: np.random.Generator) -> list[T]:
        """Uniformly sample *k* items (without replacement if possible)."""
        if k <= 0:
            raise ValueError("k must be positive")
        if not self._buf:
            raise IndexError("replay ring is empty")
        n = len(self._buf)
        if k >= n:
            return list(self._buf)
        idx = rng.choice(n, size=k, replace=False)
        return [self._buf[i] for i in idx]

    def clear(self) -> None:
        self._buf.clear()
        self._next = 0
