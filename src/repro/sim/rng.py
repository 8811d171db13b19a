"""Reproducible, named random-number streams.

Simulation components must not share a single RNG: a change in how one
component draws numbers would perturb every other component's sequence and
make results incomparable across code versions.  :class:`RandomStreams`
derives an independent :class:`numpy.random.Generator` per *named* stream
from one root seed via ``numpy.random.SeedSequence.spawn`` semantics
(keyed by the stream name, so stream creation order does not matter).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator

import numpy as np

__all__ = ["RandomStreams"]


def _stream_entropy(root_seed: int, name: str) -> list[int]:
    """Derive child entropy from the root seed and the stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    # Four 64-bit words of entropy from the digest.
    return [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]


class RandomStreams:
    """Registry of independent named RNG streams under one root seed.

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> arrivals = streams["workload.arrivals"]
    >>> sizes = streams["workload.sizes"]
    >>> float(arrivals.exponential(5.0)) != float(sizes.exponential(5.0))
    True
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed the streams derive from."""
        return self._seed

    def __getitem__(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream called *name*."""
        if not isinstance(name, str) or not name:
            raise KeyError("stream name must be a non-empty string")
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence(_stream_entropy(self._seed, name))
            gen = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = gen
        return gen

    def batch_draw(
        self, name: str, n: int, dist: str = "uniform", *args, **kwargs
    ) -> np.ndarray:
        """Draw *n* variates from stream *name* in one vectorized call.

        Consumption-order contract: for every supported distribution,
        NumPy ``Generator`` methods fill a ``size=n`` request value by
        value from the same bit-generator state sequence as ``n``
        sequential scalar calls, so ``batch_draw(name, n, dist, ...)``
        leaves the stream in **exactly** the state — and returns exactly
        the values — of ``[streams[name].dist(...) for _ in range(n)]``.
        The columnar hot paths rely on this to batch their draws without
        perturbing any golden-seed digest
        (pinned by ``tests/sim/test_rng.py``).
        """
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"n must be a non-negative int, got {n!r}")
        if dist not in self._BATCHABLE:
            raise ValueError(
                f"unsupported distribution {dist!r}; "
                f"expected one of {sorted(self._BATCHABLE)}"
            )
        return getattr(self[name], dist)(*args, size=n, **kwargs)

    #: Generator methods whose ``size=n`` draws are bit-identical in
    #: consumption order to ``n`` sequential scalar draws.
    _BATCHABLE = frozenset(
        {
            "uniform",
            "exponential",
            "normal",
            "standard_normal",
            "random",
            "integers",
            "poisson",
            "choice",
        }
    )

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __iter__(self) -> Iterator[str]:
        return iter(self._streams)

    def __len__(self) -> int:
        return len(self._streams)

    def reset(self) -> None:
        """Drop all derived streams (they re-derive deterministically)."""
        self._streams.clear()
