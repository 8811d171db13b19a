"""Float sums that round the same on every Python version.

From Python 3.12 on, builtin ``sum()`` compensates the rounding error
of exact ``float`` terms, so ``sum([1e16, 1.0, -1e16, 1.0])`` is 2.0
there and 1.0 on 3.11; a sum of ``numpy.float64`` terms (a ``float``
subclass) is never compensated.  The simulation's pinned results assume
one rounded IEEE add per term, left to right, so every float sum in
``cluster``, ``core``, ``energy``, ``metrics``, ``baselines`` and ``obs``
is a :func:`fold_sum`.  Integer counts keep ``sum()``, which is exact; a
tier-1 test parses those packages and rejects any other ``sum()``.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["fold_sum"]


def fold_sum(values: Iterable):
    """``((0 + v0) + v1) + …``: the left fold that builtin ``sum()``
    computes on Python 3.10 and 3.11, bit for bit, on every version.

    Starts from the integer 0 as ``sum()`` does, so an empty input gives
    ``0`` and a float result is the same object type ``sum()`` returns.
    """
    total = 0
    for v in values:
        total += v
    return total
