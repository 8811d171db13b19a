"""Reinforcement feedback signals (paper §IV.C, Eqs. 7–9).

Two signals evaluate every scheduling action:

- **reward** (Eq. 8): the number of tasks in the completed group that met
  their deadline — available only after the whole group finishes;
- **error** (Eq. 9): ``err_tg = |1 − 1/proc_fitness|`` with
  ``proc_fitness = pw / PCc`` — available immediately at assignment and
  zero exactly when the group's demanded rate matches the node capacity.

The per-action **learning value** (Eq. 7) combines them:
``l_val = reward / error`` — guarded against a zero error (DESIGN.md A3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ERROR_EPSILON",
    "grouping_error",
    "learning_value",
    "scaled_reward",
    "FeedbackRecord",
]

#: Floor applied to the error denominator of Eq. 7 (DESIGN.md A3).
ERROR_EPSILON = 1e-3


def grouping_error(pw: float, processing_capacity: float) -> float:
    """Eq. 9: suitability error between a group and its assigned node.

    Parameters
    ----------
    pw:
        Processing weight of the task group (Eq. 10) — its demanded
        processing rate.
    processing_capacity:
        ``PCc`` of the node the group is assigned to (Eq. 2).
    """
    if pw <= 0:
        raise ValueError("pw must be positive")
    if processing_capacity <= 0:
        raise ValueError("processing_capacity must be positive")
    proc_fitness = pw / processing_capacity
    return abs(1.0 - 1.0 / proc_fitness)


def learning_value(reward: float, error: float) -> float:
    """Eq. 7: ``l_val = reward / error`` with an ε floor on the error.

    A perfectly fitting action (error → 0) yields the maximum learning
    value for its reward rather than a division error.
    """
    if reward < 0:
        raise ValueError("reward must be non-negative")
    if error < 0:
        raise ValueError("error must be non-negative")
    return reward / max(error, ERROR_EPSILON)


def scaled_reward(deadline_hits: int, group_size: int, error: float) -> float:
    """Bounded reward used for Q-value updates.

    Eq. 7's raw ``l_val`` is unbounded (it explodes as the error
    vanishes), which destabilizes temporal-difference updates.  The Q
    update therefore uses the bounded, monotone-equivalent signal

        ``r = (hits / size) · exp(−error)``  ∈ [0, 1]

    which increases with the deadline-hit fraction and decreases with the
    fitting error, exactly the two directions §IV.C prescribes
    ("maximize the reward … and minimize the error").  Raw ``l_val``
    (Eq. 7) is still what the shared-learning memory ranks actions by.
    """
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    if not 0 <= deadline_hits <= group_size:
        raise ValueError("deadline_hits must lie in [0, group_size]")
    if error < 0:
        raise ValueError("error must be non-negative")
    return (deadline_hits / group_size) * math.exp(-error)


@dataclass(frozen=True)
class FeedbackRecord:
    """The full feedback for one completed scheduling action."""

    deadline_hits: int
    group_size: int
    error: float

    def __post_init__(self) -> None:
        if self.group_size <= 0:
            raise ValueError("group_size must be positive")
        if not 0 <= self.deadline_hits <= self.group_size:
            raise ValueError("deadline_hits must lie in [0, group_size]")
        if self.error < 0:
            raise ValueError("error must be non-negative")

    @property
    def reward(self) -> int:
        """Eq. 8 reward value."""
        return self.deadline_hits

    @property
    def hit_fraction(self) -> float:
        return self.deadline_hits / self.group_size

    @property
    def l_val(self) -> float:
        """Eq. 7 learning value."""
        return learning_value(self.deadline_hits, self.error)

    @property
    def q_reward(self) -> float:
        """Bounded Q-update reward (see :func:`scaled_reward`)."""
        return scaled_reward(self.deadline_hits, self.group_size, self.error)
