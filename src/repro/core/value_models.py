"""Action-value models behind the Adaptive-RL agent (DESIGN.md A6).

The paper's learner is "designed based on a neural network presented in
[10]" but gives no architecture; this module provides two interchangeable
value models sharing one interface:

- :class:`TabularValueModel` (default) — Q-table over the discretized
  site state; deterministic and fast at this problem scale;
- :class:`NeuralValueModel` — the NumPy MLP from :mod:`repro.rl.neural`
  over continuous state features plus a one-hot action encoding.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from ..rl.dense import DenseQTable
from ..rl.qlearning import QTable
from .actions import GroupingAction
from .state import DiscreteState, SiteObservation

__all__ = ["ValueModel", "TabularValueModel", "NeuralValueModel"]


class ValueModel(abc.ABC):
    """Interface the agent uses to rank and learn grouping actions."""

    @abc.abstractmethod
    def values(
        self,
        state: DiscreteState,
        obs: SiteObservation,
        actions: Sequence[GroupingAction],
    ) -> list[float]:
        """Estimated value of each action in the observed state."""

    @abc.abstractmethod
    def best_action(
        self,
        state: DiscreteState,
        obs: SiteObservation,
        actions: Sequence[GroupingAction],
    ) -> GroupingAction:
        """Greedy action for the observed state (ties → first)."""

    @abc.abstractmethod
    def update(
        self,
        state: DiscreteState,
        obs: SiteObservation,
        action: GroupingAction,
        reward: float,
        next_state: Optional[DiscreteState],
        next_obs: Optional[SiteObservation],
        actions: Sequence[GroupingAction],
    ) -> None:
        """Learn from an observed transition."""

    @abc.abstractmethod
    def knows(self, state: DiscreteState, actions: Sequence[GroupingAction]) -> bool:
        """True if the model has any learned signal for *state*."""


class TabularValueModel(ValueModel):
    """Q-table over the discrete ternary site state.

    With a canonical *actions* tuple the table is the array-backed
    :class:`~repro.rl.dense.DenseQTable` (O(1) greedy reads, bit-identical
    to the dict-backed :class:`~repro.rl.qlearning.QTable`, which the
    tests substitute to prove it); without one it is the dict table.
    """

    def __init__(
        self,
        alpha: float = 0.2,
        gamma: float = 0.6,
        actions: Optional[Sequence[GroupingAction]] = None,
    ) -> None:
        if actions is not None:
            self.table = DenseQTable(tuple(actions), alpha=alpha, gamma=gamma)
        else:
            self.table = QTable(alpha=alpha, gamma=gamma)

    def values(self, state, obs, actions):
        return self.table.values(state, actions)

    def best_action(self, state, obs, actions):
        return self.table.best_action(state, actions)

    def update(self, state, obs, action, reward, next_state, next_obs, actions):
        self.table.update(
            state,
            action,
            reward,
            next_state=next_state,
            next_actions=actions if next_state is not None else (),
        )

    def knows(self, state, actions):
        return self.table.state_known(state, actions)


class NeuralValueModel(ValueModel):
    """MLP over continuous site features + one-hot action encoding."""

    def __init__(
        self,
        actions: Sequence[GroupingAction],
        rng: np.random.Generator,
        hidden: int = 16,
        learning_rate: float = 5e-3,
        gamma: float = 0.6,
    ) -> None:
        from ..rl.neural import MLP

        if not actions:
            raise ValueError("need at least one action")
        self._action_index = {a: i for i, a in enumerate(actions)}
        n_features = 4  # SiteObservation.features() width
        self.gamma = gamma
        self.net = MLP(
            [n_features + len(actions), hidden, 1],
            rng=rng,
            learning_rate=learning_rate,
        )
        self._updates = 0

    def _encode(self, obs: SiteObservation, action: GroupingAction) -> np.ndarray:
        onehot = np.zeros(len(self._action_index))
        onehot[self._action_index[action]] = 1.0
        return np.concatenate([obs.features(), onehot])

    def values(self, state, obs, actions):
        x = np.stack([self._encode(obs, a) for a in actions])
        return [float(v) for v in self.net.predict(x)[:, 0]]

    def best_action(self, state, obs, actions):
        if not actions:
            raise ValueError("no actions")
        vals = self.values(state, obs, actions)
        return actions[int(np.argmax(vals))]

    def update(self, state, obs, action, reward, next_state, next_obs, actions):
        target = reward
        if next_obs is not None and actions:
            target += self.gamma * max(self.values(next_state, next_obs, actions))
        x = self._encode(obs, action)[None, :]
        y = np.array([[target]])
        self.net.train_batch(x, y)
        self._updates += 1

    def knows(self, state, actions):
        # The network generalizes from the first update onward.
        return self._updates > 0
