"""Reinforcement-learning substrate.

Generic learners and exploration policies shared by the Adaptive-RL core
and the learning baselines: tabular Q-learning (with the Q+ multi-rate
variant), ε-greedy / softmax / random-walk exploration, a small NumPy MLP
value approximator, and a replay ring buffer.
"""

from .._lazy import lazy_exports

__all__ = [
    "QTable",
    "MultiRateQTable",
    "MultiRateMixin",
    "DenseQTable",
    "DenseMultiRateQTable",
    "EpsilonGreedy",
    "SoftmaxExploration",
    "RandomWalk",
    "MLP",
    "ReplayRing",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".dense": ("DenseMultiRateQTable", "DenseQTable"),
        ".exploration": ("EpsilonGreedy", "RandomWalk", "SoftmaxExploration"),
        ".neural": ("MLP",),
        ".qlearning": ("MultiRateMixin", "MultiRateQTable", "QTable"),
        ".replay": ("ReplayRing",),
    },
)
