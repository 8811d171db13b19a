"""Prediction-based learning baseline — extended from Berral et al. [13].

The original "estimates the impact of the task on the resource in terms
of performance and power consumption in advance" with supervised machine
learning over current system information (power level, CPU load,
completion time), then consolidates: "executes all tasks with a minimum
number of resources", aiming to maximize user satisfaction (completion
before deadline) without raising power.

Extension to this system model: an online linear model (NumPy
least-squares over features [1, size/speed, pending-work/speed]) predicts
a task's response time on each candidate node, refit periodically from
completed-task history.  Dispatch consolidates: nodes are scanned from
most-loaded-active to fastest-idle, and the task lands on the *first*
node predicted to meet its deadline (minimizing the number of active
resources); if none qualifies, the node with the minimum predicted
response time is used.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, Optional

import numpy as np

from ..cluster.node import ComputeNode
from ..workload.task import Task
from .common import SingletonScheduler

__all__ = [
    "ConsolidationOrder",
    "PredictionBasedScheduler",
    "ResponseTimePredictor",
    "consolidation_key",
]


class ResponseTimePredictor:
    """Online least-squares model of task response time.

    Features: ``[1, size_mi / node_speed, pending_mi / node_speed]`` —
    the task's own service demand and the queueing demand ahead of it.
    Until ``min_samples`` observations exist, the analytic cold-start
    estimate (service + queue demand) is used.

    The history is the last ``max_history`` observations, oldest first,
    held as a window of two preallocated float64 buffers twice that
    long: when the window reaches the end, its rows move to the front.
    A refit passes ``lstsq`` views of the window, the rows a list of
    the same observations would convert to, in the same order.
    """

    def __init__(self, min_samples: int = 20, max_history: int = 2000) -> None:
        if min_samples < 3:
            raise ValueError("min_samples must be at least 3 (model rank)")
        if max_history < 1:
            raise ValueError("max_history must be positive")
        self.min_samples = min_samples
        self.max_history = max_history
        self._xs = np.empty((2 * max_history, 3))
        self._ys = np.empty(2 * max_history)
        #: The window is rows ``[_start, _end)`` of the buffers.
        self._start = 0
        self._end = 0
        self._coef: Optional[np.ndarray] = None
        self.refits = 0
        #: Per-node mean processor speed (a node's processors are fixed).
        self._speeds: dict[ComputeNode, float] = {}

    @property
    def _x(self) -> np.ndarray:
        """The feature rows of the history, oldest first (a view)."""
        return self._xs[self._start : self._end]

    @property
    def _y(self) -> np.ndarray:
        """The observed response times of the history (a view)."""
        return self._ys[self._start : self._end]

    def features(self, task_size_mi: float, node: ComputeNode) -> list[float]:
        speed = self._speeds.get(node)
        if speed is None:
            speed = self._speeds[node] = (
                node.total_speed_mips / node.num_processors
            )
        return [1.0, task_size_mi / speed, node.pending_size_mi / speed]

    def observe(self, features: list[float], response_time: float) -> None:
        """Record one completed task's (features, outcome) pair."""
        end = self._end
        if end == len(self._ys):
            keep = self.max_history
            self._xs[:keep] = self._xs[end - keep : end]
            self._ys[:keep] = self._ys[end - keep : end]
            end = keep
        self._xs[end] = features
        self._ys[end] = response_time
        self._end = end = end + 1
        self._start = max(end - self.max_history, 0)

    def refit(self) -> bool:
        """Refit the linear model; returns True if a model now exists."""
        if self._end - self._start < self.min_samples:
            return self._coef is not None
        coef, *_ = np.linalg.lstsq(self._x, self._y, rcond=None)
        self._coef = coef
        self.refits += 1
        return True

    @property
    def trained(self) -> bool:
        return self._coef is not None

    def predict(self, features: list[float]) -> float:
        """Predicted response time (cold start: analytic estimate)."""
        if self._coef is None:
            # service demand + queue demand, the textbook estimate.
            return features[1] + features[2]
        value = float(np.dot(self._coef, features))
        return max(value, 0.0)


def consolidation_key(node: ComputeNode) -> tuple:
    """Most-loaded active nodes first, then fastest idle nodes."""
    pending = node.pending_tasks
    if pending > 0:
        return (0, -pending, node.node_id)
    return (1, -node.total_speed_mips, node.node_id)


class ConsolidationOrder:
    """The nodes sorted by :func:`consolidation_key`, kept as an index.

    A node's key moves only with its pending count, which changes at
    admission, completion and failure: work changes the node reports to
    its watcher, which this index installs.  A read re-keys only the
    nodes reported since the last one, so it always equals
    ``sorted(nodes, key=consolidation_key)``.  An entry is the node's
    key, its position in *nodes* (unique, so two entries never compare
    equal) and the node.
    """

    def __init__(self, nodes: Iterable[ComputeNode]) -> None:
        #: Nodes whose work changed since the last read.
        self._moved: set[ComputeNode] = set()
        self._entry: dict[ComputeNode, tuple] = {}
        for position, node in enumerate(nodes):
            self._entry[node] = (*consolidation_key(node), position, node)
            node._work_watcher = self._moved.add
        self._entries = sorted(self._entry.values())

    def entries(self) -> list[tuple]:
        """The entries in consolidation order (the index's own list:
        do not mutate it, and read it again after a work change)."""
        moved = self._moved
        if moved:
            entries, entry = self._entries, self._entry
            for node in moved:
                old = entry[node]
                new = (*consolidation_key(node), old[-2], node)
                if new != old:
                    del entries[bisect_left(entries, old)]
                    insort(entries, new)
                    entry[node] = new
            moved.clear()
        return self._entries

    def nodes(self) -> list[ComputeNode]:
        """The nodes in consolidation order."""
        return [entry[-1] for entry in self.entries()]


class PredictionBasedScheduler(SingletonScheduler):
    """Consolidating dispatcher driven by a supervised RT predictor."""

    name = "Prediction-based learning"

    #: Multiplicative safety margin required between predicted response
    #: time and the task's slack before a consolidation placement is
    #: accepted (guards against the linear model's optimism under load).
    SAFETY_FACTOR = 1.5

    def __init__(self, refit_every: int = 50) -> None:
        super().__init__()
        if refit_every <= 0:
            raise ValueError("refit_every must be positive")
        self.refit_every = refit_every
        self.predictor = ResponseTimePredictor()
        self.consolidation: Optional[ConsolidationOrder] = None
        self._since_refit = 0
        self._pending_features: dict[int, list[float]] = {}

    def _setup(self) -> None:
        assert self.system is not None
        self.consolidation = ConsolidationOrder(self.system.nodes)
        # Learn from every completion, regardless of which policy placed
        # the task.
        for node in self.system.nodes:
            node.on_task_complete(self._record_outcome)

    def _record_outcome(self, task: Task, node: ComputeNode) -> None:
        features = self._pending_features.pop(task.tid, None)
        if features is None:
            return
        self.predictor.observe(features, task.response_time)
        self._since_refit += 1
        if self._since_refit >= self.refit_every:
            self._since_refit = 0
            self.predictor.refit()

    # -- dispatch --------------------------------------------------------
    def _consolidation_order(self) -> list[ComputeNode]:
        """Most-loaded active nodes first, then fastest idle nodes."""
        assert self.consolidation is not None
        return self.consolidation.nodes()

    def _pick_node(self, task: Task) -> Optional[ComputeNode]:
        assert self.env is not None and self.consolidation is not None
        predictor = self.predictor
        best: Optional[ComputeNode] = None
        best_rt = float("inf")
        chosen: Optional[ComputeNode] = None
        chosen_features: Optional[list[float]] = None
        best_features: Optional[list[float]] = None
        slack = task.deadline - self.env.now
        for entry in self.consolidation.entries():
            node = entry[-1]
            if not node.available:
                continue
            features = predictor.features(task.size_mi, node)
            rt = predictor.predict(features)
            if rt * self.SAFETY_FACTOR <= slack:
                chosen = node
                chosen_features = features
                break
            if rt < best_rt:
                best_rt = rt
                best = node
                best_features = features
        if chosen is None:
            chosen, chosen_features = best, best_features
        if chosen is not None and chosen_features is not None:
            self._pending_features[task.tid] = chosen_features
        return chosen
