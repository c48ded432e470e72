"""Regression forest over lag windows: variance-reduction trees on bootstrap
samples, random feature subsets of size ceil(features/3) per split."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List

import numpy as np

from ..core import ContractError, TimeSeries, make_rng
from .base import OneStepForecaster, make_windows


@dataclass
class TreeNodes:
    """Flat array-of-nodes tree. Leaves have feature == -1."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        # The walk's own arrays, derived from the fields (state() saves only
        # those): a leaf splits on column 0 into itself on either side, so a
        # row may take as many steps as the deepest leaf needs. Node i sends a
        # row to _children[2 * i + 1] when its value is <= the threshold, to
        # _children[2 * i] otherwise (NaN included).
        leaf = self.feature < 0
        nodes = np.arange(self.feature.size)
        self._walk_feature = np.where(leaf, 0, self.feature)
        self._children = np.stack(
            [np.where(leaf, nodes, self.right), np.where(leaf, nodes, self.left)], axis=1).ravel()
        self._depth = _depth(self.feature, self.left, self.right)

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Walk all rows down the tree together, one level per step, as many
        steps as the tree is deep."""
        flat = rows.ravel()
        row_start = np.arange(rows.shape[0]) * rows.shape[1]
        node = np.zeros(rows.shape[0], dtype=np.int64)
        for _ in range(self._depth):
            goes_left = flat[row_start + self._walk_feature[node]] <= self.threshold[node]
            node = self._children[2 * node + goes_left]
        return self.value[node]


def _depth(feature, left, right) -> int:
    """Number of splits on the longest path from the root to a leaf."""
    level = np.zeros(1, dtype=np.int64)
    for depth in range(feature.size):
        level = level[feature[level] >= 0]
        if not level.size:
            return depth
        level = np.concatenate([left[level], right[level]])
        if level.size > feature.size:  # a tree's level holds distinct nodes
            break
    raise ContractError("tree nodes do not form a tree")


def _best_splits(block: np.ndarray, targets: np.ndarray):
    """Exhaustive best threshold by weighted-variance reduction for every
    column of an (n, k) block at once, n >= 2. Returns (thresholds, scores),
    one per column; a constant column scores -inf. Candidate thresholds are
    midpoints between consecutive distinct values; a tie goes to the smaller
    threshold."""
    n = block.shape[0]
    order = np.argsort(block, axis=0, kind="stable")
    v = np.take_along_axis(block, order, axis=0)
    t = targets[order]
    csum = np.cumsum(t, axis=0)
    csq = np.cumsum(t * t, axis=0)
    total_sum, total_sq = csum[-1], csq[-1]
    k = np.arange(1, n)[:, None]  # split sizes
    left_sum = csum[:-1]
    left_sse = csq[:-1] - left_sum * left_sum / k
    right_n = n - k
    right_sum = total_sum - left_sum
    right_sse = (total_sq - csq[:-1]) - right_sum * right_sum / right_n
    parent_sse = total_sq - total_sum * total_sum / n
    reduction = parent_sse - (left_sse + right_sse)
    reduction[~(v[1:] > v[:-1])] = -np.inf  # no boundary between equal values
    best = np.argmax(reduction, axis=0)
    cols = np.arange(block.shape[1])
    return 0.5 * (v[best, cols] + v[best + 1, cols]), reduction[best, cols]


def _grow(rows, targets, depth, max_depth, feat_rng, nodes):
    idx = len(nodes["feature"])
    for key in nodes:
        nodes[key].append(0)
    if depth >= max_depth or rows.shape[0] < 2 or np.ptp(targets) == 0.0:
        nodes["feature"][idx] = -1
        nodes["value"][idx] = float(np.mean(targets))
        return idx
    n_features = rows.shape[1]
    n_try = -(-n_features // 3)  # ceil
    candidates = feat_rng.choice(n_features, size=n_try, replace=False)
    thresholds, scores = _best_splits(rows[:, candidates], targets)
    best = int(np.argmax(scores))  # the first candidate among equal scores
    if scores[best] == -np.inf:
        nodes["feature"][idx] = -1
        nodes["value"][idx] = float(np.mean(targets))
        return idx
    f, threshold = int(candidates[best]), float(thresholds[best])
    mask = rows[:, f] <= threshold
    nodes["feature"][idx] = f
    nodes["threshold"][idx] = threshold
    nodes["value"][idx] = float(np.mean(targets))
    nodes["left"][idx] = _grow(rows[mask], targets[mask], depth + 1, max_depth, feat_rng, nodes)
    nodes["right"][idx] = _grow(rows[~mask], targets[~mask], depth + 1, max_depth, feat_rng, nodes)
    return idx


def fit_regression_tree(rows, targets, max_depth: int, rng) -> TreeNodes:
    if max_depth < 1:
        raise ContractError("max_depth must be >= 1")
    rows = np.asarray(rows, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if rows.shape[0] == 0:
        raise ContractError("empty training set")
    nodes = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}
    _grow(rows, targets, 0, max_depth, rng, nodes)
    return TreeNodes(
        feature=np.array(nodes["feature"], dtype=np.int64),
        threshold=np.array(nodes["threshold"], dtype=np.float64),
        left=np.array(nodes["left"], dtype=np.int64),
        right=np.array(nodes["right"], dtype=np.int64),
        value=np.array(nodes["value"], dtype=np.float64),
    )


class RandomForestForecaster(OneStepForecaster):
    """Forest over (lag window -> next value) pairs; prediction is the mean
    of per-tree predictions."""

    def __init__(self, n_trees: int = 500, max_depth: int = 10, lag_window: int = 10, seed: int = 0):
        if n_trees < 1:
            raise ContractError("n_trees must be >= 1")
        if max_depth < 1:
            raise ContractError("max_depth must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.lag_window = lag_window
        self.seed = seed
        self.trees: List[TreeNodes] = []

    @property
    def min_context(self) -> int:
        return self.lag_window

    def fit(self, train: TimeSeries) -> "RandomForestForecaster":
        values = train.values
        w = self.lag_window
        if len(values) <= w + 1:
            raise ContractError(f"random forest needs > lag_window+1 = {w + 1} points")
        rows, targets = make_windows(values, w)
        n_rows = targets.size
        rng = make_rng(self.seed)
        self.trees = []
        for _ in range(self.n_trees):
            boot = rng.integers(0, n_rows, size=n_rows)
            self.trees.append(fit_regression_tree(rows[boot], targets[boot], self.max_depth, rng))
        return self

    def predict_batch(self, contexts) -> np.ndarray:
        # contiguous, so each tree's walk reads it without a copy
        rows = np.ascontiguousarray(np.asarray(contexts, dtype=np.float64)[:, -self.lag_window :])
        # one contiguous row of tree outputs per point, averaged as one
        # point's list of tree outputs was
        per_tree = np.empty((rows.shape[0], len(self.trees)))
        for j, tree in enumerate(self.trees):
            per_tree[:, j] = tree.predict(rows)
        return per_tree.mean(axis=1)

    def state(self) -> dict:
        return {"trees": [{f.name: getattr(t, f.name) for f in fields(t)} for t in self.trees]}

    def load_state(self, state) -> None:
        self.trees = [
            TreeNodes(
                feature=np.asarray(t["feature"], dtype=np.int64),
                threshold=np.asarray(t["threshold"], dtype=np.float64),
                left=np.asarray(t["left"], dtype=np.int64),
                right=np.asarray(t["right"], dtype=np.int64),
                value=np.asarray(t["value"], dtype=np.float64),
            )
            for t in state["trees"]
        ]
