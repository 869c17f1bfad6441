"""CART decision trees (classification by Gini, regression by variance).

Split search is vectorized: for each candidate feature the samples are
sorted once and impurity is evaluated at every boundary between distinct
values via prefix sums — no Python-level loop over thresholds.

Fitted trees are flat :class:`NodeArrays`, whose one level-synchronous
walk serves the classifier, the regressor and the random forest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NotFittedError, SelectionError


@dataclass(frozen=True)
class NodeArrays:
    """Fitted trees as flat node arrays, each tree's nodes in preorder.

    Internal node ``i`` sends row ``x`` to ``left[i]`` if
    ``x[feature[i]] <= threshold[i]``, else to ``right[i]``; a leaf points
    to itself on both sides.  ``value[i]`` is the class distribution or
    ``[mean]`` of the node's training rows; ``depth`` is the deepest leaf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf reached by every row in every tree, shape (rows, trees)."""
        nodes = np.broadcast_to(self.roots, (len(X), len(self.roots)))
        rows = np.arange(len(X))[:, None]
        for _ in range(self.depth):
            go_left = X[rows, self.feature[nodes]] <= self.threshold[nodes]
            nodes = np.where(go_left, self.left[nodes], self.right[nodes])
        return nodes

    @classmethod
    def stack(cls, parts: list["NodeArrays"]) -> "NodeArrays":
        """The trees of ``parts``, in order, in one node space."""
        offsets = np.cumsum([0] + [len(p.left) for p in parts[:-1]])
        return cls(
            feature=np.concatenate([p.feature for p in parts]),
            threshold=np.concatenate([p.threshold for p in parts]),
            left=np.concatenate([p.left + o for p, o in zip(parts, offsets)]),
            right=np.concatenate([p.right + o for p, o in zip(parts, offsets)]),
            value=np.concatenate([p.value for p in parts]),
            roots=np.concatenate([p.roots + o for p, o in zip(parts, offsets)]),
            depth=max(p.depth for p in parts),
        )


def _gini_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Gini impurity for rows of class counts with given totals."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals[:, None]
        g = 1.0 - np.nansum(p * p, axis=1)
    g[totals == 0] = 0.0
    return g


class _BaseTree:
    """Shared growth logic for classification and regression trees."""

    def __init__(
        self,
        max_depth: int = 10,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | None = None,
    ) -> None:
        if max_depth < 1:
            raise SelectionError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise SelectionError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise SelectionError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.nodes_: NodeArrays | None = None

    # hooks implemented by subclasses ----------------------------------- #
    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _split_gain(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, float] | None:
        """Best (gain, threshold) for one sorted feature column, or None."""
        raise NotImplementedError

    def _node_impurity(self, y: np.ndarray) -> float:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def _feature_candidates(self, d: int, rng: np.random.Generator) -> np.ndarray:
        if self.max_features is None:
            return np.arange(d)
        if self.max_features == "sqrt":
            k = max(1, int(np.sqrt(d)))
        elif isinstance(self.max_features, int):
            k = min(d, max(1, self.max_features))
        else:
            raise SelectionError(f"bad max_features {self.max_features!r}")
        return rng.choice(d, size=k, replace=False)

    def _grow(self, X, y, depth: int, rng, nodes: list) -> int:
        """Append the subtree for (X, y) to ``nodes`` in preorder; return its id."""
        node = len(nodes)
        value = self._leaf_value(y)
        # [feature, threshold, left, right, depth, value]: a leaf unless split
        nodes.append([0, 0.0, node, node, depth, value])
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or self._node_impurity(y) <= 1e-12
        ):
            return node
        best = None  # (gain, feature, threshold)
        for f in self._feature_candidates(X.shape[1], rng):
            col = X[:, f]
            order = np.argsort(col, kind="stable")
            found = self._split_gain(col[order], y[order])
            if found is None:
                continue
            gain, thr = found
            if best is None or gain > best[0] + 1e-15:
                best = (gain, f, thr)
        if best is None or best[0] <= 1e-12:
            return node
        _, f, thr = best
        mask = X[:, f] <= thr
        if mask.sum() < self.min_samples_leaf or (~mask).sum() < self.min_samples_leaf:
            return node
        left = self._grow(X[mask], y[mask], depth + 1, rng, nodes)
        right = self._grow(X[~mask], y[~mask], depth + 1, rng, nodes)
        nodes[node] = [int(f), float(thr), left, right, depth, value]
        return node

    def fit(self, X: np.ndarray, y: np.ndarray):
        """Grow :attr:`nodes_` depth-first, left first, with the RNG seeded
        here: a refit is a pure function of (data, hyperparameters)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise SelectionError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise SelectionError(f"X has {len(X)} rows but y has {len(y)}")
        if len(X) == 0:
            raise SelectionError("cannot fit on an empty dataset")
        nodes: list = []
        rng = np.random.default_rng(self.random_state)
        self._grow(X, y, 0, rng, nodes)
        feature, threshold, left, right, depth, value = map(np.array, zip(*nodes))
        self.nodes_ = NodeArrays(
            feature, threshold, left, right, value,
            roots=np.zeros(1, dtype=np.intp), depth=int(depth.max()),
        )
        return self

    def _leaves(self, X: np.ndarray) -> np.ndarray:
        if self.nodes_ is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        return self.nodes_.apply(np.asarray(X, dtype=np.float64))[:, 0]


class DecisionTreeClassifier(_BaseTree):
    """CART classifier with Gini impurity."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self._n_classes = len(self.classes_)
        return super().fit(X, y_enc)

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        counts = np.bincount(y, minlength=self._n_classes).astype(np.float64)
        return counts / counts.sum()

    def _node_impurity(self, y: np.ndarray) -> float:
        counts = np.bincount(y, minlength=self._n_classes)
        n = counts.sum()
        p = counts / n
        return float(1.0 - (p * p).sum())

    def _split_gain(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float] | None:
        n = len(y)
        # one-hot prefix sums of class membership along the sorted order
        onehot = np.zeros((n, self._n_classes))
        onehot[np.arange(n), y] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        total = prefix[-1]
        # candidate boundaries: positions where the feature value changes
        boundaries = np.nonzero(np.diff(x) > 0)[0]
        if boundaries.size == 0:
            return None
        left_counts = prefix[boundaries]
        right_counts = total[None, :] - left_counts
        nl = boundaries + 1.0
        nr = n - nl
        gini_l = _gini_from_counts(left_counts, nl)
        gini_r = _gini_from_counts(right_counts, nr)
        parent = self._node_impurity(y)
        gain = parent - (nl / n) * gini_l - (nr / n) * gini_r
        best = int(np.argmax(gain))
        i = boundaries[best]
        return float(gain[best]), float((x[i] + x[i + 1]) / 2.0)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        leaves = self._leaves(X)
        return self.nodes_.value[leaves]

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]


class DecisionTreeRegressor(_BaseTree):
    """CART regressor with variance (MSE) reduction."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        return super().fit(X, np.asarray(y, dtype=np.float64))

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        return np.array([y.mean()])

    def _node_impurity(self, y: np.ndarray) -> float:
        return float(y.var())

    def _split_gain(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float] | None:
        n = len(y)
        boundaries = np.nonzero(np.diff(x) > 0)[0]
        if boundaries.size == 0:
            return None
        csum = np.cumsum(y)
        csum2 = np.cumsum(y * y)
        nl = boundaries + 1.0
        nr = n - nl
        sl = csum[boundaries]
        s2l = csum2[boundaries]
        sr = csum[-1] - sl
        s2r = csum2[-1] - s2l
        var_l = s2l / nl - (sl / nl) ** 2
        var_r = s2r / nr - (sr / nr) ** 2
        parent = y.var()
        gain = parent - (nl / n) * var_l - (nr / n) * var_r
        best = int(np.argmax(gain))
        i = boundaries[best]
        return float(gain[best]), float((x[i] + x[i + 1]) / 2.0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        leaves = self._leaves(X)
        return self.nodes_.value[leaves, 0]
