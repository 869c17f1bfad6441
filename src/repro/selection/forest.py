"""Random forest classifier (the paper's selection model).

Hyperparameters follow Paper II §4.3: depth-10 trees with bootstrapping.
Prediction aggregates the per-tree leaf class distributions (soft voting),
which is both what scikit-learn does and slightly more accurate than hard
majority voting on small datasets.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.errors import NotFittedError, SelectionError
from repro.selection.tree import DecisionTreeClassifier, NodeArrays


class RandomForestClassifier:
    """Bootstrap-aggregated CART trees with feature subsampling."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 10,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        min_samples_leaf: int = 1,
        random_state: int | None = 0,
    ) -> None:
        if n_estimators < 1:
            raise SelectionError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state
        self.nodes_: NodeArrays | None = None
        self.n_features_: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if len(X) != len(y) or len(X) == 0:
            raise SelectionError("X and y must be non-empty and equally long")
        rng = np.random.default_rng(self.random_state)
        self.classes_ = np.unique(y)
        n = len(X)
        trees = []
        for t in range(self.n_estimators):
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                max_features=self.max_features,
                min_samples_leaf=self.min_samples_leaf,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[idx], y[idx])
            # widen each tree's leaf distributions to the global class set
            value = np.zeros((len(tree.nodes_.value), len(self.classes_)))
            value[:, np.searchsorted(self.classes_, tree.classes_)] = tree.nodes_.value
            trees.append(replace(tree.nodes_, value=value))
        self.nodes_ = NodeArrays.stack(trees)
        self.n_features_ = X.shape[1]
        return self

    def _check_fitted(self) -> None:
        if self.nodes_ is None:
            raise NotFittedError("RandomForestClassifier is not fitted")

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean of per-tree leaf class distributions over the global classes
        (summed in tree order, so the floats match a running sum)."""
        self._check_fitted()
        leaves = self.nodes_.apply(np.asarray(X, dtype=np.float64))
        per_tree = self.nodes_.value[leaves]  # (rows, trees, classes)
        return np.add.accumulate(per_tree, axis=1)[:, -1] / len(self.nodes_.roots)

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def feature_importances(self) -> np.ndarray:
        """Split-frequency feature importances (normalized counts)."""
        self._check_fitted()
        internal = self.nodes_.left != np.arange(len(self.nodes_.left))
        split_on = self.nodes_.feature[internal]
        counts = np.bincount(split_on, minlength=self.n_features_).astype(np.float64)
        total = counts.sum()
        return counts / total if total else counts
