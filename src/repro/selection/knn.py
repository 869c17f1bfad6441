"""K-nearest-neighbours classifier (comparison model from Paper II §4.3)."""

from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError, SelectionError


class KNeighborsClassifier:
    """Euclidean KNN with optional per-feature standardization.

    The 12 features span very different magnitudes (vector bits vs. stride),
    so standardization is on by default — without it KNN degenerates to
    matching on the largest-magnitude feature.
    """

    def __init__(self, n_neighbors: int = 5, standardize: bool = True) -> None:
        if n_neighbors < 1:
            raise SelectionError(f"n_neighbors must be >= 1, got {n_neighbors}")
        self.n_neighbors = n_neighbors
        self.standardize = standardize
        self._X: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNeighborsClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if len(X) != len(y) or len(X) == 0:
            raise SelectionError("X and y must be non-empty and equally long")
        if self.n_neighbors > len(X):
            raise SelectionError(
                f"n_neighbors={self.n_neighbors} exceeds {len(X)} training samples"
            )
        self._mu = X.mean(axis=0)
        self._sigma = X.std(axis=0)
        self._sigma[self._sigma == 0] = 1.0
        self._X = self._scale(X)
        self.classes_, self._y = np.unique(y, return_inverse=True)
        return self

    def _scale(self, X: np.ndarray) -> np.ndarray:
        if not self.standardize:
            return X
        return (X - self._mu) / self._sigma

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._X is None:
            raise NotFittedError("KNeighborsClassifier is not fitted")
        X = self._scale(np.asarray(X, dtype=np.float64))
        # pairwise distances, vectorized
        d2 = ((X[:, None, :] - self._X[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argsort(d2, axis=1)[:, : self.n_neighbors]
        votes = self._y[nearest]
        counts = (votes[:, :, None] == np.arange(len(self.classes_))).sum(axis=1)
        return self.classes_[counts.argmax(axis=1)]
