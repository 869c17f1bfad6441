"""Cross-validation and classification metrics."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import SelectionError


def kfold_indices(
    n: int, k: int = 5, shuffle: bool = True, random_state: int = 0
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (train_idx, test_idx) pairs for k-fold cross-validation.

    Folds partition the samples: every sample appears in exactly one test
    fold, and with ``shuffle`` (the paper's setting) assignment is random.
    """
    if not 2 <= k <= n:
        raise SelectionError(f"k must be in [2, {n}], got {k}")
    order = np.arange(n)
    if shuffle:
        np.random.default_rng(random_state).shuffle(order)
    folds = np.array_split(order, k)
    for i in range(k):
        test = folds[i]
        train = np.concatenate([folds[j] for j in range(k) if j != i])
        yield train, test


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exact label matches."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise SelectionError(f"shape mismatch {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise SelectionError("empty label arrays")
    return float((y_true == y_pred).mean())


def cross_val_predictions(
    model_factory,
    X: np.ndarray,
    y: np.ndarray,
    k: int = 5,
    shuffle: bool = True,
    random_state: int = 0,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(test indices, predictions) per fold from freshly constructed models
    (the paper's 5-fold shuffled protocol: test folds are unseen in training)."""
    X = np.asarray(X)
    y = np.asarray(y)
    folds = []
    for train, test in kfold_indices(len(X), k, shuffle, random_state):
        model = model_factory()
        model.fit(X[train], y[train])
        folds.append((test, model.predict(X[test])))
    return folds


def cross_val_scores(
    model_factory,
    X: np.ndarray,
    y: np.ndarray,
    k: int = 5,
    shuffle: bool = True,
    random_state: int = 0,
) -> list[float]:
    """Per-fold accuracy of :func:`cross_val_predictions`."""
    folds = cross_val_predictions(model_factory, X, y, k, shuffle, random_state)
    return [accuracy_score(np.asarray(y)[test], pred) for test, pred in folds]
