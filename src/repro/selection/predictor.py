"""The AlgorithmSelector façade: train once, select per layer at runtime.

Wraps the random forest with the paper's protocol: 5-fold shuffled
cross-validation for the reported accuracy, then a final fit on the whole
dataset for deployment.  Also computes the paper's misprediction metric
(mean absolute percentage error in *layer time* when the wrong algorithm is
chosen — 20.4 % in the paper) and full-network slowdowns.

A fit is a pure function of (dataset, hyperparameters), so the fitted
forest and its report are memoized per process on both.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.errors import NotFittedError, SelectionError
from repro.nn.layer import ConvSpec
from repro.selection.crossval import accuracy_score, cross_val_predictions
from repro.selection.dataset import SelectionDataset, build_dataset
from repro.selection.forest import RandomForestClassifier
from repro.simulator.hwconfig import HardwareConfig


@dataclass
class SelectorReport:
    """Cross-validated quality metrics of a trained selector."""

    fold_accuracies: list[float]
    misprediction_mape: float  # mean |layer-time error| on mispredictions
    n_points: int

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.fold_accuracies))

    def summary(self) -> str:
        accs = ", ".join(f"{a:.3f}" for a in self.fold_accuracies)
        return (
            f"5-fold accuracies: [{accs}] mean={self.mean_accuracy:.3f}; "
            f"misprediction layer-time MAPE={self.misprediction_mape:.1%} "
            f"({self.n_points} points)"
        )


@dataclass
class _Trained:
    """The forest fitted on a whole dataset, and its report once trained."""

    model: RandomForestClassifier
    report: SelectorReport | None = None


def _content_digest(dataset: SelectionDataset) -> str:
    """sha256 of everything a training reads from ``dataset``."""
    head = repr((dataset.X.shape, dataset.algorithm_names, dataset.y.tolist()))
    body = dataset.X.tobytes() + dataset.cycles.tobytes()
    return hashlib.sha256(head.encode() + body).hexdigest()


class AlgorithmSelector:
    """Per-layer convolution-algorithm selection (Paper II §4.3)."""

    #: Process-wide memo keyed on (dataset digest, n_estimators, max_depth,
    #: max_features, random_state); entries are shared, so read-only.
    _memo: ClassVar[dict[tuple, _Trained]] = {}
    _lock: ClassVar[threading.Lock] = threading.Lock()

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 10,
        max_features: int | str | None = 6,
        random_state: int = 0,
    ) -> None:
        # hyperparameters tuned as in Paper II §4.3: depth-10 trees with
        # bootstrapping; half the 12 features per split balances fit and
        # fold-to-fold variance on the 448-point dataset
        self._params = dict(
            n_estimators=n_estimators,
            max_depth=max_depth,
            max_features=max_features,
            random_state=random_state,
        )
        self.model = self._forest()
        self._trained: _Trained | None = None
        self.report: SelectorReport | None = None

    # ------------------------------------------------------------------ #
    def _forest(self) -> RandomForestClassifier:
        return RandomForestClassifier(bootstrap=True, **self._params)

    def fit(self, dataset: SelectionDataset | None = None) -> "AlgorithmSelector":
        """Fit on the full dataset without cross-validation.

        The deployment path (``repro-serve`` startup) and the network
        figures want the final model only; :meth:`train` additionally runs
        the paper's 5-fold protocol to produce a :class:`SelectorReport`.
        """
        dataset = build_dataset() if dataset is None else dataset
        if len(dataset) == 0:
            raise SelectionError("cannot train the selector on an empty dataset")
        key = (_content_digest(dataset), *self._params.values())
        with self._lock:  # racing selectors with one key fit once
            if key not in self._memo:
                forest = self._forest().fit(dataset.X, dataset.y)
                self._memo[key] = _Trained(forest)
            self._trained = self._memo[key]
        self.model = self._trained.model
        return self

    def train(self, dataset: SelectionDataset | None = None) -> SelectorReport:
        """Cross-validate (5-fold, shuffled) then fit on the full dataset."""
        dataset = build_dataset() if dataset is None else dataset
        trained = self.fit(dataset)._trained
        with self._lock:
            if trained.report is None:
                folds = cross_val_predictions(
                    self._forest, dataset.X, dataset.y,
                    random_state=self._params["random_state"],
                )
                regrets = [
                    dataset.regret(int(row), str(p))
                    for test, pred in folds
                    for row, p in zip(test, pred)
                    if p != dataset.y[row]
                ]
                accs = [accuracy_score(dataset.y[test], p) for test, p in folds]
                mape = float(np.mean(regrets)) if regrets else 0.0
                trained.report = SelectorReport(accs, mape, len(dataset))
        self.report = trained.report
        return self.report

    # ------------------------------------------------------------------ #
    def features_many(
        self, pairs: list[tuple[ConvSpec, HardwareConfig]]
    ) -> np.ndarray:
        """Stacked feature matrix for a batch of (layer, config) queries."""
        return np.asarray(
            [
                [float(hw.vlen_bits), float(hw.l2_mib)] + spec.features()
                for spec, hw in pairs
            ]
        )

    def select(self, spec: ConvSpec, hw: HardwareConfig) -> str:
        """Predict the best algorithm for one layer on one configuration."""
        return self.select_many([(spec, hw)])[0]

    def select_many(
        self, pairs: list[tuple[ConvSpec, HardwareConfig]]
    ) -> list[str]:
        """Batched :meth:`select`: one model pass over many queries.

        The serving micro-batcher (:mod:`repro.serve`) and the network
        policies route whole batches through here so the selection cost
        is one forest traversal, not one model call per query.
        """
        if self._trained is None:
            raise NotFittedError("AlgorithmSelector.train() has not been called")
        if not pairs:
            return []
        return [str(p) for p in self.model.predict(self.features_many(pairs))]
