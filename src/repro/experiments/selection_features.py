"""Extension — which features carry the algorithm selector.

The paper argues the classifier must see *both* the convolution dimensions
and the hardware configuration (vector length, L2 size).  This study reads
the trained forest's split-frequency feature importances and re-trains a
layer-features-only selector to quantify the claim: dropping the two
hardware features costs measurable accuracy, because the optimal algorithm
genuinely flips with VL/L2 (Figs. 3-8).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.experiments.report import ExperimentResult
from repro.selection.crossval import cross_val_scores
from repro.selection.dataset import FEATURE_NAMES, build_dataset
from repro.selection.forest import RandomForestClassifier
from repro.selection.predictor import AlgorithmSelector
from repro.utils.tables import Table


#: The cross-validated model: every feature is a candidate at each split.
_every_feature_forest = partial(
    RandomForestClassifier,
    n_estimators=60, max_depth=10, max_features=None, random_state=0,
)


def run(dataset=None) -> ExperimentResult:
    dataset = build_dataset() if dataset is None else dataset
    forest = AlgorithmSelector(n_estimators=60).fit(dataset).model
    importances = forest.feature_importances()

    table = Table(
        ["feature", "split importance"],
        title="Selector feature importances (split frequency, trained RF)",
    )
    ranked = sorted(
        zip(FEATURE_NAMES, importances), key=lambda kv: kv[1], reverse=True
    )
    for name, imp in ranked:
        table.add_row([name, imp])

    full_acc, layers_only = (
        float(np.mean(cross_val_scores(_every_feature_forest, X, dataset.y)))
        for X in (dataset.X, dataset.X[:, 2:])
    )
    hw_importance = float(importances[0] + importances[1])
    table.add_row(["== CV accuracy, all 12 features ==", full_acc])
    table.add_row(["== CV accuracy, layer features only ==", layers_only])
    return ExperimentResult(
        experiment="selection-features",
        description="Hardware features matter to the selector",
        table=table,
        data={
            "importances": dict(zip(FEATURE_NAMES, importances.tolist())),
            "hw_importance": hw_importance,
            "full_accuracy": full_acc,
            "layers_only_accuracy": layers_only,
        },
    )
