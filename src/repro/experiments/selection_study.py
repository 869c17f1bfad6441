"""Paper II §4.3 — classifier comparison and the random-forest accuracy.

Trains every classifier family the paper evaluated on the 448-point dataset
with 5-fold shuffled cross-validation and reports per-fold accuracies — the
random forest should land in the low-to-mid 90s (paper: 92.8 % mean).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.report import ExperimentResult
from repro.selection import (
    AlgorithmSelector,
    GaussianNaiveBayes,
    GradientBoostingClassifier,
    KNeighborsClassifier,
    LogisticRegressionClassifier,
    RandomForestClassifier,
    build_dataset,
    cross_val_scores,
)
from repro.selection.tree import DecisionTreeClassifier
from repro.utils.tables import Table


def classifier_zoo() -> dict[str, callable]:
    """Factories for the compared classifier families."""
    return {
        "random_forest": lambda: RandomForestClassifier(
            n_estimators=100, max_depth=10, random_state=0
        ),
        "decision_tree": lambda: DecisionTreeClassifier(max_depth=10, random_state=0),
        "knn": lambda: KNeighborsClassifier(n_neighbors=5),
        "naive_bayes": lambda: GaussianNaiveBayes(),
        "logistic": lambda: LogisticRegressionClassifier(epochs=300),
        "gradient_boosting": lambda: GradientBoostingClassifier(
            n_estimators=40, max_depth=3
        ),
    }


def run(dataset=None) -> ExperimentResult:
    """Cross-validated accuracy of each classifier + the RF selector report."""
    dataset = build_dataset() if dataset is None else dataset
    table = Table(
        ["classifier", "mean_accuracy", "min_fold", "max_fold"],
        title="Paper II §4.3: classifier comparison (5-fold shuffled CV, 448 pts)",
    )
    accuracies: dict[str, list[float]] = {}
    for name, factory in classifier_zoo().items():
        scores = cross_val_scores(factory, dataset.X, dataset.y, k=5, shuffle=True)
        accuracies[name] = scores
        table.add_row([name, float(np.mean(scores)), min(scores), max(scores)])

    selector = AlgorithmSelector()
    report = selector.train(dataset)
    table.add_row(
        ["rf_selector (deployed)", report.mean_accuracy,
         min(report.fold_accuracies), max(report.fold_accuracies)]
    )
    return ExperimentResult(
        experiment="selection",
        description="Algorithm-selection classifier comparison and RF accuracy",
        table=table,
        data={
            "accuracies": accuracies,
            "rf_report": report,
            "selector": selector,
            "dataset": dataset,
        },
    )
