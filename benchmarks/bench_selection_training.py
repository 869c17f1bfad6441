"""Benchmark the selection pipeline: dataset build, RF training, inference.

Regenerates the paper's §4.3 classifier-accuracy result (92.8 %-class mean
accuracy over 5-fold shuffled cross-validation on 448 points).
"""

import numpy as np

from repro.selection.crossval import cross_val_scores
from repro.selection.dataset import build_dataset
from repro.selection.forest import RandomForestClassifier


def test_dataset_build(benchmark):
    """448 analytical-model evaluations x 4 algorithms."""
    ds = benchmark(build_dataset)
    assert len(ds) == 448


def test_rf_training_cv(benchmark):
    """5-fold shuffled CV + final fit (the paper's protocol).

    Times the forest fits themselves: ``AlgorithmSelector.train`` would
    be a memo hit once anything earlier in the process trained the same
    selector.  The forests are ``AlgorithmSelector(n_estimators=60)``'s.
    """
    ds = build_dataset()

    def forest():
        return RandomForestClassifier(
            n_estimators=60, max_depth=10, max_features=6, random_state=0
        )

    def train():
        scores = cross_val_scores(forest, ds.X, ds.y, k=5, shuffle=True)
        forest().fit(ds.X, ds.y)
        return scores

    scores = benchmark.pedantic(train, rounds=1, iterations=1)
    accs = ", ".join(f"{a:.3f}" for a in scores)
    print()
    print(f"RF selector: 5-fold accuracies [{accs}] mean={np.mean(scores):.3f}")
    print("(paper: 92.8% mean accuracy, folds 91-96%)")
    assert np.mean(scores) >= 0.88


def test_rf_inference_latency(benchmark):
    """Per-layer selection latency — must be negligible vs a conv layer."""
    ds = build_dataset()
    rf = RandomForestClassifier(n_estimators=60, max_depth=10, random_state=0)
    rf.fit(ds.X, ds.y)
    row = ds.X[:1]
    benchmark(lambda: rf.predict(row))
