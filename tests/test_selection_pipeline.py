"""Tests for cross-validation, the 448-point dataset, and the selector."""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import ALGORITHM_NAMES
from repro.errors import NotFittedError, SelectionError
from repro.selection import (
    AlgorithmSelector,
    RandomForestClassifier,
    accuracy_score,
    cross_val_scores,
    kfold_indices,
)
from repro.selection.dataset import (
    FEATURE_NAMES,
    build_dataset,
    paper_grid,
    paper_layers,
)
from repro.simulator.hwconfig import HardwareConfig


class TestKFold:
    def test_partitions_all_samples(self):
        folds = list(kfold_indices(100, 5))
        assert len(folds) == 5
        all_test = np.concatenate([t for _, t in folds])
        assert sorted(all_test) == list(range(100))

    def test_train_test_disjoint(self):
        for train, test in kfold_indices(50, 5):
            assert not set(train) & set(test)
            assert len(train) + len(test) == 50

    @given(n=st.integers(10, 200), k=st.integers(2, 8))
    @settings(max_examples=30)
    def test_partition_property(self, n, k):
        if k > n:
            return
        seen = []
        for train, test in kfold_indices(n, k, shuffle=True, random_state=1):
            seen.extend(test)
            assert len(test) >= n // k  # balanced folds
        assert sorted(seen) == list(range(n))

    def test_shuffle_changes_folds(self):
        a = [tuple(t) for _, t in kfold_indices(30, 3, shuffle=False)]
        b = [tuple(t) for _, t in kfold_indices(30, 3, shuffle=True, random_state=1)]
        assert a != b

    def test_bad_k(self):
        with pytest.raises(SelectionError):
            list(kfold_indices(5, 1))
        with pytest.raises(SelectionError):
            list(kfold_indices(5, 6))


class TestMetrics:
    def test_accuracy(self):
        assert accuracy_score(np.array([1, 1, 0]), np.array([1, 0, 0])) == pytest.approx(2 / 3)

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(SelectionError):
            accuracy_score(np.zeros(3), np.zeros(4))

    def test_cross_val_scores_protocol(self, rng):
        from repro.selection import DecisionTreeClassifier

        X = rng.random((60, 2))
        y = (X[:, 0] > 0.5).astype(int)
        scores = cross_val_scores(
            lambda: DecisionTreeClassifier(max_depth=4), X, y, k=5
        )
        assert len(scores) == 5
        assert all(0.0 <= s <= 1.0 for s in scores)


class TestDataset:
    def test_grid_is_16_configs(self):
        assert len(paper_grid()) == 16

    def test_layers_are_28(self):
        assert len(paper_layers()) == 28

    def test_448_points(self, selection_dataset):
        assert len(selection_dataset) == 448
        assert selection_dataset.X.shape == (448, 12)

    def test_feature_names_count(self):
        assert len(FEATURE_NAMES) == 12
        assert FEATURE_NAMES[:2] == ("vlen_bits", "l2_mib")

    def test_labels_are_known_algorithms(self, selection_dataset):
        assert set(selection_dataset.y) <= set(ALGORITHM_NAMES)

    def test_every_algorithm_wins_somewhere(self, selection_dataset):
        """The co-design premise: no single algorithm fits all layers."""
        assert set(selection_dataset.y) == set(ALGORITHM_NAMES)

    def test_label_matches_cycles_argmin(self, selection_dataset):
        ds = selection_dataset
        for row in range(0, len(ds), 37):
            best = ds.cycles[row].argmin()
            assert ALGORITHM_NAMES[best] == ds.y[row]

    def test_winograd_inapplicable_is_inf(self, selection_dataset):
        ds = selection_dataset
        wg = ALGORITHM_NAMES.index("winograd")
        inapplicable = [
            i for i, s in enumerate(ds.specs) if s.kh != 3 or s.stride != 1
        ]
        assert inapplicable
        assert np.isinf(ds.cycles[inapplicable, wg]).all()

    def test_regret_non_negative(self, selection_dataset):
        ds = selection_dataset
        for row in range(0, len(ds), 53):
            for name in ALGORITHM_NAMES:
                if np.isfinite(ds.cycles_for(row, name)):
                    assert ds.regret(row, name) >= 0.0


class TestSelector:
    def test_accuracy_in_paper_band(self, trained_selector):
        """Paper: 92.8 % mean accuracy (range 91-96 %).  We require >= 88 %."""
        report = trained_selector.report
        assert report.mean_accuracy >= 0.88
        assert all(a >= 0.80 for a in report.fold_accuracies)

    def test_misprediction_regret_small(self, trained_selector):
        """Paper: 20.4 % mean layer-time error on mispredictions."""
        assert trained_selector.report.misprediction_mape <= 0.35

    def test_select_returns_algorithm_name(self, trained_selector):
        spec = paper_layers()[0]
        hw = HardwareConfig.paper2_rvv(512, 1.0)
        assert trained_selector.select(spec, hw) in ALGORITHM_NAMES

    def test_select_network(self, trained_selector):
        specs = paper_layers()[:13]
        hw = HardwareConfig.paper2_rvv(2048, 4.0)
        chosen = trained_selector.select_many([(s, hw) for s in specs])
        assert len(chosen) == len(specs)
        assert chosen == [trained_selector.select(s, hw) for s in specs]

    def test_untrained_selector_raises(self):
        sel = AlgorithmSelector()
        with pytest.raises(NotFittedError):
            sel.select(paper_layers()[0], HardwareConfig.paper2_rvv(512, 1.0))

    def test_report_summary_text(self, trained_selector):
        text = trained_selector.report.summary()
        assert "5-fold" in text and "mean=" in text


def _rows(dataset, rows):
    """The dataset restricted to ``rows`` (a slice or index array)."""
    idx = np.arange(len(dataset))[rows]
    return dataclasses.replace(
        dataset,
        X=dataset.X[idx],
        y=dataset.y[idx],
        cycles=dataset.cycles[idx],
        specs=[dataset.specs[i] for i in idx],
        configs=[dataset.configs[i] for i in idx],
    )


def _relabelled(dataset, row: int = 0):
    """A copy of ``dataset`` whose label at ``row`` is another algorithm."""
    y = dataset.y.copy()
    y[row] = next(a for a in ALGORITHM_NAMES if a != y[row])
    return dataclasses.replace(dataset, y=y)


class TestEmptyDataset:
    """An empty dataset is an error, not a cue to build the paper grid."""

    @pytest.fixture(scope="class")
    def empty(self, selection_dataset):
        return _rows(selection_dataset, slice(0, 0))

    def test_selector_train_raises(self, empty):
        with pytest.raises(SelectionError):
            AlgorithmSelector(n_estimators=5).train(empty)

    def test_selector_fit_raises(self, empty):
        with pytest.raises(SelectionError):
            AlgorithmSelector(n_estimators=5).fit(empty)

    def test_selection_study_raises(self, empty):
        from repro.experiments import selection_study

        with pytest.raises(SelectionError):
            selection_study.run(dataset=empty)

    def test_selection_features_raises(self, empty):
        from repro.experiments import selection_features

        with pytest.raises(SelectionError):
            selection_features.run(dataset=empty)


class TestSelectorMemo:
    """One training per (dataset content, hyperparameters) per process."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """An empty memo, and counts of forest fits and selector trainings."""
        monkeypatch.setattr(AlgorithmSelector, "_memo", {})
        calls = {"fit": 0, "train": 0}
        fit, train = RandomForestClassifier.fit, AlgorithmSelector.train

        def counted_fit(self, X, y):
            calls["fit"] += 1
            return fit(self, X, y)

        def counted_train(self, dataset=None):
            calls["train"] += 1
            return train(self, dataset)

        monkeypatch.setattr(RandomForestClassifier, "fit", counted_fit)
        monkeypatch.setattr(AlgorithmSelector, "train", counted_train)
        return calls

    @pytest.fixture(scope="class")
    def small(self, selection_dataset):
        return _rows(selection_dataset, slice(None, None, 4))

    def test_fit_then_train_reuses_the_forest(self, calls, small):
        first = AlgorithmSelector(n_estimators=5).fit(small)
        assert calls["fit"] == 1
        second = AlgorithmSelector(n_estimators=5)
        report = second.train(small)
        assert calls["fit"] == 1 + 5  # the five CV folds only
        assert second.model is first.model
        again = AlgorithmSelector(n_estimators=5)
        assert again.train(small) is report
        assert calls == {"fit": 6, "train": 2}

    def test_memo_hit_matches_a_fresh_fit(self, calls, small):
        AlgorithmSelector(n_estimators=5).fit(small)
        hit = AlgorithmSelector(n_estimators=5).fit(small)
        fresh = RandomForestClassifier(
            n_estimators=5, max_depth=10, max_features=6, random_state=0
        ).fit(small.X, small.y)
        np.testing.assert_array_equal(
            hit.model.predict_proba(small.X), fresh.predict_proba(small.X)
        )

    def test_other_hyperparameters_or_labels_retrain(self, calls, small):
        AlgorithmSelector(n_estimators=5).fit(small)
        AlgorithmSelector(n_estimators=6).fit(small)
        AlgorithmSelector(n_estimators=5, random_state=1).fit(small)
        AlgorithmSelector(n_estimators=5).fit(_relabelled(small))
        assert calls["fit"] == 4

    def test_racing_selectors_train_once(self, calls, small):
        """The memo's check-then-fit is atomic across threads."""
        selectors = [AlgorithmSelector(n_estimators=2) for _ in range(6)]
        threads = [
            threading.Thread(target=s.train, args=(small,)) for s in selectors
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert calls == {"fit": 1 + 5, "train": 6}
        assert len({id(s.report) for s in selectors}) == 1

    @pytest.mark.slow
    def test_paper_selection_run_trains_each_model_once(self, calls, capsys):
        """selection, selection-features, fig09 and fig10 make 22 distinct
        forest fits and one cross-validated training between them."""
        from repro.experiments.cli import main

        argv = ["selection", "selection-features", "fig09", "fig10"]
        assert main(argv + ["--workers", "1"]) == 0
        assert calls == {"fit": 22, "train": 1}
        dataset = build_dataset()
        AlgorithmSelector().train(dataset)
        assert calls == {"fit": 22, "train": 2}
        AlgorithmSelector().train(_relabelled(dataset))
        assert calls == {"fit": 22 + 6, "train": 3}
