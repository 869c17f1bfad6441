"""Tests for the from-scratch ML stack (trees, forest, comparison models)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotFittedError, SelectionError
from repro.selection import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GaussianNaiveBayes,
    GradientBoostingClassifier,
    KNeighborsClassifier,
    LogisticRegressionClassifier,
    RandomForestClassifier,
)


def blobs(rng, n_per=40, centers=((0, 0), (6, 6), (0, 6)), spread=0.8):
    """Well-separated Gaussian blobs -> easily separable dataset."""
    X, y = [], []
    for label, c in enumerate(centers):
        X.append(rng.normal(c, spread, size=(n_per, 2)))
        y.extend([label] * n_per)
    return np.vstack(X), np.array(y)


ALL_MODELS = [
    lambda: DecisionTreeClassifier(max_depth=8, random_state=0),
    lambda: RandomForestClassifier(n_estimators=20, random_state=0),
    lambda: KNeighborsClassifier(n_neighbors=3),
    lambda: GaussianNaiveBayes(),
    lambda: LogisticRegressionClassifier(epochs=300),
    lambda: GradientBoostingClassifier(n_estimators=15),
]


class TestAllClassifiers:
    @pytest.mark.parametrize("factory", ALL_MODELS)
    def test_fits_separable_blobs(self, rng, factory):
        X, y = blobs(rng)
        model = factory().fit(X, y)
        assert (model.predict(X) == y).mean() > 0.95

    @pytest.mark.parametrize("factory", ALL_MODELS)
    def test_predictions_within_label_set(self, rng, factory):
        X, y = blobs(rng)
        model = factory().fit(X, y)
        probe = rng.normal(0, 10, size=(50, 2))
        assert set(np.unique(model.predict(probe))) <= set(np.unique(y))

    @pytest.mark.parametrize("factory", ALL_MODELS)
    def test_unfitted_raises(self, factory):
        with pytest.raises(NotFittedError):
            factory().predict(np.zeros((1, 2)))

    @pytest.mark.parametrize("factory", ALL_MODELS)
    def test_string_labels(self, rng, factory):
        X, y = blobs(rng)
        labels = np.array(["a", "b", "c"], dtype=object)[y]
        model = factory().fit(X, labels)
        assert set(model.predict(X[:5])) <= {"a", "b", "c"}

    @pytest.mark.parametrize("factory", ALL_MODELS)
    def test_empty_fit_rejected(self, factory):
        with pytest.raises(SelectionError):
            factory().fit(np.zeros((0, 2)), np.zeros(0))


class TestDecisionTree:
    def test_perfect_split_on_axis(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert tree.nodes_.depth == 1
        assert (tree.predict(X) == y).all()

    def test_max_depth_respected(self, rng):
        X = rng.random((200, 4))
        y = (X.sum(axis=1) > 2).astype(int)
        tree = DecisionTreeClassifier(max_depth=3, random_state=0).fit(X, y)
        assert tree.nodes_.depth <= 3

    def test_deterministic_given_seed(self, rng):
        X, y = blobs(rng)
        t1 = DecisionTreeClassifier(max_depth=6, max_features="sqrt", random_state=5)
        t2 = DecisionTreeClassifier(max_depth=6, max_features="sqrt", random_state=5)
        np.testing.assert_array_equal(t1.fit(X, y).predict(X), t2.fit(X, y).predict(X))

    def test_refit_is_deterministic(self, rng):
        """A fit is a pure function of (data, hyperparameters)."""
        X = rng.random((200, 6))
        y = (X[:, 0] + 0.5 * rng.random(200) > 0.7).astype(int)
        probe = rng.random((300, 6))
        tree = DecisionTreeClassifier(max_features=3, random_state=0)
        first = tree.fit(X, y).predict_proba(probe)
        np.testing.assert_array_equal(tree.fit(X, y).predict_proba(probe), first)

    def test_pure_node_is_leaf(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1, 1, 1])
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        assert len(tree.nodes_.left) == 1

    def test_constant_features_become_leaf(self):
        X = np.ones((10, 3))
        y = np.array([0, 1] * 5)
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        assert len(tree.nodes_.left) == 1  # no valid split exists

    def test_predict_proba_sums_to_one(self, rng):
        X, y = blobs(rng)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        proba = tree.predict_proba(X[:10])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_hyperparameter_validation(self):
        with pytest.raises(SelectionError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(SelectionError):
            DecisionTreeClassifier(min_samples_split=1)

    def test_mismatched_xy(self):
        with pytest.raises(SelectionError):
            DecisionTreeClassifier().fit(np.zeros((3, 2)), np.zeros(4))

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_training_accuracy_beats_majority(self, seed):
        """Property: an unrestricted tree fits training data better than the
        majority-class baseline."""
        rng = np.random.default_rng(seed)
        X = rng.random((60, 3))
        y = (X[:, 0] + 0.3 * rng.random(60) > 0.5).astype(int)
        if len(np.unique(y)) < 2:
            return
        tree = DecisionTreeClassifier(max_depth=10).fit(X, y)
        acc = (tree.predict(X) == y).mean()
        majority = max(np.bincount(y)) / len(y)
        assert acc >= majority


class TestDecisionTreeRegressor:
    def test_fits_step_function(self):
        X = np.linspace(0, 1, 50)[:, None]
        y = (X[:, 0] > 0.5) * 10.0
        reg = DecisionTreeRegressor(max_depth=2).fit(X, y)
        pred = reg.predict(np.array([[0.1], [0.9]]))
        np.testing.assert_allclose(pred, [0.0, 10.0], atol=1e-9)

    def test_constant_target(self):
        X = np.random.default_rng(0).random((20, 2))
        reg = DecisionTreeRegressor().fit(X, np.full(20, 3.5))
        np.testing.assert_allclose(reg.predict(X[:3]), 3.5)

    def test_reduces_mse_vs_mean(self, rng):
        X = rng.random((100, 2))
        y = 3 * X[:, 0] - 2 * X[:, 1]
        reg = DecisionTreeRegressor(max_depth=6).fit(X, y)
        mse_tree = ((reg.predict(X) - y) ** 2).mean()
        mse_mean = y.var()
        assert mse_tree < 0.3 * mse_mean


class TestRandomForest:
    def test_improves_or_matches_single_tree(self, rng):
        X = rng.random((150, 6))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)  # XOR-ish
        split = 100
        tree = DecisionTreeClassifier(max_depth=10, random_state=0).fit(
            X[:split], y[:split]
        )
        forest = RandomForestClassifier(
            n_estimators=40, max_depth=10, random_state=0
        ).fit(X[:split], y[:split])
        t_acc = (tree.predict(X[split:]) == y[split:]).mean()
        f_acc = (forest.predict(X[split:]) == y[split:]).mean()
        assert f_acc >= t_acc - 0.05

    def test_feature_importances(self, rng):
        X = rng.random((200, 5))
        y = (X[:, 2] > 0.5).astype(int)  # only feature 2 matters
        forest = RandomForestClassifier(n_estimators=20, random_state=0).fit(X, y)
        imp = forest.feature_importances()
        assert imp.argmax() == 2
        assert imp.sum() == pytest.approx(1.0)

    def test_no_bootstrap_mode(self, rng):
        X, y = blobs(rng)
        forest = RandomForestClassifier(
            n_estimators=5, bootstrap=False, random_state=0
        ).fit(X, y)
        assert (forest.predict(X) == y).mean() > 0.95

    def test_n_estimators_validation(self):
        with pytest.raises(SelectionError):
            RandomForestClassifier(n_estimators=0)

    def test_proba_shape(self, rng):
        X, y = blobs(rng)
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        proba = forest.predict_proba(X[:7])
        assert proba.shape == (7, 3)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)


class TestKNN:
    def test_k1_memorizes(self, rng):
        X, y = blobs(rng)
        knn = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert (knn.predict(X) == y).all()

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(SelectionError):
            KNeighborsClassifier(n_neighbors=10).fit(np.zeros((3, 1)), np.zeros(3))

    def test_standardization_matters(self, rng):
        """With wildly different feature scales, raw KNN keys on the big
        feature; standardized KNN recovers the signal."""
        n = 100
        signal = rng.integers(0, 2, n)
        X = np.column_stack([signal + 0.1 * rng.random(n),
                             1e6 * rng.random(n)])
        y = signal
        std = KNeighborsClassifier(n_neighbors=5, standardize=True).fit(X, y)
        raw = KNeighborsClassifier(n_neighbors=5, standardize=False).fit(X, y)
        assert (std.predict(X) == y).mean() > (raw.predict(X) == y).mean()


class TestGradientBoosting:
    def test_more_rounds_fit_tighter(self, rng):
        X = rng.random((120, 3))
        y = (X[:, 0] + X[:, 1] > 1.0).astype(int)
        weak = GradientBoostingClassifier(n_estimators=2).fit(X, y)
        strong = GradientBoostingClassifier(n_estimators=30).fit(X, y)
        assert (strong.predict(X) == y).mean() >= (weak.predict(X) == y).mean()

    def test_decision_scores_shape(self, rng):
        X, y = blobs(rng)
        gb = GradientBoostingClassifier(n_estimators=5).fit(X, y)
        assert gb.decision_scores(X[:4]).shape == (4, 3)
