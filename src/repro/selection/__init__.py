"""Algorithm-selection machine learning (from scratch, NumPy only).

The paper trains several classifiers on a 448-point dataset (28 layers x 16
hardware configurations, 12 features) and selects a random forest (depth-10
trees, bootstrapping, 5-fold shuffled cross-validation) reaching 92.8 % mean
accuracy.  scikit-learn is unavailable offline, so this package implements
the full stack: CART decision trees (classification + regression), random
forests, and the comparison classifiers the paper evaluated (KNN, Gaussian
naive Bayes, multinomial logistic regression as the MLP/SVM stand-in family,
and gradient boosting), plus k-fold cross-validation utilities.
"""

from repro.selection.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.selection.forest import RandomForestClassifier
from repro.selection.knn import KNeighborsClassifier
from repro.selection.naive_bayes import GaussianNaiveBayes
from repro.selection.logistic import LogisticRegressionClassifier
from repro.selection.gboost import GradientBoostingClassifier
from repro.selection.crossval import (
    kfold_indices,
    cross_val_scores,
    accuracy_score,
)
from repro.selection.dataset import (
    SelectionDataset,
    build_dataset,
    build_searched_dataset,
)
from repro.selection.predictor import AlgorithmSelector

__all__ = [
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "KNeighborsClassifier",
    "GaussianNaiveBayes",
    "LogisticRegressionClassifier",
    "GradientBoostingClassifier",
    "kfold_indices",
    "cross_val_scores",
    "accuracy_score",
    "SelectionDataset",
    "build_dataset",
    "build_searched_dataset",
    "AlgorithmSelector",
]
