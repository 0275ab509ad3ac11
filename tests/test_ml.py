"""Tests for the learning substrate: SVM, metrics, splits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import (
    ConfusionMatrix,
    LinearSVM,
    SVMNotFitted,
    accuracy,
    confusion_matrix,
    f1_score,
    precision,
    recall,
    train_test_split,
)


def linearly_separable(n=200, d=10, seed=0, imbalance=0.5):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    w = rng.normal(0, 1, d)
    threshold = np.quantile(X @ w, 1.0 - imbalance)
    y = (X @ w > threshold).astype(int)
    return X, y


class TestLinearSVM:
    def test_learns_separable_problem(self):
        X, y = linearly_separable(seed=1)
        svm = LinearSVM(lam=1e-4, epochs=30, seed=0).fit(X, y)
        assert accuracy(y, svm.predict(X)) > 0.9

    def test_handles_imbalance(self):
        X, y = linearly_separable(n=600, seed=2, imbalance=0.1)
        svm = LinearSVM(lam=1e-4, epochs=30, seed=0).fit(X, y)
        cm = confusion_matrix(y, svm.predict(X))
        assert cm.recall > 0.8
        assert cm.precision > 0.6

    def test_deterministic_given_seed(self):
        X, y = linearly_separable(seed=3)
        a = LinearSVM(seed=5).fit(X, y)
        b = LinearSVM(seed=5).fit(X, y)
        assert np.allclose(a.weights, b.weights)
        assert a.bias == b.bias

    def test_accepts_plus_minus_labels(self):
        X, y = linearly_separable(seed=4)
        signs = np.where(y > 0, 1, -1)
        svm = LinearSVM(epochs=15).fit(X, signs)
        assert accuracy(y, svm.predict(X)) > 0.85

    def test_rejects_single_class(self):
        X = np.ones((10, 3))
        with pytest.raises(ValueError):
            LinearSVM().fit(X, np.zeros(10))

    def test_rejects_nonbinary_labels(self):
        X = np.ones((3, 2))
        with pytest.raises(ValueError):
            LinearSVM().fit(X, np.array([0, 1, 2]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LinearSVM().fit(np.zeros((0, 3)), np.zeros(0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(SVMNotFitted):
            LinearSVM().predict(np.ones((1, 2)))

    def test_dimension_mismatch_raises(self):
        X, y = linearly_separable(d=4, seed=6)
        svm = LinearSVM(epochs=5).fit(X, y)
        with pytest.raises(ValueError):
            svm.predict(np.ones((2, 7)))

    def test_decision_function_1d_input(self):
        X, y = linearly_separable(d=4, seed=7)
        svm = LinearSVM(epochs=5).fit(X, y)
        scores = svm.decision_function(X[0])
        assert scores.shape == (1,)


class TestMetrics:
    def test_perfect_prediction(self):
        y = [0, 1, 1, 0]
        assert precision(y, y) == 1.0
        assert recall(y, y) == 1.0
        assert f1_score(y, y) == 1.0
        assert accuracy(y, y) == 1.0

    def test_all_wrong(self):
        y = [0, 1]
        p = [1, 0]
        assert precision(y, p) == 0.0
        assert recall(y, p) == 0.0
        assert f1_score(y, p) == 0.0

    def test_known_confusion(self):
        y_true = [1, 1, 1, 0, 0, 0]
        y_pred = [1, 1, 0, 1, 0, 0]
        cm = confusion_matrix(y_true, y_pred)
        assert (cm.true_positive, cm.false_positive,
                cm.true_negative, cm.false_negative) == (2, 1, 2, 1)
        assert cm.precision == pytest.approx(2 / 3)
        assert cm.recall == pytest.approx(2 / 3)

    def test_no_positive_predictions(self):
        cm = confusion_matrix([1, 0], [0, 0])
        assert cm.precision == 0.0  # defined as 0, not NaN

    def test_false_positive_rate(self):
        cm = confusion_matrix([0, 0, 1], [1, 0, 1])
        assert cm.false_positive_rate == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([1, 0], [1])

    @given(st.lists(st.booleans(), min_size=1, max_size=50),
           st.lists(st.booleans(), min_size=1, max_size=50))
    def test_f1_between_precision_and_recall_bounds(self, a, b):
        n = min(len(a), len(b))
        cm = confusion_matrix(a[:n], b[:n])
        assert 0.0 <= cm.f1 <= 1.0
        assert min(cm.precision, cm.recall) - 1e-12 <= cm.f1 <= max(cm.precision, cm.recall) + 1e-12


class TestSplit:
    def test_partition_covers_everything(self):
        split = train_test_split(100, seed=1)
        combined = sorted(list(split.train_indices) + list(split.test_indices))
        assert combined == list(range(100))

    def test_fraction_respected(self):
        split = train_test_split(100, train_fraction=0.8, seed=2)
        assert (len(split.train_indices), len(split.test_indices)) == (80, 20)

    def test_stratified_keeps_both_classes(self):
        labels = [1] * 10 + [0] * 90
        split = train_test_split(100, seed=3, stratify_labels=labels)
        train_labels = [labels[i] for i in split.train_indices]
        test_labels = [labels[i] for i in split.test_indices]
        assert any(train_labels) and not all(train_labels)
        assert any(test_labels) and not all(test_labels)

    def test_deterministic(self):
        a = train_test_split(50, seed=9)
        b = train_test_split(50, seed=9)
        assert np.array_equal(a.train_indices, b.train_indices)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(10, train_fraction=1.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            train_test_split(1)

    @given(st.integers(min_value=2, max_value=500),
           st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=30)
    def test_partition_property(self, n, fraction):
        split = train_test_split(n, train_fraction=fraction, seed=0)
        n_train, n_test = len(split.train_indices), len(split.test_indices)
        assert n_train + n_test == n and n_train >= 1 and n_test >= 1
