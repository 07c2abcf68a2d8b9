"""Tests for the experiment metrics."""

import numpy as np
import pytest

from paper.experiments.metrics import (
    approximation_ratio,
    batch_approximation_ratio,
    classification_report,
    recall_at_k,
    top1_accuracy,
)


class TestApproximationRatio:
    def test_perfect_retrieval(self):
        d = np.array([1.0, 2.0, 3.0])
        assert approximation_ratio(d, d) == pytest.approx(1.0)

    def test_worse_neighbours_raise_ratio(self):
        assert approximation_ratio(np.array([2.0]), np.array([1.0])) == pytest.approx(2.0)

    def test_zero_true_distance_exact_match(self):
        assert approximation_ratio(np.array([0.0, 2.0]), np.array([0.0, 2.0])) == 1.0

    def test_zero_true_nonzero_reported_is_inf(self):
        assert approximation_ratio(np.array([1.0]), np.array([0.0])) == np.inf

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            approximation_ratio(np.array([1.0]), np.array([1.0, 2.0]))

    def test_batch_average(self):
        reported = np.array([[1.0], [3.0]])
        true = np.array([[1.0], [1.0]])
        assert batch_approximation_ratio(reported, true) == pytest.approx(2.0)


class TestClassificationReport:
    def test_perfect(self):
        y = np.array([0, 1, 2, 1])
        report = classification_report(y, y)
        assert report == {"precision": 1.0, "recall": 1.0, "f1": 1.0, "accuracy": 1.0}

    def test_known_confusion(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 1, 1, 1])
        report = classification_report(y_true, y_pred)
        assert report["accuracy"] == pytest.approx(0.75)
        # class 0: P=1, R=0.5; class 1: P=2/3, R=1.
        assert report["precision"] == pytest.approx((1.0 + 2 / 3) / 2)
        assert report["recall"] == pytest.approx(0.75)

    def test_all_wrong(self):
        report = classification_report(np.array([0, 1]), np.array([1, 0]))
        assert report["accuracy"] == 0.0

    def test_mismatch(self):
        with pytest.raises(ValueError):
            classification_report(np.array([0]), np.array([0, 1]))


class TestRecallAndAccuracy:
    def test_recall_at_k(self):
        assert recall_at_k(np.array([1, 2, 3]), np.array([2, 9])) == 0.5
        assert recall_at_k(np.array([]), np.array([])) == 1.0

    def test_top1_accuracy(self):
        assert top1_accuracy([1, 2, 3], [1, 0, 3]) == pytest.approx(2 / 3)
        with pytest.raises(ValueError):
            top1_accuracy([1], [1, 2])
