"""Evaluation metrics used by the paper's experiments.

* approximation ratio (Eqn. 13) for ANN quality (Fig. 14),
* macro precision/recall/F1 + accuracy for the OCR 1-NN prediction
  (Table V),
* recall@k and top-1 accuracy helpers for the sequence experiments
  (Tables VI/VII).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


def approximation_ratio(
    reported: np.ndarray,
    true: np.ndarray,
) -> float:
    """Eqn. 13: mean ratio of reported to true neighbour distances.

    Args:
        reported: ``(k,)`` distances of the reported neighbours, ascending.
        true: ``(k,)`` distances of the true k-NN, ascending.

    Returns:
        ``(1/k) * sum_i reported_i / true_i`` with zero true distances
        treated as exact matches (ratio 1 when reported is also 0).
    """
    reported = np.asarray(reported, dtype=np.float64)
    true = np.asarray(true, dtype=np.float64)
    if reported.shape != true.shape:
        raise ConfigError("reported and true distance arrays must align")
    if reported.size == 0:
        return 1.0
    ratios = np.ones_like(reported)
    nz = true > 0
    ratios[nz] = reported[nz] / true[nz]
    ratios[~nz & (reported > 0)] = np.inf
    return float(ratios.mean())


def batch_approximation_ratio(reported: np.ndarray, true: np.ndarray) -> float:
    """Mean approximation ratio over a batch of queries (rows)."""
    reported = np.atleast_2d(np.asarray(reported, dtype=np.float64))
    true = np.atleast_2d(np.asarray(true, dtype=np.float64))
    return float(np.mean([approximation_ratio(r, t) for r, t in zip(reported, true)]))


def classification_report(y_true: np.ndarray, y_pred: np.ndarray) -> dict:
    """Macro-averaged precision/recall/F1 and accuracy (Table V's metrics)."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ConfigError("label arrays must align")
    classes = np.unique(np.concatenate([y_true, y_pred]))
    precisions, recalls, f1s = [], [], []
    for cls in classes:
        tp = np.sum((y_pred == cls) & (y_true == cls))
        fp = np.sum((y_pred == cls) & (y_true != cls))
        fn = np.sum((y_pred != cls) & (y_true == cls))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
    return {
        "precision": float(np.mean(precisions)),
        "recall": float(np.mean(recalls)),
        "f1": float(np.mean(f1s)),
        "accuracy": float(np.mean(y_true == y_pred)),
    }


def recall_at_k(reported_ids: np.ndarray, true_ids: np.ndarray) -> float:
    """Fraction of the true k-NN ids present among the reported ids."""
    reported = set(map(int, np.asarray(reported_ids).reshape(-1)))
    true = list(map(int, np.asarray(true_ids).reshape(-1)))
    if not true:
        return 1.0
    return sum(1 for t in true if t in reported) / len(true)


def top1_accuracy(predicted: list, truth: list) -> float:
    """Fraction of queries whose top-1 prediction matches the ground truth."""
    if len(predicted) != len(truth):
        raise ConfigError("prediction and truth lists must align")
    if not truth:
        return 1.0
    return sum(1 for p, t in zip(predicted, truth) if p == t) / len(truth)
