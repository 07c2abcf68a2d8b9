"""Experiment harness: one module per figure/table of the paper.

Each module exposes ``run(...) -> ResultTable`` (or a tuple of tables) and
is runnable directly from the repository root
(``PYTHONPATH=src python -m paper.experiments.fig9_time_vs_queries``).
The benchmarks under ``benchmarks/`` call these runners and print their
tables. The package imports no runner: ``from paper.experiments import
fig9_time_vs_queries`` loads that one submodule.
"""

from paper.experiments.metrics import (
    approximation_ratio,
    batch_approximation_ratio,
    classification_report,
    recall_at_k,
    top1_accuracy,
)
from paper.experiments.table import ResultTable

__all__ = [
    "ResultTable",
    "approximation_ratio",
    "batch_approximation_ratio",
    "classification_report",
    "recall_at_k",
    "top1_accuracy",
]
