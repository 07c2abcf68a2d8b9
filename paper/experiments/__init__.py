"""Experiment harness: one module per figure/table of the paper.

Each module exposes ``run(...) -> ResultTable`` (or a tuple of tables) and
is runnable directly from the repository root
(``PYTHONPATH=src python -m paper.experiments.fig9_time_vs_queries``).
The benchmarks under ``benchmarks/`` call these runners and print their
tables.
"""

from paper.experiments import (
    ablations,
    fig8_hash_functions,
    fig9_time_vs_queries,
    fig10_time_vs_cardinality,
    fig11_large_batches,
    fig12_load_balance,
    fig13_cpq_effect,
    fig14_approx_ratio,
    table1_profiling,
    table2_multiload,
    table4_memory,
    table5_ocr_prediction,
    table6_dblp_accuracy,
    table7_sequence_k,
)
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
    "fig8_hash_functions",
    "fig9_time_vs_queries",
    "fig10_time_vs_cardinality",
    "fig11_large_batches",
    "fig12_load_balance",
    "fig13_cpq_effect",
    "fig14_approx_ratio",
    "table1_profiling",
    "table2_multiload",
    "table4_memory",
    "table5_ocr_prediction",
    "table6_dblp_accuracy",
    "table7_sequence_k",
    "ablations",
]
