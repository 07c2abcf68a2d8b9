"""Fig. 8: minimum required LSH functions m versus similarity s.

Pure theory — the binomial simulation of Eqn. 9 with eps = delta = 0.06.
Expected shape: a bell peaking at s = 0.5 (paper reads 237; the strict
integer-window convention gives 234) falling towards both ends, everywhere
far below the Hoeffding bound of 2174.
"""

from __future__ import annotations

import numpy as np

from paper.experiments.table import ResultTable
from repro.lsh.tann import PAPER_DELTA, PAPER_EPS, fig8_curve, hoeffding_m


def run(
    eps: float = PAPER_EPS,
    delta: float = PAPER_DELTA,
    s_values: np.ndarray | None = None,
) -> ResultTable:
    """Compute the Fig. 8 series.

    Returns:
        A table with columns ``similarity`` and ``required_m``.
    """
    table = ResultTable(
        title=f"Fig. 8: required #LSH functions (eps={eps}, delta={delta})",
        columns=["similarity", "required_m"],
        notes=[
            f"Hoeffding bound (Theorem 4.1): m = {hoeffding_m(eps, delta)}",
            "Paper reads m=237 at s=0.5; strict integer windows give the peak below.",
        ],
    )
    for s, m in fig8_curve(eps, delta, s_values):
        table.add_row(similarity=s, required_m=m)
    return table


if __name__ == "__main__":
    print(run())
