"""Table IV: device memory per in-flight query — GENIE vs GEN-SPQ.

GENIE's per-query state is the bit-packed Bitmap Counter plus the small
Hash Table; GEN-SPQ needs a full 32-bit Count Table plus SPQ's explicit
id/scratch workspace. Expected shape (paper): GENIE uses about 1/5 to 1/10
of GEN-SPQ's per-query memory, which multiplies its feasible batch size.
"""

from __future__ import annotations

from repro.core.count_table import count_table_batch_bytes
from repro.core.engine import per_query_device_bytes
from repro.experiments.common import DEFAULT_K, DEFAULT_M
from repro.experiments.table import ResultTable
from repro.gpu.specs import TITAN_X

#: Per-dataset match-count bounds (number of query items / LSH functions).
_COUNT_BOUNDS = {"ocr": 237, "sift": 237, "dblp": 64, "tweets": 16, "adult": 14}

#: Paper dataset cardinalities — the per-query footprint is a pure formula,
#: so Table IV is computed at the paper's own scale.
_PAPER_CARDINALITY = {
    "ocr": 3_500_000,
    "sift": 4_500_000,
    "dblp": 5_000_000,
    "tweets": 6_800_000,
    "adult": 980_000,
}


def run(
    datasets: tuple[str, ...] = ("ocr", "sift", "dblp", "tweets", "adult"),
    n: int | None = None,
    k: int = 100,
) -> ResultTable:
    """Compute per-query memory and max batch size for both variants.

    Table IV is a pure formula with no randomness, so unlike the other
    runners it takes no ``seed=`` — accepting one it ignored would let a
    caller believe the run was pinned (REPRO006).

    Args:
        datasets: Which datasets to tabulate.
        n: Cardinality override (paper cardinalities when omitted).
        k: Result size (the paper uses k = 100 here).
    """
    table = ResultTable(
        title="Table IV: device memory per query (bytes) and max batch size",
        columns=[
            "dataset",
            "n_objects",
            "genie_bytes",
            "gen_spq_bytes",
            "ratio",
            "genie_max_batch",
            "gen_spq_max_batch",
        ],
        notes=[f"Max batch assumes the full {TITAN_X.global_mem_bytes >> 30} GiB device is free."],
    )
    for name in datasets:
        n_objects = n if n is not None else _PAPER_CARDINALITY[name]
        bound = _COUNT_BOUNDS[name]
        genie = per_query_device_bytes(n_objects, k, bound, bits=None)
        gen_spq = count_table_batch_bytes(n_objects, 1)
        table.add_row(
            dataset=name,
            n_objects=n_objects,
            genie_bytes=genie,
            gen_spq_bytes=gen_spq,
            ratio=gen_spq / genie,
            genie_max_batch=TITAN_X.global_mem_bytes // genie,
            gen_spq_max_batch=TITAN_X.global_mem_bytes // gen_spq,
        )
    return table


if __name__ == "__main__":
    print(run())
