"""The plain Count Table — what c-PQ replaces.

A Count Table allocates one 32-bit counter per object per query. The paper
uses it (a) as the strawman whose memory blow-up motivates c-PQ (1k queries
on 10M points = 40 GB) and (b) inside the GEN-SPQ variant, where top-k
selection must then run over the full table.
"""

from __future__ import annotations

#: Bytes per counter in the plain table.
COUNT_TABLE_ENTRY_BYTES = 4

#: Extra per-object workspace SPQ selection needs (explicit ids + a scratch
#: copy of counts, 4 bytes each) — see Appendix A of the paper.
SPQ_WORKSPACE_BYTES = 8


def count_table_batch_bytes(n_objects: int, n_queries: int, with_spq_workspace: bool = True) -> int:
    """Device bytes a batch of plain Count Tables needs.

    This is the quantity that limits GEN-SPQ / GPU-SPQ batch sizes in
    Table IV and in Fig. 9's "cannot run more than 256 queries" remark.
    """
    per_query = COUNT_TABLE_ENTRY_BYTES + (SPQ_WORKSPACE_BYTES if with_spq_workspace else 0)
    return int(n_objects) * per_query * int(n_queries)
