"""GEN-SPQ: GENIE's inverted index with SPQ selection instead of c-PQ.

The paper's ablation variant (Section VI-A2): the same GPU inverted index and
batch pipeline, but counts go into a plain per-query Count Table and top-k
extraction uses the SPQ bucket selection. Comparing it with GENIE isolates
c-PQ's contribution (Fig. 13, Table IV).

Like the other baselines it computes its counts with the per-query
specification (:mod:`repro.core.reference`). It charges the Count-Table
pipeline: GENIE's query and result transfers, one match launch (GENIE's,
without the Gate and the Hash-Table writes), one SPQ selection launch per
query, and a full Count Table plus SPQ workspace per in-flight query.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core import reference
from repro.core.count_table import count_table_batch_bytes
from repro.core.engine import GenieConfig, GenieEngine
from repro.core.scan_kernel import build_match_launch
from repro.core.spq_select import spq_topk
from repro.core.types import QueryBatch, TopKBatch
from repro.errors import ConfigError
from repro.gpu.device import Device
from repro.gpu.host import HostCpu
from repro.gpu.kernel import KernelLaunch


class GenSpq(GenieEngine):
    """GENIE with a plain Count Table and SPQ selection (same ``fit`` / ``query`` API)."""

    def per_query_bytes(self, count_bound: int | None = None, k: int | None = None) -> int:
        """A full Count Table plus the SPQ workspace, whatever the bound and ``k``."""
        if self.index is None:
            raise ConfigError("engine must be fitted first")
        return count_table_batch_bytes(self.index.n_objects, 1)

    def _match_and_select(self, queries: QueryBatch, k: int, count_bound: int) -> TopKBatch:
        plans = [reference.plan_query_scan(self.index, query, qi, k) for qi, query in enumerate(queries)]
        tpb = self.config.threads_per_block
        # Plain Count Table: list read + one atomic per update, no Gate.
        match = replace(
            build_match_launch(reference.stack_plans(plans, k), self.device.spec, tpb),
            name="genie_match_counttable",
            cycles_per_item=5.0,
            uncoalesced_bytes=0.0,
            atomic_ops=0.0,
            divergent_warps=0.0,
        )
        self.device.launch(match, stage="match")
        results = []
        for plan in plans:
            result, trace = spq_topk(plan.counts, k)
            scanned = trace.elements_scanned
            self.device.launch(
                KernelLaunch(
                    name="spq_select",
                    block_items=[scanned or 1],
                    threads_per_block=tpb,
                    cycles_per_item=3.0,
                    bytes_read=scanned * 8.0,
                    bytes_written=scanned * 8.0,
                    atomic_ops=float(scanned),
                ),
                stage="select",
            )
            results.append(result)
        return TopKBatch.from_results(results)


def make_gen_spq(
    device: Device | None = None,
    host: HostCpu | None = None,
    config: GenieConfig | None = None,
) -> GenSpq:
    """A GEN-SPQ engine; ``config.bits`` / ``count_bound`` size c-PQ structures it lacks, so go unused."""
    return GenSpq(device=device, host=host, config=config)
