"""The paper's competitor systems (Section VI-A2), on the same simulated clock.

* :class:`~paper.baselines.gpu_spq.GpuSpq` — full-scan GPU + SPQ selection,
* :func:`~paper.baselines.gen_spq.make_gen_spq` — GENIE index, SPQ selection,
* :class:`~paper.baselines.gpu_lsh.GpuLsh` — bi-level LSH (Pan & Manocha),
* :class:`~paper.baselines.cpu_idx.CpuIdx` — CPU inverted index,
* :class:`~paper.baselines.cpu_lsh.CpuLsh` — C2LSH collision counting,
* :class:`~paper.baselines.appgram.AppGram` — exact CPU sequence kNN.

The SPQ bucket k-selection itself lives in :mod:`paper.reference.spq_select`
(GEN-SPQ shares it) and is re-exported here.
"""

from paper.baselines.appgram import AppGram
from paper.baselines.cpu_idx import CpuIdx
from paper.baselines.cpu_lsh import CpuLsh
from paper.baselines.gen_spq import make_gen_spq
from paper.baselines.gpu_lsh import GpuLsh
from paper.baselines.gpu_spq import GpuSpq
from paper.reference.spq_select import SpqTrace, spq_topk

__all__ = [
    "GpuSpq",
    "GpuLsh",
    "CpuIdx",
    "CpuLsh",
    "AppGram",
    "make_gen_spq",
    "spq_topk",
    "SpqTrace",
]
