"""LSH front-end for GENIE: families, re-hashing, the keyword transform, theory.

Typical use (``model="ann"`` wraps a family instance; ``"ann-e2lsh"`` and
friends build one from keyword arguments)::

    from repro import GenieSession
    from repro.lsh import E2Lsh, practical_m

    family = E2Lsh(num_functions=practical_m(), dim=128, width=4.0)
    index = GenieSession().create_index(points, model="ann", family=family, domain=67)
    results = index.search(query_points, k=10).results
"""

from repro.lsh.e2lsh import E2Lsh, psi_l1, psi_l2
from repro.lsh.family import LshFamily
from repro.lsh.minhash import MinHash, jaccard
from repro.lsh.murmur import hash_combine, murmur3_32, murmur3_int64
from repro.lsh.rbh import RandomBinningHash, estimate_kernel_width, laplacian_kernel
from repro.lsh.rehash import ReHasher
from repro.lsh.simhash import SimHash, angular_similarity
from repro.lsh.tann import (
    PAPER_DELTA,
    PAPER_EPS,
    fig8_curve,
    hoeffding_m,
    practical_m,
    required_m,
    similarity_estimate,
    success_probability,
    tau_from_eps,
)
from repro.lsh.transform import DEFAULT_DOMAIN, LshTransformer

__all__ = [
    "LshFamily",
    "E2Lsh",
    "psi_l1",
    "psi_l2",
    "RandomBinningHash",
    "laplacian_kernel",
    "estimate_kernel_width",
    "MinHash",
    "jaccard",
    "SimHash",
    "angular_similarity",
    "ReHasher",
    "murmur3_32",
    "murmur3_int64",
    "hash_combine",
    "LshTransformer",
    "DEFAULT_DOMAIN",
    "hoeffding_m",
    "required_m",
    "practical_m",
    "success_probability",
    "fig8_curve",
    "similarity_estimate",
    "tau_from_eps",
    "PAPER_EPS",
    "PAPER_DELTA",
]
