"""tau-ANN search on SIFT-like vectors with E2LSH (Section IV of the paper).

Fits a GENIE ANN index over 8000 128-d points through the unified session
API (model ``"ann-e2lsh"``), runs a query batch, and evaluates recall and
the Eqn.-13 approximation ratio against exact k-NN. Also shows the theory
helpers: the Hoeffding m versus the practical m (Fig. 8), and the c/m
similarity estimate carried in the search payload.

Run:  python examples/ann_search.py
"""

import numpy as np

from repro.api import GenieSession
from repro.datasets.synthetic import make_sift_like, true_knn
from repro.lsh import hoeffding_m, practical_m

K = 10
M = 64  # scaled from the paper's 237 (= practical_m()) for speed


def main():
    print(f"Theory: Hoeffding bound m = {hoeffding_m()}; practical m = {practical_m()}")
    print(f"This example uses m = {M} functions, re-hashed into 67 buckets.\n")

    dataset = make_sift_like(n=8_000, n_queries=50, seed=0)
    session = GenieSession()
    index = session.create_index(
        dataset.data,
        model="ann-e2lsh",
        num_functions=M,
        dim=dataset.dim,
        width=4.0,
        domain=67,
        seed=1,
        name="sift",
    )

    result = index.search(dataset.queries, k=K)
    true_ids, true_d = true_knn(dataset.data, dataset.queries, K)

    recalls, reported = [], []
    for (ids, counts, estimates), tids, qp in zip(result.payload, true_ids, dataset.queries):
        recalls.append(np.isin(tids, ids).mean())  # recall@k: true neighbours found
        d = np.sort(np.linalg.norm(dataset.data[ids] - qp[None, :], axis=1))
        d = np.pad(d, (0, K - d.size), mode="edge") if d.size else np.full(K, np.inf)
        reported.append(d[:K])

    # Eqn. 13: the mean ratio of reported to true neighbour distances (a zero
    # true distance counts as exact when the reported one is zero too).
    reported = np.array(reported)
    ratios = np.divide(reported, true_d, out=np.ones_like(reported), where=true_d > 0)
    ratios[(true_d == 0) & (reported > 0)] = np.inf
    print(f"recall@{K}:           {np.mean(recalls):.3f}")
    print(f"approximation ratio: {ratios.mean(axis=1).mean():.4f}")

    ids, counts, estimates = result.payload[0]
    print("\nFirst query's top-5 (count = colliding hash functions, c/m = similarity estimate):")
    for obj, count, est in list(zip(ids, counts, estimates))[:5]:
        print(f"  point {obj:>5}   count {count:>3}   c/m = {est:.3f}")

    profile = result.profile
    print(f"\nSimulated batch time: {profile.query_total():.3e} s "
          f"(match {profile.get('match'):.2e} s, select {profile.get('select'):.2e} s)")


if __name__ == "__main__":
    main()
