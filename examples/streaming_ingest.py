"""Online ingest: mutate a live GENIE index without refitting it.

Builds a sharded index, then inserts / updates / deletes objects through
the handle while serving queries between every mutation. Shows the
manifest's one delta run growing (its index merged forward, never
rebuilt), the plan tree sprouting a ``DeltaScan`` node, and a compaction
folding the delta back into a fresh base — all answer-preserving.

Run:  python examples/streaming_ingest.py
"""

import numpy as np

from repro.api import GenieSession
from repro.stream import StreamConfig

VOCAB = 40
K = 5


def show(title, manifest):
    print(f"\n-- {title} --")
    for key, value in manifest.describe().items():
        print(f"  {key:>15}: {value}")


def main():
    rng = np.random.default_rng(3)
    corpus = [
        rng.integers(0, VOCAB, size=int(rng.integers(2, 6))).tolist()
        for _ in range(400)
    ]
    session = GenieSession()
    handle = session.create_index(
        corpus, model="raw", name="live", shards=2,
        stream_config=StreamConfig(compact_ratio=0.25, auto_compact=False),
    )
    queries = [[1, 2, 3], [7, 8]]
    before = handle.search(queries, k=K)
    print("Clean plan (no mutations yet):")
    print(handle.explain(queries, k=K).render())

    gids = handle.insert([[1, 2, 39], [7, 8, 38]])
    handle.update(0, [1, 2, 3])
    handle.delete([5, 6])
    print(f"\nInserted objects got ids {gids.tolist()}; "
          "two deletes tombstoned, one base object rewritten in place.")
    show("manifest after 4 mutations", handle.manifest)

    print("\nDirty plan: the base Scan gains a DeltaScan sibling:")
    print(handle.explain(queries, k=K).render())

    streamed = handle.search(queries, k=K)
    print("\nStreamed answers (inserted ids join immediately):")
    for query, result in zip(queries, streamed.results):
        print(f"  {query} -> ids {result.ids.tolist()} "
              f"counts {result.counts.tolist()}")

    handle.compact()
    show("manifest after compact()", handle.manifest)
    compacted = handle.search(queries, k=K)
    assert all(
        np.array_equal(a.ids, b.ids) and np.array_equal(a.counts, b.counts)
        for a, b in zip(streamed.results, compacted.results)
    ), "compaction must not change any answer"
    print("\nPost-compaction answers bit-identical; plan is flat again:")
    print(handle.explain(queries, k=K).render())

    # The before/after of the whole session: the k-th count can only grow.
    for a, b in zip(before.results, compacted.results):
        assert b.threshold >= 0 and b.ids.size >= min(a.ids.size, K) - 2
    session.close()


if __name__ == "__main__":
    main()
