"""Tests for the assembled c-PQ — including Theorem 3.1's guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper.reference.cpq import CountPriorityQueue
from repro.core.engine import hash_table_capacity
from repro.errors import ConfigError


class TestConstruction:
    def test_capacity_scales_with_k_and_bound(self):
        assert hash_table_capacity(10, 64) > hash_table_capacity(10, 8)
        assert hash_table_capacity(100, 8) > hash_table_capacity(10, 8)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            CountPriorityQueue(10, k=0, count_bound=4)
        with pytest.raises(ConfigError):
            CountPriorityQueue(10, k=1, count_bound=0)


class TestPaperExample31:
    """Example 3.1: data of Fig. 1, query Q1, k = 1."""

    def _run(self):
        cpq = CountPriorityQueue(n_objects=3, k=1, count_bound=3)
        # Postings scanned in the order (A,[1,2]), (B,[1,1]), (C,[2,3]):
        # (A,[1,2]) matches O1 (A=1), O2 (A=2), O3 (A=1).
        cpq.update_many([0, 1, 2])
        # (B,[1,1]) matches O2 only.
        cpq.update(1)
        # (C,[2,3]) matches O2 (C=2) and O3 (C=3).
        cpq.update_many([1, 2])
        return cpq

    def test_final_state(self):
        cpq = self._run()
        assert cpq.audit_threshold == 4
        assert cpq.bc.to_array().tolist() == [1, 3, 2]
        # HT ends with O1:1 and O2:3 (O3's count-2 update came after AT=4).
        assert cpq.ht.get(1) == 3

    def test_top1_is_o2_with_count_3(self):
        result = self._run().select_topk()
        assert result.as_pairs() == [(1, 3)]
        assert result.threshold == 3  # MC_k = AT - 1 = 3


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(2, 6),
    st.integers(4, 25),
    st.data(),
)
def test_theorem_3_1(k, bound, n_objects, data):
    """Theorem 3.1: top-k ends in the HT; threshold equals the k-th count."""
    updates = data.draw(st.lists(st.integers(0, n_objects - 1), max_size=150))
    cpq = CountPriorityQueue(n_objects, k=k, count_bound=bound)
    reference = np.zeros(n_objects, dtype=np.int64)
    for obj in updates:
        if reference[obj] >= bound:
            continue
        reference[obj] += 1
        cpq.update(obj)

    kth = np.sort(reference)[::-1][k - 1] if n_objects >= k else 0
    assert cpq.audit_threshold - 1 == kth

    result = cpq.select_topk()
    # Result counts must equal the true top-k counts (ties broken freely).
    true_topk = np.sort(reference)[::-1][: min(k, n_objects)]
    true_topk = true_topk[true_topk > 0]
    assert sorted(result.counts.tolist(), reverse=True) == true_topk.tolist()
    # All reported ids must carry their true count.
    for obj, count in result.as_pairs():
        assert reference[obj] == count

    # HT population bound: O(k * AT) with the implementation's slack.
    assert cpq.ht.size <= hash_table_capacity(k, bound)


class TestSelection:
    def test_fewer_than_k_nonzero(self):
        cpq = CountPriorityQueue(10, k=5, count_bound=4)
        cpq.update_many([0, 0, 1])
        result = cpq.select_topk()
        assert len(result) == 2
        assert result.as_pairs()[0] == (0, 2)

    def test_no_updates(self):
        cpq = CountPriorityQueue(10, k=3, count_bound=4)
        assert len(cpq.select_topk()) == 0

    def test_memory_accounts_components(self):
        cpq = CountPriorityQueue(1000, k=10, count_bound=15)
        assert cpq.memory_bytes() >= cpq.bc.nbytes + cpq.ht.nbytes
