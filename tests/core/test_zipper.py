"""Tests for the Gate (ZipperArray + AuditThreshold)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper.reference.zipper import Gate
from repro.errors import ConfigError, InvariantError, ReproError


class TestGateBasics:
    def test_initial_threshold_is_one(self):
        assert Gate(k=3, count_bound=10).audit_threshold == 1

    def test_low_count_rejected(self):
        gate = Gate(k=1, count_bound=5)
        gate.offer(1)  # passes, AT -> 2
        assert gate.offer(1) is False

    def test_at_advances_when_k_reached(self):
        gate = Gate(k=2, count_bound=5)
        assert gate.offer(1)
        assert gate.audit_threshold == 1
        assert gate.offer(1)
        assert gate.audit_threshold == 2

    def test_out_of_bound_count_rejected(self):
        gate = Gate(k=1, count_bound=3)
        with pytest.raises(ConfigError):
            gate.offer(4)

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            Gate(k=0, count_bound=3)
        with pytest.raises(ConfigError):
            Gate(k=1, count_bound=0)


class TestPaperExample31:
    """Walk the Gate through Example 3.1's update sequence (k = 1)."""

    def test_trace(self):
        gate = Gate(k=1, count_bound=3)
        # Scanning (A,[1,2]): O1 reaches 1, passes; ZA[1]=1 >= k -> AT=2.
        assert gate.offer(1) is True
        assert gate.audit_threshold == 2
        # O2 and O3 reach 1 < AT: rejected.
        assert gate.offer(1) is False
        assert gate.offer(1) is False
        # Scanning (B,[1,1]): O2 reaches 2 >= AT, passes; AT -> 3.
        assert gate.offer(2) is True
        assert gate.audit_threshold == 3
        # Scanning (C,[2,3]): O2 reaches 3 >= AT, passes; AT -> 4.
        assert gate.offer(3) is True
        assert gate.audit_threshold == 4
        # O3 reaches 2 < AT: rejected.
        assert gate.offer(2) is False


@settings(max_examples=50)
@given(
    st.integers(1, 5),
    st.integers(2, 8),
    st.lists(st.integers(0, 19), min_size=1, max_size=300),
)
def test_lemma_3_1_invariant_and_threshold(k, bound, objects):
    """Lemma 3.1 + Theorem 3.1: after any update stream, AT-1 equals the
    k-th largest simulated count."""
    gate = Gate(k=k, count_bound=bound)
    counts = np.zeros(20, dtype=np.int64)
    for obj in objects:
        if counts[obj] >= bound:
            continue  # count bound respected by construction
        counts[obj] += 1
        gate.offer(int(counts[obj]))
        gate.check_invariant()
    kth = np.sort(counts)[::-1][k - 1] if counts.size >= k else 0
    assert gate.audit_threshold - 1 == kth


class TestInvariantError:
    """check_invariant raises InvariantError (not assert) on corruption.

    Regression for the two former ``assert`` statements, which were
    stripped under ``python -O`` and uncatchable as ReproError.
    """

    def test_healthy_gate_passes(self):
        gate = Gate(k=2, count_bound=5)
        gate.offer(1)
        gate.check_invariant()

    def test_za_at_corruption_raises_invariant_error(self):
        gate = Gate(k=2, count_bound=5)
        gate._za[gate.audit_threshold] = gate.k  # simulate ZA[AT] >= k
        with pytest.raises(InvariantError, match=r"ZA\[AT\] must stay below k"):
            gate.check_invariant()

    def test_za_below_at_corruption_raises_invariant_error(self):
        gate = Gate(k=1, count_bound=5)
        assert gate.offer(1)  # AT -> 2
        gate._za[gate.audit_threshold - 1] = 0  # simulate ZA[AT-1] < k
        with pytest.raises(InvariantError, match=r"ZA\[AT-1\] must have reached k"):
            gate.check_invariant()

    def test_invariant_error_is_a_repro_error(self):
        gate = Gate(k=2, count_bound=5)
        gate._za[gate.audit_threshold] = gate.k
        with pytest.raises(ReproError):
            gate.check_invariant()
