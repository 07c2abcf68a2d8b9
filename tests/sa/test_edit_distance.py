"""Tests for the edit-distance implementations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sa.edit_distance import edit_distance, edit_distance_ops

_text = st.text(alphabet="abcd", max_size=15)


def _naive(a: str, b: str) -> int:
    rows = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        rows[i][0] = i
    for j in range(len(b) + 1):
        rows[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            rows[i][j] = min(rows[i - 1][j] + 1, rows[i][j - 1] + 1, rows[i - 1][j - 1] + cost)
    return rows[-1][-1]


class TestKnownValues:
    def test_classics(self):
        assert edit_distance("kitten", "sitting") == 3
        assert edit_distance("flaw", "lawn") == 2
        assert edit_distance("", "") == 0
        assert edit_distance("abc", "") == 3
        assert edit_distance("", "abc") == 3
        assert edit_distance("same", "same") == 0

    def test_unicode(self):
        assert edit_distance("héllo", "hello") == 1


@settings(max_examples=150)
@given(_text, _text)
def test_matches_naive_dp(a, b):
    assert edit_distance(a, b) == _naive(a, b)


@settings(max_examples=80)
@given(_text, _text)
def test_metric_properties(a, b):
    d = edit_distance(a, b)
    assert d == edit_distance(b, a)  # symmetry
    assert (d == 0) == (a == b)  # identity
    assert d >= abs(len(a) - len(b))  # length lower bound
    assert d <= max(len(a), len(b))  # replacement upper bound


@settings(max_examples=60)
@given(_text, _text, _text)
def test_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


class TestOpsModel:
    def test_counts_dp_cells(self):
        assert edit_distance_ops(100, 100) == 10_000
        assert edit_distance_ops(3, 7) == 21
