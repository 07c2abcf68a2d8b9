"""Tests for relational top-k selection (Fig. 1's running example)."""

import numpy as np
import pytest

from repro.api import GenieSession
from repro.errors import ConfigError, QueryError
from repro.sa.relational import AttributeSpec, Discretizer


def _index(schema, columns):
    return GenieSession().create_index(columns, model="relational", schema=schema)


def _fig1_index():
    """The Fig. 1 table: three categorical attributes A, B, C."""
    return _index(
        [
            AttributeSpec("A", "categorical"),
            AttributeSpec("B", "categorical"),
            AttributeSpec("C", "categorical"),
        ],
        {
            "A": np.array([1, 2, 1]),
            "B": np.array([2, 1, 3]),
            "C": np.array([1, 2, 3]),
        },
    )


class TestFig1Example:
    def test_q1_counts(self):
        # Q1: 1<=A<=2, B=1, 2<=C<=3 -> counts (1, 3, 2), top-1 = O2.
        index = _fig1_index()
        result = index.search([{"A": (1, 2), "B": (1, 1), "C": (2, 3)}], k=3)[0]
        assert result.as_pairs() == [(1, 3), (2, 2), (0, 1)]

    def test_exact_match_query(self):
        index = _fig1_index()
        result = index.search([{"A": (1, 1), "B": (2, 2), "C": (1, 1)}], k=1)[0]
        assert result.as_pairs() == [(0, 3)]


class TestDiscretizer:
    def test_equal_width_bins(self):
        disc = Discretizer(4).fit(np.array([0.0, 10.0]))
        assert disc.transform(np.array([0.0, 2.4, 5.0, 9.99])).tolist() == [0, 0, 2, 3]

    def test_max_value_clamped_to_last_bin(self):
        disc = Discretizer(4).fit(np.array([0.0, 10.0]))
        assert disc.transform(np.array([10.0, 50.0])).tolist() == [3, 3]

    def test_constant_column(self):
        disc = Discretizer(8).fit(np.array([5.0, 5.0]))
        assert disc.transform(np.array([5.0])).tolist() == [0]

    def test_degenerate_range_bins_stay_valid(self):
        # Regression: lo == hi must not divide by the zero-width span, and
        # every value (inside or outside the fitted point) must land in a
        # valid bin.
        disc = Discretizer(1024).fit(np.array([5.0, 5.0, 5.0]))
        with np.errstate(all="raise"):  # any FP division-by-zero would raise
            codes = disc.transform(np.array([-1e9, 4.999, 5.0, 5.001, 1e9]))
        assert codes.dtype == np.int64
        assert ((codes >= 0) & (codes < 1024)).all()
        assert codes.tolist() == [0, 0, 0, 0, 0]

    def test_empty_fit_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            Discretizer(4).fit(np.array([]))

    def test_non_finite_fit_rejected(self):
        with pytest.raises(ConfigError, match="non-finite"):
            Discretizer(4).fit(np.array([1.0, np.nan]))
        with pytest.raises(ConfigError, match="non-finite"):
            Discretizer(4).fit(np.array([1.0, np.inf]))

    def test_constant_numeric_column_end_to_end(self):
        # A constant column must index and answer range queries instead of
        # producing out-of-range keywords.
        index = _index(
            [AttributeSpec("x", "numeric", bins=1024), AttributeSpec("j", "categorical")],
            {"x": np.full(6, 42.0), "j": np.arange(6) % 2},
        )
        result = index.search([{"x": (42.0, 42.0), "j": (0, 0)}], k=6)[0]
        assert len(result) == 6
        # Even rows match both attributes, odd rows only the constant one.
        for row_id, count in result.as_pairs():
            assert count == (2 if row_id % 2 == 0 else 1)


class TestRelationalIndex:
    def test_numeric_discretization_roundtrip(self):
        values = np.linspace(0, 100, 50)
        index = _index([AttributeSpec("x", "numeric", bins=16)], {"x": values})
        result = index.search([{"x": (40, 60)}], k=50)[0]
        for row_id, count in result.as_pairs():
            assert count == 1
            assert 33 <= values[row_id] <= 67  # within a bin of the range

    def test_mixed_schema(self):
        index = _index(
            [AttributeSpec("age", "numeric", bins=8), AttributeSpec("job", "categorical")],
            {"age": np.array([20.0, 40.0, 60.0]), "job": np.array([0, 1, 0])},
        )
        result = index.search([{"age": (15, 45), "job": (0, 0)}], k=3)[0]
        assert result.as_pairs()[0] == (0, 2)

    def test_errors(self):
        session = GenieSession()
        with pytest.raises(ConfigError):
            session.declare_index("relational", schema=[])
        index = session.declare_index("relational", schema=[AttributeSpec("x", "numeric")])
        with pytest.raises(ConfigError):
            index.fit({})
        with pytest.raises(ConfigError):
            session.declare_index("relational", schema=[AttributeSpec("x", "bogus")])
        with pytest.raises(QueryError):
            index.search([{"x": (0, 1)}], k=1)  # not fitted yet
        index.fit({"x": np.array([1.0, 2.0])})
        with pytest.raises(QueryError):
            index.search([{"y": (0, 1)}], k=1)
        with pytest.raises(QueryError):
            index.search([{}], k=1)

    def test_ragged_columns_rejected(self):
        with pytest.raises(ConfigError):
            _index(
                [AttributeSpec("a", "categorical"), AttributeSpec("b", "categorical")],
                {"a": np.array([0, 1]), "b": np.array([0])},
            )

    def test_empty_range_rejected(self):
        index = _index([AttributeSpec("j", "categorical")], {"j": np.array([0, 1, 2])})
        with pytest.raises(QueryError):
            index.search([{"j": (2, 1)}], k=1)
