"""Tests for relational top-k selection (Fig. 1's running example)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GenieSession
from repro.errors import ConfigError, QueryError
from repro.sa.relational import AttributeSpec, Discretizer, bin_code


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


def _parent_range_keywords(disc, domain, offset, lo, hi):
    """``_codes_for_range`` as it stood before both bounds shared one transform."""

    def transform(value):
        values = np.asarray([value], dtype=np.float64)
        span = disc.hi - disc.lo
        if not span > 0:
            return np.zeros(values.shape, dtype=np.int64)
        raw = np.floor((values - disc.lo) / span * disc.bins).astype(np.int64)
        return np.clip(raw, 0, disc.bins - 1)

    lo_code = max(0, min(int(transform(lo)[0]), domain - 1))
    hi_code = max(0, min(int(transform(hi)[0]), domain - 1))
    if hi_code < lo_code:
        return None
    return (np.arange(lo_code, hi_code + 1, dtype=np.int64) + offset).tolist()


bounds = st.floats(-1e12, 1e12, allow_nan=False) | st.integers(-50, 150)


class TestRangeCodesUnchanged:
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-100, 100, allow_nan=False), st.floats(1e-3, 200, allow_nan=False) | st.just(0.0),
        st.integers(1, 40), bounds, bounds,
    )
    def test_same_codes_as_two_scalar_transforms(self, column_lo, width, bins, lo, hi):
        from repro.api.models import RelationalModel

        column = np.asarray([column_lo, column_lo + width])
        model = RelationalModel([AttributeSpec("pad", "categorical"), AttributeSpec("x", bins=bins)])
        model.encode_corpus({"pad": np.asarray([0, 2]), "x": column})
        expected = _parent_range_keywords(Discretizer(bins).fit(column), bins, 3, lo, hi)
        if expected is None:
            with pytest.raises(QueryError, match="empty range on x"):
                model.encode_queries([{"x": (lo, hi)}])
        else:
            (query,) = model.encode_queries([{"x": (lo, hi)}])
            assert [item.tolist() for item in query.items] == [expected]

    def test_transform_clamps_like_clip(self):
        disc = Discretizer(7).fit(np.asarray([-3.0, 11.0]))
        values = np.asarray([-1e9, -3.0, -2.999, 0.0, 10.999, 11.0, 1e9])
        span = disc.hi - disc.lo
        raw = np.floor((values - disc.lo) / span * disc.bins).astype(np.int64)
        assert disc.transform(values).tolist() == np.clip(raw, 0, 6).tolist()

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-100, 100, allow_nan=False), st.floats(1e-3, 200, allow_nan=False) | st.just(0.0),
        st.integers(1, 1024),
        st.lists(
            st.floats(allow_nan=False)
            | st.sampled_from([1e300, -1e300, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308]),
            min_size=1, max_size=8,
        ),
    )
    def test_scalar_binning_is_transform_element_for_element(self, column_lo, width, bins, values):
        disc = Discretizer(bins).fit(np.asarray([column_lo, column_lo + width]))
        with np.errstate(over="ignore"):  # a huge value / a tiny span overflows to inf, as in python
            expected = disc.transform(np.asarray(values)).tolist()
        assert [bin_code(v, disc.lo, disc.hi - disc.lo, bins) for v in values] == expected


class TestOpenBounds:
    """``±inf`` and huge bounds clamp to the domain's edges (they used to wrap to bin 0)."""

    AGES = np.asarray([18.0, 25.0, 40.0, 50.0, 61.0, 77.0, 90.0])

    def _index(self):
        return _index(
            [AttributeSpec("age", bins=16), AttributeSpec("job", "categorical")],
            {"age": self.AGES, "job": np.asarray([0, 1, 2, 0, 1, 2, 0])},
        )

    def _pairs(self, index, ranges):
        return index.search([ranges], k=len(self.AGES))[0].as_pairs()

    def test_transform_puts_huge_values_on_the_edges(self):
        disc = Discretizer(16).fit(self.AGES)
        assert disc.transform([1e300, np.inf, -1e300, -np.inf]).tolist() == [15, 15, 0, 0]
        assert bin_code(1e300, disc.lo, disc.hi - disc.lo, 16) == 15

    def test_open_range_is_the_whole_domain(self):
        index = self._index()
        whole = self._pairs(index, {"age": (self.AGES.min(), self.AGES.max())})
        assert len(whole) == len(self.AGES)
        assert self._pairs(index, {"age": (-np.inf, np.inf)}) == whole
        assert self._pairs(index, {"age": (-1e300, 1e300)}) == whole
        assert self._pairs(index, {"job": (-np.inf, np.inf)}) == self._pairs(index, {"job": (0, 2)})

    def test_half_open_range_runs_to_the_column_edge(self):
        index = self._index()
        assert self._pairs(index, {"age": (50, np.inf)}) == self._pairs(index, {"age": (50, self.AGES.max())})
        assert self._pairs(index, {"age": (-np.inf, 40)}) == self._pairs(index, {"age": (self.AGES.min(), 40)})
        assert self._pairs(index, {"job": (1, np.inf)}) == self._pairs(index, {"job": (1, 2)})


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
        with pytest.raises(QueryError, match="query 0: unknown attribute: y"):
            index.search([{"y": (0, 1)}], k=1)
        with pytest.raises(QueryError, match="query 1 must constrain at least one attribute"):
            index.search([{"x": (0, 1)}, {}], k=1)

    def test_ragged_columns_rejected(self):
        with pytest.raises(ConfigError):
            _index(
                [AttributeSpec("a", "categorical"), AttributeSpec("b", "categorical")],
                {"a": np.array([0, 1]), "b": np.array([0])},
            )

    @pytest.mark.parametrize(
        "ranges, message",
        [
            ({"x": 30}, r"query 1, attribute 'x': a range is a \(lo, hi\) pair"),
            ({"x": ("a", 40)}, "query 1, attribute 'x'"),
            ({"x": (20, 30, 40)}, "query 1, attribute 'x'"),
            ({"x": (None, 40)}, "query 1, attribute 'x'"),
            ({"x": (20, float("nan"))}, "query 1, attribute 'x'"),
            ({"x": (np.float32("nan"), 40)}, "query 1, attribute 'x'"),
            ({"x": (0, 10**400)}, "query 1, attribute 'x'"),  # past float range
            ({"j": (0, None)}, "query 1, attribute 'j'"),
            ({"j": "01"}, "query 1, attribute 'j'"),
            ([("x", (0, 1))], r"query 1: expected an \{attribute: \(lo, hi\)\} dict; got list"),
            ("x", "query 1: expected .* got str"),
            (None, "query 1: expected .* got NoneType"),
        ],
    )
    def test_malformed_range_names_query_and_attribute(self, ranges, message):
        index = _index([AttributeSpec("x", bins=8), AttributeSpec("j", "categorical")],
                       {"x": np.array([1.0, 2.0]), "j": np.array([0, 3])})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way to the error
            with pytest.raises(QueryError, match=message):
                index.encode_queries([{"x": (1, 2)}, ranges])

    def test_huge_categorical_bound_clamps(self):
        index = _index([AttributeSpec("j", "categorical")], {"j": np.array([0, 1, 2])})
        assert index.search([{"j": (1, 10**400)}], k=3)[0].as_pairs() == [(1, 1), (2, 1)]

    def test_empty_range_rejected(self):
        index = _index([AttributeSpec("j", "categorical")], {"j": np.array([0, 1, 2])})
        with pytest.raises(QueryError):
            index.search([{"j": (2, 1)}], k=1)
