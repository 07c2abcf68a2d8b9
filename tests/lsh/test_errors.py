"""The LSH front-end raises taxonomy errors — which are also ``ValueError``s.

Constructor arguments are configuration (``ConfigError``); a point of the
wrong dimensionality or a signature of the wrong width is a malformed query
(``QueryError``). Both subclass ``ValueError``, so seed-era callers that
catch the builtin (and the tests in this directory that pin it) keep working.
"""

import numpy as np
import pytest

from repro.errors import ConfigError, QueryError, ReproError
from repro.lsh import (
    E2Lsh,
    MinHash,
    RandomBinningHash,
    ReHasher,
    SimHash,
    estimate_kernel_width,
    hoeffding_m,
    required_m,
    similarity_estimate,
    success_probability,
)


def _with_row_1(value):
    points = np.zeros((3, 4))
    points[1, 2] = value
    return points


CONFIG_ERRORS = {
    "family-m": lambda: MinHash(0),
    "e2lsh-m": lambda: E2Lsh(0, dim=4, width=1.0),
    "e2lsh-p": lambda: E2Lsh(4, dim=4, width=1.0, p=3),
    "e2lsh-width": lambda: E2Lsh(4, dim=4, width=0.0),
    "simhash-m": lambda: SimHash(0, dim=4),
    "rbh-sigma": lambda: RandomBinningHash(4, dim=4, sigma=0.0),
    "rbh-width-sample": lambda: estimate_kernel_width(np.zeros((1, 4))),
    "rehash-m": lambda: ReHasher(0, 10),
    "rehash-domain": lambda: ReHasher(1, 0),
    "tann-eps": lambda: hoeffding_m(eps=0.0),
    "tann-s": lambda: success_probability(1.5, 10),
    "tann-m": lambda: success_probability(0.5, 0),
    "tann-unreachable": lambda: required_m(0.5, eps=0.01, delta=0.01, m_max=8),
    "tann-estimate-m": lambda: similarity_estimate(3, 0),
}

QUERY_ERRORS = {
    "e2lsh-dim": lambda: E2Lsh(4, dim=4, width=1.0).hash_points(np.zeros((2, 7))),
    "simhash-dim": lambda: SimHash(4, dim=4).hash_points(np.zeros((2, 7))),
    "rbh-dim": lambda: RandomBinningHash(4, dim=4, sigma=1.0).hash_points(np.zeros((2, 7))),
    "rehash-width": lambda: ReHasher(3, 50).rehash(np.zeros((4, 2), dtype=np.int64)),
    # A non-finite coordinate has no signature; RBH and E2LSH used to cast it
    # to the INT64_MIN cell, so all such points collided on every function.
    "rbh-nan": lambda: RandomBinningHash(4, dim=4, sigma=1.0).hash_points(_with_row_1(np.nan)),
    "e2lsh-inf": lambda: E2Lsh(4, dim=4, width=1.0).hash_points(_with_row_1(-np.inf)),
    "simhash-nan": lambda: SimHash(4, dim=4).hash_points(_with_row_1(np.nan)),
}

EXPECTED = {
    "rehash-width": "expected 3 signature columns, got 2",
    "rbh-nan": "point 1 has a non-finite coordinate",
    "e2lsh-inf": "point 1 has a non-finite coordinate",
    "simhash-nan": "point 1 has a non-finite coordinate",
}


@pytest.mark.parametrize("name", sorted(CONFIG_ERRORS))
def test_bad_configuration(name):
    with pytest.raises(ConfigError) as caught:
        CONFIG_ERRORS[name]()
    assert isinstance(caught.value, ReproError) and isinstance(caught.value, ValueError)


@pytest.mark.parametrize("name", sorted(QUERY_ERRORS))
def test_malformed_input(name):
    with pytest.raises(QueryError, match=EXPECTED.get(name, "expected dim 4, got 7")) as caught:
        QUERY_ERRORS[name]()
    assert isinstance(caught.value, ReproError) and isinstance(caught.value, ValueError)
