"""Tests for the LSH->GENIE transformer and tau-ANN search through it."""

import hashlib

import numpy as np
import pytest

from repro.api import AnnModel, GenieSession
from repro.core.engine import GenieConfig
from repro.errors import ConfigError, QueryError
from repro.lsh import murmur
from repro.lsh.e2lsh import E2Lsh
from repro.lsh.minhash import MinHash
from repro.lsh.rbh import RandomBinningHash
from repro.lsh.simhash import SimHash
from repro.lsh.transform import LshTransformer


def _family(m=32, dim=8):
    return E2Lsh(m, dim=dim, width=4.0, seed=0)


class TestLshTransformer:
    def test_keyword_matrix_shape_and_ranges(self):
        tr = LshTransformer(_family(), domain=67)
        points = np.random.default_rng(0).standard_normal((10, 8))
        kw = tr.keyword_matrix(points)
        assert kw.shape == (10, 32)
        for j in range(32):
            assert ((kw[:, j] >= j * 67) & (kw[:, j] < (j + 1) * 67)).all()

    def test_corpus_objects_have_m_keywords(self):
        tr = LshTransformer(_family(m=16), domain=1000)
        corpus = tr.to_corpus(np.random.default_rng(0).standard_normal((5, 8)))
        # Distinct functions live in distinct keyword ranges, so objects
        # keep all m keywords after set-dedup.
        assert all(arr.size == 16 for arr in corpus)

    def test_queries_one_item_per_function(self):
        tr = LshTransformer(_family(m=16), domain=1000)
        queries = tr.to_queries(np.zeros((3, 8)))
        assert len(queries) == 3
        assert all(q.num_items == 16 for q in queries)


def _points(n, d, seed):
    return np.random.default_rng(seed).standard_normal((n, d)) * 3.0


def _sets(n, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 500, size=int(rng.integers(1, 30))).tolist() for _ in range(n)]


def _ocr_rbh():
    """The ``ocr_sharded`` benchmark's shape: RBH m=16 over d=96, D=1024."""
    return LshTransformer(RandomBinningHash(16, dim=96, sigma=40.0, seed=3), domain=1024, seed=5)


def _digest(matrix):
    matrix = np.ascontiguousarray(matrix, dtype=np.int64)
    return hashlib.sha256(repr(matrix.shape).encode() + matrix.tobytes()).hexdigest()


#: name -> (keyword matrix thunk, sha256 recorded on the commit *before* the
#: signature path became one fused hash pass per batch, fb47516). The fused
#: pass must reproduce every keyword bit: same murmur, same fold order, same
#: seeds. A digest here changes only with a deliberate, answer-changing
#: re-definition of the encoding — never with a performance change.
GOLDEN = {
    "rbh-m16-d96-D1024-n64": (
        lambda: _ocr_rbh().keyword_matrix(_points(64, 96, 11)),
        "a97073bab0829778ecaa0f3719fd5956186422580c456259d3060211c8770187",
    ),
    "rbh-m16-d96-D1024-n1": (
        lambda: _ocr_rbh().keyword_matrix(_points(1, 96, 12)),
        "5a168c9af1bee11f48638c22b2f818d4e45b6b6b4c6793e872f5edc6b9a53723",
    ),
    # 700 rows: several default chunks and a ragged last one.
    "rbh-m16-d96-D1024-n700": (
        lambda: _ocr_rbh().keyword_matrix(_points(700, 96, 13)),
        "3a018619274e117c974bd493593615c63b06d2ed523523af5adb74a750aaf7eb",
    ),
    "rbh-m1-d1-D8192-n33": (
        lambda: LshTransformer(RandomBinningHash(1, dim=1, sigma=2.0, seed=1), seed=2)
        .keyword_matrix(_points(33, 1, 14)),
        "1ac65f85ea7c4a99fafa4cad1290c19863d726eb77283aa93ba8ba637be32af5",
    ),
    "e2lsh-m64-d128-D67-n256": (
        lambda: LshTransformer(E2Lsh(64, dim=128, width=4.0, seed=0), domain=67, seed=0)
        .keyword_matrix(_points(256, 128, 15)),
        "e8fb0b692820bd3448116572177493114474da0a7737a9389d33808fc059eb0e",
    ),
    "e2lsh-m32-d128-D256-n1": (
        lambda: LshTransformer(E2Lsh(32, dim=128, width=4.0, seed=7), domain=256, seed=9)
        .keyword_matrix(_points(1, 128, 16)),
        "39034fd3b37fd6ea58dcef3007b76e903caba83e3cab0f613afdc85706141e81",
    ),
    "e2lsh-m32-d16-D256-n100-l1": (
        lambda: LshTransformer(E2Lsh(32, dim=16, width=4.0, p=1, seed=7), domain=256, seed=9)
        .keyword_matrix(_points(100, 16, 17)),
        "c43cc691dc7a15d4ef17286f755df1b8dfa8bdcaa4e8eba89aa3ec67875ddcf0",
    ),
    "simhash-m24-d32-D2-n50": (
        lambda: LshTransformer(SimHash(24, dim=32, seed=4), domain=2, seed=6)
        .keyword_matrix(_points(50, 32, 18)),
        "e41dac06d53d7d56219fe39b01a82f6527d23887470beaffe633a814a4ad9ae7",
    ),
    "simhash-m24-d32-D8192-n1": (
        lambda: LshTransformer(SimHash(24, dim=32, seed=4), seed=6)
        .keyword_matrix(_points(1, 32, 19)),
        "4124f167ecd41199f424faeb6bcbc1fb0514bbd211ea456292d6aac906489499",
    ),
    "minhash-m20-D512-n40": (
        lambda: LshTransformer(MinHash(20, seed=8), domain=512, seed=10)
        .keyword_matrix(_sets(40, 20)),
        "b343292a8524ffed71cbc03a6ca834dc7104587a87e6e735e80d58676e34f112",
    ),
    "minhash-m20-D512-n1": (
        lambda: LshTransformer(MinHash(20, seed=8), domain=512, seed=10)
        .keyword_matrix(_sets(1, 21)),
        "af2b00ab529c1c2924bfcc4275ad89f04a60e05a7dc2390656342c45a4f3adc2",
    ),
}


class TestKeywordMatrixBitIdentity:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_digest(self, name):
        make, expected = GOLDEN[name]
        assert _digest(make()) == expected


def _count_murmur_calls(monkeypatch):
    """Count ``murmur3_int64`` evaluations the way the wall-clock tracer does."""
    calls = []
    real = murmur.murmur3_int64

    def counted(values, seed=0):
        calls.append(np.shape(values))
        return real(values, seed)

    # Callers resolve the name through their own module namespace.
    for module in ("repro.lsh.murmur", "repro.lsh.rbh", "repro.lsh.rehash"):
        monkeypatch.setattr(f"{module}.murmur3_int64", counted)
    return calls


class TestMurmurCallBudget:
    """An RBH batch murmurs each distinct grid cell once, not its ``(n, m, d)``
    cell tensor; a per-function/per-dimension loop (1552 calls per 64-point
    OCR batch) must not come back unnoticed either."""

    @pytest.mark.parametrize("m, d", [(16, 96), (5, 7)])
    def test_rbh_batch_is_two_calls(self, monkeypatch, m, d):
        family = RandomBinningHash(m, dim=d, sigma=40.0, seed=3)
        points = _points(64, d, 0)
        cells = family.grid_coordinates(points)
        tr = LshTransformer(family, domain=1024)
        calls = _count_murmur_calls(monkeypatch)
        tr.keyword_matrix(points)
        # One over the batch's cell range (the table), one re-hash of the folds.
        assert calls == [(int(cells.max() - cells.min()) + 1,), (64, m)]

    def test_rbh_wide_range_murmurs_the_cells(self, monkeypatch):
        """A range wider than the batch's cell count is no table: the
        ``(d, m)`` lower bounds and the ``(n, m * d)`` cells that vary over
        the batch are murmured as they are."""
        family = RandomBinningHash(5, dim=7, sigma=1e-6, seed=3)
        calls = _count_murmur_calls(monkeypatch)
        LshTransformer(family, domain=1024).keyword_matrix(_points(64, 7, 0))
        assert calls == [(7, 5), (64, 35), (64, 5)]

    @pytest.mark.parametrize("m, d", [(64, 128), (3, 5)])
    def test_e2lsh_batch_is_one_call(self, monkeypatch, m, d):
        tr = LshTransformer(E2Lsh(m, dim=d, width=4.0, seed=0), domain=67)
        calls = _count_murmur_calls(monkeypatch)
        tr.keyword_matrix(_points(64, d, 0))
        assert calls == [(64, m)]

    def test_empty_batch_needs_no_call(self, monkeypatch):
        tr = _ocr_rbh()
        calls = _count_murmur_calls(monkeypatch)
        assert tr.keyword_matrix(np.zeros((0, 96))).shape == (0, 16)
        assert calls == []


class TestKeywordMatrixEdgeShapes:
    @pytest.mark.parametrize(
        "make",
        [
            lambda m, d: RandomBinningHash(m, dim=d, sigma=2.0, seed=1),
            lambda m, d: E2Lsh(m, dim=d, width=4.0, seed=1),
            lambda m, d: SimHash(m, dim=d, seed=1),
        ],
        ids=["rbh", "e2lsh", "simhash"],
    )
    @pytest.mark.parametrize("m, d", [(1, 1), (1, 6), (7, 1), (4, 6)])
    def test_single_point_is_a_one_row_batch(self, make, m, d):
        tr = LshTransformer(make(m, d), domain=97, seed=3)
        batch = _points(5, d, 2)
        whole = tr.keyword_matrix(batch)
        assert whole.shape == (5, m) and whole.dtype == np.int64
        for i, point in enumerate(batch):
            assert np.array_equal(tr.keyword_matrix(point), whole[i : i + 1])  # (d,)
            assert np.array_equal(tr.keyword_matrix(point[None, :]), whole[i : i + 1])  # (1, d)

    def test_empty_batch(self):
        for family in (E2Lsh(4, dim=6, width=4.0), SimHash(4, dim=6),
                       RandomBinningHash(4, dim=6, sigma=2.0)):
            out = LshTransformer(family, domain=97).keyword_matrix(np.zeros((0, 6)))
            assert out.shape == (0, 4) and out.dtype == np.int64


def _ann_index(points, m=32):
    return GenieSession().create_index(points, model=AnnModel(_family(m=m), domain=67))


class TestTauAnnIndex:
    def test_self_query_returns_self_with_full_count(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((50, 8))
        index = _ann_index(points)
        results = index.search(points[:5], k=1).results
        for i, result in enumerate(results):
            assert int(result.ids[0]) == i
            assert int(result.counts[0]) == index.model.num_functions

    def test_near_points_rank_high(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((100, 8)) * 5
        index = _ann_index(points, m=64)
        noisy = points[7] + 0.01 * rng.standard_normal(8)
        result = index.search(noisy[None, :], k=3)[0]
        assert int(result.ids[0]) == 7

    def test_search_returns_similarity_estimates(self):
        points = np.random.default_rng(0).standard_normal((20, 8))
        triples = _ann_index(points, m=16).search(points[:2], k=2).payload
        for ids, counts, estimates in triples:
            assert np.allclose(estimates, counts / 16.0)
            assert (estimates <= 1.0).all()

    def test_count_bound_forced_to_m(self):
        index = GenieSession().declare_index(
            AnnModel(_family(m=16), domain=67), config=GenieConfig(k=3)
        )
        assert index.engine.config.count_bound == 16

    def test_errors(self):
        index = GenieSession().declare_index(AnnModel(_family()))
        with pytest.raises(QueryError):
            index.search(np.zeros((1, 8)))
        with pytest.raises(QueryError):
            _ = index.model.points
        with pytest.raises(ConfigError):
            index.fit(np.zeros((0, 8)))
