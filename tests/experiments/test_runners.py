"""Integration tests: every figure/table runner produces the paper's shape.

These run the full experiment pipeline at tiny scale, so they double as
end-to-end integration tests of GENIE + substrates + baselines.
"""

import math

import numpy as np
import pytest

from paper.experiments import (
    ablations,
    fig8_hash_functions,
    fig9_time_vs_queries,
    fig10_time_vs_cardinality,
    fig11_large_batches,
    fig12_load_balance,
    fig13_cpq_effect,
    fig14_approx_ratio,
    table1_profiling,
    table2_multiload,
    table4_memory,
    table5_ocr_prediction,
    table6_dblp_accuracy,
    table7_sequence_k,
)


class TestFig8:
    def test_bell_shape_below_hoeffding(self):
        table = fig8_hash_functions.run(s_values=[0.1, 0.5, 0.9])
        ms = dict(zip(table.column("similarity"), table.column("required_m")))
        assert ms[0.5] > ms[0.1]
        assert ms[0.5] > ms[0.9]
        assert ms[0.5] < 2174


class TestFig9:
    def test_genie_wins_on_sift(self):
        table = fig9_time_vs_queries.run(datasets=("sift",), query_counts=(32, 64), n=1500)
        genie = table.where(system="GENIE", n_queries=64)[0]["seconds"]
        for system in ("GPU-SPQ", "GPU-LSH", "CPU-Idx", "CPU-LSH"):
            other = table.where(system=system, n_queries=64)[0]["seconds"]
            assert other > 3 * genie, f"{system} should be well above GENIE"

    def test_genie_beats_appgram_on_sequences(self):
        table = fig9_time_vs_queries.run(datasets=("dblp",), query_counts=(16,), n=600)
        genie = table.where(system="GENIE")[0]["seconds"]
        appgram = table.where(system="AppGram")[0]["seconds"]
        assert appgram > genie

    def test_genie_scales_linearly_in_queries(self):
        table = fig9_time_vs_queries.run(datasets=("tweets",), query_counts=(16, 64), n=1000)
        t16 = table.where(system="GENIE", n_queries=16)[0]["seconds"]
        t64 = table.where(system="GENIE", n_queries=64)[0]["seconds"]
        assert 2 <= t64 / t16 <= 8


class TestFig10:
    def test_genie_grows_with_cardinality(self):
        table = fig10_time_vs_cardinality.run(
            datasets=("sift",), cardinalities=(500, 2000), n_queries=32
        )
        small = table.where(system="GENIE", cardinality=500)[0]["seconds"]
        large = table.where(system="GENIE", cardinality=2000)[0]["seconds"]
        assert large > small


class TestFig11:
    def test_genie_faster_and_gpu_lsh_flatter(self):
        table = fig11_large_batches.run(n=1500, query_counts=(128, 512), batch_size=128)
        for row in table.rows:
            assert row["genie_seconds"] < row["gpu_lsh_seconds"]
        lsh_ratio = table.rows[-1]["gpu_lsh_seconds"] / table.rows[0]["gpu_lsh_seconds"]
        genie_ratio = table.rows[-1]["genie_seconds"] / table.rows[0]["genie_seconds"]
        assert lsh_ratio < genie_ratio  # GPU-LSH grows slower than linear


class TestFig12:
    def test_lb_wins_at_low_query_counts(self):
        table = fig12_load_balance.run(n=15_000, query_counts=(1, 16))
        first = table.rows[0]
        assert first["GENIE_LB"] < first["GENIE_noLB"]
        last = table.rows[-1]
        # Saturated regime: the gap (mostly) disappears.
        assert last["GENIE_LB"] <= last["GENIE_noLB"] * 1.25


class TestFig13:
    def test_cpq_beats_spq_selection(self):
        table = fig13_cpq_effect.run(datasets=("sift",), query_counts=(32,), n=1500)
        genie = table.where(system="GENIE")[0]["seconds"]
        gen_spq = table.where(system="GEN-SPQ")[0]["seconds"]
        assert gen_spq > 2 * genie


class TestFig14:
    def test_ratio_shapes(self):
        table = fig14_approx_ratio.run(n=1500, n_queries=24, ks=(1, 32))
        k1 = table.where(k=1)[0]
        k32 = table.where(k=32)[0]
        # GENIE stable and decent; GPU-LSH clearly worse at k=1, converging.
        assert k1["genie_ratio"] < 1.3
        assert k1["gpu_lsh_ratio"] > k1["genie_ratio"]
        assert k32["gpu_lsh_ratio"] < k1["gpu_lsh_ratio"]


class TestTable1:
    def test_all_datasets_profiled(self):
        table = table1_profiling.run(n_queries=16, n=800)
        assert [row["dataset"] for row in table.rows] == ["ocr", "sift", "dblp", "tweets", "adult"]
        for row in table.rows:
            assert row["match"] > 0
            assert row["index_build"] > 0
            # Query transfer is negligible next to matching (paper Table I).
            assert row["query_transfer"] < row["match"]


class TestTables2And3:
    def test_linear_scaling_and_small_extras(self):
        table2, table3 = table2_multiload.run(sizes=(2000, 4000), part_size=2000, n_queries=32)
        assert table2.rows[0]["n_parts"] == 1
        assert table2.rows[1]["n_parts"] == 2
        ratio = table2.rows[1]["genie_seconds"] / table2.rows[0]["genie_seconds"]
        assert 1.5 <= ratio <= 3.0  # linear in the number of parts
        for row in table3.rows:
            assert row["result_merge"] < 0.2 * row["total"]


class TestTable4:
    def test_memory_ratio_in_paper_band(self):
        table = table4_memory.run()
        for row in table.rows:
            assert row["ratio"] > 5  # paper: 1/5 to 1/10 of GEN-SPQ
            assert row["genie_max_batch"] > row["gen_spq_max_batch"]
        sift = table.where(dataset="sift")[0]
        # The paper's headline: GENIE fits >1000 queries, GEN-SPQ cannot
        # reach 256 on the big datasets.
        assert sift["genie_max_batch"] > 1024
        assert sift["gen_spq_max_batch"] < 512


class TestTable5:
    def test_genie_predicts_better_than_gpu_lsh(self):
        table = table5_ocr_prediction.run(n=1500, n_queries=100)
        genie = table.where(method="GENIE")[0]
        gpu_lsh = table.where(method="GPU-LSH")[0]
        assert genie["accuracy"] > gpu_lsh["accuracy"]
        assert genie["accuracy"] > 0.6
        assert genie["f1"] > gpu_lsh["f1"]


class TestTable6:
    def test_accuracy_degrades_gracefully(self):
        table = table6_dblp_accuracy.run(n=800, n_queries=32, fractions=(0.1, 0.4))
        low = table.where(modified_fraction=0.1)[0]["accuracy"]
        high = table.where(modified_fraction=0.4)[0]["accuracy"]
        assert low >= 0.95
        assert high >= 0.6
        assert low >= high


class TestTable7:
    def test_accuracy_rises_with_k_and_time_grows(self):
        table = table7_sequence_k.run(candidate_ks=(4, 64), fractions=(0.3,), n=800, n_queries=32)
        small = table.where(K=4)[0]
        large = table.where(K=64)[0]
        assert large["accuracy"] >= small["accuracy"]
        assert large["seconds"] > small["seconds"]


class TestAblations:
    def test_bitmap_width_ratio_shrinks_with_bound(self):
        table = ablations.run_bitmap_width(bounds=(3, 255))
        assert table.rows[0]["ratio"] > table.rows[1]["ratio"]

    def test_robin_hood_modification_pays(self):
        table = ablations.run_robin_hood()
        with_mod = table.where(expired_overwrite=True)[0]
        without = table.where(expired_overwrite=False)[0]
        assert with_mod["inserts_survived"] >= without["inserts_survived"]
        per_insert_with = with_mod["probes_per_insert"]
        per_insert_without = without["probes_per_insert"]
        assert per_insert_with < per_insert_without

    def test_sublist_length_monotone(self):
        table = ablations.run_sublist_length(lengths=(512, 32768), n=15_000)
        assert table.rows[0]["seconds"] <= table.rows[1]["seconds"]

    def test_rehash_domain_improves_ratio(self):
        table = ablations.run_rehash_domain(domains=(8, 512), n=1200, n_queries=16)
        coarse = table.where(domain=8)[0]["approx_ratio"]
        fine = table.where(domain=512)[0]["approx_ratio"]
        assert math.isfinite(fine)
        assert fine <= coarse * 1.05
