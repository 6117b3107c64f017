"""Tests for the ST-Link and GM baseline reimplementations."""
import math

import numpy as np
import pandas as pd
import pytest

from repro.baselines import gm as gm_mod
from repro.baselines import stlink as st_mod
from repro.core import metrics


class TestStLink:
    @pytest.fixture(scope="class")
    def result(self, cab_records):
        rec_e, rec_i = cab_records
        return st_mod.run_stlink(rec_e, rec_i, st_mod.StLinkConfig())

    def test_links_one_to_one(self, result):
        assert result.links["u"].is_unique
        assert result.links["v"].is_unique

    def test_high_accuracy_on_dense_data(self, result, cab_pair):
        prf = metrics.evaluate_links(result.links, cab_pair.truth)
        assert prf.f1 >= 0.8

    def test_thresholds_detected(self, result):
        assert result.k_star >= 2
        assert result.l_star >= 2

    def test_comparisons_exceed_slim_bin_counts(self, result):
        # record-level all-pairs within windows: necessarily large
        assert result.n_comparisons > 10_000

    def test_scores_columns(self, result):
        assert {"u", "v", "score", "k", "l", "alibis"} <= set(result.scores.columns)

    def test_alibi_tolerance_shrinks_qualifying_set(self, result):
        # note: *links* need not shrink monotonically — removing a
        # competing pair can resolve an ambiguity — but the qualifying
        # set before ambiguity resolution must
        s = result.scores
        k, l = result.k_star, result.l_star

        def qual(tol):
            q = s[(s["k"] >= k) & (s["l"] >= l) & (s["alibis"] <= tol)]
            return set(zip(q["u"], q["v"]))

        assert qual(0) <= qual(3) <= qual(10**9)


class TestElbowThreshold:
    def test_clear_elbow(self):
        vals = np.array([100, 90, 80, 5, 4, 3, 2, 2, 1, 1])
        thr = st_mod._elbow_threshold(vals, fallback=2)
        assert thr >= 2

    def test_fallback_on_flat(self):
        assert st_mod._elbow_threshold(np.array([3, 3, 3]), fallback=2) == 2

    def test_fallback_on_tiny(self):
        assert st_mod._elbow_threshold(np.array([7]), fallback=2) == 2


class TestGm:
    @pytest.fixture(scope="class")
    def result(self, cab_records):
        rec_e, rec_i = cab_records
        return gm_mod.run_gm(rec_e, rec_i, gm_mod.GmConfig())

    def test_scores_dense(self, result, cab_records):
        rec_e, rec_i = cab_records
        n_e = rec_e.select("entity").distinct().count()
        n_i = rec_i.select("entity").distinct().count()
        assert len(result.scores) == n_e * n_i

    def test_scores_are_log_likelihoods(self, result):
        assert (result.scores["score"] <= 0).all()

    def test_links_one_to_one(self, result):
        assert result.links["u"].is_unique
        assert result.links["v"].is_unique

    def test_reasonable_accuracy_dense(self, result, cab_pair):
        # GM works when entities have many records (the paper's regime
        # where it is merely mediocre, not broken)
        prf = metrics.evaluate_links(result.links, cab_pair.truth)
        assert prf.f1 >= 0.5

    def test_true_pairs_rank_high(self, result, cab_pair):
        hp = metrics.hit_precision_at_k(result.scores, cab_pair.truth, 40)
        assert hp >= 0.8

    def test_no_threshold_below_four_matches(self, small_cab_records):
        # below gmm.MIN_FIT_WEIGHTS matched pairs no mixture is fitted
        rec_e, rec_i = small_cab_records
        res = gm_mod.run_gm(rec_e, rec_i, gm_mod.GmConfig())
        assert 1 <= len(res.matched) < 4
        assert res.threshold.threshold == -np.inf
        pd.testing.assert_frame_equal(res.links, res.matched)

    def test_slot_validation(self):
        # 7 slots of 12,342 s would leave an eighth slot of 6 s
        with pytest.raises(ValueError, match="n_slots must divide 86400"):
            gm_mod.GmConfig(n_slots=7)

    def test_likelihood_floor_formula(self, spark):
        # only (1, 10) shares a (slot, cell); in the other pairs each of
        # v's n_v records gets only the smoothing mass λ / (tot_u + λ·V)
        a, b, c = (0.0, 0.0), (0.0, 1.0), (1.0, 0.0)  # (lat, lon), far apart
        e = [(1, 0, *a), (1, 60, *a), (2, 0, *b)]
        i = [(10, 0, *a), (10, 60, *a), (10, 120, *a), (11, 0, *c), (11, 11_000, *c)]
        schema = "entity long, ts long, lat double, lon double"
        rec_e, rec_i = (spark.createDataFrame(r, schema) for r in (e, i))
        cfg = gm_mod.GmConfig(smoothing=0.5)
        res = gm_mod.run_gm(rec_e, rec_i, cfg)
        lam, vocab = cfg.smoothing, 4  # slot 0: a, b, c; slot 1: c
        scores = res.scores.set_index(["u", "v"])["score"]
        for u, v, tot_u, n_v in [(2, 10, 1, 3), (1, 11, 2, 2), (2, 11, 1, 2)]:
            floor = math.log(lam) - math.log(tot_u + lam * vocab)
            assert scores[(u, v)] == pytest.approx(n_v * floor, rel=1e-12)


class TestGmDegradesWhenSparse:
    def test_sparse_records_hurt_gm_more_than_structure(self, spark):
        # thin the cab data hard: GM should lose accuracy (paper Fig 11:
        # GM needs many records per entity)
        from repro.mobility import generator

        pair = generator.cab_pair(scale="test", inclusion_prob=0.05, seed=1)
        if len(pair.truth) < 4:
            pytest.skip("too few surviving entities at this density")
        rec_e, rec_i = pair.to_spark(spark)
        res = gm_mod.run_gm(rec_e, rec_i, gm_mod.GmConfig())
        prf = metrics.evaluate_links(res.links, pair.truth)
        dense = generator.cab_pair(scale="test", inclusion_prob=0.9, seed=1)
        rec_e2, rec_i2 = dense.to_spark(spark)
        res2 = gm_mod.run_gm(rec_e2, rec_i2, gm_mod.GmConfig())
        prf2 = metrics.evaluate_links(res2.links, dense.truth)
        assert prf2.f1 >= prf.f1
