"""Tests for the ST-Link and GM baseline reimplementations."""
import math

import numpy as np
import pandas as pd
import pytest

from repro.baselines import gm as gm_mod
from repro.baselines import stlink as st_mod
from repro.core import metrics, proximity
from repro.core.slim import SlimConfig
from repro.grid import cells


class TestStLink:
    @pytest.fixture(scope="class")
    def result(self, cab_records):
        rec_e, rec_i = cab_records
        return st_mod.run_stlink(rec_e, rec_i, SlimConfig())

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


def _stlink_counts(e: list, i: list, cfg: SlimConfig) -> pd.DataFrame:
    """Pandas reference of ST-Link's (k, l, alibis) per co-occurring
    pair: every within-window bin pair, alibis by cell-centre distance."""

    def bins(recs, name):
        r = pd.DataFrame(recs, columns=["entity", "ts", "lat", "lon"])
        return pd.DataFrame(
            {
                name: r["entity"],
                "window": r["ts"] // cfg.window_sec,
                "cell": cells.encode(r["lat"], r["lon"], cfg.level),
            }
        ).drop_duplicates()

    def planar(cell):
        lat, lon = cells.cell_center(cell.to_numpy(), cfg.level)
        return lat * cells.M_PER_DEG, lon * cells.M_PER_DEG * np.cos(np.radians(lat))

    bp = bins(e, "u").merge(bins(i, "v"), on="window", suffixes=("_e", "_i"))
    (ye, xe), (yi, xi) = planar(bp["cell_e"]), planar(bp["cell_i"])
    runaway = proximity.runaway_distance_m(cfg.window_sec, cfg.alpha_m_per_sec)
    bp["same"] = bp["cell_e"] == bp["cell_i"]
    bp["shared_cell"] = bp["cell_e"].where(bp["same"])
    bp["alibi"] = np.hypot(ye - yi, xe - xi) > runaway
    agg = bp.groupby(["u", "v"]).agg(
        k=("same", "sum"), l=("shared_cell", "nunique"), alibis=("alibi", "sum")
    )
    return agg[agg["k"] > 0]


class TestStLinkCounts:
    def test_counts_equal_pandas_reference(self, spark):
        # (lat, lon) points: b–d ≈ 5.6 km (< R = 30 km, different
        # level-12 cells); a, c and f are ≥ 111 km from b
        a, b, c, d, f = (0.0, 0.0), (0.0, 1.0), (0.0, 2.0), (0.0, 1.05), (1.0, 1.0)
        w = 900  # SlimConfig's window, in seconds
        e = [
            (1, 0 * w, *a), (1, 1 * w, *a),  # (1, 10) share a in windows 0 and 1
            (2, 2 * w, *b), (2, 2 * w, *f), (2, 3 * w, *b),
        ]
        i = [
            (10, 0 * w, *a), (10, 1 * w + 60, *a),
            (10, 2 * w, *d),  # (2, 10) share window 2 but no cell
            (11, 2 * w, *b),  # (2, 11) share b; f–b in window 2 is an alibi
            (11, 3 * w, *c),  # and so is b–c in window 3
        ]
        schema = "entity long, ts long, lat double, lon double"
        rec_e, rec_i = (spark.createDataFrame(r, schema) for r in (e, i))
        cfg = SlimConfig()
        res = st_mod.run_stlink(rec_e, rec_i, cfg)
        got = res.scores.set_index(["u", "v"]).sort_index()[["k", "l", "alibis"]]
        want = _stlink_counts(e, i, cfg)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        assert got.to_dict("index") == {
            (1, 10): {"k": 2, "l": 1, "alibis": 0},
            (2, 11): {"k": 1, "l": 1, "alibis": 2},
        }


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
        return gm_mod.run_gm(rec_e, rec_i, SlimConfig())

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
        res = gm_mod.run_gm(rec_e, rec_i, SlimConfig())
        assert 1 <= len(res.matched) < 4
        assert res.threshold.threshold == -np.inf
        pd.testing.assert_frame_equal(res.links, res.matched)

    def test_comparisons_evaluate_every_i_record_per_model(self, result, cab_records):
        rec_e, rec_i = cab_records
        n_e = rec_e.select("entity").distinct().count()
        assert result.n_comparisons == n_e * rec_i.count()

    def test_likelihood_floor_formula(self, spark):
        # only (1, 10) shares a (slot, cell); in the other pairs each of
        # v's n_v records gets only the smoothing mass λ / (tot_u + λ·V)
        a, b, c = (0.0, 0.0), (0.0, 1.0), (1.0, 0.0)  # (lat, lon), far apart
        e = [(1, 0, *a), (1, 60, *a), (2, 0, *b)]
        i = [(10, 0, *a), (10, 60, *a), (10, 120, *a), (11, 0, *c), (11, 11_000, *c)]
        schema = "entity long, ts long, lat double, lon double"
        rec_e, rec_i = (spark.createDataFrame(r, schema) for r in (e, i))
        res = gm_mod.run_gm(rec_e, rec_i, SlimConfig())
        lam, vocab = gm_mod.SMOOTHING, 4  # slot 0: a, b, c; slot 1: c
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
        res = gm_mod.run_gm(rec_e, rec_i, SlimConfig())
        prf = metrics.evaluate_links(res.links, pair.truth)
        dense = generator.cab_pair(scale="test", inclusion_prob=0.9, seed=1)
        rec_e2, rec_i2 = dense.to_spark(spark)
        res2 = gm_mod.run_gm(rec_e2, rec_i2, SlimConfig())
        prf2 = metrics.evaluate_links(res2.links, dense.truth)
        assert prf2.f1 >= prf.f1
