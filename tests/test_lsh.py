"""Tests for the dominating-cell LSH (Sec 4)."""
import math

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import oracle
from repro.core import histories, lsh
from repro.grid import cells


class TestLambertW:
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0, math.e, 10.0, 1e4])
    def test_roundtrip(self, x):
        w = lsh.lambert_w(x)
        assert w * math.exp(w) == pytest.approx(x, rel=1e-9)

    def test_known_value(self):
        assert lsh.lambert_w(math.e) == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            lsh.lambert_w(-0.1)


class TestNBands:
    def test_threshold_approximation(self):
        # derived b must give (1/b)^(b/s) ≈ t
        for s in (12, 48, 96):
            for t in (0.4, 0.6, 0.8):
                b = lsh.n_bands(s, t)
                approx_t = (1.0 / b) ** (b / s)
                assert approx_t == pytest.approx(t, abs=0.15)

    def test_higher_threshold_fewer_bands(self):
        assert lsh.n_bands(48, 0.8) <= lsh.n_bands(48, 0.4)

    def test_clamped_to_signature(self):
        assert 1 <= lsh.n_bands(2, 0.1) <= 2

    @pytest.mark.parametrize("bad_t", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_threshold(self, bad_t):
        with pytest.raises(ValueError):
            lsh.n_bands(10, bad_t)

    def test_rejects_bad_len(self):
        with pytest.raises(ValueError):
            lsh.n_bands(0, 0.5)


def _cell(lat, lon):
    return int(cells.encode(np.array([lat]), np.array([lon]), 12)[0])


def _stats(rec_e, rec_i, cfg):
    """Corpus statistics over 15-minute windows with ``cfg``'s signatures."""
    signature = lsh.signatures(level=cfg.level, window_sec=900, step=cfg.step)
    return histories.corpus_stats(rec_e, rec_i, level=12, window_sec=900, signature=signature)


def _candidates(rec_e, rec_i, cfg):
    """``lsh_candidates`` over 15-minute windows."""
    return lsh.lsh_candidates(rec_e.sparkSession, _stats(rec_e, rec_i, cfg), window_sec=900, cfg=cfg)


RECORDS = "entity long, ts long, lat double, lon double"


@pytest.fixture(scope="module")
def sig_records(spark):
    """Records with a planted dominating cell per entity/query window."""
    rows = []
    # entity 0: cell around (0,0) dominates qw0 (3 records vs 1)
    rows += [(0, t, 0.0, 0.0) for t in (0, 100, 200)]
    rows += [(0, 300, 0.0, 0.5)]
    # entity 0, qw1 (ts >= 3600): only cell (0.5, 0.5)
    rows += [(0, 3700, 0.5, 0.5)]
    # entity 1: dominating (0,0) in qw0; nothing in qw1
    rows += [(1, 50, 0.0, 0.0), (1, 150, 0.0, 0.0), (1, 250, 0.2, 0.2)]
    # entity 2, qw0: two cells with two records each, the higher cell
    # id first; the lower cell id must win the tie
    tied = sorted([(0.0, 0.0), (0.3, 0.3)], key=lambda ll: -_cell(*ll))
    rows += [(2, t, *tied[k]) for t, k in ((10, 0), (20, 0), (30, 1), (40, 1))]
    pdf = pd.DataFrame(rows, columns=["entity", "ts", "lat", "lon"]).astype(
        {"entity": "int64", "ts": "int64"}
    )
    return spark.createDataFrame(pdf, RECORDS), pdf


class TestSignatures:
    def test_dominating_cell_planted(self, spark, sig_records):
        df, _ = sig_records
        # window 900 s, step 4 ⇒ query window 3600 s
        sigs = _stats(df, spark.createDataFrame([], RECORDS), lsh.LshConfig(level=12, step=4)).signatures
        c00, c55, c33 = _cell(0.0, 0.0), _cell(0.5, 0.5), _cell(0.3, 0.3)
        got = sigs.set_index(["entity", "qw"])["cell"]
        assert (sigs["side"] == "e").all()
        assert got[(0, 0)] == c00
        assert got[(0, 1)] == c55
        assert got[(1, 0)] == c00
        assert (1, 1) not in got.index  # placeholder = absent row
        assert c00 != c33
        assert got[(2, 0)] == min(c00, c33)  # tie: lowest cell id

    @pytest.mark.parametrize("instance", ["planted", "cab"])
    def test_oracle_dominating_cell(self, spark, sig_records, cab_records, instance):
        if instance == "planted":
            rec_e, _ = sig_records
            rec_i = rec_e.where("entity > 0")
        else:
            rec_e, rec_i = cab_records
        cfg = lsh.LshConfig(level=12, step=4)
        sigs = _stats(rec_e, rec_i, cfg).signatures
        tagged = pd.concat(
            [r.toPandas().assign(side=side) for side, r in zip(histories.SIDES, (rec_e, rec_i))], ignore_index=True
        )
        tagged = tagged.assign(
            qw=tagged["ts"] // 3600, cell=cells.encode(tagged["lat"].to_numpy(), tagged["lon"].to_numpy(), 12)
        )
        oracle.assert_equivalent(
            spark.createDataFrame(sigs),
            "SELECT side, entity, qw, cell FROM ("
            "  SELECT side, entity, qw, cell, row_number() OVER ("
            "    PARTITION BY side, entity, qw ORDER BY count(*) DESC, cell ASC"
            "  ) AS rn FROM rec GROUP BY side, entity, qw, cell"
            ") WHERE rn = 1",
            rec=tagged[["side", "entity", "qw", "cell"]],
        )

    def test_id_on_both_sides_two_entities(self, sig_records):
        # the same records on both sides: two signatures per id
        df, _ = sig_records
        sigs = _stats(df, df, lsh.LshConfig(level=12, step=4)).signatures
        e, i = (sigs[sigs["side"] == side].drop(columns="side").reset_index(drop=True) for side in histories.SIDES)
        assert len(e) == 4
        pd.testing.assert_frame_equal(e, i)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            lsh.signatures(level=12, window_sec=900, step=0)

    def test_candidates_need_signatures(self, cab_records):
        rec_e, rec_i = cab_records
        stats = histories.corpus_stats(rec_e, rec_i, level=12, window_sec=900)
        with pytest.raises(ValueError, match="no signatures"):
            lsh.lsh_candidates(rec_e.sparkSession, stats, window_sec=900, cfg=lsh.LshConfig())


def _spark_bucket(spark, contents, n_buckets):
    """Spark's ``pmod(xxhash64(array<struct<pos long, cell long>>), n_buckets)`` of each content."""
    df = spark.createDataFrame(
        [(k, [(int(p), int(c)) for p, c in content]) for k, content in enumerate(contents)],
        "k long, content array<struct<pos: long, cell: long>>",
    )
    got = df.select("k", F.pmod(F.xxhash64("content"), F.lit(n_buckets)).alias("bucket")).toPandas()
    return got.sort_values("k")["bucket"].to_numpy()


class TestBucketHash:
    @pytest.mark.parametrize("n_buckets", [1, 7, 64, 4096, 1 << 20, 2**31 - 1])
    def test_equals_spark_xxhash64(self, spark, n_buckets):
        g = np.random.default_rng(n_buckets)
        scales = [10, 2**40, 2**62]
        contents = [
            [(int(g.integers(-s, s)), int(g.integers(-s, s))) for _ in range(int(g.integers(1, 9)))]
            for s in (scales[k % 3] for k in range(300))
        ]
        contents += [[(0, 0)], [(-1, -1)], [(2**40, -(2**40)), (2**63 - 1, -(2**63))]]
        start = np.cumsum([0] + [len(c) for c in contents[:-1]])
        pos, cell = (np.array([entry[f] for c in contents for entry in c], dtype=np.int64) for f in (0, 1))
        got = lsh.bucket_hash(start, pos, cell, n_buckets=n_buckets)
        np.testing.assert_array_equal(got, _spark_bucket(spark, contents, n_buckets))

    def test_no_groups(self):
        empty = np.array([], dtype=np.int64)
        assert lsh.bucket_hash(empty, empty, empty, n_buckets=16).size == 0


def _sigs(entity, qw, cell, side="e"):
    return pd.DataFrame({"side": side, "entity": entity, "qw": qw, "cell": cell}).astype(
        {"entity": "int64", "qw": "int64", "cell": "int64"}
    )


def _spark_band_buckets(spark, sigs, *, qw_min, r, n_buckets):
    """The Spark band hashing ``lsh.band_buckets`` replaced: ``(side, entity, band, bucket)``."""
    sig = (
        spark.createDataFrame(sigs, "side string, entity long, qw long, cell long")
        .select("side", "entity", (F.col("qw") - F.lit(int(qw_min))).alias("pos"), "cell")
        .withColumn("band", (F.col("pos") / F.lit(int(r))).cast("long"))
    )
    return (
        sig.groupBy("side", "entity", "band")
        .agg(F.sort_array(F.collect_list(F.struct("pos", "cell"))).alias("content"))
        .select("side", "entity", "band", F.pmod(F.xxhash64(F.col("content")), F.lit(int(n_buckets))).alias("bucket"))
    )


def _spark_pairs(spark, sigs, plan, n_buckets):
    """The Spark pairing ``lsh_candidates`` replaced: one ``groupBy(band,
    bucket)`` collects each side's entities and pairs them, then ``distinct``."""
    buckets = _spark_band_buckets(spark, sigs, qw_min=plan.qw_min, r=plan.rows_per_band, n_buckets=n_buckets)
    us, vs = (F.collect_list(F.when(F.col("side") == side, F.col("entity"))) for side in histories.SIDES)
    cand = (
        buckets.groupBy("band", "bucket")
        .agg(us.alias("us"), vs.alias("vs"))
        .select(F.explode("us").alias("u"), "vs")
        .select("u", F.explode("vs").alias("v"))
        .distinct()
    )
    return cand.toPandas().sort_values(["u", "v"], ignore_index=True)


class TestBandBuckets:
    def test_same_signature_same_bucket(self):
        sigs = _sigs([0, 1, 0, 1], [0, 0, 1, 1], [7, 7, 9, 9])
        bb = lsh.band_buckets(sigs, qw_min=0, r=2, n_buckets=1024)
        assert bb.groupby("band")["bucket"].nunique().eq(1).all()

    def test_different_content_usually_differs(self):
        bb = lsh.band_buckets(_sigs([0, 1], [0, 0], [7, 8]), qw_min=0, r=1, n_buckets=1 << 20)
        assert bb["bucket"].nunique() == 2

    def test_position_matters(self):
        # same cell at different query windows of the same band must
        # hash differently (positional signature)
        bb = lsh.band_buckets(_sigs([0, 1], [0, 1], [7, 7]), qw_min=0, r=2, n_buckets=1 << 20)
        assert bb["bucket"].nunique() == 2

    def test_side_not_hashed(self):
        sigs = pd.concat([_sigs([5], [3], [7], side="e"), _sigs([6], [3], [7], side="i")])
        bb = lsh.band_buckets(sigs, qw_min=0, r=2, n_buckets=1 << 20)
        assert bb["side"].tolist() == ["e", "i"] and bb["bucket"].nunique() == 1

    def test_all_placeholder_band_emits_nothing(self):
        # entity 0 has entries in band 0 only, entity 1 in band 2 only
        bb = lsh.band_buckets(_sigs([0, 0, 1], [0, 1, 5], [7, 8, 9]), qw_min=0, r=2, n_buckets=64)
        assert bb[["entity", "band"]].values.tolist() == [[0, 0], [1, 2]]

    def test_bucket_range(self):
        g = np.random.default_rng(0)
        sigs = _sigs(g.integers(0, 20, 200), g.integers(0, 10, 200), g.integers(0, 50, 200))
        bb = lsh.band_buckets(sigs.drop_duplicates(["entity", "qw"]), qw_min=0, r=3, n_buckets=16)
        assert bb["bucket"].between(0, 15).all()

    @pytest.mark.parametrize("r,n_buckets", [(1, 16), (2, 4096), (3, 1 << 20)])
    def test_equals_spark_band_hashing(self, spark, cab_records, r, n_buckets):
        rec_e, rec_i = cab_records
        sigs = _stats(rec_e, rec_i, lsh.LshConfig(level=14, step=1)).signatures
        qw_min = int(sigs["qw"].min())
        got = lsh.band_buckets(sigs, qw_min=qw_min, r=r, n_buckets=n_buckets)
        want = _spark_band_buckets(spark, sigs, qw_min=qw_min, r=r, n_buckets=n_buckets).toPandas()
        key = ["side", "entity", "band"]
        pd.testing.assert_frame_equal(
            got.sort_values(key, ignore_index=True), want.sort_values(key, ignore_index=True), check_dtype=False
        )


class TestPlan:
    def test_span_arithmetic(self):
        # 1-hour query windows: ts 3·3600 + 5 is in window 3, 9·3600 − 1 in 8
        p = lsh.plan((3 * 3600 + 5, 9 * 3600 - 1), window_sec=900, cfg=lsh.LshConfig(step=4, threshold=0.6))
        assert (p.signature_len, p.qw_min) == (6, 3)
        assert p.n_bands == lsh.n_bands(6, 0.6)
        assert p.rows_per_band == math.ceil(6 / p.n_bands)
        # a window index is floored, so ts −1 is in window −1
        p = lsh.plan((-1, 3600), window_sec=900, cfg=lsh.LshConfig(step=4))
        assert (p.signature_len, p.qw_min) == (3, -1)

    def test_no_span_empty_plan(self):
        assert lsh.plan(None, window_sec=900, cfg=lsh.LshConfig()) == lsh.LshPlan(0, 0, 0, 0)


class TestCandidates:
    def test_plan_and_candidates(self, cab_records):
        rec_e, rec_i = cab_records
        cfg = lsh.LshConfig(level=14, step=4, threshold=0.6, n_buckets=4096)
        stats = _stats(rec_e, rec_i, cfg)
        cand, plan = lsh.lsh_candidates(rec_e.sparkSession, stats, window_sec=900, cfg=cfg)
        cpdf = cand.toPandas()
        # 6 h of data, query window = 1 h ⇒ signature length 6
        assert plan.signature_len == 6
        assert 1 <= plan.n_bands <= plan.signature_len
        assert plan.rows_per_band == math.ceil(
            plan.signature_len / plan.n_bands
        )
        assert len(cpdf) == len(cpdf.drop_duplicates())
        assert cand.rdd.getNumPartitions() == 1
        # the plan's span is the query windows the signatures hold
        qw = stats.signatures["qw"]
        assert (plan.qw_min, plan.qw_min + plan.signature_len - 1) == (qw.min(), qw.max())

    def test_no_records_empty_plan(self, spark, cab_records):
        rec_e, _ = cab_records
        none = spark.createDataFrame([], rec_e.schema)
        cand, plan = _candidates(none, none, lsh.LshConfig())
        assert plan == lsh.LshPlan(signature_len=0, n_bands=0, rows_per_band=0, qw_min=0)
        assert cand.columns == ["u", "v"]
        assert cand.count() == 0

    def test_candidates_subset_of_all_pairs(self, cab_records):
        rec_e, rec_i = cab_records
        cfg = lsh.LshConfig(level=14, step=4)
        cand, _ = _candidates(rec_e, rec_i, cfg)
        ue = {r[0] for r in rec_e.select("entity").distinct().collect()}
        ui = {r[0] for r in rec_i.select("entity").distinct().collect()}
        cpdf = cand.toPandas()
        assert set(cpdf["u"]).issubset(ue)
        assert set(cpdf["v"]).issubset(ui)
        assert len(cpdf) <= len(ue) * len(ui)

    def test_true_pair_retention(self, cab_records, cab_pair):
        # candidate recall over ground truth should be high at a
        # permissive threshold
        rec_e, rec_i = cab_records
        cfg = lsh.LshConfig(level=12, step=4, threshold=0.4)
        cand, _ = _candidates(rec_e, rec_i, cfg)
        got = set(map(tuple, cand.toPandas()[["u", "v"]].to_numpy()))
        truth = set(map(tuple, cab_pair.truth[["u", "v"]].to_numpy()))
        recall = len(got & truth) / len(truth)
        # tiny 6-hour instance: dominating-cell ties flip easily, the
        # bench-scale sweep (E5) is where retention is measured properly
        assert recall >= 0.5

    def test_more_buckets_fewer_or_equal_candidates(self, cab_records):
        rec_e, rec_i = cab_records
        n = []
        for nb in (16, 4096):
            cfg = lsh.LshConfig(level=14, step=4, n_buckets=nb)
            cand, _ = _candidates(rec_e, rec_i, cfg)
            n.append(cand.count())
        assert n[1] <= n[0]

    def test_lower_threshold_more_candidates(self, cab_records):
        rec_e, rec_i = cab_records
        counts = {}
        for t in (0.3, 0.9):
            cfg = lsh.LshConfig(level=14, step=2, threshold=t, n_buckets=1 << 20)
            cand, plan = _candidates(rec_e, rec_i, cfg)
            counts[t] = cand.count()
        assert counts[0.3] >= counts[0.9]


def _sorted_pairs(cand):
    return cand.toPandas().sort_values(["u", "v"]).reset_index(drop=True)


def _checked_candidates(rec_e, rec_i, cfg):
    """``lsh_candidates``' pairs and plan, after checking the pairs against
    the Spark banding and ``groupBy(band, bucket)`` pairing over the same
    signatures."""
    stats = _stats(rec_e, rec_i, cfg)
    cand, plan = lsh.lsh_candidates(rec_e.sparkSession, stats, window_sec=900, cfg=cfg)
    got = _sorted_pairs(cand)
    want = _spark_pairs(rec_e.sparkSession, stats.signatures, plan, cfg.n_buckets)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    return got, plan


def _hand_built(spark, e_cells, i_cells):
    """Records with one record per 15-minute window, at the given cells
    (a degree apart, so each is its own level-12 cell); ``None`` is a
    window without records."""

    def rows(by_entity):
        return [
            (entity, 900 * w + 60, float(c), float(c))
            for entity, cells_by_window in by_entity.items()
            for w, c in enumerate(cells_by_window)
            if c is not None
        ]

    return (spark.createDataFrame(rows(by_entity), RECORDS) for by_entity in (e_cells, i_cells))


# four 15-minute query windows in two bands of two
HAND_CFG = lsh.LshConfig(level=12, step=1, threshold=0.7, n_buckets=1 << 20)


class TestCandidatesOracle:
    def test_pairs_sharing_a_bucket(self, cab_records):
        rec_e, rec_i = cab_records
        got = {}
        for n_buckets in (16, 4096):
            got[n_buckets], _ = _checked_candidates(rec_e, rec_i, lsh.LshConfig(level=14, step=4, n_buckets=n_buckets))
        # at 16 buckets unrelated bands collide and pair more entities
        assert len(got[16]) > len(got[4096]) > 0

    def test_hand_built(self, spark):
        # I entity 1 shares no band with E entity 1, whose id it has
        rec_e, rec_i = _hand_built(
            spark,
            {1: [0, 0, 1, 1], 3: [0, 0, 3, 3], 4: [2, 2, 4, 4]},
            {1: [2, 2, 5, 5], 2: [0, 0, 1, 1]},
        )
        got, plan = _checked_candidates(rec_e, rec_i, HAND_CFG)
        assert (plan.signature_len, plan.n_bands, plan.rows_per_band) == (4, 2, 2)
        # (1, 2) shares both bands and occurs once; (3, 2) and (4, 1)
        # share the first band; (1, 1) shares none
        assert got.values.tolist() == [[1, 2], [3, 2], [4, 1]]

    def test_all_placeholder_band_pairs_nothing(self, spark):
        # both entities have no records in the second band; they share no
        # first band, so an empty second band must not pair them
        rec_e, rec_i = _hand_built(spark, {1: [0, 0, None, None], 2: [6, 6, 6, 6]}, {7: [3, 3, None, None]})
        got, _ = _checked_candidates(rec_e, rec_i, HAND_CFG)
        assert got.empty

    def test_position_changes_bucket(self, spark):
        # the same cell in the other window of the band is another content
        rec_e, rec_i = _hand_built(spark, {1: [0, None, 6, 6]}, {2: [None, 0, 5, 5], 3: [0, None, 4, 4]})
        got, _ = _checked_candidates(rec_e, rec_i, HAND_CFG)
        assert got.values.tolist() == [[1, 3]]

    def test_side_not_hashed(self, spark):
        # equal bands on the two sides share a bucket under different ids
        rec_e, rec_i = _hand_built(spark, {1: [0, 0, 1, 1]}, {9: [0, 0, 1, 1]})
        got, _ = _checked_candidates(rec_e, rec_i, HAND_CFG)
        assert got.values.tolist() == [[1, 9]]

    def test_id_on_both_sides_two_entities(self, spark):
        # id 5 is on both sides; E 5 matches I 6 and I 5 matches E 4 only
        rec_e, rec_i = _hand_built(spark, {4: [2, 2, 3, 3], 5: [0, 0, 1, 1]}, {5: [2, 2, 3, 3], 6: [0, 0, 1, 1]})
        got, _ = _checked_candidates(rec_e, rec_i, HAND_CFG)
        assert got.values.tolist() == [[4, 5], [5, 6]]
