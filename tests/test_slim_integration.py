"""End-to-end integration tests of the SLIM pipeline."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.gm import run_gm
from repro.baselines.stlink import run_stlink
from repro.core import histories, lsh, metrics
from repro.core.lsh import LshConfig
from repro.core.slim import SlimConfig, run_slim

# coarse signature cells: on a 6-hour instance dominating cells at
# fine levels are tie-unstable (the bench-scale E5 sweep covers that)
CAB_LSH = SlimConfig(use_lsh=True, lsh=LshConfig(level=10, step=1, threshold=0.3))
MODES = {"lsh": CAB_LSH, "bf": SlimConfig(use_lsh=False)}


@pytest.fixture(scope="module")
def cab_bf(cab_records):
    rec_e, rec_i = cab_records
    return run_slim(rec_e, rec_i, SlimConfig(use_lsh=False))


@pytest.fixture(scope="module")
def cab_lsh(cab_records):
    rec_e, rec_i = cab_records
    return run_slim(rec_e, rec_i, CAB_LSH)


class TestBruteForceCab:
    def test_perfect_linkage_at_defaults(self, cab_bf, cab_pair):
        prf = metrics.evaluate_links(cab_bf.links, cab_pair.truth)
        assert prf.f1 == 1.0

    def test_links_one_to_one(self, cab_bf):
        assert cab_bf.links["u"].is_unique
        assert cab_bf.links["v"].is_unique

    def test_candidates_are_all_pairs(self, cab_bf, cab_pair):
        n_e = cab_pair.e_records["entity"].nunique()
        n_i = cab_pair.i_records["entity"].nunique()
        assert cab_bf.n_candidates == n_e * n_i

    def test_threshold_fitted(self, cab_bf):
        assert cab_bf.threshold is not None
        assert np.isfinite(cab_bf.threshold.threshold)
        assert cab_bf.threshold.bimodal
        g = cab_bf.threshold.gmm
        assert g.mu[1] >= g.mu[0]

    def test_links_above_threshold(self, cab_bf):
        assert (cab_bf.links["score"] > cab_bf.threshold.threshold).all()

    def test_matched_superset_of_links(self, cab_bf):
        matched = set(zip(cab_bf.matched["u"], cab_bf.matched["v"]))
        links = set(zip(cab_bf.links["u"], cab_bf.links["v"]))
        assert links <= matched

    def test_instrumentation_positive(self, cab_bf):
        assert cab_bf.n_comparisons > 0
        assert cab_bf.n_alibi_pairs > 0  # distant taxis in shared windows
        assert cab_bf.runtime_sec > 0
        assert cab_bf.lsh_plan is None

    def test_scores_schema(self, cab_bf):
        assert list(cab_bf.scores.columns) == [
            "u",
            "v",
            "score",
            "n_pairs",
            "n_alibi",
            "n_comp",
        ]


class TestLshCab:
    def test_lsh_reduces_candidates_and_comparisons(self, cab_bf, cab_lsh):
        assert cab_lsh.n_candidates < cab_bf.n_candidates
        assert cab_lsh.n_comparisons < cab_bf.n_comparisons

    def test_lsh_precision_no_worse(self, cab_bf, cab_lsh, cab_pair):
        # pruning can lose recall but should not hurt precision
        p_bf = metrics.evaluate_links(cab_bf.links, cab_pair.truth).precision
        p_lsh = metrics.evaluate_links(cab_lsh.links, cab_pair.truth).precision
        assert p_lsh >= p_bf - 0.2

    def test_lsh_links_subset_quality(self, cab_lsh, cab_pair):
        prf = metrics.evaluate_links(cab_lsh.links, cab_pair.truth)
        assert prf.f1 >= 0.5  # slight recall loss allowed (paper Sec 5.3)

    def test_plan_reported(self, cab_lsh):
        assert cab_lsh.lsh_plan is not None
        assert cab_lsh.lsh_plan.signature_len >= 1

    def test_lsh_scores_only_candidates(self, cab_lsh):
        assert len(cab_lsh.scores) <= cab_lsh.n_candidates

    def test_comparisons_equal_closed_form_count(self, cab_records, cab_lsh):
        # E5 reports run_slim's count and E6 the closed-form count over
        # the same LSH candidates; they must be one number
        rec_e, rec_i = cab_records
        cfg = CAB_LSH
        signature = lsh.signatures(level=cfg.lsh.level, window_sec=cfg.window_sec, step=cfg.lsh.step)
        stats = histories.corpus_stats(
            rec_e, rec_i, level=cfg.level, window_sec=cfg.window_sec, signature=signature
        )
        pairs, _ = lsh.candidate_pairs(stats, window_sec=cfg.window_sec, cfg=cfg.lsh)
        counts_e, counts_i = (
            histories.window_bin_counts(histories.build_bins(r, level=cfg.level, window_sec=cfg.window_sec)).toPandas()
            for r in (rec_e, rec_i)
        )
        assert cab_lsh.n_comparisons > 0
        assert cab_lsh.n_comparisons == histories.comparison_count_candidates(counts_e, counts_i, pairs)


class TestSmDataset:
    def test_sparse_checkins_linkable(self, sm_records, sm_pair):
        rec_e, rec_i = sm_records
        res = run_slim(rec_e, rec_i, SlimConfig(use_lsh=False))
        prf = metrics.evaluate_links(res.links, sm_pair.truth)
        # sparse regime: the paper reports F1 ≈ 0.75 at ~10 records and
        # >0.9 at ≥15; our default SM density sits in between
        assert prf.f1 >= 0.6

    def test_config_knobs(self):
        cfg = SlimConfig(window_min=15)
        assert cfg.window_sec == 900
        assert cfg.use_lsh is True


class TestFewMatches:
    def test_no_threshold_below_four_matches(self, small_cab_records):
        # below gmm.MIN_FIT_WEIGHTS matched pairs no mixture is fitted
        rec_e, rec_i = small_cab_records
        res = run_slim(rec_e, rec_i, CAB_LSH)
        assert 1 <= len(res.matched) < 4
        assert res.threshold.threshold == -np.inf
        pd.testing.assert_frame_equal(res.links, res.matched)


class TestAblationDirections:
    """Cheap directional checks of the ablation switches (full sweep: E7)."""

    def test_no_norm_changes_scores(self, cab_records):
        rec_e, rec_i = cab_records
        a = run_slim(rec_e, rec_i, SlimConfig(use_lsh=False))
        b = run_slim(rec_e, rec_i, SlimConfig(use_lsh=False, use_norm=False))
        sa = a.scores.set_index(["u", "v"])["score"]
        sb = b.scores.set_index(["u", "v"])["score"]
        common = sa.index.intersection(sb.index)
        assert not np.allclose(sa[common], sb[common])

    def test_all_pairs_more_comparisons_counted_same(self, cab_records):
        rec_e, rec_i = cab_records
        mnn = run_slim(rec_e, rec_i, SlimConfig(use_lsh=False))
        allp = run_slim(rec_e, rec_i, SlimConfig(use_lsh=False, pairing="all"))
        # n_comp counts examined pairs — identical join either way
        assert mnn.n_comparisons == allp.n_comparisons
        # but all-pairs includes every pair in the aggregation
        assert allp.scores["n_pairs"].sum() > mnn.scores["n_pairs"].sum()

    def test_mnn_only_drops_alibi_pairs(self, cab_records, cab_bf):
        # MFN only adds alibi pairs, whose proximity is negative and idf
        # >= 0, to the MNN pairs; fsum rounds exactly, so every default
        # score is at most its MNN-only score
        rec_e, rec_i = cab_records
        mnn = run_slim(rec_e, rec_i, SlimConfig(use_lsh=False, pairing="mnn"))
        a, b = _sorted(cab_bf.scores), _sorted(mnn.scores)
        pd.testing.assert_frame_equal(a[["u", "v", "n_comp"]], b[["u", "v", "n_comp"]])
        assert (b["score"] >= a["score"]).all()
        assert (b["n_alibi"] <= a["n_alibi"]).all()
        assert (b["n_pairs"] <= a["n_pairs"]).all()
        assert (b["score"] != a["score"]).any()


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(["u", "v"]).reset_index(drop=True)


class TestEmptySides:
    """An empty side links nothing: no candidates, no threshold."""

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("empty", ["e", "i", "both"])
    def test_empty_result(self, spark, cab_records, mode, empty):
        rec_e, rec_i = cab_records
        none = spark.createDataFrame([], rec_e.schema)
        res = run_slim(
            none if empty in ("e", "both") else rec_e,
            none if empty in ("i", "both") else rec_i,
            MODES[mode],
        )
        assert res.links.empty and res.matched.empty and res.scores.empty
        assert res.n_candidates == 0
        assert res.n_comparisons == 0
        assert res.threshold.threshold == -np.inf
        if mode == "lsh" and empty == "both":
            assert res.lsh_plan.signature_len == 0


@pytest.fixture(scope="module")
def sm_runs(sm_records):
    rec_e, rec_i = sm_records
    return {mode: run_slim(rec_e, rec_i, MODES[mode]) for mode in sorted(MODES)}


@pytest.fixture(scope="module")
def references(cab_bf, cab_lsh, sm_runs):
    """The runs at the session's settings: what every layout must give."""
    return {("cab", "bf"): cab_bf, ("cab", "lsh"): cab_lsh, **{("sm", m): r for m, r in sm_runs.items()}}


def _assert_same(got, ref):
    pd.testing.assert_frame_equal(_sorted(got.scores), _sorted(ref.scores), check_exact=True)
    pd.testing.assert_frame_equal(_sorted(got.links), _sorted(ref.links), check_exact=True)


class TestPartitionInvariance:
    """Scores and links depend on the records, not on how Spark lays them out."""

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("n", [3, 5])
    def test_input_repartition(self, cab_records, references, mode, n):
        rec_e, rec_i = cab_records
        got = run_slim(rec_e.repartition(n), rec_i.repartition(n), MODES[mode])
        _assert_same(got, references["cab", mode])

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_shuffle_partitions(self, spark, cab_records, sm_records, references, mode, n):
        # the shuffle partitions decide which pair rows share a kernel batch
        key = "spark.sql.shuffle.partitions"
        before = spark.conf.get(key)
        spark.conf.set(key, str(n))
        try:
            got = {
                dataset: run_slim(*records, MODES[mode])
                for dataset, records in (("cab", cab_records), ("sm", sm_records))
            }
        finally:
            spark.conf.set(key, before)
        for dataset, res in got.items():
            _assert_same(res, references[dataset, mode])


def _swapped(df: pd.DataFrame) -> pd.DataFrame:
    """``df`` with its u and v columns exchanged."""
    return df.rename(columns={"u": "v", "v": "u"})[list(df.columns)]


class TestSwapSides:
    """Linking I to E gives every pair the row that linking E to I gives it."""

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("dataset", ["cab", "sm"])
    def test_swap(self, cab_records, sm_records, references, dataset, mode):
        rec_e, rec_i = {"cab": cab_records, "sm": sm_records}[dataset]
        ref = references[dataset, mode]
        got = run_slim(rec_i, rec_e, MODES[mode])
        assert len(ref.scores) > 0
        pd.testing.assert_frame_equal(_sorted(_swapped(got.scores)), _sorted(ref.scores), check_exact=True)
        pd.testing.assert_frame_equal(_sorted(_swapped(got.links)), _sorted(ref.links), check_exact=True)
        assert got.threshold.threshold == ref.threshold.threshold
        assert (got.n_candidates, got.n_comparisons, got.n_alibi_pairs) == (
            ref.n_candidates,
            ref.n_comparisons,
            ref.n_alibi_pairs,
        )


class TestDegenerateInstances:
    def test_zero_lsh_candidates(self, cab_records):
        # the I side 20° north shares no dominating cell with E
        rec_e, rec_i = cab_records
        res = run_slim(rec_e, rec_i.withColumn("lat", F.col("lat") + 20.0), CAB_LSH)
        assert res.lsh_plan.signature_len >= 1
        assert res.n_candidates == 0
        assert res.scores.empty and res.matched.empty and res.links.empty
        assert (res.n_comparisons, res.n_alibi_pairs) == (0, 0)
        assert res.threshold.threshold == -np.inf

    def test_pair_sharing_no_window_counts_but_scores_nothing(self, spark):
        # E 0 and 1 and I 10 share the first window; I 11 is alone in a
        # later one, so (0, 11) and (1, 11) share no window
        schema = "entity long, ts long, lat double, lon double"
        rec_e = spark.createDataFrame([(0, 0, 0.0, 0.0), (1, 0, 0.0, 0.01)], schema)
        rec_i = spark.createDataFrame([(10, 0, 0.0, 0.0), (11, 5_000, 0.0, 0.0)], schema)
        res = run_slim(rec_e, rec_i, SlimConfig(use_lsh=False))
        assert res.n_candidates == 4
        assert sorted(zip(res.scores["u"], res.scores["v"])) == [(0, 10), (1, 10)]
        assert (res.scores["n_comp"] > 0).all()

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_single_window(self, cab_records, mode):
        # every record in the first 15-minute window of the instance
        rec_e, rec_i = cab_records
        t0 = rec_e.unionAll(rec_i).agg(F.min("ts")).collect()[0][0] // 900 * 900
        one_e, one_i = (r.where(F.col("ts") < t0 + 900) for r in (rec_e, rec_i))
        res = run_slim(one_e, one_i, MODES[mode])
        bins_e, bins_i = (histories.build_bins(r, level=12, window_sec=900) for r in (one_e, one_i))
        if mode == "lsh":
            assert res.lsh_plan.signature_len == 1
        else:
            n_e, n_i = (b.select("entity").distinct().count() for b in (bins_e, bins_i))
            assert res.n_candidates == n_e * n_i
            assert res.n_comparisons == histories.comparison_count_all_pairs(bins_e, bins_i)
        assert len(res.scores) == res.n_candidates
        assert res.links["u"].is_unique and res.links["v"].is_unique
        assert (res.links["score"] > res.threshold.threshold).all()

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_all_equal_scores(self, spark, mode):
        # k twin pairs, each one shared bin of one window; the twin pairs
        # sit 1° of latitude apart, so any cross pair is an alibi. Every
        # matched score is then log(k) (idf, L = 1) and the GMM has
        # nothing to separate: no threshold, every match is a link.
        k = 5
        rows = [(t, 1_000, float(t), 0.0) for t in range(k)]
        schema = "entity long, ts long, lat double, lon double"
        rec_e = spark.createDataFrame(rows, schema)
        rec_i = spark.createDataFrame([(10 + t, *rest) for t, *rest in rows], schema)
        res = run_slim(rec_e, rec_i, MODES[mode])
        assert sorted(zip(res.matched["u"], res.matched["v"])) == [(t, 10 + t) for t in range(k)]
        assert res.matched["score"].nunique() == 1
        assert res.threshold.threshold == -np.inf
        pd.testing.assert_frame_equal(res.links, res.matched)
        assert res.threshold.separation == 0
        assert np.isnan(res.threshold.expected_f1)
        assert not res.threshold.bimodal


class TestInputContract:
    """run_slim rejects records it cannot bin, with a clear error."""

    @pytest.fixture(scope="class")
    def few(self, spark, small_cab_pair):
        return small_cab_pair.e_records.head(20), small_cab_pair.i_records.head(20)

    def test_float_ts_rejected_without_a_job(self, spark, spark_jobs, few):
        e, i = (spark.createDataFrame(pdf) for pdf in few)

        def call():
            with pytest.raises(ValueError, match="records_i: ts must have an integer type"):
                run_slim(e, i.withColumn("ts", F.col("ts").cast("double")), SlimConfig(use_lsh=False))

        assert spark_jobs(call) == 0

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("entity", None, "a null entity, ts, lat or lon"),
            ("ts", None, "a null entity, ts, lat or lon"),
            ("lat", None, "a null entity, ts, lat or lon"),
            ("lon", None, "a null entity, ts, lat or lon"),
            ("lat", 90.5, r"a lat outside \[-90, 90\]"),
            ("lat", -91.0, r"a lat outside \[-90, 90\]"),
            ("lat", float("nan"), r"a lat outside \[-90, 90\]"),
            ("lon", 180.5, r"a lon outside \[-180, 180\]"),
            ("lon", -181.0, r"a lon outside \[-180, 180\]"),
        ],
    )
    @pytest.mark.parametrize("side", ["e", "i"])
    def test_bad_record_rejected(self, spark, few, side, column, value, message):
        recs = {s: spark.createDataFrame(pdf) for s, pdf in zip("ei", few)}
        row = few["ei".index(side)].iloc[3]
        hit = (F.col("entity") == int(row["entity"])) & (F.col("ts") == int(row["ts"]))
        bad = F.lit(value).cast(recs[side].schema[column].dataType)
        recs[side] = recs[side].withColumn(column, F.when(hit, bad).otherwise(F.col(column)))
        with pytest.raises(ValueError, match=f"1 records_{side} rows have {message}"):
            run_slim(recs["e"], recs["i"], SlimConfig(use_lsh=False))

    @pytest.mark.parametrize(
        "config, kwargs, message",
        [
            (SlimConfig, {"window_min": 0.001}, r"window \(0 s\) and alpha"),
            (SlimConfig, {"window_min": -15.0}, r"window \(-900 s\) and alpha"),
            (SlimConfig, {"alpha_m_per_sec": 0.0}, r"alpha \(0.0 m/s\) must be positive"),
            (SlimConfig, {"b": 1.5}, r"b must be in \[0, 1\]"),
            (SlimConfig, {"b": -0.1}, r"b must be in \[0, 1\]"),
            (SlimConfig, {"pairing": "bogus"}, r"pairing must be one of \('mnn_mfn', 'mnn', 'all'\), got 'bogus'"),
            (SlimConfig, {"level": 25}, r"level must be in \[0, 24\], got 25"),
            (SlimConfig, {"level": -1}, r"level must be in \[0, 24\], got -1"),
            (LshConfig, {"step": 0}, r"step \(0\) and n_buckets \(4096\) must be >= 1"),
            (LshConfig, {"n_buckets": 0}, r"step \(48\) and n_buckets \(0\) must be >= 1"),
            (LshConfig, {"threshold": 0.0}, r"threshold must be in \(0, 1\)"),
            (LshConfig, {"threshold": 1.0}, r"threshold must be in \(0, 1\)"),
            (LshConfig, {"level": 25}, r"level must be in \[0, 24\], got 25"),
        ],
    )
    def test_bad_config_rejected_before_any_job(self, config, kwargs, message):
        # the config itself refuses the value, so run_slim never starts
        # the statistics job that used to fail inside Spark
        with pytest.raises(ValueError, match=message):
            config(**kwargs)


# Spark jobs of one warm run_slim call on the Cab test instance,
# measured with 1, 2 and 4 cores. The corpus statistics take 2 (one
# shuffle to per-entity rows, one collect), and they hold both sides'
# entity ids and, under LSH, their signatures. The driver bands the
# signatures and pairs the entities of each (band, bucket); brute force
# crosses the collected ids. Either way the candidates are a
# one-partition relation that reads no records or bins. The only other
# action collects the scores: one row per candidate pair, which also
# counts the candidates. A re-added eager action, a Spark stage over the
# records for the signatures or the banding, a second per-side
# pipeline, an entity `distinct` over the bins, a shuffle of the bin
# pairs or a post-kernel join raises the count.
JOB_BUDGET = {"lsh": 9, "bf": 9}


def _warm_call_jobs(spark_jobs, call) -> int:
    """Spark jobs of one ``call()`` after a warm-up call."""
    call()  # warm-up
    return spark_jobs(call)


class TestJobBudget:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_warm_call_jobs(self, spark_jobs, cab_records, mode):
        rec_e, rec_i = cab_records
        jobs = _warm_call_jobs(spark_jobs, lambda: run_slim(rec_e, rec_i, MODES[mode]))
        assert 0 < jobs <= JOB_BUDGET[mode]


# Spark jobs of one warm baseline call on the Cab test instance,
# measured with 1, 2 and 4 cores. ST-Link counts k, l and alibis in one
# within-window join, and GM reads its I-side record count from the
# dense table; a re-join of the co-occurring pairs or a separate record
# count raises the count.
BASELINE_JOB_BUDGET = {"stlink": 11, "gm": 14}
BASELINES = {"stlink": run_stlink, "gm": run_gm}


class TestBaselineJobBudget:
    @pytest.mark.parametrize("algo", sorted(BASELINES))
    def test_warm_call_jobs(self, spark_jobs, cab_records, algo):
        rec_e, rec_i = cab_records
        jobs = _warm_call_jobs(spark_jobs, lambda: BASELINES[algo](rec_e, rec_i, SlimConfig()))
        assert 0 < jobs <= BASELINE_JOB_BUDGET[algo]
