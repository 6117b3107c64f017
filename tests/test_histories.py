"""Tests for mobility-history construction — DuckDB oracle checks for
every query-shaped aggregation."""
import math

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import oracle
from repro.core import histories, lsh
from repro.grid import cells


@pytest.fixture(scope="module")
def tiny_records(spark):
    """Hand-sized records frame with known binning."""
    g = np.random.default_rng(11)
    n = 400
    pdf = pd.DataFrame(
        {
            "entity": g.integers(0, 8, n),
            "ts": g.integers(0, 6 * 3600, n),
            "lat": 37.7 + g.random(n) * 0.2,
            "lon": -122.5 + g.random(n) * 0.2,
        }
    ).astype({"entity": "int64", "ts": "int64"})
    return spark.createDataFrame(pdf).cache(), pdf


class TestBuildBins:
    def test_oracle_counts(self, tiny_records):
        df, pdf = tiny_records
        bins = histories.build_bins(df, level=12, window_sec=900)
        step = cells.cell_size_deg(12)
        pdf2 = pdf.copy()
        pdf2["window"] = pdf2["ts"] // 900
        pdf2["cell"] = cells.encode(pdf2["lat"].to_numpy(), pdf2["lon"].to_numpy(), 12)
        oracle.assert_equivalent(
            bins,
            'SELECT DISTINCT entity, "window", cell FROM rec',
            rec=pdf2[["entity", "window", "cell"]],
        )
        assert step > 0  # silence unused warning

    def test_distinct_bins(self, tiny_records):
        df, _ = tiny_records
        bins = histories.build_bins(df, level=12, window_sec=900)
        assert (
            bins.groupBy("entity", "window", "cell").count().where("count > 1").count()
            == 0
        )

    def test_total_records_preserved(self, tiny_records):
        # every record falls into a bin of its own entity
        df, pdf = tiny_records
        bins = histories.build_bins(df, level=12, window_sec=900)
        binned = df.select(
            "entity",
            F.floor(F.col("ts") / 900).alias("window"),
            cells.encode_col(F.col("lat"), F.col("lon"), 12).alias("cell"),
        )
        assert binned.join(bins, ["entity", "window", "cell"]).count() == len(pdf)

    def test_finer_level_no_fewer_bins(self, tiny_records):
        df, _ = tiny_records
        coarse = histories.build_bins(df, level=8, window_sec=900).count()
        fine = histories.build_bins(df, level=16, window_sec=900).count()
        assert fine >= coarse

    def test_wider_window_no_more_bins(self, tiny_records):
        df, _ = tiny_records
        narrow = histories.build_bins(df, level=12, window_sec=300).count()
        wide = histories.build_bins(df, level=12, window_sec=3600).count()
        assert wide <= narrow


def _totals(df):
    return histories.corpus_stats(df, df, level=12, window_sec=900).e


def _norm_factors(bins, totals, *, b):
    """``(entity, L)`` from each entity's history length |H_u|."""
    return bins.groupBy("entity").agg(histories.norm_factors(F.count(F.lit(1)), totals, b=b).alias("L"))


class TestCorpusStats:
    def test_totals_and_span(self, tiny_records):
        df, pdf = tiny_records
        stats = histories.corpus_stats(df, df.where("entity < 3"), level=12, window_sec=900)
        bins = histories.build_bins(df, level=12, window_sec=900)
        assert stats.e == histories.SideTotals(tuple(sorted(pdf["entity"].unique())), bins.count())
        assert stats.i == histories.SideTotals((0, 1, 2), bins.where("entity < 3").count())
        assert stats.ts_span == (pdf["ts"].min(), pdf["ts"].max())

    def test_empty_side(self, spark, tiny_records):
        df, _ = tiny_records
        none = spark.createDataFrame([], df.schema)
        stats = histories.corpus_stats(none, none, level=12, window_sec=900)
        assert stats == histories.CorpusStats(
            histories.SideTotals((), 0), histories.SideTotals((), 0), ts_span=None
        )

    def test_sorted_entities(self, tiny_records):
        df, pdf = tiny_records
        stats = histories.corpus_stats(df.where("entity > 2"), df.where("entity < 4"), level=12, window_sec=900)
        ids = sorted(pdf["entity"].unique())
        assert stats.e.entities == tuple(e for e in ids if e > 2)
        assert stats.i.entities == tuple(e for e in ids if e < 4)

    def test_two_jobs(self, spark_jobs, tiny_records):
        # one shuffle to per-entity rows, one collect of them
        df, _ = tiny_records
        assert spark_jobs(lambda: histories.corpus_stats(df, df, level=12, window_sec=900)) == 2

    @pytest.mark.parametrize("level,step", [(12, 1), (16, 4), (8, 48)])
    def test_signatures_leave_stats_unchanged(self, spark_jobs, cab_records, level, step):
        # the signature aggregate groups by query window, not by bin; the
        # bin count summed over query windows is the same, in 2 jobs
        rec_e, rec_i = cab_records
        signature = lsh.signatures(level=level, window_sec=900, step=step)
        got = []
        jobs = spark_jobs(
            lambda: got.append(histories.corpus_stats(rec_e, rec_i, level=12, window_sec=900, signature=signature))
        )
        want = histories.corpus_stats(rec_e, rec_i, level=12, window_sec=900)
        assert jobs == 2
        assert (got[0].e, got[0].i, got[0].ts_span) == (want.e, want.i, want.ts_span)
        assert want.signatures is None and len(got[0].signatures) > 0


class TestNormFactors:
    def test_oracle(self, tiny_records):
        df, pdf = tiny_records
        bins = histories.build_bins(df, level=12, window_sec=900)
        pdf2 = pdf.copy()
        pdf2["window"] = pdf2["ts"] // 900
        pdf2["cell"] = cells.encode(pdf2["lat"].to_numpy(), pdf2["lon"].to_numpy(), 12)
        oracle.assert_equivalent(
            _norm_factors(bins, _totals(df), b=0.5),
            'WITH h AS (SELECT entity, count(*) AS n_bins FROM '
            '(SELECT DISTINCT entity, "window", cell FROM rec) GROUP BY entity) '
            "SELECT entity, 0.5 + 0.5 * n_bins / (SELECT avg(n_bins) FROM h) AS L FROM h",
            rec=pdf2[["entity", "window", "cell"]],
        )

    def test_b_zero_is_identity(self, tiny_records):
        df, _ = tiny_records
        bins = histories.build_bins(df, level=12, window_sec=900)
        L = _norm_factors(bins, _totals(df), b=0.0).toPandas()
        assert np.allclose(L["L"], 1.0)

    def test_b_one_is_relative_size(self, tiny_records):
        df, _ = tiny_records
        bins = histories.build_bins(df, level=12, window_sec=900)
        sizes = bins.groupBy("entity").agg(F.count(F.lit(1)).alias("n_bins")).toPandas()
        L = (
            _norm_factors(bins, _totals(df), b=1.0)
            .toPandas()
            .merge(sizes, on="entity")
        )
        avg = sizes["n_bins"].mean()
        assert np.allclose(L["L"], L["n_bins"] / avg)

    def test_mean_is_one_at_any_b(self, tiny_records):
        # E[L] = (1-b) + b·E[|H|]/avg = 1
        df, _ = tiny_records
        bins = histories.build_bins(df, level=12, window_sec=900)
        for b in (0.25, 0.5, 0.75):
            L = _norm_factors(bins, _totals(df), b=b).toPandas()
            assert L["L"].mean() == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_rejects_bad_b(self, bad):
        with pytest.raises(ValueError):
            histories.norm_factors(F.lit(1), histories.SideTotals((0,), 1), b=bad)


class TestIdf:
    def test_oracle(self, tiny_records):
        df, pdf = tiny_records
        bins = histories.build_bins(df, level=12, window_sec=900)
        n_u = pdf["entity"].nunique()
        pdf2 = pdf.copy()
        pdf2["window"] = pdf2["ts"] // 900
        pdf2["cell"] = cells.encode(pdf2["lat"].to_numpy(), pdf2["lon"].to_numpy(), 12)
        oracle.assert_equivalent(
            histories.idf(bins, _totals(df)).select("window", "cell", "idf").distinct(),
            f'SELECT "window", cell, ln({n_u} / count(DISTINCT entity)) AS idf '
            'FROM rec GROUP BY "window", cell',
            rec=pdf2[["entity", "window", "cell"]],
        )

    def test_unique_bin_gets_max_idf(self, tiny_records):
        df, pdf = tiny_records
        bins = histories.build_bins(df, level=12, window_sec=900)
        n_u = pdf["entity"].nunique()
        vals = histories.idf(bins, _totals(df)).select("window", "cell", "idf").distinct().toPandas()["idf"]
        assert vals.max() <= math.log(n_u) + 1e-9
        assert vals.min() >= 0.0

    def test_everyone_bin_zero_idf(self, spark):
        # all entities in the same bin ⇒ idf = log(1) = 0
        pdf = pd.DataFrame(
            {"entity": [0, 1, 2], "ts": [0, 1, 2], "lat": [0.0] * 3, "lon": [0.0] * 3}
        )
        df = spark.createDataFrame(pdf)
        bins = histories.build_bins(df, level=12, window_sec=900)
        vals = histories.idf(bins, _totals(df)).select("window", "cell", "idf").distinct().toPandas()
        assert len(vals) == 1 and vals["idf"].iloc[0] == pytest.approx(0.0)


class TestComparisonCounts:
    def test_all_pairs_closed_form(self, tiny_records, spark):
        df, pdf = tiny_records
        bins = histories.build_bins(df, level=12, window_sec=900).cache()
        total = histories.comparison_count_all_pairs(bins, bins)
        # closed form equals per-window (Σ bins)²
        bp = bins.groupBy("window").count().toPandas()
        assert total == int((bp["count"] ** 2).sum())

    def test_candidate_count_matches_all_pairs_when_cross(self, tiny_records):
        df, _ = tiny_records
        bins = histories.build_bins(df, level=12, window_sec=900).cache()
        counts = histories.window_bin_counts(bins).toPandas()
        ents = counts["entity"].unique()
        pairs = pd.DataFrame([(u, v) for u in ents for v in ents], columns=["u", "v"])
        assert histories.comparison_count_candidates(
            counts, counts, pairs
        ) == histories.comparison_count_all_pairs(bins, bins)

    def test_candidate_subset_fewer(self, tiny_records):
        df, _ = tiny_records
        bins = histories.build_bins(df, level=12, window_sec=900).cache()
        counts = histories.window_bin_counts(bins).toPandas()
        ents = sorted(counts["entity"].unique())
        pairs = pd.DataFrame({"u": [ents[0]], "v": [ents[1]]})
        sub = histories.comparison_count_candidates(counts, counts, pairs)
        assert 0 < sub < histories.comparison_count_all_pairs(bins, bins)

    def test_oracle_window_bin_counts(self, tiny_records):
        df, pdf = tiny_records
        bins = histories.build_bins(df, level=12, window_sec=900)
        pdf2 = pdf.copy()
        pdf2["window"] = pdf2["ts"] // 900
        pdf2["cell"] = cells.encode(pdf2["lat"].to_numpy(), pdf2["lon"].to_numpy(), 12)
        oracle.assert_equivalent(
            histories.window_bin_counts(bins),
            'SELECT entity, "window", count(*) AS n_bins_w FROM '
            '(SELECT DISTINCT entity, "window", cell FROM rec) GROUP BY entity, "window"',
            rec=pdf2[["entity", "window", "cell"]],
        )
