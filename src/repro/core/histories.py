"""Mobility histories: records → time-location bins (paper Sec 2.3).

A *mobility history* distributes an entity's records over
(temporal-window × spatial-cell) bins. The paper stores histories as a
temporal tree whose leaves hold cell-id sets and whose inner nodes hold
per-subtree cell counts; in a DataFrame engine the leaf level is the
``groupBy(entity, window, cell)`` relation below, and every inner tree
level is the same relation re-aggregated at a coarser window — see
:mod:`repro.core.lsh` for the dominating-cell queries that use it.

All functions but the two comparison counts return DataFrames so
Catalyst plans the whole pipeline; nothing else here runs a Spark
action.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.grid import cells


def build_bins(records: DataFrame, *, level: int, window_sec: int) -> DataFrame:
    """Bin records into the history leaf relation.

    Input schema ``(entity, ts, lat, lon)``; output
    ``(entity, window, cell, n_rec)`` with one row per occupied
    time-location bin and ``n_rec`` the number of records in it. The
    *set* semantics of the paper's leaves is the distinct (window,
    cell); counts ride along because the LSH dominating-cell queries
    need them.
    """
    return (
        records.select(
            "entity",
            F.floor(F.col("ts") / F.lit(int(window_sec))).alias("window"),
            cells.encode_col(F.col("lat"), F.col("lon"), level).alias("cell"),
        )
        .groupBy("entity", "window", "cell")
        .agg(F.count(F.lit(1)).alias("n_rec"))
    )


def _with_totals(bins: DataFrame) -> DataFrame:
    """``bins`` with the side's totals ``n_entities`` (|U|) and ``n_bins_all``.

    The totals are one one-row aggregate, attached to every bin row by a
    crossJoin. A relation that already carries them (the output of
    :func:`idf` or :func:`norm_factors`) is returned as it is, so
    ``norm_factors(idf(bins))`` aggregates each side once.
    """
    if "n_entities" in bins.columns:
        return bins
    totals = bins.agg(
        F.countDistinct("entity").alias("n_entities"),
        F.count(F.lit(1)).alias("n_bins_all"),
    )
    return bins.crossJoin(totals)


def norm_factors(bins: DataFrame, *, b: float) -> DataFrame:
    """BM25-style length normalization ``L(u) = (1−b) + b·|H_u|/avg|H|``.

    Eq. 2's denominator component; ``b`` ∈ [0, 1] tunes how strongly
    long histories are discounted (paper default 0.5).

    ``bins`` must hold one row per (entity, window, cell), as
    :func:`build_bins` emits, so that |H_u| is the row count of entity
    u. Returns the input rows with ``L`` added, plus the side totals
    ``n_entities`` and ``n_bins_all`` (avg|H| = n_bins_all / n_entities).
    Runs no Spark action.
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must be in [0, 1]")
    n_bins = F.count(F.lit(1)).over(Window.partitionBy("entity"))
    avg_bins = F.col("n_bins_all") / F.col("n_entities")
    return _with_totals(bins).withColumn(
        "L", F.lit(1.0 - b) + F.lit(b) * n_bins / avg_bins
    )


def idf(bins: DataFrame) -> DataFrame:
    """Per-bin inverse document frequency (Eq. 3).

    ``idf(e) = log(|U| / |{u : e ∈ H_u}|)`` where the document
    frequency counts entities of the *same* dataset occupying the bin.

    ``bins`` must hold one row per (entity, window, cell), as
    :func:`build_bins` emits, so that the document frequency is the row
    count of the bin. Returns the input rows with ``idf`` added, plus
    the side totals ``n_entities`` and ``n_bins_all``. Runs no Spark
    action.
    """
    df = F.count(F.lit(1)).over(Window.partitionBy("window", "cell"))
    return _with_totals(bins).withColumn(
        "idf", F.log(F.col("n_entities").cast("double") / df)
    )


def window_bin_counts(bins: DataFrame) -> DataFrame:
    """``(entity, window, n_bins_w)`` — bins per entity per window.

    Used for the paper's scalability metric: the number of pairwise
    bin comparisons a candidate pair (u, v) costs is
    ``Σ_w n_bins_w(u) · n_bins_w(v)``.
    """
    return bins.groupBy("entity", "window").agg(
        F.count(F.lit(1)).alias("n_bins_w")
    )


def comparison_count_all_pairs(bins_e: DataFrame, bins_i: DataFrame) -> int:
    """Total bin-pair comparisons for brute-force (all entity pairs).

    ``Σ_w (Σ_u n_bins_w(u)) · (Σ_v n_bins_w(v))`` — a cheap closed form
    that avoids materializing the cross join.
    """
    we = bins_e.groupBy("window").agg(F.count(F.lit(1)).alias("ne"))
    wi = bins_i.groupBy("window").agg(F.count(F.lit(1)).alias("ni"))
    row = (
        we.join(wi, "window")
        .agg(F.sum(F.col("ne") * F.col("ni")).alias("total"))
        .collect()[0]
    )
    return int(row["total"] or 0)


def comparison_count_candidates(
    bins_e: DataFrame, bins_i: DataFrame, candidates: DataFrame
) -> int:
    """Total bin-pair comparisons restricted to ``candidates (u, v)``."""
    we = window_bin_counts(bins_e).withColumnRenamed("entity", "u")
    wi = window_bin_counts(bins_i).withColumnRenamed("entity", "v")
    row = (
        candidates.join(we, "u")
        .join(
            wi.withColumnRenamed("n_bins_w", "n_bins_w_i"),
            ["v", "window"],
        )
        .agg(F.sum(F.col("n_bins_w") * F.col("n_bins_w_i")).alias("total"))
        .collect()[0]
    )
    return int(row["total"] or 0)
