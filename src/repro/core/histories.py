"""Mobility histories: records → time-location bins (paper Sec 2.3).

A *mobility history* distributes an entity's records over
(temporal-window × spatial-cell) bins. The paper stores histories as a
temporal tree whose leaves hold cell-id sets and whose inner nodes hold
per-subtree cell counts; in a DataFrame engine the leaf level is the
``groupBy(entity, window, cell)`` relation below, and every inner tree
level is the same relation re-aggregated at a coarser window — see
:mod:`repro.core.lsh` for the dominating-cell queries that use it.

All functions return DataFrames so Catalyst plans the whole pipeline;
nothing here collects.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
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


def history_sizes(bins: DataFrame) -> DataFrame:
    """``(entity, n_bins)`` — |H_u|, the number of time-location bins."""
    return bins.groupBy("entity").agg(F.count(F.lit(1)).alias("n_bins"))


def norm_factors(bins: DataFrame, *, b: float) -> DataFrame:
    """BM25-style length normalization ``L(u) = (1−b) + b·|H_u|/avg|H|``.

    Eq. 2's denominator component; ``b`` ∈ [0, 1] tunes how strongly
    long histories are discounted (paper default 0.5).
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must be in [0, 1]")
    sizes = history_sizes(bins)
    avg = sizes.agg(F.avg("n_bins").alias("avg_bins"))
    return sizes.crossJoin(avg).select(
        "entity",
        (F.lit(1.0 - b) + F.lit(b) * F.col("n_bins") / F.col("avg_bins")).alias("L"),
    )


def idf(bins: DataFrame) -> DataFrame:
    """Per-bin inverse document frequency (Eq. 3).

    ``idf(e) = log(|U| / |{u : e ∈ H_u}|)`` where the document
    frequency counts entities of the *same* dataset occupying the bin.
    Returns ``(window, cell, idf)``.
    """
    n_entities = bins.select("entity").distinct().count()
    df = bins.groupBy("window", "cell").agg(
        F.countDistinct("entity").alias("df")
    )
    return df.select(
        "window",
        "cell",
        F.log(F.lit(float(n_entities)) / F.col("df")).alias("idf"),
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
