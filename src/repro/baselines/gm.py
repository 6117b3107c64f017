"""GM baseline (Wang et al., NDSS 2018 — paper Sec 5.5).

GM learns a per-entity mobility model from one dataset and scores
candidate identities of the other dataset by the likelihood of their
records under that model; unlike SLIM it awards record pairs across
*different* temporal windows (the model marginalizes time into
recurring slots) and has no candidate pruning, which is why the paper
finds it two orders of magnitude slower and weak when entities have
few records (too little data to fit a model).

Reimplementation (the original mixes Gaussian mixtures with Markov
models; closed comparator, see DESIGN.md §2): each E-side entity u
gets a Laplace-smoothed (λ = ``SMOOTHING``) categorical distribution
over (time-of-day slot × grid cell), with ``N_SLOTS`` slots a day and
cells at the level of SLIM's :class:`~repro.core.slim.SlimConfig`;
``score(u, v)`` is the total log-likelihood of v's records under u's
model. The whole score table is the dense |U_E| × |U_I| relation —
computed as DataFrames, with the sparse matched part via a (slot,
cell) join and the smoothing mass in closed form; its per-row record
count n_v also gives GM's comparison count. Final linkage is SLIM's
own link step over GM scores (:func:`repro.core.slim.link`: matching,
then the GMM stop threshold), exactly as the paper does ("we apply our
linkage and stop threshold algorithm over their similarity scores").
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import gmm, slim
from repro.grid import cells


N_SLOTS = 8  # time-of-day slots of 3 h each
SMOOTHING = 0.5  # Laplace λ


@dataclass
class GmResult:
    links: pd.DataFrame  # after matching + stop threshold (u, v, score)
    matched: pd.DataFrame
    scores: pd.DataFrame  # dense (u, v, score)
    threshold: gmm.StopThreshold
    n_comparisons: int
    runtime_sec: float


def _slot_cell(records: DataFrame, name: str, level: int) -> DataFrame:
    slot_sec = 86_400 // N_SLOTS
    return records.select(
        F.col("entity").alias(name),
        (F.pmod(F.col("ts"), 86_400) / F.lit(slot_sec)).cast("long").alias("slot"),
        cells.encode_col(F.col("lat"), F.col("lon"), level).alias("cell"),
    )


def run_gm(records_e: DataFrame, records_i: DataFrame, cfg: slim.SlimConfig) -> GmResult:
    """Score all (u, v) pairs by model likelihood at ``cfg``'s level and link."""
    t0 = time.monotonic()
    e_sc = _slot_cell(records_e, "u", cfg.level)
    i_sc = _slot_cell(records_i, "v", cfg.level)

    vocab = (
        e_sc.select("slot", "cell").unionAll(i_sc.select("slot", "cell")).distinct().count()
    )
    lam = SMOOTHING

    e_counts = e_sc.groupBy("u", "slot", "cell").agg(F.count(F.lit(1)).alias("cnt"))
    e_tot = e_counts.groupBy("u").agg(F.sum("cnt").alias("tot_u"))
    i_counts = i_sc.groupBy("v", "slot", "cell").agg(F.count(F.lit(1)).alias("m"))
    i_tot = i_counts.groupBy("v").agg(F.sum("m").alias("n_v"))

    matched = (
        e_counts.join(i_counts, ["slot", "cell"])
        .groupBy("u", "v")
        .agg(
            F.sum(F.col("m") * F.log(F.col("cnt") + F.lit(lam))).alias("match_ll"),
            F.sum("m").alias("matched_m"),
        )
    )
    dense = (
        e_tot.crossJoin(i_tot)
        .join(matched, ["u", "v"], "left")
        .fillna({"match_ll": 0.0, "matched_m": 0})
        .withColumn(
            "score",
            F.col("match_ll")
            + (F.col("n_v") - F.col("matched_m")) * F.log(F.lit(lam))
            - F.col("n_v") * F.log(F.col("tot_u") + F.lit(lam * vocab)),
        )
        .select("u", "v", "score", "n_v")
    )
    scores = dense.toPandas()
    # GM's cost: every I record is evaluated under every E model, and
    # the dense table holds each (u, v) once with v's record count n_v
    n_comparisons = int(scores.pop("n_v").sum())

    # log-likelihoods are ≤ 0; the GMM threshold machinery is scale-free
    # so it applies directly
    matched, threshold, links = slim.link(scores)
    return GmResult(
        links=links,
        matched=matched,
        scores=scores,
        threshold=threshold,
        n_comparisons=n_comparisons,
        runtime_sec=time.monotonic() - t0,
    )

