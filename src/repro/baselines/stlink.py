"""ST-Link baseline (Basık et al., TMC 2018 — paper Sec 5.5).

ST-Link performs a sliding-window comparison over record pairs and
links two entities iff they have at least ``k`` co-occurring records in
at least ``l`` diverse locations and (at most a small tolerance of)
no alibi record pairs. If an entity has qualifying counterparts on
more than one entity of the other dataset, all of its pairs are deemed
ambiguous and dropped. ``k`` and ``l`` are chosen from the data as the
elbow of the co-occurrence-count distributions (no labels needed).

Reimplementation notes (the original is closed-source Java):

* it runs at the spatio-temporal granularity of SLIM's
  :class:`~repro.core.slim.SlimConfig` (level, window and α), as the
  paper compares all methods at one granularity;
* one join of both sides' bins on the window gives every within-window
  bin pair, and one aggregate per (u, v) counts the co-occurrences,
  their distinct cells and the alibis over those bin pairs;
* a *co-occurrence* is a shared (temporal window × grid cell) bin;
* *location diversity* counts distinct cells among co-occurrences;
* *alibis* are same-window bin pairs whose cell centres lie farther
  apart than the runaway distance; only pairs with a co-occurrence are
  kept (others can never link), and more than ``ALIBI_TOLERANCE``
  alibis rule a pair out;
* the ranking score for Hit-Precision is ``k_uv · l_uv`` (co-occurrence
  volume × diversity), a monotone proxy for ST-Link's evidence order;
* the comparison-cost metric counts all within-window cross record
  pairs — ST-Link has no candidate pruning, which is exactly why the
  paper's Fig. 11d shows it doing ~3 orders of magnitude more
  comparisons than SLIM+LSH.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import histories, proximity, tuning
from repro.core.slim import SlimConfig
from repro.grid import cells


# paper Sec 5.5 tolerates up to 3 alibi bin pairs per linked pair
ALIBI_TOLERANCE = 3


@dataclass
class StLinkResult:
    links: pd.DataFrame  # (u, v, score)
    scores: pd.DataFrame  # all co-occurring pairs (u, v, score, k, l, alibis)
    k_star: int
    l_star: int
    n_comparisons: int
    runtime_sec: float


def _center_cols(cell_col: str, level: int, prefix: str):
    """Catalyst expressions for cell-centre planar metre coordinates."""
    step = cells.cell_size_deg(level)
    row = F.shiftright(F.col(cell_col), 32)
    col = F.col(cell_col).bitwiseAND(F.lit((1 << 32) - 1))
    lat = (row + F.lit(0.5)) * F.lit(step) - F.lit(90.0)
    lon = (col + F.lit(0.5)) * F.lit(step) - F.lit(180.0)
    y = lat * F.lit(cells.M_PER_DEG)
    x = lon * F.lit(cells.M_PER_DEG) * F.cos(F.radians(lat))
    return y.alias(f"{prefix}_y"), x.alias(f"{prefix}_x")


def _elbow_threshold(values: np.ndarray, fallback: int) -> int:
    """Pick a count threshold at the elbow of the sorted-desc curve."""
    values = np.sort(values)[::-1].astype(float)
    if values.size < 3 or values.max() == values.min():
        return fallback
    x = np.arange(values.size, dtype=float)
    elbow_x = tuning.kneedle(x, values, direction="decreasing")
    return int(max(fallback, values[int(elbow_x)]))


def run_stlink(records_e: DataFrame, records_i: DataFrame, cfg: SlimConfig) -> StLinkResult:
    """Run ST-Link at ``cfg``'s level, window and α; return links,
    scores and instrumentation."""
    t0 = time.monotonic()
    runaway = proximity.runaway_distance_m(cfg.window_sec, cfg.alpha_m_per_sec)

    # comparison cost: all within-window record pairs (no pruning)
    n_comparisons = histories.comparison_count_all_pairs(
        *(r.withColumn("window", F.floor(F.col("ts") / cfg.window_sec)) for r in (records_e, records_i))
    )

    # every within-window bin pair: co-occurrences share the cell,
    # alibis are farther apart than the runaway distance
    eb, ib = (
        histories.build_bins(r, level=cfg.level, window_sec=cfg.window_sec).select(
            F.col("entity").alias(name), "window", F.col("cell").alias(f"{p}_cell"),
            *_center_cols("cell", cfg.level, p),
        )
        for r, name, p in ((records_e, "u", "e"), (records_i, "v", "i"))
    )
    same = F.col("e_cell") == F.col("i_cell")
    d = F.sqrt((F.col("e_y") - F.col("i_y")) ** 2 + (F.col("e_x") - F.col("i_x")) ** 2)
    scores = (
        eb.join(ib, "window")
        .groupBy("u", "v")
        .agg(
            F.sum(same.cast("long")).alias("k"),
            F.countDistinct(F.when(same, F.col("e_cell"))).alias("l"),
            F.sum((d > runaway).cast("long")).alias("alibis"),
        )
        .where(F.col("k") > 0)  # pairs without a co-occurrence never link
        .withColumn("score", (F.col("k") * F.col("l")).cast("double"))
        .toPandas()
    )

    k_star = _elbow_threshold(scores["k"].to_numpy(), fallback=2)
    l_star = _elbow_threshold(scores["l"].to_numpy(), fallback=2)

    qual = scores[
        (scores["k"] >= k_star)
        & (scores["l"] >= l_star)
        & (scores["alibis"] <= ALIBI_TOLERANCE)
    ]
    # ambiguity: drop every pair touching an entity with >1 qualifying pair
    u_counts = qual["u"].value_counts()
    v_counts = qual["v"].value_counts()
    links = qual[
        qual["u"].map(u_counts).eq(1) & qual["v"].map(v_counts).eq(1)
    ][["u", "v", "score"]].reset_index(drop=True)

    return StLinkResult(
        links=links,
        scores=scores,
        k_star=int(k_star),
        l_star=int(l_star),
        n_comparisons=n_comparisons,
        runtime_sec=time.monotonic() - t0,
    )
