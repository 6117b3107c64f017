"""Performance tuning: kneedle elbow detection + spatial-level auto-tune
(paper Sec 3.3).

The spatial level trades accuracy for cost: too coarse and entities are
indistinguishable, too fine and histories balloon with no accuracy
gain. The paper probes this *without labels* by measuring, per level,
the average ratio of pair similarity to self-similarity
``S(u, v) / S(u, u)`` over a sampled subset of entities crossed with
the rest: the ratio starts near 1 (everything looks alike) and drops
as detail is added, flattening once added detail stops helping. The
selected level is the elbow of that curve (Satopää et al.'s "kneedle",
re-implemented here since no such package ships offline). Doing this
independently per dataset, the *higher* elbow is used for linkage.
The probe scores with the linkage's own :class:`~repro.core.slim.SlimConfig`
at each candidate level, so the level is tuned for the scorer that will
use it.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
from pyspark.sql import DataFrame

from repro.core import histories, similarity
from repro.core.slim import SlimConfig


def kneedle(
    x: np.ndarray,
    y: np.ndarray,
    *,
    direction: str = "decreasing",
) -> float:
    """Elbow/knee x-coordinate of a curve (Satopää et al. 2011, simplified).

    Normalizes both axes to [0, 1], flips the curve into
    concave-increasing canonical form, and returns the x with the
    maximum difference between the curve and the y = x chord.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 3:
        raise ValueError("need >= 3 points with matching shapes")
    order = np.argsort(x)
    x, y = x[order], y[order]
    xn = (x - x[0]) / (x[-1] - x[0])
    span = y.max() - y.min()
    if span == 0:
        return float(x[0])
    yn = (y - y.min()) / span
    if direction == "decreasing":
        yn = 1.0 - yn
    elif direction != "increasing":
        raise ValueError("direction must be 'increasing' or 'decreasing'")
    return float(x[int(np.argmax(yn - xn))])


def self_similarity_ratio(
    records: DataFrame,
    cfg: SlimConfig,
    *,
    n_probe: int = 6,
    n_others: int = 12,
    seed: int = 0,
) -> float:
    """Average S(u, v) / S(u, u) over sampled probe entities.

    ``n_probe`` entities are crossed with ``n_others`` entities of the
    same dataset (plus themselves for the denominator) and scored under
    ``cfg``. Normalization and idf are evaluated with the full dataset
    statistics.
    """
    # both sides are ``records``: aggregate them once, copy E's ids and totals to I
    stats = histories.corpus_stats(records, records.limit(0), level=cfg.level, window_sec=cfg.window_sec)
    stats = replace(stats, i=stats.e)
    # sorted, so the draw does not depend on the shuffle's row order
    ents = stats.e.entities
    rng = np.random.default_rng(seed)
    probes = rng.choice(ents, size=min(n_probe, len(ents)), replace=False)
    others = rng.choice(ents, size=min(n_others, len(ents)), replace=False)
    spark = records.sparkSession
    bins = histories.build_bins(records, level=cfg.level, window_sec=cfg.window_sec)
    cand = spark.createDataFrame(
        [(int(u), int(v)) for u in probes for v in set(others) | set(probes)],
        schema="u long, v long",
    )
    scored = similarity.pair_scores(bins, bins, cand, stats=stats, cfg=cfg).toPandas()
    scored = scored[scored["n_comp"] > 0]  # pairs that share a window
    ratios = []
    for u in probes:
        rows = scored[scored["u"] == u]
        self_row = rows[rows["v"] == u]
        if self_row.empty or self_row["score"].iloc[0] <= 0:
            continue
        s_self = float(self_row["score"].iloc[0])
        pair = rows[rows["v"] != u]["score"]
        if pair.empty:
            continue
        ratios.append(float(pair.mean()) / s_self)
    return float(np.mean(ratios)) if ratios else 1.0


def select_spatial_level(
    records_e: DataFrame,
    records_i: DataFrame,
    *,
    levels: list[int],
    cfg: SlimConfig,
    seed: int = 0,
) -> tuple[int, dict[int, float], dict[int, float]]:
    """Auto-tune the spatial level of ``cfg``'s linkage.

    Runs the self-similarity-ratio probe per level on each dataset,
    with ``cfg`` at that level, finds each dataset's elbow with
    :func:`kneedle`, and returns the *higher* of the two (paper Sec 3.3),
    along with both ratio curves.
    """
    levels = sorted(levels)
    curves: list[dict[int, float]] = []
    elbows: list[int] = []
    for rec in (records_e, records_i):
        curve = {lv: self_similarity_ratio(rec, replace(cfg, level=lv), seed=seed) for lv in levels}
        curves.append(curve)
        elbows.append(
            int(
                kneedle(
                    np.array(levels, dtype=float),
                    np.array([curve[lv] for lv in levels]),
                    direction="decreasing",
                )
            )
        )
    return max(elbows), curves[0], curves[1]
