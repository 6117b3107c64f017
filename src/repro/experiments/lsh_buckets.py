"""E6 — speed-up vs number of hash buckets (paper Fig. 9).

One series per LSH similarity threshold t. F1 is unaffected by the
bucket count (identical bands always collide regardless of bucket
count), so this harness computes the speed-up from comparison counts
alone — no similarity scoring needed — exactly the paper's metric:
comparisons without LSH / comparisons with LSH. Bins and signatures
take ``SlimConfig``'s and ``LshConfig``'s defaults (level 12,
15-minute windows, signature level 16); the temporal step is the
grid's (the paper's is 48; at "test" scale a smaller step keeps the
signature non-degenerate).

The signatures depend on the level and step only, so one
``corpus_stats`` call collects them for the whole sweep, and each
(t, n_buckets) point is banded and paired on the driver
(:func:`repro.core.lsh.candidate_pairs`). Each side's bins per entity
and window are collected once too, so a point's comparison count is a
driver-side merge: the sweep runs no Spark job per point.
"""
from __future__ import annotations

import dataclasses

import pandas as pd
from pyspark.sql import SparkSession

from repro.core import histories, lsh
from repro.core.slim import SlimConfig
from repro.experiments import common

# ``instance`` is the generator scale of each dataset's instance. At
# bench, SM is the "large" instance (2,000 users): E6 never scores
# pairs (comparison counts are closed-form), so the entity count, which
# drives the paper's SM speed-up, can be much higher than the
# brute-force sweeps allow.
DEFAULT_GRID = {
    "test": {
        "bucket_counts": [2**6, 2**12],
        "thresholds": [0.6],
        "step": 4,
        "instance": {"cab": "test", "sm": "test"},
    },
    "bench": {
        "bucket_counts": [2**6, 2**9, 2**12, 2**15, 2**18],
        "thresholds": [0.4, 0.6, 0.8],
        "step": 24,
        "instance": {"cab": "bench", "sm": "large"},
    },
}


def run(spark: SparkSession, *, dataset: str = "cab", scale: str = "test", seed: int = 0) -> pd.DataFrame:
    grid = DEFAULT_GRID[scale]
    pair = common.make_pair(dataset, grid["instance"][dataset], seed=seed)
    rec_e, rec_i = common.spark_pair(spark, pair)
    level, window_sec = SlimConfig().level, SlimConfig().window_sec
    bins_e = histories.build_bins(rec_e, level=level, window_sec=window_sec).cache()
    bins_i = histories.build_bins(rec_i, level=level, window_sec=window_sec).cache()
    comp_bf = histories.comparison_count_all_pairs(bins_e, bins_i)
    counts_e, counts_i = (histories.window_bin_counts(b).toPandas() for b in (bins_e, bins_i))
    sig_cfg = lsh.LshConfig(step=grid["step"])
    signature = lsh.signatures(level=sig_cfg.level, window_sec=window_sec, step=sig_cfg.step)
    stats = histories.corpus_stats(rec_e, rec_i, level=level, window_sec=window_sec, signature=signature)

    rows = []
    for t in grid["thresholds"]:
        for nb in grid["bucket_counts"]:
            cfg = dataclasses.replace(sig_cfg, threshold=t, n_buckets=nb)
            pairs, plan = lsh.candidate_pairs(stats, window_sec=window_sec, cfg=cfg)
            comp = histories.comparison_count_candidates(counts_e, counts_i, pairs)
            rows.append(
                {
                    "dataset": dataset,
                    "threshold": t,
                    "n_buckets": nb,
                    "n_bands": plan.n_bands,
                    "candidates": len(pairs),
                    "comparisons": comp,
                    "comparisons_bf": comp_bf,
                    "speedup": round(comp_bf / comp, 1) if comp else float("inf"),
                }
            )
    return pd.DataFrame(rows)
