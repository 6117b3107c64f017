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
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core import histories
from repro.core.lsh import LshConfig, lsh_candidates
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
    step = grid["step"]
    pair = common.make_pair(dataset, grid["instance"][dataset], seed=seed)
    rec_e, rec_i = common.spark_pair(spark, pair)
    level, window_sec = SlimConfig().level, SlimConfig().window_sec
    bins_e = histories.build_bins(rec_e, level=level, window_sec=window_sec).cache()
    bins_i = histories.build_bins(rec_i, level=level, window_sec=window_sec).cache()
    comp_bf = histories.comparison_count_all_pairs(bins_e, bins_i)
    stats = histories.corpus_stats(rec_e, rec_i, level=level, window_sec=window_sec)

    rows = []
    for t in grid["thresholds"]:
        for nb in grid["bucket_counts"]:
            cfg = LshConfig(step=step, threshold=t, n_buckets=nb)
            cand, plan = lsh_candidates(
                rec_e, rec_i, window_sec=window_sec, cfg=cfg, ts_span=stats.ts_span
            )
            cand = cand.cache()
            n_cand = cand.count()
            comp = histories.comparison_count_candidates(bins_e, bins_i, cand)
            cand.unpersist()
            rows.append(
                {
                    "dataset": dataset,
                    "threshold": t,
                    "n_buckets": nb,
                    "n_bands": plan.n_bands,
                    "candidates": n_cand,
                    "comparisons": comp,
                    "comparisons_bf": comp_bf,
                    "speedup": round(comp_bf / comp, 1) if comp else float("inf"),
                }
            )
    return pd.DataFrame(rows)
