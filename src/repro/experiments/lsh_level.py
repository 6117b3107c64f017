"""E5 — LSH accuracy and speed-up vs signature parameters
(paper Fig. 8: relative F1 and speed-up as a function of the signature
spatial level and the temporal step size; t = 0.6 and 4096 buckets,
``LshConfig``'s defaults).

Relative F1 = F1(with LSH) / F1(brute force); speed-up = pairwise bin
comparisons without LSH / with LSH (the paper's own metric).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.lsh import LshConfig
from repro.core.slim import SlimConfig, run_slim
from repro.core import metrics
from repro.experiments import common

DEFAULT_GRID = {
    "test": {"sig_levels": [10, 14], "steps": [4, 12]},
    "bench": {"sig_levels": [8, 10, 12, 14, 16], "steps": [4, 12, 24, 48]},
}


def run(spark: SparkSession, *, dataset: str = "cab", scale: str = "test", seed: int = 0) -> pd.DataFrame:
    grid = DEFAULT_GRID[scale]
    pair = common.make_pair(dataset, scale, seed=seed)
    rec_e, rec_i = common.spark_pair(spark, pair)

    base = run_slim(rec_e, rec_i, SlimConfig(use_lsh=False))
    f1_bf = metrics.evaluate_links(base.links, pair.truth).f1
    comp_bf = base.n_comparisons

    rows = []
    for level in grid["sig_levels"]:
        for step in grid["steps"]:
            cfg = SlimConfig(lsh=LshConfig(level=level, step=step))
            res = run_slim(rec_e, rec_i, cfg)
            f1 = metrics.evaluate_links(res.links, pair.truth).f1
            rows.append(
                {
                    "dataset": dataset,
                    "sig_level": level,
                    "step": step,
                    "signature_len": res.lsh_plan.signature_len,
                    "n_bands": res.lsh_plan.n_bands,
                    "candidates": res.n_candidates,
                    "f1": round(f1, 4),
                    "f1_bf": round(f1_bf, 4),
                    "relative_f1": round(f1 / f1_bf, 4) if f1_bf else float("nan"),
                    "comparisons": res.n_comparisons,
                    "comparisons_bf": comp_bf,
                    "speedup": round(comp_bf / res.n_comparisons, 1)
                    if res.n_comparisons
                    else float("inf"),
                }
            )
    return pd.DataFrame(rows)
