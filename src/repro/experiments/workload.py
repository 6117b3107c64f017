"""E4 — sensitivity to workload parameters (paper Fig. 7).

F1-Score and running time as a function of the record inclusion
probability, one series per entity intersection ratio, for the
Cab-like and SM-like datasets.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.slim import SlimConfig, run_slim
from repro.experiments import common

DEFAULT_GRID = {
    "test": {"inclusion_probs": [0.25, 0.75], "intersection_ratios": [0.5]},
    "bench": {
        "inclusion_probs": [0.1, 0.5, 0.9],
        "intersection_ratios": [0.3, 0.5, 0.7],
    },
}


def run(spark: SparkSession, *, dataset: str = "cab", scale: str = "test", seed: int = 0) -> pd.DataFrame:
    grid = DEFAULT_GRID[scale]
    rows = []
    for rho in grid["intersection_ratios"]:
        for p in grid["inclusion_probs"]:
            pair = common.make_pair(
                dataset, scale, intersection_ratio=rho, inclusion_prob=p, seed=seed
            )
            rec_e, rec_i = common.spark_pair(spark, pair)
            res = run_slim(rec_e, rec_i, SlimConfig(use_lsh=False))
            rows.append(
                common.slim_row(
                    res,
                    pair,
                    dataset=dataset,
                    intersection_ratio=rho,
                    inclusion_prob=p,
                    avg_records=common.avg_records(pair),
                )
            )
            rec_e.unpersist()
            rec_i.unpersist()
    return pd.DataFrame(rows)
