"""E1/E2 — accuracy vs spatio-temporal level (paper Figs. 4 and 5).

Sweeps the spatial level × temporal window width and reports
precision, recall, F1, alibi entity pairs and pairwise bin comparisons
for brute-force SLIM (no LSH), on the Cab-like or SM-like dataset at
default sampling parameters (ρ = p = 0.5).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.slim import SlimConfig, run_slim
from repro.experiments import common

# scale → dataset → levels × windows. E2 (SM) sweeps fewer levels and
# windows than E1: brute force scores all 152,880 SM pairs per point.
DEFAULT_GRID = {
    "test": {
        "cab": {"levels": [8, 12], "windows_min": [15.0, 90.0]},
        "sm": {"levels": [12], "windows_min": [15.0]},
    },
    "bench": {
        "cab": {"levels": [8, 12, 16, 20], "windows_min": [5.0, 15.0, 90.0, 360.0]},
        "sm": {"levels": [8, 12, 16], "windows_min": [15.0, 90.0]},
    },
}


def run(spark: SparkSession, *, dataset: str = "cab", scale: str = "test", seed: int = 0) -> pd.DataFrame:
    grid = DEFAULT_GRID[scale][dataset]
    pair = common.make_pair(dataset, scale, seed=seed)
    rec_e, rec_i = common.spark_pair(spark, pair)
    rows = []
    for window in grid["windows_min"]:
        for level in grid["levels"]:
            cfg = SlimConfig(level=level, window_min=window, use_lsh=False)
            res = run_slim(rec_e, rec_i, cfg)
            rows.append(common.slim_row(res, pair, dataset=dataset, level=level, window_min=window))
    return pd.DataFrame(rows)
