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

DEFAULT_GRID = {
    "test": {"levels": [8, 12], "windows_min": [15.0, 90.0]},
    "bench": {
        "levels": [8, 12, 16, 20],
        "windows_min": [5.0, 15.0, 90.0, 360.0],
    },
}


def run(
    spark: SparkSession,
    *,
    dataset: str = "cab",
    scale: str = "test",
    levels: list[int] | None = None,
    windows_min: list[float] | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    grid = DEFAULT_GRID[scale]
    levels = levels or grid["levels"]
    windows_min = windows_min or grid["windows_min"]
    pair = common.make_pair(dataset, scale, seed=seed)
    rec_e, rec_i = common.spark_pair(spark, pair)
    rows = []
    for window in windows_min:
        for level in levels:
            cfg = SlimConfig(level=level, window_min=window, use_lsh=False)
            res = run_slim(rec_e, rec_i, cfg)
            rows.append(common.slim_row(res, pair, dataset=dataset, level=level, window_min=window))
    return pd.DataFrame(rows)
