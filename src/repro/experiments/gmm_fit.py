"""E3 — GMM fit and stop-threshold quality vs spatial detail
(paper Fig. 6: window width 90 min, spatial detail 4–16).

For each spatial level, runs brute-force SLIM, reports the fitted GMM
components over the matched-edge weights, the detected stop threshold,
the separation between the components (how distinguishable true and
false positives are), and the resulting precision/recall — the paper's
observation being that separation and threshold quality improve with
spatial detail.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core import gmm
from repro.core.slim import SlimConfig, run_slim
from repro.experiments import common

DEFAULT_LEVELS = {"test": [8, 12], "bench": [4, 8, 12, 16]}
WINDOW_MIN = 90.0  # Fig. 6's window width


def run(spark: SparkSession, *, dataset: str = "cab", scale: str = "test", seed: int = 0) -> pd.DataFrame:
    pair = common.make_pair(dataset, scale, seed=seed)
    rec_e, rec_i = common.spark_pair(spark, pair)
    rows = []
    for level in DEFAULT_LEVELS[scale]:
        res = run_slim(rec_e, rec_i, SlimConfig(level=level, window_min=WINDOW_MIN, use_lsh=False))
        row = {
            "dataset": dataset,
            "level": level,
            "window_min": WINDOW_MIN,
            **common.prf_cols(res.links, pair),
        }
        if len(res.matched) >= gmm.MIN_FIT_WEIGHTS:  # else no mixture is fitted
            g = res.threshold.gmm
            mean_tp, mean_fp = common.mean_matched_scores(res, pair)
            row.update(
                threshold=round(res.threshold.threshold, 3),
                mu_fp=round(float(g.mu[0]), 3),
                mu_tp=round(float(g.mu[1]), 3),
                sigma_fp=round(float(g.sigma[0]), 3),
                sigma_tp=round(float(g.sigma[1]), 3),
                separation=round(res.threshold.separation, 3),
                mean_tp_score=round(mean_tp, 3),
                mean_fp_score=round(mean_fp, 3),
            )
        rows.append(row)
    return pd.DataFrame(rows)
