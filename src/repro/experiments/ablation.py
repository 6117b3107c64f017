"""E7 — ablation study (paper Fig. 10).

F1 of SLIM against four modified variants, (a) as a function of the
spatial level at 15-minute windows and (b) as a function of the window
width at level 12:

* ``mnn``       — ``pairing="mnn"``: MFN alibi pass removed,
* ``all_pairs`` — ``pairing="all"``: every within-window bin pair,
* ``no_idf``    — idf uniqueness award removed,
* ``no_norm``   — BM25 length normalization removed.

Also reports the mean similarity of matched false-positive pairs,
which the paper uses to show MFN's effect (2227 → 1501 at level 12 /
5-minute windows).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core import metrics
from repro.core.slim import SlimConfig, run_slim
from repro.experiments import common

VARIANTS: dict[str, dict] = {
    "slim": {},
    "mnn": {"pairing": "mnn"},
    "all_pairs": {"pairing": "all"},
    "no_idf": {"use_idf": False},
    "no_norm": {"use_norm": False},
}

DEFAULT_GRID = {
    "test": {"levels": [12], "windows_min": [90.0], "fixed_level": 12, "fixed_window": 15.0},
    "bench": {
        "levels": [8, 12, 24],
        "windows_min": [15.0, 360.0, 720.0],
        "fixed_level": 12,
        "fixed_window": 15.0,
    },
}


def run(spark: SparkSession, *, dataset: str = "cab", scale: str = "test", seed: int = 0) -> pd.DataFrame:
    grid = DEFAULT_GRID[scale]
    pair = common.make_pair(dataset, scale, seed=seed)
    rec_e, rec_i = common.spark_pair(spark, pair)

    sweeps = [("level", lv, grid["fixed_window"]) for lv in grid["levels"]] + [
        ("window", grid["fixed_level"], w) for w in grid["windows_min"]
    ]
    rows = []
    for sweep, level, window in sweeps:
        for name, switches in VARIANTS.items():
            cfg = SlimConfig(level=level, window_min=window, use_lsh=False, **switches)
            res = run_slim(rec_e, rec_i, cfg)
            prf = metrics.evaluate_links(res.links, pair.truth)
            _, mean_fp = common.mean_matched_scores(res, pair)
            rows.append(
                {
                    "dataset": dataset,
                    "sweep": sweep,
                    "level": level,
                    "window_min": window,
                    "variant": name,
                    "f1": round(prf.f1, 4),
                    "precision": round(prf.precision, 4),
                    "recall": round(prf.recall, 4),
                    "mean_fp_score": round(mean_fp, 2),
                }
            )
    return pd.DataFrame(rows)
