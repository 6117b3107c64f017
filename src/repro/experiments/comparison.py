"""E8 — comparison with existing work (paper Fig. 11).

SLIM (with and without LSH) vs ST-Link vs GM:

* part (a/b): Hit-Precision@40, F1 and runtime as a function of the
  average number of records per entity (varied through the record
  inclusion probability, mirroring the paper's density resampling);
* part (c/d): F1, runtime and pairwise comparison counts for two
  entity intersection ratios (0.3 / 0.7) at two densities.

GM is only run in part (a/b) at lower densities (the paper excludes it
from further experiments after establishing it is two orders of
magnitude slower).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.gm import GmConfig, run_gm
from repro.baselines.stlink import StLinkConfig, run_stlink
from repro.core import metrics
from repro.core.lsh import LshConfig
from repro.core.slim import SlimConfig, run_slim
from repro.experiments import common

DEFAULT_GRID = {
    "test": {
        "inclusion_probs": [0.5],
        "density_ratios": [0.5],
        "include_gm": True,
        "lsh_step": 4,
    },
    "bench": {
        "inclusion_probs": [0.1, 0.25, 0.5, 0.75],
        "density_ratios": [0.3, 0.7],
        "include_gm": True,
        "lsh_step": 24,
    },
}


def _run_all(
    spark: SparkSession,
    pair,
    *,
    include_gm: bool,
    lsh_step: int,
    **tags,
) -> list[dict]:
    rec_e, rec_i = common.spark_pair(spark, pair)
    rows = []

    bf = run_slim(rec_e, rec_i, SlimConfig(use_lsh=False))
    hp_scores = bf.scores  # brute-force similarity ranking for Hit-Precision
    rows.append(
        {
            **tags,
            "algo": "slim",
            "hit_prec_40": round(
                metrics.hit_precision_at_k(hp_scores, pair.truth, 40), 4
            ),
            **common.prf_cols(bf.links, pair),
            "comparisons": bf.n_comparisons,
            "runtime_sec": round(bf.runtime_sec, 2),
        }
    )

    lsh = run_slim(
        rec_e,
        rec_i,
        SlimConfig(use_lsh=True, lsh=LshConfig(step=lsh_step, threshold=0.6, n_buckets=4096)),
    )
    rows.append(
        {
            **tags,
            "algo": "slim_lsh",
            "hit_prec_40": round(
                metrics.hit_precision_at_k(lsh.scores, pair.truth, 40), 4
            ),
            **common.prf_cols(lsh.links, pair),
            "comparisons": lsh.n_comparisons,
            "runtime_sec": round(lsh.runtime_sec, 2),
        }
    )

    st = run_stlink(rec_e, rec_i, StLinkConfig())
    rows.append(
        {
            **tags,
            "algo": "stlink",
            "hit_prec_40": round(
                metrics.hit_precision_at_k(
                    st.scores[["u", "v", "score"]], pair.truth, 40
                ),
                4,
            ),
            **common.prf_cols(st.links, pair),
            "comparisons": st.n_comparisons,
            "runtime_sec": round(st.runtime_sec, 2),
        }
    )

    if include_gm:
        gm = run_gm(rec_e, rec_i, GmConfig())
        rows.append(
            {
                **tags,
                "algo": "gm",
                "hit_prec_40": round(
                    metrics.hit_precision_at_k(gm.scores, pair.truth, 40), 4
                ),
                **common.prf_cols(gm.links, pair),
                "comparisons": gm.n_comparisons,
                "runtime_sec": round(gm.runtime_sec, 2),
            }
        )
    rec_e.unpersist()
    rec_i.unpersist()
    return rows


def run(
    spark: SparkSession,
    *,
    dataset: str = "cab",
    scale: str = "test",
    inclusion_probs: list[float] | None = None,
    density_ratios: list[float] | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    grid = DEFAULT_GRID[scale]
    inclusion_probs = inclusion_probs or grid["inclusion_probs"]
    density_ratios = density_ratios or grid["density_ratios"]
    rows = []
    # part (a/b): density sweep at default intersection ratio
    for p in inclusion_probs:
        pair = common.make_pair(dataset, scale, inclusion_prob=p, seed=seed)
        avg = (
            pair.e_records.groupby("entity").size().mean()
            + pair.i_records.groupby("entity").size().mean()
        ) / 2.0
        rows += _run_all(
            spark,
            pair,
            include_gm=grid["include_gm"],
            lsh_step=grid["lsh_step"],
            part="density",
            inclusion_prob=p,
            intersection_ratio=0.5,
            avg_records=round(avg, 1),
        )
    # part (c/d): intersection-ratio sweep (SLIM+LSH vs ST-Link)
    for rho in density_ratios:
        pair = common.make_pair(
            dataset, scale, intersection_ratio=rho, inclusion_prob=0.5, seed=seed
        )
        avg = (
            pair.e_records.groupby("entity").size().mean()
            + pair.i_records.groupby("entity").size().mean()
        ) / 2.0
        rows += [
            r
            for r in _run_all(
                spark,
                pair,
                include_gm=False,
                lsh_step=grid["lsh_step"],
                part="intersection",
                inclusion_prob=0.5,
                intersection_ratio=rho,
                avg_records=round(avg, 1),
            )
            if r["algo"] in ("slim_lsh", "stlink")
        ]
    return pd.DataFrame(rows)
