"""E8 — comparison with existing work (paper Fig. 11).

SLIM (with and without LSH) vs ST-Link vs GM:

* part (a/b): Hit-Precision@40, F1 and runtime as a function of the
  average number of records per entity (varied through the record
  inclusion probability, mirroring the paper's density resampling);
* part (c/d): F1, runtime and pairwise comparison counts for two
  entity intersection ratios (0.3 / 0.7) at two densities.

GM is only run in part (a/b) (the paper excludes it from further
experiments after establishing it is two orders of magnitude slower),
and part (c/d) compares SLIM+LSH with ST-Link only. Each part runs just
the linkers it reports, and every linker's row is built the same way:
Hit-Precision@40 over its ``(u, v, score)`` ranking, P/R/F1 of its
links, its comparison count and its runtime.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.gm import run_gm
from repro.baselines.stlink import run_stlink
from repro.core import metrics
from repro.core.lsh import LshConfig
from repro.core.slim import SlimConfig, run_slim
from repro.experiments import common

DEFAULT_GRID = {
    "test": {"inclusion_probs": [0.5], "density_ratios": [0.5], "lsh_step": 4},
    "bench": {
        "inclusion_probs": [0.1, 0.25, 0.5, 0.75],
        "density_ratios": [0.3, 0.7],
        "lsh_step": 24,
    },
}

# the linkers E8 reports, by row label, all at SlimConfig's level,
# window and α (Sec 5.5); every result carries links, scores,
# n_comparisons and runtime_sec
LINKERS = {
    "slim": lambda e, i, step: run_slim(e, i, SlimConfig(use_lsh=False)),
    "slim_lsh": lambda e, i, step: run_slim(e, i, SlimConfig(lsh=LshConfig(step=step))),
    "stlink": lambda e, i, step: run_stlink(e, i, SlimConfig()),
    "gm": lambda e, i, step: run_gm(e, i, SlimConfig()),
}
INTERSECTION_ALGOS = ("slim_lsh", "stlink")


def _run_all(
    spark: SparkSession,
    pair,
    algos: tuple[str, ...],
    *,
    lsh_step: int,
    **tags,
) -> list[dict]:
    """One row per linker of ``algos``, in that order."""
    rec_e, rec_i = common.spark_pair(spark, pair)
    rows = []
    for algo in algos:
        res = LINKERS[algo](rec_e, rec_i, lsh_step)
        hit_prec = metrics.hit_precision_at_k(res.scores[["u", "v", "score"]], pair.truth, 40)
        rows.append(
            {
                **tags,
                "algo": algo,
                "hit_prec_40": round(hit_prec, 4),
                **common.prf_cols(res.links, pair),
                "comparisons": res.n_comparisons,
                "runtime_sec": round(res.runtime_sec, 2),
            }
        )
    rec_e.unpersist()
    rec_i.unpersist()
    return rows


def run(spark: SparkSession, *, dataset: str = "cab", scale: str = "test", seed: int = 0) -> pd.DataFrame:
    grid = DEFAULT_GRID[scale]
    rows = []
    # part (a/b): density sweep at default intersection ratio
    for p in grid["inclusion_probs"]:
        pair = common.make_pair(dataset, scale, inclusion_prob=p, seed=seed)
        rows += _run_all(
            spark,
            pair,
            tuple(LINKERS),
            lsh_step=grid["lsh_step"],
            part="density",
            inclusion_prob=p,
            intersection_ratio=0.5,
            avg_records=common.avg_records(pair),
        )
    # part (c/d): intersection-ratio sweep (SLIM+LSH vs ST-Link)
    for rho in grid["density_ratios"]:
        pair = common.make_pair(dataset, scale, intersection_ratio=rho, inclusion_prob=0.5, seed=seed)
        rows += _run_all(
            spark,
            pair,
            INTERSECTION_ALGOS,
            lsh_step=grid["lsh_step"],
            part="intersection",
            inclusion_prob=0.5,
            intersection_ratio=rho,
            avg_records=common.avg_records(pair),
        )
    return pd.DataFrame(rows)
