"""Shared plumbing for the evaluation harnesses (DESIGN.md §4).

Each harness is a pure function ``run(spark, *, dataset, scale, seed)
-> pandas DataFrame`` whose rows are one printed table line; its
module-level grid is the only definition of the table's sweep.
``python -m repro.experiments <table>`` runs one and ``benchmarks/``
times them. ``scale`` is "test" (seconds, used by pytest) or "bench"
(the EXPERIMENTS.md numbers).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import metrics
from repro.core.slim import SlimResult
from repro.mobility import generator


def make_pair(
    dataset: str,
    scale: str,
    *,
    intersection_ratio: float = 0.5,
    inclusion_prob: float = 0.5,
    seed: int = 0,
    **overrides,
) -> generator.LinkagePair:
    """Build a Cab-like or SM-like linkage instance."""
    maker = {"cab": generator.cab_pair, "sm": generator.sm_pair}[dataset]
    return maker(
        scale=scale,
        intersection_ratio=intersection_ratio,
        inclusion_prob=inclusion_prob,
        seed=seed,
        **overrides,
    )


def spark_pair(
    spark: SparkSession, pair: generator.LinkagePair
) -> tuple[DataFrame, DataFrame]:
    """Lift both sides to cached Spark DataFrames, the caches filled,
    so no timed linker pays for filling them."""
    frames = tuple(df.cache() for df in pair.to_spark(spark))
    for df in frames:
        df.count()
    return frames


def avg_records(pair: generator.LinkagePair) -> float:
    """Records per entity, averaged over the two sides, rounded to 0.1."""
    sides = (pair.e_records, pair.i_records)
    return round(sum(r.groupby("entity").size().mean() for r in sides) / 2.0, 1)


def prf_cols(links: pd.DataFrame, pair: generator.LinkagePair) -> dict:
    """Rounded precision, recall and F1 of ``links`` against the truth."""
    prf = metrics.evaluate_links(links, pair.truth)
    return {
        "precision": round(prf.precision, 4),
        "recall": round(prf.recall, 4),
        "f1": round(prf.f1, 4),
    }


def mean_matched_scores(res: SlimResult, pair: generator.LinkagePair) -> tuple[float, float]:
    """Mean score of the matched true pairs and of the matched false
    pairs (NaN when there are none), before the stop threshold."""
    truth = set(zip(pair.truth["u"], pair.truth["v"]))
    m = res.matched
    is_tp = np.array([(u, v) in truth for u, v in zip(m["u"], m["v"])], dtype=bool)
    return float(m["score"][is_tp].mean()), float(m["score"][~is_tp].mean())


def slim_row(
    res: SlimResult, pair: generator.LinkagePair, **tags
) -> dict:
    """One result row: tags + quality + instrumentation of a SLIM run."""
    prf = metrics.evaluate_links(res.links, pair.truth)
    return {
        **tags,
        **prf_cols(res.links, pair),
        "n_linked": prf.n_linked,
        "n_true": prf.n_true,
        "alibi_pairs": res.n_alibi_pairs,
        "comparisons": res.n_comparisons,
        "candidates": res.n_candidates,
        "runtime_sec": round(res.runtime_sec, 2),
    }


def print_table(df: pd.DataFrame, title: str) -> pd.DataFrame:
    """Print a harness result the way the entry point does; returns ``df``."""
    print(f"\n=== {title} ===")
    print(df.to_string(index=False))
    return df
