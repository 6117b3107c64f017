"""End-to-end SLIM pipeline (paper Alg. 1 + Secs 3.2 and 4).

``run_slim`` wires the stages together:

1. records → corpus statistics (each side's entity ids and bin
   total, and under LSH each entity's dominating-cell signature, all
   from one per-entity aggregate) and mobility-history bins
   (``repro.core.histories``),
2. LSH candidate filtering (``repro.core.lsh``: the driver bands the
   collected signatures and pairs the entities of each bucket) or
   brute-force all pairs of the two sides' entity ids; either way the
   candidates are a one-partition ``(u, v)`` relation,
3. distributed pairwise similarity scoring
   (``repro.core.similarity``),
4. :func:`link`: driver-side greedy maximum-weight bipartite
   matching (``repro.core.matching``), then GMM stop-threshold
   selection and final filtering (``repro.core.gmm``).

The result carries the paper's own instrumentation: number of
candidate pairs, pairwise bin comparisons performed (the scalability
metric of Secs 5.3/5.5), alibi entity pairs, and wall-clock runtime.
"""
from __future__ import annotations

import time
import typing
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame

from repro.core import gmm, histories, lsh, matching, proximity, similarity
from repro.core.lsh import LshConfig, LshPlan, lsh_candidates
from repro.grid import cells


@dataclass(frozen=True)
class SlimConfig:
    """All knobs of one SLIM run (paper defaults, Sec 5.1).

    The scorer (:func:`repro.core.similarity.pair_scores`) and the level
    probe (:mod:`repro.core.tuning`) read their parameters from here.
    """

    level: int = 12
    window_min: float = 15.0
    alpha_m_per_sec: float = proximity.DEFAULT_ALPHA_M_PER_SEC
    b: float = 0.5
    pairing: similarity.Pairing = "mnn_mfn"
    use_idf: bool = True
    use_norm: bool = True
    use_lsh: bool = True
    lsh: LshConfig = field(default_factory=LshConfig)

    def __post_init__(self) -> None:
        # a bad value fails here, before any Spark job
        cells.cell_size_m(self.level)
        proximity.runaway_distance_m(self.window_sec, self.alpha_m_per_sec)
        pairings = typing.get_args(similarity.Pairing)
        if self.pairing not in pairings:
            raise ValueError(f"pairing must be one of {pairings}, got {self.pairing!r}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")

    @property
    def window_sec(self) -> int:
        return int(round(self.window_min * 60))


@dataclass
class SlimResult:
    """Outcome + instrumentation of one SLIM run."""

    links: pd.DataFrame  # final linkage (u, v, score)
    matched: pd.DataFrame  # full matching before thresholding
    scores: pd.DataFrame  # the scored candidate pairs that share a window
    threshold: gmm.StopThreshold
    n_candidates: int
    n_comparisons: int
    n_alibi_pairs: int
    runtime_sec: float
    lsh_plan: LshPlan | None


def link(edges: pd.DataFrame) -> tuple[pd.DataFrame, gmm.StopThreshold, pd.DataFrame]:
    """The final linkage of scored ``(u, v, score)`` edges (Sec 3.2).

    Greedy one-to-one matching, then the GMM stop threshold over the
    matched scores; returns ``(matched, threshold, links)``, where
    ``links`` are the matched edges scoring above the threshold. GM's
    scores go through the same step (Sec 5.5).
    """
    matched = matching.greedy_match(edges)
    threshold = gmm.select_stop_threshold(matched["score"].to_numpy())
    links = matched[matched["score"] > threshold.threshold].reset_index(drop=True)
    return matched, threshold, links


def run_slim(records_e: DataFrame, records_i: DataFrame, cfg: SlimConfig) -> SlimResult:
    """Link two location datasets; see module docstring for stages.

    Raises ``ValueError`` for records that break the input contract of
    :func:`repro.core.histories.corpus_stats`.
    """
    t0 = time.monotonic()
    signature = (
        lsh.signatures(level=cfg.lsh.level, window_sec=cfg.window_sec, step=cfg.lsh.step) if cfg.use_lsh else None
    )
    stats = histories.corpus_stats(
        records_e, records_i, level=cfg.level, window_sec=cfg.window_sec, signature=signature
    )
    bins_e = histories.build_bins(records_e, level=cfg.level, window_sec=cfg.window_sec)
    bins_i = histories.build_bins(records_i, level=cfg.level, window_sec=cfg.window_sec)

    lsh_plan: LshPlan | None = None
    if cfg.use_lsh:
        candidates, lsh_plan = lsh_candidates(records_e.sparkSession, stats, window_sec=cfg.window_sec, cfg=cfg.lsh)
    else:
        candidates = similarity.all_pairs(records_e.sparkSession, stats)

    scored = similarity.pair_scores(bins_e, bins_i, candidates, stats=stats, cfg=cfg).toPandas()
    # every candidate gets a row; those sharing no window score 0 and
    # stay out of the scores
    n_candidates = len(scored)
    scored = scored[scored["n_comp"] > 0].reset_index(drop=True)

    n_comparisons = int(scored["n_comp"].sum())
    n_alibi_pairs = int((scored["n_alibi"] > 0).sum())

    # positive-score edges form the bipartite graph (Sec 3.1 end)
    matched, threshold, links = link(scored[scored["score"] > 0][["u", "v", "score"]])
    runtime = time.monotonic() - t0
    return SlimResult(
        links=links,
        matched=matched,
        scores=scored,
        threshold=threshold,
        n_candidates=n_candidates,
        n_comparisons=n_comparisons,
        n_alibi_pairs=n_alibi_pairs,
        runtime_sec=runtime,
        lsh_plan=lsh_plan,
    )
