"""Pairwise mobility-history similarity (paper Sec 3.1, Alg. 1).

For every candidate entity pair (u, v) the score is

``S(u,v) = Σ_{(e,i) ∈ N(u,v)} P(e,i) · min(idf(e), idf(i)) / (L(u)·L(v))``

where ``N`` pairs bins *within each shared temporal window* by greedy
mutually-nearest-neighbour (MNN) selection, an optional mutually-
furthest-neighbour (MFN) pass adds alibi (negative-proximity) pairs,
``idf`` awards bin uniqueness and ``L`` is BM25-style length
normalization. Ablation switches reproduce the paper's Fig. 10
variants: all-pairs pairing, MNN-only, no-idf, no-normalization.

Dataflow: each side's bins get their corpus statistics as columns —
idf per (window, cell) and L per entity, both window counts over the
bin rows plus one shared one-row aggregate (|U| and the bin total) —
so each side is aggregated once and no statistic needs an action. The
candidate relation is then joined with both sides on the shared window
(a Catalyst shuffle join producing one row per within-window bin pair,
carrying idf_e, idf_i, L_u and L_v), and ``applyInPandas`` grouped by
(u, v) runs the MNN/MFN selection and divides by L_u·L_v itself. The
greedy selection is sequential *within a window* but independent
*across windows*, so the kernel runs it as vectorized rounds: each
round picks the current nearest (furthest) free pair of every window
simultaneously — identical to the paper's one-pair-at-a-time loop,
with no per-window Python iteration.
"""
from __future__ import annotations

import math
from typing import Literal

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import histories, proximity
from repro.grid import cells

_KERNEL_SCHEMA = (
    "u long, v long, score double, n_pairs long, n_alibi long, n_comp long"
)

Pairing = Literal["mnn", "all"]


def all_pairs(bins_e: DataFrame, bins_i: DataFrame) -> DataFrame:
    """Brute-force candidate relation: every (u, v) entity pair."""
    ue = bins_e.select(F.col("entity").alias("u")).distinct()
    ui = bins_i.select(F.col("entity").alias("v")).distinct()
    return ue.crossJoin(ui)


def _bin_ids(win: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """Dense ids for distinct (window, cell) bins of one side."""
    _, inv = np.unique(np.stack([win, cell], axis=1), axis=0, return_inverse=True)
    return inv


def greedy_select_mask(
    win: np.ndarray,
    eid: np.ndarray,
    iid: np.ndarray,
    d: np.ndarray,
    *,
    furthest: bool,
) -> np.ndarray:
    """Greedy per-window matching over bin-pair rows; returns selection mask.

    Exactly Alg. 1's N (or N' when ``furthest``): within every window,
    repeatedly pick the nearest (furthest) pair among bins not yet
    used, until the smaller side is exhausted. Windows are independent,
    so one pick per window per round reproduces the sequential greedy.
    Distance ties go to the smallest ``(eid, iid)``: with ``eid``/``iid``
    the dense (window, cell) ranks of :func:`_bin_ids`, the selection
    depends only on the bins, never on the order of the rows.
    """
    n = d.size
    sel = np.zeros(n, dtype=bool)
    if n == 0:
        return sel
    key = -d if furthest else d
    taken_e = np.zeros(int(eid.max()) + 1, dtype=bool)
    taken_i = np.zeros(int(iid.max()) + 1, dtype=bool)
    while True:
        active = ~(taken_e[eid] | taken_i[iid])
        if not active.any():
            break
        k = np.where(active, key, np.inf)
        # per-window argmin: sort by (window, key, eid, iid) and take
        # each window's first finite row
        perm = np.lexsort((iid, eid, k, win))
        w_sorted = win[perm]
        first = np.ones(n, dtype=bool)
        first[1:] = w_sorted[1:] != w_sorted[:-1]
        winners = perm[first]
        winners = winners[np.isfinite(k[winners])]
        if winners.size == 0:
            break
        sel[winners] = True
        taken_e[eid[winners]] = True
        taken_i[iid[winners]] = True
    return sel


def _make_kernel(
    *,
    level: int,
    runaway_m: float,
    pairing: Pairing,
    use_mfn: bool,
    use_idf: bool,
    use_norm: bool,
):
    """Build the per-(u, v) applyInPandas kernel.

    The incoming group holds the full within-window cross product of
    bin pairs: columns ``window, cell_e, cell_i``, plus ``idf_e, idf_i``
    when ``use_idf`` and the length factors ``L_u, L_v`` (constant in
    the group) when ``use_norm``. Contributions are summed with
    ``math.fsum``, which rounds exactly, so a score does not depend on
    the order in which the rows arrive.
    """

    def kernel(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        u, v = key
        win = pdf["window"].to_numpy(np.int64)
        ce = pdf["cell_e"].to_numpy(np.int64)
        ci = pdf["cell_i"].to_numpy(np.int64)
        d = cells.min_distance_m(ce, ci, level)
        p = proximity.proximity(d, runaway_m)
        if use_idf:
            w = np.minimum(pdf["idf_e"].to_numpy(), pdf["idf_i"].to_numpy())
        else:
            w = np.ones(len(pdf))
        contrib = p * w
        alibi = proximity.is_alibi(d, runaway_m)
        n_comp = len(pdf)

        if pairing == "all":
            raw = math.fsum(contrib)
            n_sel = n_comp
            n_alibi = int(alibi.sum())
        else:
            eid = _bin_ids(win, ce)
            iid = _bin_ids(win, ci)
            mnn = greedy_select_mask(win, eid, iid, d, furthest=False)
            included = mnn
            if use_mfn:
                mfn = greedy_select_mask(win, eid, iid, d, furthest=True)
                # MFN pairs count only when they are alibis, and never
                # double-count an MNN-selected pair (Alg. 1)
                included = mnn | (mfn & alibi & ~mnn)
            raw = math.fsum(contrib[included])
            n_sel = int(included.sum())
            n_alibi = int(alibi[included].sum())
        score = raw
        if use_norm:
            score = raw / (float(pdf["L_u"].iat[0]) * float(pdf["L_v"].iat[0]))
        return pd.DataFrame(
            [[u, v, score, n_sel, n_alibi, n_comp]],
            columns=["u", "v", "score", "n_pairs", "n_alibi", "n_comp"],
        )

    return kernel


def pair_scores(
    bins_e: DataFrame,
    bins_i: DataFrame,
    candidates: DataFrame,
    *,
    level: int,
    window_sec: int,
    alpha_m_per_sec: float = proximity.DEFAULT_ALPHA_M_PER_SEC,
    b: float = 0.5,
    pairing: Pairing = "mnn",
    use_mfn: bool = True,
    use_idf: bool = True,
    use_norm: bool = True,
) -> DataFrame:
    """Score every candidate pair (Eq. 2 over Alg. 1's pairing).

    Returns ``(u, v, score, n_pairs, n_alibi, n_comp)`` with one row
    per candidate pair that shares at least one temporal window
    (others have score 0 and are irrelevant to the bipartite graph).
    ``n_comp`` is the paper's pairwise-comparison cost metric;
    ``n_alibi`` counts included alibi bin pairs.
    """
    runaway = proximity.runaway_distance_m(window_sec, alpha_m_per_sec)

    def side(bins: DataFrame, entity: str, cell: str, idf: str, L: str) -> DataFrame:
        cols = [F.col("entity").alias(entity), "window", F.col("cell").alias(cell)]
        if use_idf:
            bins = histories.idf(bins)
            cols.append(F.col("idf").alias(idf))
        if use_norm:
            bins = histories.norm_factors(bins, b=b)
            cols.append(F.col("L").alias(L))
        return bins.select(*cols)

    ebins = side(bins_e, "u", "cell_e", "idf_e", "L_u")
    ibins = side(bins_i, "v", "cell_i", "idf_i", "L_v")
    joined = candidates.join(ebins, "u").join(ibins, ["v", "window"])
    kernel = _make_kernel(
        level=level,
        runaway_m=runaway,
        pairing=pairing,
        use_mfn=use_mfn,
        use_idf=use_idf,
        use_norm=use_norm,
    )
    return joined.groupBy("u", "v").applyInPandas(kernel, schema=_KERNEL_SCHEMA)
