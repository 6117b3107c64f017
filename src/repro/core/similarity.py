"""Pairwise mobility-history similarity (paper Sec 3.1, Alg. 1).

For every candidate entity pair (u, v) the score is

``S(u,v) = Σ_{(e,i) ∈ N(u,v)} P(e,i) · min(idf(e), idf(i)) / (L(u)·L(v))``

where ``N`` pairs bins *within each shared temporal window* by greedy
mutually-nearest-neighbour (MNN) selection, an optional mutually-
furthest-neighbour (MFN) pass adds alibi (negative-proximity) pairs,
``idf`` awards bin uniqueness and ``L`` is BM25-style length
normalization. Ablation switches reproduce the paper's Fig. 10
variants: all-pairs pairing, MNN-only, no-idf, no-normalization. The
level, window, α, b and the switches are read from one
:class:`~repro.core.slim.SlimConfig`, so a linkage and the level probe
of :mod:`repro.core.tuning` score with the same parameters.

Dataflow: one aggregate over both sides' records
(:func:`repro.core.histories.corpus_stats`) gives each side's |U| and
bin total, so idf per (window, cell) and L per entity are window
counts over the bin rows with those totals as literals; no statistic
needs an action of its own. Each side's bins are hash-partitioned by
(window, cell), which the idf window reuses; one ``groupBy(entity)``
then gathers every entity's mobility history into sorted arrays of
windows, cells and idf, beside its L. The candidate relation is joined
with the E histories on u and the I histories on v, so each candidate
pair is one row carrying both histories, and ``mapInPandas`` scores
those rows a batch per call with no further shuffle. The kernel
expands each row into its within-window bin pairs (a merge on the
window), runs the greedy MNN/MFN selection once over the batch, keyed
on dense (pair, window) ids, and sums each pair's selected
contributions and divides them by L_u·L_v; a pair that shares no
window scores 0. The greedy selection is sequential *within a window*
but independent *across windows*, so the kernel runs it as vectorized
rounds: each round picks the current nearest (furthest) free pair of
every window simultaneously — identical to the paper's
one-pair-at-a-time loop, with no per-window Python iteration.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from typing import TYPE_CHECKING, Literal

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import histories, proximity
from repro.grid import cells

if TYPE_CHECKING:  # slim imports this module
    from repro.core.slim import SlimConfig

_KERNEL_SCHEMA = (
    "u long, v long, score double, n_pairs long, n_alibi long, n_comp long"
)

Pairing = Literal["mnn", "all"]


def empty_scores() -> pd.DataFrame:
    """:func:`pair_scores`' columns, as ``toPandas`` types them, with no rows."""
    cols = [c.split() for c in _KERNEL_SCHEMA.split(", ")]
    return pd.DataFrame({name: pd.Series(dtype={"long": "int64", "double": "float64"}[t]) for name, t in cols})


def all_pairs(bins_e: DataFrame, bins_i: DataFrame) -> DataFrame:
    """Brute-force candidate relation: every (u, v) entity pair."""
    ue = bins_e.select(F.col("entity").alias("u")).distinct()
    ui = bins_i.select(F.col("entity").alias("v")).distinct()
    return ue.crossJoin(ui)


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
    ``win`` identifies a window of one entity pair; ``eid``/``iid``
    identify a bin of it, ordered like the bins' cells. Distance ties
    go to the smallest ``(eid, iid)``, so the selection depends only on
    the bins, never on the order of the rows. The rows are sorted once;
    each round takes every window's first row and drops the rows whose
    bins it used.
    """
    sel = np.zeros(d.size, dtype=bool)
    if d.size == 0:
        return sel
    key = -d if furthest else d
    rows = np.lexsort((iid, eid, key, win))
    taken_e = np.zeros(int(eid.max()) + 1, dtype=bool)
    taken_i = np.zeros(int(iid.max()) + 1, dtype=bool)
    while rows.size:
        w = win[rows]
        first = np.ones(rows.size, dtype=bool)
        first[1:] = w[1:] != w[:-1]
        winners = rows[first]
        sel[winners] = True
        taken_e[eid[winners]] = True
        taken_i[iid[winners]] = True
        rows = rows[~(taken_e[eid[rows]] | taken_i[iid[rows]])]
    return sel


def _starts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the rows where the sorted ``keys`` tuple changes."""
    start = np.zeros(keys[0].size, dtype=bool)
    start[:1] = True
    for k in keys:
        start[1:] |= k[1:] != k[:-1]
    return start


def within_window_pairs(pdf: pd.DataFrame, *, use_idf: bool) -> pd.DataFrame:
    """The within-window bin pairs of each row's two histories.

    ``pdf`` holds one candidate pair per row, each side's history as
    the arrays ``window_e, cell_e[, idf_e]`` and ``window_i,
    cell_i[, idf_i]``. Returns ``(row, window, cell_e, cell_i[, idf_e,
    idf_i])``, with ``row`` the position of the pair in ``pdf``: the
    merge, on (row, window), of the two sides' bins.
    """
    fields = ["window", "cell"] + (["idf"] if use_idf else [])

    def side(s: str) -> pd.DataFrame:
        sizes = pdf[f"window_{s}"].map(len).to_numpy()
        cols = {"row": np.repeat(np.arange(len(pdf)), sizes)}
        for f in fields:
            cols["window" if f == "window" else f"{f}_{s}"] = np.concatenate(pdf[f"{f}_{s}"].to_list())
        return pd.DataFrame(cols)

    return side("e").merge(side("i"), on=["row", "window"])


def _make_kernel(
    *,
    level: int,
    runaway_m: float,
    pairing: Pairing,
    use_mfn: bool,
    use_idf: bool,
    use_norm: bool,
):
    """Build the ``mapInPandas`` kernel.

    Each row is one candidate pair ``u, v`` with both histories, as
    :func:`within_window_pairs` reads them, plus the length factors
    ``L_u, L_v`` when ``use_norm``. A row is a whole pair, so every
    Arrow batch is scored on its own, and the kernel returns one row
    per input row. Contributions are summed with ``math.fsum``, which
    rounds exactly, so a score does not depend on the order in which
    the bins arrive.
    """

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            if len(pdf):
                yield score_batch(pdf)

    def score_batch(pdf: pd.DataFrame) -> pd.DataFrame:
        bp = within_window_pairs(pdf, use_idf=use_idf)
        bp = bp.sort_values(["row", "window", "cell_e", "cell_i"], ignore_index=True)
        row = bp["row"].to_numpy(np.int64)
        win = bp["window"].to_numpy(np.int64)
        ce = bp["cell_e"].to_numpy(np.int64)
        ci = bp["cell_i"].to_numpy(np.int64)
        d = cells.min_distance_m(ce, ci, level)
        contrib = proximity.proximity(d, runaway_m)
        if use_idf:
            contrib = contrib * np.minimum(bp["idf_e"].to_numpy(), bp["idf_i"].to_numpy())
        alibi = proximity.is_alibi(d, runaway_m)

        if pairing == "all":
            included = np.ones(len(bp), dtype=bool)
        else:
            # dense ids of the (pair, window) groups and of their bins;
            # the rows are sorted, so a bin's rank follows its cell
            gid = np.cumsum(_starts(row, win)) - 1
            eid = np.cumsum(_starts(gid, ce)) - 1
            by_i = np.lexsort((ci, gid))
            iid = np.empty_like(gid)
            iid[by_i] = np.cumsum(_starts(gid[by_i], ci[by_i])) - 1
            mnn = greedy_select_mask(gid, eid, iid, d, furthest=False)
            included = mnn
            if use_mfn:
                mfn = greedy_select_mask(gid, eid, iid, d, furthest=True)
                # MFN pairs count only when they are alibis, and never
                # double-count an MNN-selected pair (Alg. 1)
                included = mnn | (mfn & alibi & ~mnn)

        n = len(pdf)
        n_comp = np.bincount(row, minlength=n)
        n_pairs = np.bincount(row[included], minlength=n)
        n_alibi = np.bincount(row[included & alibi], minlength=n)
        picked = contrib[included].tolist()
        ends = np.cumsum(n_pairs)
        score = np.array([math.fsum(picked[s:e]) for s, e in zip(ends - n_pairs, ends)], dtype=np.float64)
        if use_norm:
            score = score / (pdf["L_u"].to_numpy(np.float64) * pdf["L_v"].to_numpy(np.float64))
        return pd.DataFrame(
            {
                "u": pdf["u"].to_numpy(np.int64),
                "v": pdf["v"].to_numpy(np.int64),
                "score": score,
                "n_pairs": n_pairs,
                "n_alibi": n_alibi,
                "n_comp": n_comp,
            }
        )

    return kernel


def pair_scores(
    bins_e: DataFrame,
    bins_i: DataFrame,
    candidates: DataFrame,
    *,
    stats: histories.CorpusStats,
    cfg: SlimConfig,
) -> DataFrame:
    """Score every candidate pair (Eq. 2 over Alg. 1's pairing).

    ``stats`` holds both sides' totals for idf and L
    (:func:`repro.core.histories.corpus_stats`); the level, window, α,
    b and ablation switches are ``cfg``'s. Returns
    ``(u, v, score, n_pairs, n_alibi, n_comp)`` with one row per
    candidate pair; a pair that shares no temporal window has score 0
    and every count 0. ``n_comp`` is the paper's pairwise-comparison
    cost metric; ``n_alibi`` counts included alibi bin pairs.
    """
    runaway = proximity.runaway_distance_m(cfg.window_sec, cfg.alpha_m_per_sec)

    def side(bins: DataFrame, totals: histories.SideTotals, entity: str, s: str) -> DataFrame:
        """One row per entity: its history as sorted arrays, and its L."""
        fields, keys = ["window", "cell"], ["entity"]
        # the (window, cell) window first: it reuses build_bins'
        # partitioning, and the entity window's shuffle then serves the
        # history aggregate
        if cfg.use_idf:
            bins = histories.idf(bins, totals)
            fields.append("idf")
        if cfg.use_norm:
            bins = histories.norm_factors(bins, totals, b=cfg.b)
            keys.append("L")
        hist = bins.groupBy(*keys).agg(F.sort_array(F.collect_list(F.struct(*fields))).alias("h"))
        cols = [F.col("entity").alias(entity), *(F.col("h")[f].alias(f"{f}_{s}") for f in fields)]
        if cfg.use_norm:
            cols.append(F.col("L").alias(f"L_{entity}"))
        return hist.select(*cols)

    ehist = side(bins_e, stats.e, "u", "e")
    ihist = side(bins_i, stats.i, "v", "i")
    joined = candidates.join(ehist, "u").join(ihist, "v")
    kernel = _make_kernel(
        level=cfg.level,
        runaway_m=runaway,
        pairing=cfg.pairing,
        use_mfn=cfg.use_mfn,
        use_idf=cfg.use_idf,
        use_norm=cfg.use_norm,
    )
    # every row is a whole pair, so the kernel needs no repartition
    return joined.mapInPandas(kernel, schema=_KERNEL_SCHEMA)
