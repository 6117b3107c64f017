"""Pairwise mobility-history similarity (paper Sec 3.1, Alg. 1).

For every candidate entity pair (u, v) the score is

``S(u,v) = Σ_{(e,i) ∈ N(u,v)} P(e,i) · min(idf(e), idf(i)) / (L(u)·L(v))``

where ``N`` pairs bins *within each shared temporal window* by the
:data:`Pairing` rule: greedy mutually-nearest-neighbour (MNN) selection
plus the alibi (negative-proximity) pairs of a mutually-furthest-
neighbour (MFN) pass, MNN alone, or all pairs. ``idf`` awards bin
uniqueness and ``L`` is BM25-style length normalization. The pairing
rule and the idf and norm switches give the paper's Fig. 10 variants.
All are read, with the level, window, α and b, from one
:class:`~repro.core.slim.SlimConfig`, so a linkage and the level probe
of :mod:`repro.core.tuning` score with the same parameters.

Dataflow: one per-entity aggregate over both sides' records
(:func:`repro.core.histories.corpus_stats`, one shuffle and one
collect) gives each side's entity ids and bin total, and under LSH
the signatures: idf and L take |U| and the total as literals, brute
force pairs the ids and the driver bands the signatures, so neither
the statistics nor the candidates need an action of their own. Each side's
bins are hash-partitioned by (window, cell), which idf's window count
reuses; one ``groupBy(entity)`` then gathers every entity's mobility
history into arrays of windows, cells and idf, and L is computed from
the length of that history. The candidate relation is joined with the
E histories on u and the I histories on v, so each candidate pair is
one row carrying both histories, and ``mapInPandas`` scores those rows
a batch per call with no further shuffle. The kernel sorts each side's
bins once, emits each shared (row, window) run's bin pairs in order by
index arithmetic, runs the greedy MNN/MFN selection once over the
batch, sums each pair's selected contributions and divides them by
L_u·L_v; a pair that shares no window scores 0. The greedy selection
is sequential *within a window* but independent *across windows*, so
the kernel runs it as vectorized rounds: each round picks the current
nearest (furthest) free pair of every window simultaneously —
identical to the paper's one-pair-at-a-time loop, with no per-window
Python iteration. Nothing is sorted for it: the expansion already
emits each window's bin pairs together and in (E bin, I bin) order,
which is the tie order, so a round is one minimum per window.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from typing import TYPE_CHECKING, Literal

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import histories, proximity
from repro.grid import cells

if TYPE_CHECKING:  # slim imports this module
    from repro.core.slim import SlimConfig

_KERNEL_SCHEMA = (
    "u long, v long, score double, n_pairs long, n_alibi long, n_comp long"
)

#: Alg. 1's pairing rule: MNN + MFN alibis (SLIM), MNN only, all pairs
Pairing = Literal["mnn_mfn", "mnn", "all"]


def all_pairs(spark: SparkSession, stats: histories.CorpusStats) -> DataFrame:
    """Brute-force candidate relation ``(u, v)``: every entity pair.

    The cross join of two one-column relations made from the ids in
    ``stats`` (:func:`repro.core.histories.corpus_stats`), so the bins
    are not read again. Each relation is one partition, so the cross
    join runs one task, not one per pair of partitions.
    """
    def ids(entities: tuple[int, ...], name: str) -> DataFrame:
        rows = spark.sparkContext.parallelize([(e,) for e in entities], 1)
        return spark.createDataFrame(rows, f"{name} long")

    return ids(stats.e.entities, "u").crossJoin(ids(stats.i.entities, "v"))


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
    identify a bin of it, ordered like the bins' cells.

    Precondition: each window's rows are contiguous and in ``(eid,
    iid)`` order, as :func:`within_window_pairs` emits them. Each round
    takes every window's smallest key (``d``, or ``−d`` for MFN) over
    the remaining rows, in input order, and picks the window's first
    row holding it, so distance ties go to the smallest ``(eid, iid)``
    and the selection depends only on the bins. The round then drops
    the rows whose bins it used; no row is ever sorted.
    """
    sel = np.zeros(d.size, dtype=bool)
    if d.size == 0:
        return sel
    key = -d if furthest else d
    rows = np.arange(d.size)
    taken_e = np.zeros(int(eid.max()) + 1, dtype=bool)
    taken_i = np.zeros(int(iid.max()) + 1, dtype=bool)
    while rows.size:
        w, k = win[rows], key[rows]
        starts = np.flatnonzero(np.r_[True, w[1:] != w[:-1]])
        low = np.repeat(np.minimum.reduceat(k, starts), np.diff(starts, append=rows.size))
        at_low = np.where(k == low, np.arange(rows.size), rows.size)
        winners = rows[np.minimum.reduceat(at_low, starts)]
        sel[winners] = True
        taken_e[eid[winners]] = True
        taken_i[iid[winners]] = True
        rows = rows[~(taken_e[eid[rows]] | taken_i[iid[rows]])]
    return sel


def _sorted_side(pdf: pd.DataFrame, s: str, fields: list[str]) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Side ``s``'s bins sorted by (row, window, cell), and each (row, window) run's start and length."""
    sizes = pdf[f"window_{s}"].map(len).to_numpy()
    side = {"row": np.repeat(np.arange(len(pdf)), sizes)}
    side |= {f: np.concatenate(pdf[f"{f}_{s}"].to_list()) for f in fields}
    order = np.lexsort((side["cell"], side["window"], side["row"]))
    side = {f: a[order] for f, a in side.items()}
    row, win = side["row"], side["window"]
    start = np.flatnonzero(np.r_[True, (row[1:] != row[:-1]) | (win[1:] != win[:-1])])
    return side, start, np.diff(start, append=row.size)


def within_window_pairs(
    pdf: pd.DataFrame, *, use_idf: bool
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """The within-window bin pairs of each row's two histories.

    ``pdf`` holds one candidate pair per row, each side's history as
    the arrays ``window_e, cell_e[, idf_e]`` and ``window_i,
    cell_i[, idf_i]``, in any order. Returns ``(e, i, gid, eid, iid)``:
    each side's bins ``row, window, cell[, idf]`` sorted by (row,
    window, cell), and per bin pair, in (row, window, cell_e, cell_i)
    order, its (row, window) group and its bins' positions in e and i.
    """
    fields = ["window", "cell"] + (["idf"] if use_idf else [])
    (e, start_e, n_e), (i, start_i, n_i) = (_sorted_side(pdf, s, fields) for s in "ei")
    # each side's runs are sorted and unique on (row, window), so a
    # stable sort of both puts a shared key's E run just before its I run
    row = np.r_[e["row"][start_e], i["row"][start_i]]
    win = np.r_[e["window"][start_e], i["window"][start_i]]
    o = np.lexsort((win, row))
    hit = (row[o[1:]] == row[o[:-1]]) & (win[o[1:]] == win[o[:-1]])
    run_e, run_i = o[:-1][hit], o[1:][hit] - start_e.size
    start_e, start_i, n_i = start_e[run_e], start_i[run_i], n_i[run_i]
    size = n_e[run_e] * n_i
    gid = np.repeat(np.arange(size.size), size)
    k = np.arange(gid.size) - np.repeat(np.cumsum(size) - size, size)
    return e, i, gid, start_e[gid] + k // n_i[gid], start_i[gid] + k % n_i[gid]


def _make_kernel(cfg: SlimConfig):
    """Build the ``mapInPandas`` kernel that scores with ``cfg``.

    Each row is one candidate pair ``u, v`` with both histories, as
    :func:`within_window_pairs` reads them, plus the length factors
    ``L_u, L_v`` when ``cfg.use_norm``. A row is a whole pair, so every
    Arrow batch is scored on its own, and the kernel returns one row
    per input row. Contributions are summed with ``math.fsum``, which
    rounds exactly, so a score does not depend on the order in which
    the bins arrive.
    """
    runaway_m = proximity.runaway_distance_m(cfg.window_sec, cfg.alpha_m_per_sec)

    def kernel(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            if len(pdf):
                yield score_batch(pdf)

    def score_batch(pdf: pd.DataFrame) -> pd.DataFrame:
        e, i, gid, eid, iid = within_window_pairs(pdf, use_idf=cfg.use_idf)
        row = e["row"][eid]
        d = cells.min_distance_m(e["cell"][eid], i["cell"][iid], cfg.level)
        contrib = proximity.proximity(d, runaway_m)
        if cfg.use_idf:
            contrib = contrib * np.minimum(e["idf"][eid], i["idf"][iid])
        alibi = proximity.is_alibi(d, runaway_m)

        if cfg.pairing == "all":
            included = np.ones(d.size, dtype=bool)
        else:
            # each group's pairs come contiguous and in (eid, iid)
            # order, and a bin's position rises with its cell, so
            # greedy_select_mask breaks ties on the cells
            mnn = greedy_select_mask(gid, eid, iid, d, furthest=False)
            included = mnn
            if cfg.pairing == "mnn_mfn":
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
        if cfg.use_norm:
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
    b, pairing rule and idf and norm switches are ``cfg``'s. Returns
    ``(u, v, score, n_pairs, n_alibi, n_comp)`` with one row per
    candidate pair; a pair that shares no temporal window has score 0
    and every count 0. ``n_comp`` is the paper's pairwise-comparison
    cost metric; ``n_alibi`` counts included alibi bin pairs.
    """
    def side(bins: DataFrame, totals: histories.SideTotals, entity: str, s: str) -> DataFrame:
        """One row per entity: its history as arrays and, with norm on,
        its L from the history's length |H_u|."""
        fields = ["window", "cell"]
        if cfg.use_idf:
            # reuses build_bins' (window, cell) partitioning
            bins = histories.idf(bins, totals)
            fields.append("idf")
        hist = bins.groupBy("entity").agg(F.collect_list(F.struct(*fields)).alias("h"))
        cols = [F.col("entity").alias(entity), *(F.col("h")[f].alias(f"{f}_{s}") for f in fields)]
        if cfg.use_norm:
            cols.append(histories.norm_factors(F.size("h"), totals, b=cfg.b).alias(f"L_{entity}"))
        return hist.select(*cols)

    ehist = side(bins_e, stats.e, "u", "e")
    ihist = side(bins_i, stats.i, "v", "i")
    joined = candidates.join(ehist, "u").join(ihist, "v")
    # every row is a whole pair, so the kernel needs no repartition
    return joined.mapInPandas(_make_kernel(cfg), schema=_KERNEL_SCHEMA)
