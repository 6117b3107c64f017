"""Mobility histories: records → time-location bins (paper Sec 2.3).

A *mobility history* distributes an entity's records over
(temporal-window × spatial-cell) bins. The paper stores histories as a
temporal tree whose leaves hold cell-id sets and whose inner nodes hold
per-subtree cell counts; in a DataFrame engine the leaf level is the
``groupBy(entity, window, cell)`` relation below, and every inner tree
level is the same relation re-aggregated at a coarser window — see
:mod:`repro.core.lsh` for the dominating-cell queries that use it.

All functions but :func:`corpus_stats`, :func:`norm_factors` (a
Column) and the two comparison counts return DataFrames so Catalyst
plans the whole pipeline; nothing else here runs a Spark action, and
:func:`comparison_count_candidates` runs on the driver.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.grid import cells


def _bin_cols(*, level: int, window_sec: int) -> list[Column]:
    """A record's ``window`` and ``cell``."""
    return [
        F.floor(F.col("ts") / F.lit(int(window_sec))).alias("window"),
        cells.encode_col(F.col("lat"), F.col("lon"), level).alias("cell"),
    ]


def build_bins(records: DataFrame, *, level: int, window_sec: int) -> DataFrame:
    """Bin records into the history leaf relation.

    Input schema ``(entity, ts, lat, lon)``; output
    ``(entity, window, cell)`` with one row per occupied time-location
    bin, the *set* semantics of the paper's leaves. The binned records
    are hash-partitioned by (window, cell) first, so the bin aggregate
    and the per-bin window of :func:`idf` share that one shuffle.
    """
    return (
        records.select("entity", *_bin_cols(level=level, window_sec=window_sec))
        .repartition("window", "cell")
        .distinct()
    )


@dataclass(frozen=True)
class SideTotals:
    """One side's entity set U and its number of bins.

    ``entities`` holds the ids of the entities with a record, in
    ascending order; Eq. 3's |U| is their number. Brute force pairs
    both sides' ids (:func:`repro.core.similarity.all_pairs`).
    """

    entities: tuple[int, ...]
    n_bins: int

    @property
    def n_entities(self) -> int:
        return len(self.entities)


@dataclass(frozen=True)
class CorpusStats:
    """Corpus statistics of a linkage instance, from one per-entity aggregate.

    ``ts_span`` is the first and last ``ts`` over both sides' records,
    ``None`` when there are none; :func:`repro.core.lsh.plan` derives
    the LSH query-window span from it.
    :func:`repro.core.tuning.self_similarity_ratio` draws its probes
    from ``e.entities``. ``signatures`` holds both sides' dominating-cell
    signature entries ``(side, entity, qw, cell)``, sorted, when
    :func:`corpus_stats` was given :func:`repro.core.lsh.signatures`,
    and is ``None`` otherwise; :func:`repro.core.lsh.candidate_pairs`
    bands them.
    """

    e: SideTotals
    i: SideTotals
    ts_span: tuple[int, int] | None
    signatures: pd.DataFrame | None = field(default=None, compare=False, repr=False)


_INTEGER_TYPES = (T.ByteType, T.ShortType, T.IntegerType, T.LongType)
SIDES = ("e", "i")


def tag_sides(records_e: DataFrame, records_i: DataFrame) -> DataFrame:
    """Both sides' records as one relation ``(side, entity, ts, lat, lon)``.

    ``side`` is ``"e"`` or ``"i"``. Consumers group by (side, entity),
    so an entity id that occurs on both sides stays two entities, and
    tell the sides apart inside aggregates rather than by a filter on
    ``side``: Catalyst pushes such a filter through the union and
    plans each side on its own again.
    """
    cols = ["entity", "ts", "lat", "lon"]
    return records_e.select(F.lit(SIDES[0]).alias("side"), *cols).unionAll(
        records_i.select(F.lit(SIDES[1]).alias("side"), *cols)
    )


def corpus_stats(
    records_e: DataFrame,
    records_i: DataFrame,
    *,
    level: int,
    window_sec: int,
    signature: tuple[Column, Column] | None = None,
) -> CorpusStats:
    """Both sides' entity ids and bin totals and the time span; two Spark jobs.

    Both sides' binned records are hash-partitioned by (side, entity)
    and aggregated per (side, entity, window, cell), then per (side,
    entity), in that one shuffle. The driver collects one row per
    entity, with its bin count, first and last ``ts`` and contract
    violations, keeps each side's ids in ascending order and sums the
    rest. The same rows enforce the records' contract: no null entity,
    ts, lat or lon, lat within [−90, 90] and lon within [−180, 180]
    (``ValueError`` otherwise, as for a ``ts`` that is not of an
    integer type, which the schema shows without a job). With nulls
    rejected, an entity's (window, cell) groups are exactly the rows
    :func:`build_bins` emits for it.

    ``signature`` is :func:`repro.core.lsh.signatures`' query-window
    key and dominating-cell aggregate. With it, the first aggregate is
    per (side, entity, qw) instead: it takes the dominating cell and
    counts the distinct (window, cell) bins, whose sum over the query
    windows is the entity's bin count, because each window lies in one
    query window. Each entity's row then also carries its signature
    entries, which ``CorpusStats.signatures`` holds; the job count and
    every other field are the same.
    """
    for name, rec in (("records_e", records_e), ("records_i", records_i)):
        ts_type = rec.schema["ts"].dataType
        if not isinstance(ts_type, _INTEGER_TYPES):
            raise ValueError(f"{name}: ts must have an integer type, not {ts_type.simpleString()}")
    checks = (
        (
            "a null entity, ts, lat or lon",
            F.col("entity").isNull() | F.col("ts").isNull() | F.col("lat").isNull() | F.col("lon").isNull(),
        ),
        ("a lat outside [-90, 90]", ~F.col("lat").between(-90.0, 90.0)),
        ("a lon outside [-180, 180]", ~F.col("lon").between(-180.0, 180.0)),
    )
    group_aggs = [
        F.min("ts").alias("ts_lo"),
        F.max("ts").alias("ts_hi"),
        *(F.count_if(f"bad{k}").alias(f"bad{k}") for k in range(len(checks))),
    ]
    entity_aggs = [
        F.min("ts_lo").alias("ts_lo"),
        F.max("ts_hi").alias("ts_hi"),
        *(F.sum(f"bad{k}").alias(f"bad{k}") for k in range(len(checks))),
    ]
    if signature is None:  # one group per bin
        keys = [F.col("window"), F.col("cell")]
        entity_aggs.append(F.count(F.lit(1)).alias("n_bins"))
    else:
        qw, dominating = signature
        keys = [qw.alias("qw")]
        group_aggs += [F.count_distinct("window", "cell").alias("n_bins"), dominating.alias("sig_cell")]
        entity_aggs += [F.sum("n_bins").alias("n_bins"), F.collect_list(F.struct("qw", "sig_cell")).alias("sig")]
    rel = (
        tag_sides(records_e, records_i)
        .repartition("side", "entity")
        .select(
            "side",
            "entity",
            "ts",
            "lat",
            "lon",
            *_bin_cols(level=level, window_sec=window_sec),
            *(bad.alias(f"bad{k}") for k, (_, bad) in enumerate(checks)),
        )
        .groupBy("side", "entity", *keys)
        .agg(*group_aggs)
        .groupBy("side", "entity")
        .agg(*entity_aggs)
    )
    if signature is not None:  # the entries as one array per field, in the same order
        rel = rel.withColumns({"sig_qw": F.col("sig.qw"), "sig_cell": F.col("sig.sig_cell")}).drop("sig")
    per_entity = rel.collect()
    rows = {side: [row for row in per_entity if row["side"] == side] for side in SIDES}
    bad = [
        f"{n} records_{side} rows have {what}"
        for side in SIDES
        for k, (what, _) in enumerate(checks)
        if (n := sum(row[f"bad{k}"] for row in rows[side]))
    ]
    if bad:
        raise ValueError("invalid records: " + "; ".join(bad))
    totals = {
        side: SideTotals(tuple(sorted(row["entity"] for row in rows[side])), sum(row["n_bins"] for row in rows[side]))
        for side in SIDES
    }
    return CorpusStats(
        e=totals["e"],
        i=totals["i"],
        ts_span=(min(row["ts_lo"] for row in per_entity), max(row["ts_hi"] for row in per_entity))
        if per_entity
        else None,
        signatures=None if signature is None else _signature_frame(per_entity),
    )


def _signature_frame(per_entity: list) -> pd.DataFrame:
    """The collected rows' signature entries ``(side, entity, qw, cell)``, sorted."""
    n = np.array([len(row["sig_qw"]) for row in per_entity], dtype=np.int64)

    def entries(name: str) -> np.ndarray:
        return np.fromiter(itertools.chain.from_iterable(row[name] for row in per_entity), np.int64, int(n.sum()))

    frame = pd.DataFrame(
        {
            "side": np.repeat(np.array([row["side"] for row in per_entity], dtype=object), n),
            "entity": np.repeat(np.array([row["entity"] for row in per_entity], dtype=np.int64), n),
            "qw": entries("sig_qw"),
            "cell": entries("sig_cell"),
        }
    )
    return frame.sort_values(["side", "entity", "qw"], ignore_index=True)


def norm_factors(n_bins: Column, totals: SideTotals, *, b: float) -> Column:
    """BM25-style length normalization ``L(u) = (1−b) + b·|H_u|/avg|H|``.

    Eq. 2's denominator component; ``b`` ∈ [0, 1] tunes how strongly
    long histories are discounted (paper default 0.5).

    ``n_bins`` is the Column holding |H_u|, the number of bins in u's
    mobility history. avg|H| is ``totals.n_bins / totals.n_entities``,
    a literal from :func:`corpus_stats`; a side with no entities has no
    rows, so it divides by 1 instead of 0. Returns the ``L`` Column.
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must be in [0, 1]")
    avg_bins = F.lit(totals.n_bins) / F.lit(max(totals.n_entities, 1))
    return F.lit(1.0 - b) + F.lit(b) * n_bins / avg_bins


def idf(bins: DataFrame, totals: SideTotals) -> DataFrame:
    """Per-bin inverse document frequency (Eq. 3).

    ``idf(e) = log(|U| / |{u : e ∈ H_u}|)`` where the document
    frequency counts entities of the *same* dataset occupying the bin.

    ``bins`` must hold one row per (entity, window, cell), as
    :func:`build_bins` emits, so that the document frequency is the row
    count of the bin, a window over the (window, cell) partitioning
    ``build_bins`` already has. |U| is
    ``totals.n_entities``, a literal from :func:`corpus_stats`. Returns
    the input rows with ``idf`` added; runs no Spark action.
    """
    df = F.count(F.lit(1)).over(Window.partitionBy("window", "cell"))
    return bins.withColumn("idf", F.log(F.lit(totals.n_entities).cast("double") / df))


def window_bin_counts(bins: DataFrame) -> DataFrame:
    """``(entity, window, n_bins_w)`` — bins per entity per window.

    Used for the paper's scalability metric: the number of pairwise
    bin comparisons a candidate pair (u, v) costs is
    ``Σ_w n_bins_w(u) · n_bins_w(v)``.
    """
    return bins.groupBy("entity", "window").agg(
        F.count(F.lit(1)).alias("n_bins_w")
    )


def comparison_count_all_pairs(bins_e: DataFrame, bins_i: DataFrame) -> int:
    """Total bin-pair comparisons for brute-force (all entity pairs).

    ``Σ_w (Σ_u n_bins_w(u)) · (Σ_v n_bins_w(v))`` — a cheap closed form
    that avoids materializing the cross join. Any two relations with a
    ``window`` column work: on records it counts ST-Link's
    within-window record pairs.
    """
    we = bins_e.groupBy("window").agg(F.count(F.lit(1)).alias("ne"))
    wi = bins_i.groupBy("window").agg(F.count(F.lit(1)).alias("ni"))
    row = (
        we.join(wi, "window")
        .agg(F.sum(F.col("ne") * F.col("ni")).alias("total"))
        .collect()[0]
    )
    return int(row["total"] or 0)


def comparison_count_candidates(counts_e: pd.DataFrame, counts_i: pd.DataFrame, pairs: pd.DataFrame) -> int:
    """Total bin-pair comparisons restricted to the ``(u, v)`` pairs.

    ``Σ_(u,v) Σ_w n_bins_w(u) · n_bins_w(v)`` on the driver:
    ``counts_e`` and ``counts_i`` are each side's
    :func:`window_bin_counts`, collected, and ``pairs`` holds the
    candidate pairs, as :func:`repro.core.lsh.candidate_pairs` gives
    them. Collected once, the counts serve any number of candidate sets.
    """
    per_window = pairs.merge(counts_e.rename(columns={"entity": "u"}), on="u").merge(
        counts_i.rename(columns={"entity": "v", "n_bins_w": "n_bins_w_i"}), on=["v", "window"]
    )
    return int((per_window["n_bins_w"] * per_window["n_bins_w_i"]).sum())
