"""LSH over mobility histories via dominating grid cells (paper Sec 4).

Each mobility history is summarized into a *signature*: for a sequence
of non-overlapping query windows (``step`` leaf windows each) the
*dominating grid cell* — the cell holding the most of the entity's
records in that query window, at a configurable signature spatial
level — is appended. Query windows with no records contribute a
placeholder, which is omitted from hashing (here: simply no entry).

The signature of length ``s`` is then split into ``b`` bands of ``r``
rows; ``b`` is derived from the target similarity threshold ``t`` via
``b = exp(W(−s·ln t))`` (Lambert W), so that signatures with
dominating-cell agreement above ``t`` land in the same bucket at least
once with high probability. Bands are hashed into ``n_buckets``
buckets; entities from the two datasets sharing a (band, bucket) become
candidate pairs. A *finite* bucket count means unrelated bands can
collide — exactly the effect the paper's Figure 9 sweeps. Both
datasets share one set of buckets, and an entity is a (side, entity)
pair, so an id that occurs on both sides has two signatures.

A signature has at most ``s`` entries, so the signatures are
entity-scale data. Spark computes them inside the corpus statistics'
per-entity aggregate (:func:`signatures` gives the aggregate to
:func:`repro.core.histories.corpus_stats`), the driver collects them
with the statistics, and the banding, hashing and pairing run on the
driver in numpy. :func:`bucket_hash` is an exact twin of Spark's
``pmod(xxhash64(content), n_buckets)``, as
:func:`repro.grid.cells.encode` is of ``encode_col``.

In the paper the dominating-cell query is served by the inner nodes of
the history tree; here it is the same records relation aggregated at
(signature level × query window) — see DESIGN.md §3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import histories
from repro.grid import cells

LAMBERT_TOL = 1e-12  # relative Newton step that stops lambert_w
LAMBERT_MAX_ITER = 100


def lambert_w(x: float) -> float:
    """Principal-branch Lambert W for x ≥ 0 (Newton iteration)."""
    if x < 0:
        raise ValueError("only x >= 0 is needed here (t < 1 ⇒ −s·ln t > 0)")
    if x == 0:
        return 0.0
    w = math.log1p(x)  # good starting point for x >= 0
    for _ in range(LAMBERT_MAX_ITER):
        ew = math.exp(w)
        delta = (w * ew - x) / (ew * (w + 1.0))
        w -= delta
        if abs(delta) < LAMBERT_TOL * (1.0 + abs(w)):
            break
    return w


def n_bands(signature_len: int, threshold: float) -> int:
    """Number of bands b = exp(W(−s·ln t)), clamped to [1, s]."""
    if not 0 < threshold < 1:
        raise ValueError("threshold must be in (0, 1)")
    if signature_len < 1:
        raise ValueError("signature_len must be >= 1")
    b = round(math.exp(lambert_w(-signature_len * math.log(threshold))))
    return int(min(max(b, 1), signature_len))


@dataclass(frozen=True)
class LshConfig:
    """Parameters of the dominating-cell LSH (paper Sec 4).

    ``step`` is the query window size in *leaf windows*; the signature
    spatial ``level`` is independent of the similarity level.
    """

    level: int = 16
    step: int = 48
    threshold: float = 0.6
    n_buckets: int = 4096

    def __post_init__(self) -> None:
        if self.step < 1 or self.n_buckets < 1:
            raise ValueError(f"step ({self.step}) and n_buckets ({self.n_buckets}) must be >= 1")
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must be in (0, 1)")
        cells.cell_size_m(self.level)  # a signature level outside the grid fails here


def signatures(*, level: int, window_sec: int, step: int) -> tuple[Column, Column]:
    """A record's query window and the dominating-cell aggregate: ``(qw, cell)``.

    ``qw`` is the record's query window, ``floor(ts / (window_sec ·
    step))``, which spans ``step`` leaf windows. ``cell`` is an
    aggregate over records: the cell at ``level`` holding the most of
    them, ties going to the lowest cell id (``mode``'s deterministic
    variant breaks ties on the smallest value), so the result is
    deterministic. Over the records grouped by (side, entity, ``qw``),
    ``cell`` is the entity's signature entry for that query window; a
    query window without records forms no group, which is its
    placeholder. :func:`repro.core.histories.corpus_stats` runs this
    aggregate in its own per-entity one and collects the entries.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    qw = F.floor(F.col("ts") / F.lit(int(window_sec * step)))
    cell = F.mode(cells.encode_col(F.col("lat"), F.col("lon"), level), deterministic=True)
    return qw, cell


# XXH64's primes, as Spark's XXH64 declares them
_P1 = np.uint64(0x9E3779B185EBCA87)
_P2 = np.uint64(0xC2B2AE3D27D4EB4F)
_P3 = np.uint64(0x165667B19E3779F9)
_P4 = np.uint64(0x85EBCA77C2B2AE63)
_P5 = np.uint64(0x27D4EB2F165667C5)
XXHASH64_SEED = 42  # the seed of Spark's xxhash64


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def _hash_long(value: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Spark's ``XXH64.hashLong(value, seed)``, elementwise over uint64 arrays."""
    h = seed + _P5 + np.uint64(8)
    h ^= _rotl(value * _P2, 31) * _P1
    h = _rotl(h, 27) * _P1 + _P4
    h ^= h >> np.uint64(33)
    h *= _P2
    h ^= h >> np.uint64(29)
    h *= _P3
    h ^= h >> np.uint64(32)
    return h


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """The index of each run's first row, a run being equal rows of the sorted ``keys``."""
    new = np.zeros(keys[0].size, dtype=bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(new)


def bucket_hash(start: np.ndarray, pos: np.ndarray, cell: np.ndarray, *, n_buckets: int) -> np.ndarray:
    """Each group's bucket, ``pmod(xxhash64(array<struct<pos, cell>>), n_buckets)``.

    A group's entries are contiguous and in content order, and
    ``start`` holds the index of each group's first entry. Spark hashes
    an array by folding its elements into the seed, and a struct of two
    longs by folding in its fields, so a group's hash is ``hashLong``
    chained over pos, then cell, of each entry, starting from seed 42.
    Returns one bucket per group, as int64.
    """
    size = np.diff(start, append=pos.size)
    group = np.repeat(np.arange(start.size), size)
    rank = np.arange(pos.size) - np.repeat(start, size)
    pos, cell = (np.asarray(a, dtype=np.int64).view(np.uint64) for a in (pos, cell))
    h = np.full(start.size, XXHASH64_SEED, dtype=np.uint64)
    for k in range(int(size.max(initial=0))):
        at = rank == k  # one entry of each group longer than k
        g = group[at]
        h[g] = _hash_long(cell[at], _hash_long(pos[at], h[g]))
    return np.mod(h.view(np.int64), n_buckets)


def band_buckets(sigs: pd.DataFrame, *, qw_min: int, r: int, n_buckets: int) -> pd.DataFrame:
    """Hash each entity's bands to buckets: ``(side, entity, band, bucket)``.

    ``sigs`` holds signature entries ``(side, entity, qw, cell)``, as
    ``CorpusStats.signatures``. A band's content is the list of
    (position, dominating cell) of its non-placeholder positions, in
    position order; bands that are all placeholders produce no row.
    Hashing includes the in-band position so that the same cell at
    different query windows hashes differently, exactly as the paper's
    positional signatures do. The side is not hashed, so equal bands of
    the two sides share a bucket. Runs on the driver.
    """
    if sigs.empty:  # an empty plan's r is 0
        return pd.DataFrame({"side": [], "entity": [], "band": [], "bucket": []}).astype(
            {"side": object, "entity": "int64", "band": "int64", "bucket": "int64"}
        )
    side_code, side_names = pd.factorize(sigs["side"])
    entity = sigs["entity"].to_numpy(np.int64)
    pos = sigs["qw"].to_numpy(np.int64) - int(qw_min)
    band = pos // int(r)
    order = np.lexsort((pos, band, entity, side_code))
    side_code, entity, pos, band = side_code[order], entity[order], pos[order], band[order]
    start = _run_starts(side_code, entity, band)
    return pd.DataFrame(
        {
            "side": np.asarray(side_names, dtype=object)[side_code[start]],
            "entity": entity[start],
            "band": band[start],
            "bucket": bucket_hash(start, pos, sigs["cell"].to_numpy(np.int64)[order], n_buckets=n_buckets),
        }
    )


@dataclass(frozen=True)
class LshPlan:
    """Derived banding parameters for one linkage instance.

    With no records on either side the signature is empty:
    ``signature_len``, ``n_bands`` and ``rows_per_band`` are all 0.
    """

    signature_len: int
    n_bands: int
    rows_per_band: int
    qw_min: int


def plan(ts_span: tuple[int, int] | None, *, window_sec: int, cfg: LshConfig) -> LshPlan:
    """Derive signature length and banding from the data's time span.

    ``ts_span`` is the first and last ``ts`` over both sides' records
    (:func:`repro.core.histories.corpus_stats`), ``None`` when there
    are none. Their query windows of ``window_sec · cfg.step`` seconds
    are computed as :func:`signatures`' ``qw`` column computes them: a
    double division, then the floor. Pure arithmetic: runs no Spark job.
    """
    if ts_span is None:  # no records on either side
        return LshPlan(signature_len=0, n_bands=0, rows_per_band=0, qw_min=0)
    query_sec = float(window_sec * cfg.step)
    qw_min, qw_max = (math.floor(float(ts) / query_sec) for ts in ts_span)
    s = qw_max - qw_min + 1
    b = n_bands(s, cfg.threshold)
    r = math.ceil(s / b)
    return LshPlan(signature_len=s, n_bands=b, rows_per_band=r, qw_min=qw_min)


def candidate_pairs(
    stats: histories.CorpusStats, *, window_sec: int, cfg: LshConfig
) -> tuple[pd.DataFrame, LshPlan]:
    """The distinct ``(u, v)`` pairs sharing a (band, bucket), and the plan.

    ``stats`` must come from :func:`repro.core.histories.corpus_stats`
    with ``cfg``'s :func:`signatures`; ``cfg``'s threshold and bucket
    count only enter here. Every E entity of a (band, bucket) is paired
    with every I entity of it; a pair that shares several (band,
    bucket)s is kept once. The pairs come sorted by (u, v). Runs on the
    driver.
    """
    if stats.signatures is None:
        raise ValueError("stats hold no signatures: pass signatures(...) to corpus_stats")
    p = plan(stats.ts_span, window_sec=window_sec, cfg=cfg)
    buckets = band_buckets(stats.signatures, qw_min=p.qw_min, r=p.rows_per_band, n_buckets=cfg.n_buckets)
    e, i = (
        buckets.loc[buckets["side"] == side, ["band", "bucket", "entity"]].rename(columns={"entity": name})
        for side, name in zip(histories.SIDES, ("u", "v"))
    )
    pairs = e.merge(i, on=["band", "bucket"])[["u", "v"]].drop_duplicates()
    return pairs.sort_values(["u", "v"], ignore_index=True), p


def lsh_candidates(
    spark: SparkSession, stats: histories.CorpusStats, *, window_sec: int, cfg: LshConfig
) -> tuple[DataFrame, LshPlan]:
    """Candidate entity pairs ``(u, v)`` sharing a (band, bucket).

    This is the paper's filtering step: only these pairs proceed to
    similarity scoring. :func:`candidate_pairs` finds them on the
    driver; they are returned as a one-partition relation, like
    :func:`repro.core.similarity.all_pairs`' brute-force pairs, plus
    the banding plan (for reporting). Runs no Spark job.
    """
    pairs, p = candidate_pairs(stats, window_sec=window_sec, cfg=cfg)
    rows = spark.sparkContext.parallelize(list(zip(pairs["u"].tolist(), pairs["v"].tolist())), 1)
    return spark.createDataFrame(rows, "u long, v long"), p
