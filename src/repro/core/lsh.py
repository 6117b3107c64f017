"""LSH over mobility histories via dominating grid cells (paper Sec 4).

Each mobility history is summarized into a *signature*: for a sequence
of non-overlapping query windows (``step`` leaf windows each) the
*dominating grid cell* — the cell holding the most of the entity's
records in that query window, at a configurable signature spatial
level — is appended. Query windows with no records contribute a
placeholder, which is omitted from hashing (here: simply no row).

The signature of length ``s`` is then split into ``b`` bands of ``r``
rows; ``b`` is derived from the target similarity threshold ``t`` via
``b = exp(W(−s·ln t))`` (Lambert W), so that signatures with
dominating-cell agreement above ``t`` land in the same bucket at least
once with high probability. Bands are hashed into ``n_buckets``
buckets; entities from the two datasets sharing a (band, bucket) become
candidate pairs. A *finite* bucket count means unrelated bands can
collide — exactly the effect the paper's Figure 9 sweeps. Both
datasets share one set of buckets, so both go through the signature
and banding stages as one relation, keyed by (side, entity).

In the paper the dominating-cell query is served by the inner nodes of
the history tree; here it is the same records relation aggregated at
(signature level × query window) — see DESIGN.md §3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from pyspark.sql import DataFrame
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


def signatures(records: DataFrame, *, level: int, window_sec: int, step: int) -> DataFrame:
    """Dominating-cell signature entries ``(side, entity, qw, cell)``.

    ``records`` are :func:`repro.core.histories.tag_sides`' relation
    ``(side, entity, ts, lat, lon)``; an entity is a (side, entity)
    pair, so an id that occurs on both sides has two signatures. One
    row per (side, entity, query window) that has records; query
    window ``qw`` spans ``step`` leaf windows. The dominating cell is
    the cell holding the most of the entity's records in the query
    window; ties go to the lowest cell id, so the result is
    deterministic. One aggregate computes it: ``mode`` over the
    records' cells, whose deterministic variant breaks ties on the
    smallest value. The records are hash-partitioned by (side, entity)
    first, so this aggregate and :func:`band_buckets`' per-entity one
    share that one shuffle.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    return (
        records.repartition("side", "entity")
        .select(
            "side",
            "entity",
            F.floor(F.col("ts") / F.lit(int(window_sec * step))).alias("qw"),
            cells.encode_col(F.col("lat"), F.col("lon"), level).alias("cell"),
        )
        .groupBy("side", "entity", "qw")
        .agg(F.mode("cell", deterministic=True).alias("cell"))
    )


def band_buckets(
    sigs: DataFrame, *, qw_min: int, r: int, n_buckets: int
) -> DataFrame:
    """Hash each entity's bands to buckets: ``(side, entity, band, bucket)``.

    A band's content is the ordered list of (position, dominating cell)
    of its non-placeholder positions; bands that are all placeholders
    produce no row. Hashing includes the in-band position so that the
    same cell at different query windows hashes differently, exactly as
    the paper's positional signatures do. The side is not hashed, so
    equal bands of the two sides share a bucket.
    """
    sig = sigs.select(
        "side",
        "entity",
        (F.col("qw") - F.lit(int(qw_min))).alias("pos"),
        "cell",
    ).withColumn("band", (F.col("pos") / F.lit(int(r))).cast("long"))
    return (
        sig.groupBy("side", "entity", "band")
        .agg(F.sort_array(F.collect_list(F.struct("pos", "cell"))).alias("content"))
        .select(
            "side",
            "entity",
            "band",
            F.pmod(F.xxhash64(F.col("content")), F.lit(int(n_buckets))).alias("bucket"),
        )
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


def lsh_candidates(
    records_e: DataFrame,
    records_i: DataFrame,
    *,
    window_sec: int,
    cfg: LshConfig,
    ts_span: tuple[int, int] | None,
) -> tuple[DataFrame, LshPlan]:
    """Candidate entity pairs ``(u, v)`` sharing a (band, bucket).

    This is the paper's filtering step: only these pairs proceed to
    similarity scoring. ``ts_span`` is :func:`plan`'s span of both
    sides' records. Both sides' records go through :func:`signatures`
    and :func:`band_buckets` as one relation, so each stage runs once;
    one ``groupBy(band, bucket)`` then collects each side's entities
    and pairs every E entity with every I entity of the group. A pair
    that shares several (band, bucket)s occurs once per shared group,
    and the ``distinct`` removes the copies. Returns the distinct
    candidate relation, hash-partitioned by ``u`` so that the scorer's
    join on ``u`` reuses that shuffle, plus the banding plan (for
    reporting); runs no Spark job.
    """
    p = plan(ts_span, window_sec=window_sec, cfg=cfg)
    sigs = signatures(
        histories.tag_sides(records_e, records_i), level=cfg.level, window_sec=window_sec, step=cfg.step
    )
    buckets = band_buckets(sigs, qw_min=p.qw_min, r=p.rows_per_band, n_buckets=cfg.n_buckets)
    # each side's entities of a group; a filter on side would split the plan
    us, vs = (F.collect_list(F.when(F.col("side") == side, F.col("entity"))) for side in histories.SIDES)
    cand = (
        buckets.groupBy("band", "bucket")
        .agg(us.alias("us"), vs.alias("vs"))
        .select(F.explode("us").alias("u"), "vs")
        .select("u", F.explode("vs").alias("v"))
        .repartition("u")
        .distinct()
    )
    return cand, p
