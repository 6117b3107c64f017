"""Tests for the pairwise similarity scorer (Eq. 2 / Alg. 1)."""
import math
import re

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core import histories, proximity, similarity
from repro.core.proximity import proximity as prox
from repro.core.slim import SlimConfig
from repro.grid import cells

LEVEL = 12
WINDOW_SEC = 900
# 15 min × 2 km/min, computed as the kernel computes it: the float
# product is 30000.000000000004
RUNAWAY = proximity.runaway_distance_m(WINDOW_SEC)


def _cell(lat, lon):
    return int(cells.encode(np.array([lat]), np.array([lon]), LEVEL)[0])


# well-separated cells around the origin
CELL_A = _cell(0.0, 0.0)
CELL_B = _cell(0.0, 0.05)  # ~5.5 km east: close (within runaway)
CELL_FAR = _cell(0.0, 0.8)  # ~89 km east: alibi (beyond 2R)
D_AB = cells.min_distance_m(np.array([CELL_A]), np.array([CELL_B]), LEVEL)[0]
D_AF = cells.min_distance_m(np.array([CELL_A]), np.array([CELL_FAR]), LEVEL)[0]
# a row of adjacent cells plus an alibi cell: grid distances tie at 0
# (same or touching cells) and at whole multiples of the cell size
TIED_CELLS = [
    _cell(0.001, 0.001 + k * cells.cell_size_deg(LEVEL)) for k in range(4)
] + [CELL_FAR]


def _bins(spark, rows):
    """rows: (entity, window, cell) triples → bins DataFrame."""
    pdf = pd.DataFrame(rows, columns=["entity", "window", "cell"])
    return spark.createDataFrame(pdf.astype("int64"), schema="entity long, window long, cell long")


def _totals(rows):
    """The side totals of a list of distinct (entity, window, cell) bins."""
    return histories.SideTotals(entities=tuple(sorted({r[0] for r in rows})), n_bins=len(rows))


def _stats(e_rows, i_rows):
    return histories.CorpusStats(e=_totals(e_rows), i=_totals(i_rows), ts_span=None)


def _cand(spark, pairs):
    return spark.createDataFrame(pd.DataFrame(pairs, columns=["u", "v"]).astype("int64"))


def _cfg(**kw):
    """A ``SlimConfig`` at the tests' level and window."""
    return SlimConfig(level=LEVEL, window_min=WINDOW_SEC / 60, **kw)


def _score(spark, e_rows, i_rows, pairs, **kw):
    kw.setdefault("use_idf", False)
    kw.setdefault("use_norm", False)
    out = similarity.pair_scores(
        _bins(spark, e_rows),
        _bins(spark, i_rows),
        _cand(spark, pairs),
        stats=_stats(e_rows, i_rows),
        cfg=_cfg(**kw),
    ).toPandas()
    return out.set_index(["u", "v"]).sort_index()


class TestGreedySelect:
    def _mask(self, win, eid, iid, d, furthest=False):
        return similarity.greedy_select_mask(
            np.asarray(win, np.int64),
            np.asarray(eid, np.int64),
            np.asarray(iid, np.int64),
            np.asarray(d, float),
            furthest=furthest,
        )

    def test_two_by_two_nearest(self):
        # matrix [[1,5],[4,2]]: greedy picks (0,0)=1 then (1,1)=2
        win = [0, 0, 0, 0]
        eid = [0, 0, 1, 1]
        iid = [0, 1, 0, 1]
        d = [1.0, 5.0, 4.0, 2.0]
        assert list(self._mask(win, eid, iid, d)) == [True, False, False, True]

    def test_two_by_two_furthest(self):
        win = [0, 0, 0, 0]
        eid = [0, 0, 1, 1]
        iid = [0, 1, 0, 1]
        d = [1.0, 5.0, 4.0, 2.0]
        assert list(self._mask(win, eid, iid, d, furthest=True)) == [
            False,
            True,
            True,
            False,
        ]

    def test_greedy_not_optimal_assignment(self):
        # [[1,2],[1.5,100]]: greedy picks (0,0)=1 then (1,1)=100;
        # optimal assignment would be 2 + 1.5 — documents greedy order
        win = [0] * 4
        eid = [0, 0, 1, 1]
        iid = [0, 1, 0, 1]
        d = [1.0, 2.0, 1.5, 100.0]
        assert list(self._mask(win, eid, iid, d)) == [True, False, False, True]

    def test_smaller_side_exhausted(self):
        # 1 e-bin × 3 i-bins: exactly one pair selected (the nearest)
        win = [0, 0, 0]
        eid = [0, 0, 0]
        iid = [0, 1, 2]
        d = [3.0, 1.0, 2.0]
        assert list(self._mask(win, eid, iid, d)) == [False, True, False]

    def test_windows_independent(self):
        # two windows each with a single pair: both selected
        win = [0, 1]
        eid = [0, 1]
        iid = [0, 1]
        d = [5.0, 7.0]
        assert list(self._mask(win, eid, iid, d)) == [True, True]

    @pytest.mark.parametrize("furthest", [False, True])
    @pytest.mark.parametrize("tied", [False, True])
    def test_matches_sequential_reference(self, furthest, tied):
        # vectorized rounds must equal a literal sequential greedy, also
        # when distances tie on whole multiples of one length, as grid
        # distances do
        g = np.random.default_rng(0)
        for trial in range(10):
            n_w = g.integers(1, 4)
            rows = []
            for w in range(n_w):
                ne, ni = g.integers(1, 5, 2)
                for e in range(ne):
                    for i in range(ni):
                        d = float(g.integers(0, 3)) * 1500.0 if tied else float(g.random())
                        rows.append((w, w * 10 + e, w * 10 + i, d))
            win, eid, iid, d = map(np.array, zip(*rows))
            got = self._mask(win, eid, iid, d, furthest=furthest)
            # reference: per window, repeatedly take the nearest (furthest)
            # free pair; the stable sort leaves ties in (eid, iid) order
            want = np.zeros(len(rows), bool)
            for w in set(win):
                idx = np.where(win == w)[0]
                used_e, used_i = set(), set()
                for j in idx[np.argsort(-d[idx] if furthest else d[idx], kind="stable")]:
                    if eid[j] not in used_e and iid[j] not in used_i:
                        want[j] = True
                        used_e.add(eid[j])
                        used_i.add(iid[j])
            assert np.array_equal(got, want), f"trial {trial}"

    def test_empty(self):
        assert self._mask([], [], [], []).size == 0

    def test_ties_break_on_bins_not_rows(self):
        # rows come in (eid, iid) order, as the expansion emits them;
        # of the tied pairs, each pass picks the smallest (eid, iid)
        win = [0, 0, 0, 0]
        eid = [0, 0, 1, 1]
        iid = [0, 1, 0, 1]
        d = [0.0] * 4
        assert list(self._mask(win, eid, iid, d)) == [True, False, False, True]
        assert list(self._mask(win, eid, iid, d, furthest=True)) == [True, False, False, True]
        # 2 × 3 bins: (0, 1), (1, 0) and (1, 2) tie nearest, and
        # (0, 0), (0, 2) and (1, 1) tie furthest
        win = [0] * 6
        eid = [0, 0, 0, 1, 1, 1]
        iid = [0, 1, 2, 0, 1, 2]
        d = [4.0, 1.0, 4.0, 1.0, 4.0, 1.0]
        assert list(self._mask(win, eid, iid, d)) == [False, True, False, True, False, False]
        assert list(self._mask(win, eid, iid, d, furthest=True)) == [True, False, False, False, True, False]


IDFS = st.sampled_from([0.5, 1.0, 2.0])


def _tied_history(draw):
    """One entity's bins ``(window, cell, idf)`` over heavily tied grid distances.

    One to three of four windows, so two histories may share no
    window; idf is a property of a bin, so each bin draws it once.
    """
    bins = []
    for w in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True)):
        for c in draw(st.lists(st.sampled_from(TIED_CELLS), min_size=1, max_size=4, unique=True)):
            bins.append((w, c, draw(IDFS)))
    return bins


def _pair_row(u, v, hist_e, hist_i, L):
    """One candidate pair as ``pair_scores`` feeds the kernel: both histories as arrays."""
    row = {"u": u, "v": v, "L_u": L[u], "L_v": L[v]}
    for s, hist in (("e", hist_e), ("i", hist_i)):
        window, cell, idf = zip(*hist)
        row |= {
            f"window_{s}": np.array(window, np.int64),
            f"cell_{s}": np.array(cell, np.int64),
            f"idf_{s}": np.array(idf, np.float64),
        }
    return row


def _bin_pairs(row):
    """A pair row's within-window bin pairs: a pandas merge of its two sides on window."""
    e, i = (
        pd.DataFrame({"window": row[f"window_{s}"], f"cell_{s}": row[f"cell_{s}"], f"idf_{s}": row[f"idf_{s}"]})
        for s in "ei"
    )
    return e.merge(i, on="window").assign(L_u=row["L_u"], L_v=row["L_v"])


@st.composite
def tied_group(draw):
    """One (u, v) pair's histories and a permutation of each history's bins."""
    hist_e, hist_i = _tied_history(draw), _tied_history(draw)
    perm_e, perm_i = draw(st.permutations(hist_e)), draw(st.permutations(hist_i))
    L = {0: 1.0, 10: 1.0}
    return pd.DataFrame([_pair_row(0, 10, hist_e, hist_i, L)]), pd.DataFrame([_pair_row(0, 10, perm_e, perm_i, L)])


@st.composite
def tied_partition(draw):
    """Several (u, v) pair rows, in random order and cut into batches.

    Each entity has one history and one length factor, shared by all
    its pairs; the batches split the pairs at random rows.
    """
    pairs = draw(
        st.lists(st.tuples(st.integers(0, 2), st.integers(10, 12)), min_size=1, max_size=6, unique=True)
    )
    entities = sorted({x for pair in pairs for x in pair})
    hist = {x: _tied_history(draw) for x in entities}
    L = {x: draw(st.sampled_from([0.5, 1.0, 1.5])) for x in entities}
    rows = [_pair_row(u, v, hist[u], hist[v], L) for u, v in draw(st.permutations(pairs))]
    pdf = pd.DataFrame(rows)
    cuts = sorted(draw(st.lists(st.integers(0, len(pdf)), max_size=4)))
    bounds = [0, *cuts, len(pdf)]
    return [pdf.iloc[a:b] for a, b in zip(bounds, bounds[1:])]


def _reference_pair(pdf, *, pairing, use_idf, use_norm):
    """Alg. 1 for one (u, v), one window and one pick at a time."""
    d = cells.min_distance_m(pdf["cell_e"].to_numpy(), pdf["cell_i"].to_numpy(), LEVEL)
    p = prox(d, RUNAWAY)
    w = np.minimum(pdf["idf_e"], pdf["idf_i"]).to_numpy() if use_idf else np.ones(len(pdf))
    alibi = d > RUNAWAY

    def greedy(sign):
        picked = set()
        for win in set(pdf["window"]):
            rows = [j for j in range(len(pdf)) if pdf["window"].iat[j] == win]
            rows.sort(key=lambda j: (sign * d[j], pdf["cell_e"].iat[j], pdf["cell_i"].iat[j]))
            used_e, used_i = set(), set()
            for j in rows:
                ce, ci = pdf["cell_e"].iat[j], pdf["cell_i"].iat[j]
                if ce not in used_e and ci not in used_i:
                    picked.add(j)
                    used_e.add(ce)
                    used_i.add(ci)
        return picked

    if pairing == "all":
        included = set(range(len(pdf)))
    else:
        mnn = greedy(1)
        included = mnn | {j for j in greedy(-1) if alibi[j]} if pairing == "mnn_mfn" else mnn
    score = math.fsum(p[j] * w[j] for j in included)
    if use_norm:
        score = score / (pdf["L_u"].iat[0] * pdf["L_v"].iat[0])
    return score, len(included), sum(bool(alibi[j]) for j in included), len(pdf)


def _kernel(batches, **switches):
    kernel = similarity._make_kernel(_cfg(**switches))
    return pd.concat(list(kernel(iter(batches))), ignore_index=True)


SWITCHES = [
    dict(pairing=pairing, use_idf=idf, use_norm=norm)
    for pairing in ("mnn_mfn", "mnn", "all")
    for idf in (False, True)
    for norm in (False, True)
]


class TestKernelRowOrder:
    @settings(max_examples=200, deadline=None)
    @given(tied_group())
    def test_scores_invariant_under_row_permutation(self, group):
        pdf, shuffled = group
        for pairing in ("mnn", "mnn_mfn"):
            switches = dict(pairing=pairing, use_idf=True, use_norm=False)
            a = _kernel([pdf], **switches).iloc[0]
            b = _kernel([shuffled], **switches).iloc[0]
            assert b["n_pairs"] == a["n_pairs"]
            assert b["n_alibi"] == a["n_alibi"]
            # the same pairs are summed, and fsum rounds exactly
            assert b["score"] == a["score"]


class TestWithinWindowPairs:
    @settings(max_examples=100, deadline=None)
    @given(tied_partition())
    def test_expansion_equals_merge_on_window(self, batches):
        pdf = pd.concat(batches, ignore_index=True)
        key = ["window", "cell_e", "cell_i"]
        for use_idf in (False, True):
            e, i, gid, eid, iid = similarity.within_window_pairs(pdf, use_idf=use_idf)
            fields = ["cell"] + (["idf"] if use_idf else [])
            got = pd.DataFrame(
                {"row": e["row"][eid], "window": e["window"][eid], "gid": gid}
                | {f"{f}_{s}": side[f][ids] for f in fields for s, side, ids in (("e", e, eid), ("i", i, iid))}
            )
            # both bins of a pair sit in the same row and window
            assert np.array_equal(i["row"][iid], got["row"]) and np.array_equal(i["window"][iid], got["window"])
            # the kernel sums each row's contributions as one run of pairs
            order = ["row", *key]
            pd.testing.assert_frame_equal(got, got.sort_values(order, ignore_index=True), check_exact=True)
            # one group per shared (row, window), numbered in order
            groups = got[["row", "window"]].drop_duplicates()
            assert np.array_equal(got["gid"].unique(), np.arange(len(groups)))
            assert got.groupby("gid")[["row", "window"]].nunique().eq(1).all().all()
            cols = key + (["idf_e", "idf_i"] if use_idf else [])
            for j in range(len(pdf)):
                want = _bin_pairs(pdf.iloc[j])[cols].sort_values(key, ignore_index=True)
                mine = got[got["row"] == j][cols].reset_index(drop=True)
                pd.testing.assert_frame_equal(mine, want, check_exact=True)


class TestKernelOracle:
    """One call over batches of pair rows equals scoring each pair alone."""

    @settings(max_examples=100, deadline=None)
    @given(tied_partition())
    def test_partition_equals_per_pair_reference(self, batches):
        pdf = pd.concat(batches, ignore_index=True)
        for switches in SWITCHES:
            got = _kernel(batches, **switches).set_index(["u", "v"])
            assert got.index.is_unique
            assert len(got) == len(pdf)
            for _, pair in pdf.iterrows():
                rows = _bin_pairs(pair)
                # a pair that shares no window scores 0
                want = _reference_pair(rows, **switches) if len(rows) else (0.0, 0, 0, 0)
                row = got.loc[(pair["u"], pair["v"])]
                assert (row["score"], row["n_pairs"], row["n_alibi"], row["n_comp"]) == want, switches

    def test_no_rows_no_output(self):
        assert list(similarity._make_kernel(_cfg(**SWITCHES[0]))(iter([]))) == []


class TestAllPairs:
    @pytest.mark.parametrize("dataset", ["cab", "sm"])
    def test_equals_cross_join_of_bin_entities(self, spark, request, dataset):
        # the reference is the relation brute force used to build: each
        # side's bins' distinct entities, cross-joined
        rec_e, rec_i = request.getfixturevalue(f"{dataset}_records")
        stats = histories.corpus_stats(rec_e, rec_i, level=LEVEL, window_sec=WINDOW_SEC)
        bins_e, bins_i = (histories.build_bins(r, level=LEVEL, window_sec=WINDOW_SEC) for r in (rec_e, rec_i))
        ref = (
            bins_e.select(F.col("entity").alias("u"))
            .distinct()
            .crossJoin(bins_i.select(F.col("entity").alias("v")).distinct())
        )
        got = similarity.all_pairs(spark, stats)
        assert got.schema == ref.schema
        key = ["u", "v"]
        pd.testing.assert_frame_equal(
            got.toPandas().sort_values(key).reset_index(drop=True),
            ref.toPandas().sort_values(key).reset_index(drop=True),
        )
        assert got.count() == stats.e.n_entities * stats.i.n_entities > 0


class TestPairScores:
    def test_exact_match_scores_one(self, spark):
        out = _score(
            spark, [(0, 0, CELL_A), (1, 5, CELL_B)], [(10, 0, CELL_A)], [(0, 10)]
        )
        assert out.loc[(0, 10), "score"] == pytest.approx(1.0)
        assert out.loc[(0, 10), "n_pairs"] == 1
        assert out.loc[(0, 10), "n_alibi"] == 0

    def test_nearby_cell_partial_credit(self, spark):
        out = _score(
            spark, [(0, 0, CELL_A), (1, 5, CELL_B)], [(10, 0, CELL_B)], [(0, 10)]
        )
        expected = prox(np.array([D_AB]), RUNAWAY)[0]
        assert 0 < expected < 1
        assert out.loc[(0, 10), "score"] == pytest.approx(expected)

    def test_alibi_negative_score(self, spark):
        out = _score(
            spark, [(0, 0, CELL_A), (1, 5, CELL_B)], [(10, 0, CELL_FAR)], [(0, 10)]
        )
        assert out.loc[(0, 10), "score"] < 0
        assert out.loc[(0, 10), "n_alibi"] == 1

    def test_no_shared_window_scores_zero(self, spark):
        out = _score(spark, [(0, 0, CELL_A)], [(10, 7, CELL_A)], [(0, 10)], use_idf=True, use_norm=True)
        assert len(out) == 1
        assert tuple(out.loc[(0, 10)]) == (0.0, 0, 0, 0)

    def test_temporal_asynchrony_not_penalized(self, spark):
        # v active in window 1 where u is absent: score unchanged vs
        # the single matching window alone
        base = _score(spark, [(0, 0, CELL_A), (1, 9, CELL_B)], [(10, 0, CELL_A)], [(0, 10)])
        extra = _score(
            spark,
            [(0, 0, CELL_A), (1, 9, CELL_B)],
            [(10, 0, CELL_A), (10, 1, CELL_FAR)],
            [(0, 10)],
        )
        assert extra.loc[(0, 10), "score"] == pytest.approx(
            base.loc[(0, 10), "score"]
        )

    def test_mfn_catches_hidden_alibi(self, spark):
        # paper's MFN example: v has a near bin AND a far (alibi) bin in
        # the same window; MNN alone scores positive, MFN adds penalty
        e_rows = [(0, 0, CELL_A), (1, 5, CELL_B)]
        i_rows = [(10, 0, CELL_A), (10, 0, CELL_FAR)]
        with_mfn = _score(spark, e_rows, i_rows, [(0, 10)], pairing="mnn_mfn")
        without = _score(spark, e_rows, i_rows, [(0, 10)], pairing="mnn")
        assert without.loc[(0, 10), "score"] == pytest.approx(1.0)
        assert with_mfn.loc[(0, 10), "score"] < without.loc[(0, 10), "score"]
        assert with_mfn.loc[(0, 10), "n_alibi"] == 1

    def test_mfn_no_double_count_single_pair(self, spark):
        # one alibi pair only: MNN already includes it; MFN must not add
        # it again
        e_rows = [(0, 0, CELL_A), (1, 5, CELL_B)]
        i_rows = [(10, 0, CELL_FAR)]
        w = _score(spark, e_rows, i_rows, [(0, 10)], pairing="mnn_mfn")
        wo = _score(spark, e_rows, i_rows, [(0, 10)], pairing="mnn")
        assert w.loc[(0, 10), "score"] == pytest.approx(wo.loc[(0, 10), "score"])

    def test_all_pairs_overcounts(self, spark):
        # 2 e-bins × 1 i-bin in one window: MNN keeps 1 pair, all-pairs 2
        e_rows = [(0, 0, CELL_A), (0, 0, CELL_B), (1, 5, CELL_B)]
        i_rows = [(10, 0, CELL_A)]
        mnn = _score(spark, e_rows, i_rows, [(0, 10)])
        allp = _score(spark, e_rows, i_rows, [(0, 10)], pairing="all")
        assert mnn.loc[(0, 10), "n_pairs"] == 1
        assert allp.loc[(0, 10), "n_pairs"] == 2
        assert allp.loc[(0, 10), "score"] == pytest.approx(
            1.0 + prox(np.array([D_AB]), RUNAWAY)[0]
        )

    def test_n_comp_is_cross_product(self, spark):
        e_rows = [(0, 0, CELL_A), (0, 0, CELL_B), (1, 5, CELL_B)]
        i_rows = [(10, 0, CELL_A), (10, 0, CELL_FAR)]
        out = _score(spark, e_rows, i_rows, [(0, 10)])
        assert out.loc[(0, 10), "n_comp"] == 4  # 2 e-bins × 2 i-bins in w0

    def test_idf_min_weighting(self, spark):
        # u0/u1 both visit CELL_A in w0 (idf_e = log(2/2) = 0) while v's
        # CELL_A bin is unique on its side (idf_i = log(2/2)=... v side
        # also needs 2 entities). With min(), the shared bin contributes 0.
        e_rows = [(0, 0, CELL_A), (1, 0, CELL_A)]
        i_rows = [(10, 0, CELL_A), (11, 5, CELL_B)]
        out = _score(spark, e_rows, i_rows, [(0, 10)], use_idf=True)
        assert out.loc[(0, 10), "score"] == pytest.approx(0.0)

    def test_idf_rewards_unique_bins(self, spark):
        # unique bins on both sides: idf = log(2) each ⇒ score = log 2
        e_rows = [(0, 0, CELL_A), (1, 5, CELL_B)]
        i_rows = [(10, 0, CELL_A), (11, 5, CELL_B)]
        out = _score(spark, e_rows, i_rows, [(0, 10)], use_idf=True)
        assert out.loc[(0, 10), "score"] == pytest.approx(np.log(2.0))

    def test_norm_divides_by_L(self, spark):
        # u has 3 bins, u' has 1: with b=1, L_u = 3/2, L_u' = 1/2
        e_rows = [(0, 0, CELL_A), (0, 1, CELL_A), (0, 2, CELL_A), (1, 0, CELL_B)]
        i_rows = [(10, 0, CELL_A), (11, 5, CELL_B)]
        out = _score(spark, e_rows, i_rows, [(0, 10)], use_norm=True, b=1.0)
        L = (
            _bins(spark, e_rows)
            .groupBy("entity")
            .agg(histories.norm_factors(F.count(F.lit(1)), _totals(e_rows), b=1.0).alias("L"))
            .toPandas()
            .set_index("entity")["L"]
        )
        raw = 1.0  # single matching bin pair, exact cell match
        # i side: both entities have 1 bin ⇒ L_v = 1
        assert out.loc[(0, 10), "score"] == pytest.approx(raw / (L[0] * 1.0))

    def test_one_window_per_side(self, spark):
        # idf's (window, cell) count is each side's one Window operator;
        # L comes from the history's length, with no window over entity
        e_rows = [(0, 0, CELL_A), (0, 1, CELL_A), (1, 0, CELL_B)]
        i_rows = [(10, 0, CELL_A), (11, 1, CELL_B)]
        out = similarity.pair_scores(
            _bins(spark, e_rows),
            _bins(spark, i_rows),
            _cand(spark, [(0, 10), (1, 11)]),
            stats=_stats(e_rows, i_rows),
            cfg=_cfg(use_idf=True, use_norm=True),
        )
        out.collect()
        # the adaptive plan prints its final plan above the initial one
        plan = out._jdf.queryExecution().executedPlan().toString().split("== Initial Plan ==")[0]
        assert len(re.findall(r"^[\s:+-]*Window \[", plan, flags=re.M)) == 2

    @pytest.mark.parametrize("empty", ["e", "i", "both"])
    def test_empty_side_no_rows(self, spark, empty):
        # a side with no entities has no bins, so every statistic of it
        # is over no rows: the query plans and returns no pairs
        e_rows = [] if empty in ("e", "both") else [(0, 0, CELL_A)]
        i_rows = [] if empty in ("i", "both") else [(10, 0, CELL_A)]
        stats = _stats(e_rows, i_rows)
        out = similarity.pair_scores(
            _bins(spark, e_rows),
            _bins(spark, i_rows),
            similarity.all_pairs(spark, stats),
            stats=stats,
            cfg=_cfg(use_idf=True, use_norm=True),
        ).toPandas()
        assert out.empty
        assert out.dtypes.astype(str).to_dict() == {
            "u": "int64",
            "v": "int64",
            "score": "float64",
            "n_pairs": "int64",
            "n_alibi": "int64",
            "n_comp": "int64",
        }

    def test_self_similarity_is_max(self, spark, cab_records):
        # an entity is at least as similar to itself as to anyone else
        rec_e, _ = cab_records
        stats = histories.corpus_stats(rec_e, rec_e, level=LEVEL, window_sec=WINDOW_SEC)
        bins = histories.build_bins(rec_e, level=LEVEL, window_sec=WINDOW_SEC).cache()
        ents = sorted(r[0] for r in bins.select("entity").distinct().collect())[:4]
        pairs = [(u, v) for u in ents for v in ents]
        out = similarity.pair_scores(bins, bins, _cand(spark, pairs), stats=stats, cfg=SlimConfig()).toPandas()
        piv = out.set_index(["u", "v"])["score"]
        for u in ents:
            for v in ents:
                if v != u and (u, v) in piv.index:
                    assert piv[(u, u)] >= piv[(u, v)]
