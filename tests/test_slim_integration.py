"""End-to-end integration tests of the SLIM pipeline."""
import numpy as np
import pandas as pd
import pytest

from repro.core import metrics
from repro.core.lsh import LshConfig
from repro.core.slim import SlimConfig, run_slim

# coarse signature cells: on a 6-hour instance dominating cells at
# fine levels are tie-unstable (the bench-scale E5 sweep covers that)
CAB_LSH = SlimConfig(use_lsh=True, lsh=LshConfig(level=10, step=1, threshold=0.3))
MODES = {"lsh": CAB_LSH, "bf": SlimConfig(use_lsh=False)}


@pytest.fixture(scope="module")
def cab_bf(cab_records):
    rec_e, rec_i = cab_records
    return run_slim(rec_e, rec_i, SlimConfig(use_lsh=False))


@pytest.fixture(scope="module")
def cab_lsh(cab_records):
    rec_e, rec_i = cab_records
    return run_slim(rec_e, rec_i, CAB_LSH)


class TestBruteForceCab:
    def test_perfect_linkage_at_defaults(self, cab_bf, cab_pair):
        prf = metrics.evaluate_links(cab_bf.links, cab_pair.truth)
        assert prf.f1 == 1.0

    def test_links_one_to_one(self, cab_bf):
        assert cab_bf.links["u"].is_unique
        assert cab_bf.links["v"].is_unique

    def test_candidates_are_all_pairs(self, cab_bf, cab_pair):
        n_e = cab_pair.e_records["entity"].nunique()
        n_i = cab_pair.i_records["entity"].nunique()
        assert cab_bf.n_candidates == n_e * n_i

    def test_threshold_fitted(self, cab_bf):
        assert cab_bf.threshold is not None
        assert np.isfinite(cab_bf.threshold.threshold)
        g = cab_bf.threshold.gmm
        assert g.mu[1] >= g.mu[0]

    def test_links_above_threshold(self, cab_bf):
        assert (cab_bf.links["score"] > cab_bf.threshold.threshold).all()

    def test_matched_superset_of_links(self, cab_bf):
        matched = set(zip(cab_bf.matched["u"], cab_bf.matched["v"]))
        links = set(zip(cab_bf.links["u"], cab_bf.links["v"]))
        assert links <= matched

    def test_instrumentation_positive(self, cab_bf):
        assert cab_bf.n_comparisons > 0
        assert cab_bf.n_alibi_pairs > 0  # distant taxis in shared windows
        assert cab_bf.runtime_sec > 0
        assert cab_bf.lsh_plan is None

    def test_scores_schema(self, cab_bf):
        assert list(cab_bf.scores.columns) == [
            "u",
            "v",
            "score",
            "n_pairs",
            "n_alibi",
            "n_comp",
        ]


class TestLshCab:
    def test_lsh_reduces_candidates_and_comparisons(self, cab_bf, cab_lsh):
        assert cab_lsh.n_candidates < cab_bf.n_candidates
        assert cab_lsh.n_comparisons < cab_bf.n_comparisons

    def test_lsh_precision_no_worse(self, cab_bf, cab_lsh, cab_pair):
        # pruning can lose recall but should not hurt precision
        p_bf = metrics.evaluate_links(cab_bf.links, cab_pair.truth).precision
        p_lsh = metrics.evaluate_links(cab_lsh.links, cab_pair.truth).precision
        assert p_lsh >= p_bf - 0.2

    def test_lsh_links_subset_quality(self, cab_lsh, cab_pair):
        prf = metrics.evaluate_links(cab_lsh.links, cab_pair.truth)
        assert prf.f1 >= 0.5  # slight recall loss allowed (paper Sec 5.3)

    def test_plan_reported(self, cab_lsh):
        assert cab_lsh.lsh_plan is not None
        assert cab_lsh.lsh_plan.signature_len >= 1

    def test_lsh_scores_only_candidates(self, cab_lsh):
        assert len(cab_lsh.scores) <= cab_lsh.n_candidates


class TestSmDataset:
    def test_sparse_checkins_linkable(self, sm_records, sm_pair):
        rec_e, rec_i = sm_records
        res = run_slim(rec_e, rec_i, SlimConfig(use_lsh=False))
        prf = metrics.evaluate_links(res.links, sm_pair.truth)
        # sparse regime: the paper reports F1 ≈ 0.75 at ~10 records and
        # >0.9 at ≥15; our default SM density sits in between
        assert prf.f1 >= 0.6

    def test_config_knobs(self):
        cfg = SlimConfig(window_min=15)
        assert cfg.window_sec == 900
        assert cfg.use_lsh is True


class TestFewMatches:
    def test_no_threshold_below_four_matches(self, small_cab_records):
        # below gmm.MIN_FIT_WEIGHTS matched pairs no mixture is fitted
        rec_e, rec_i = small_cab_records
        res = run_slim(rec_e, rec_i, CAB_LSH)
        assert 1 <= len(res.matched) < 4
        assert res.threshold.threshold == -np.inf
        pd.testing.assert_frame_equal(res.links, res.matched)


class TestAblationDirections:
    """Cheap directional checks of the ablation switches (full sweep: E7)."""

    def test_no_norm_changes_scores(self, cab_records):
        rec_e, rec_i = cab_records
        a = run_slim(rec_e, rec_i, SlimConfig(use_lsh=False))
        b = run_slim(rec_e, rec_i, SlimConfig(use_lsh=False, use_norm=False))
        sa = a.scores.set_index(["u", "v"])["score"]
        sb = b.scores.set_index(["u", "v"])["score"]
        common = sa.index.intersection(sb.index)
        assert not np.allclose(sa[common], sb[common])

    def test_all_pairs_more_comparisons_counted_same(self, cab_records):
        rec_e, rec_i = cab_records
        mnn = run_slim(rec_e, rec_i, SlimConfig(use_lsh=False))
        allp = run_slim(
            rec_e, rec_i, SlimConfig(use_lsh=False, pairing="all", use_mfn=False)
        )
        # n_comp counts examined pairs — identical join either way
        assert mnn.n_comparisons == allp.n_comparisons
        # but all-pairs includes every pair in the aggregation
        assert allp.scores["n_pairs"].sum() > mnn.scores["n_pairs"].sum()


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(["u", "v"]).reset_index(drop=True)


class TestEmptySides:
    """An empty side links nothing: no candidates, no threshold."""

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("empty", ["e", "i", "both"])
    def test_empty_result(self, spark, cab_records, mode, empty):
        rec_e, rec_i = cab_records
        none = spark.createDataFrame([], rec_e.schema)
        res = run_slim(
            none if empty in ("e", "both") else rec_e,
            none if empty in ("i", "both") else rec_i,
            MODES[mode],
        )
        assert res.links.empty and res.matched.empty and res.scores.empty
        assert res.n_candidates == 0
        assert res.n_comparisons == 0
        assert res.threshold.threshold == -np.inf
        if mode == "lsh" and empty == "both":
            assert res.lsh_plan.signature_len == 0


@pytest.fixture(scope="module")
def cab_reference(cab_bf, cab_lsh):
    """The runs at the session's settings: what every layout must give."""
    return {"bf": cab_bf, "lsh": cab_lsh}


class TestPartitionInvariance:
    """Scores and links depend on the records, not on how Spark lays them out."""

    def _assert_same(self, got, ref):
        pd.testing.assert_frame_equal(_sorted(got.scores), _sorted(ref.scores), check_exact=True)
        pd.testing.assert_frame_equal(_sorted(got.links), _sorted(ref.links), check_exact=True)

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("n", [3, 5])
    def test_input_repartition(self, cab_records, cab_reference, mode, n):
        rec_e, rec_i = cab_records
        got = run_slim(rec_e.repartition(n), rec_i.repartition(n), MODES[mode])
        self._assert_same(got, cab_reference[mode])

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_shuffle_partitions(self, spark, cab_records, cab_reference, mode, n):
        rec_e, rec_i = cab_records
        key = "spark.sql.shuffle.partitions"
        before = spark.conf.get(key)
        spark.conf.set(key, str(n))
        try:
            got = run_slim(rec_e, rec_i, MODES[mode])
        finally:
            spark.conf.set(key, before)
        self._assert_same(got, cab_reference[mode])


# Spark jobs of one warm run_slim call on the Cab test instance. Each
# side's statistics take one pass and nothing but the LSH plan's collect
# and the candidate count runs as its own action; a re-added eager
# action or post-kernel join raises the count.
JOB_BUDGET = {"lsh": 28, "bf": 22}


class TestJobBudget:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_warm_call_jobs(self, spark, cab_records, mode):
        rec_e, rec_i = cab_records
        sc = spark.sparkContext
        run_slim(rec_e, rec_i, MODES[mode])  # warm-up
        group = f"test-job-budget-{mode}"
        sc.setJobGroup(group, group)
        try:
            run_slim(rec_e, rec_i, MODES[mode])
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        jobs = sc.statusTracker().getJobIdsForGroup(group)
        assert 0 < len(jobs) <= JOB_BUDGET[mode]
