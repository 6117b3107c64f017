"""Tests for kneedle elbow detection and spatial-level auto-tuning."""
import numpy as np
import pytest

from repro.core import histories, tuning
from repro.core.slim import SlimConfig

PROBE = dict(n_probe=4, n_others=6, seed=0)
# Spark jobs of one warm probe on the Cab test instance: the corpus
# statistics' 2, which also give the sorted entity list, and the
# scoring query's 7. A separate query for the entity list raises it.
PROBE_JOB_BUDGET = 9


class TestKneedle:
    def test_planted_elbow_convex_decreasing(self):
        # 1/x-style curve: steep drop then flat — elbow near the bend
        x = np.arange(1, 11, dtype=float)
        y = 1.0 / x
        elbow = tuning.kneedle(x, y, direction="decreasing")
        assert 2 <= elbow <= 4

    def test_planted_elbow_concave_increasing(self):
        x = np.arange(1, 11, dtype=float)
        y = np.log(x)
        elbow = tuning.kneedle(x, y, direction="increasing")
        assert 2 <= elbow <= 4

    def test_linear_curve_no_crash(self):
        x = np.arange(10, dtype=float)
        elbow = tuning.kneedle(x, x.copy(), direction="increasing")
        assert 0 <= elbow <= 9

    def test_flat_curve_returns_first(self):
        x = np.arange(5, dtype=float)
        assert tuning.kneedle(x, np.ones(5), direction="decreasing") == 0.0

    def test_unsorted_input_handled(self):
        x = np.array([5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0, 8.0])
        y = 1.0 / x
        elbow = tuning.kneedle(x, y, direction="decreasing")
        assert 1 <= elbow <= 4

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            tuning.kneedle(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            tuning.kneedle(np.arange(3.0), np.arange(3.0), direction="sideways")


class TestSelfSimilarityRatio:
    def test_ratio_decreases_with_level(self, cab_records):
        # the Sec 3.3 observation: finer detail makes an entity more
        # distinguishable, so pair/self similarity drops with level
        rec_e, _ = cab_records
        r_coarse = tuning.self_similarity_ratio(rec_e, SlimConfig(level=6), **PROBE)
        r_fine = tuning.self_similarity_ratio(rec_e, SlimConfig(level=14), **PROBE)
        assert r_fine < r_coarse

    def test_ratio_below_one_at_fine_level(self, cab_records):
        rec_e, _ = cab_records
        r = tuning.self_similarity_ratio(rec_e, SlimConfig(level=14), **PROBE)
        assert r < 1.0

    def test_ratio_follows_the_config(self, cab_records):
        # the probe scores with the linkage's switches, not its own
        rec_e, _ = cab_records
        full = tuning.self_similarity_ratio(rec_e, SlimConfig(level=14), **PROBE)
        all_pairs = tuning.self_similarity_ratio(
            rec_e, SlimConfig(level=14, pairing="all"), **PROBE
        )
        assert all_pairs != full


    def test_ratio_independent_of_partitioning(self, spark, cab_records):
        # the probes are drawn from the collected entity list, whose
        # order follows the shuffle layout unless it is sorted
        rec_e, _ = cab_records
        cfg = SlimConfig(level=14)
        key = "spark.sql.shuffle.partitions"
        before = spark.conf.get(key)
        ratios = []
        try:
            for n in (7, 64):
                spark.conf.set(key, str(n))
                ratios.append(tuning.self_similarity_ratio(rec_e, cfg, **PROBE))
        finally:
            spark.conf.set(key, before)
        ratios.append(tuning.self_similarity_ratio(rec_e.repartition(5), cfg, **PROBE))
        assert ratios[1] == ratios[0]
        assert ratios[2] == ratios[0]

    @pytest.mark.parametrize("level", [8, 14])
    def test_ratio_equals_two_sided_stats(self, monkeypatch, cab_records, level):
        # the probe aggregates its records once and copies E's totals
        # to I; the reference aggregates the records as both sides
        rec_e, _ = cab_records
        cfg = SlimConfig(level=level)
        one_pass = tuning.self_similarity_ratio(rec_e, cfg, **PROBE)
        corpus_stats = histories.corpus_stats
        monkeypatch.setattr(
            histories, "corpus_stats", lambda records, _, **kw: corpus_stats(records, records, **kw)
        )
        assert tuning.self_similarity_ratio(rec_e, cfg, **PROBE) == one_pass

    def test_probe_jobs(self, spark_jobs, cab_records):
        rec_e, _ = cab_records

        def probe():
            tuning.self_similarity_ratio(rec_e, SlimConfig(level=14), **PROBE)

        probe()  # warm-up
        assert spark_jobs(probe) <= PROBE_JOB_BUDGET


class TestSelectSpatialLevel:
    def test_selects_reasonable_level(self, cab_records):
        rec_e, rec_i = cab_records
        level, curve_e, curve_i = tuning.select_spatial_level(
            rec_e,
            rec_i,
            levels=[6, 8, 10, 12, 14, 16],
            cfg=SlimConfig(),
            seed=0,
        )
        assert level in (8, 10, 12, 14, 16)
        assert set(curve_e) == {6, 8, 10, 12, 14, 16}
        # curves should be broadly decreasing from coarse to fine
        assert curve_e[16] < curve_e[6]
        assert curve_i[16] < curve_i[6]
