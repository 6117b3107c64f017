"""Smoke + shape tests for every evaluation harness (tables E1–E8).

Each harness runs at "test" scale; the bench-scale numbers live in
EXPERIMENTS.md. These tests assert schema, ranges and the paper's
qualitative orderings where they are stable at tiny scale.
"""
import inspect
import os
import pathlib
import subprocess
import sys

import pandas as pd
import pytest

from repro.experiments import (
    ablation,
    cli,
    common,
    comparison,
    gmm_fit,
    lsh_buckets,
    lsh_level,
    spatiotemporal,
    workload,
)
from repro.experiments.__main__ import TABLES
from repro.mobility import generator


class TestE1Spatiotemporal:
    @pytest.fixture(scope="class")
    def table(self, spark):
        return spatiotemporal.run(spark, dataset="cab", scale="test")

    def test_grid_covered(self, table):
        assert len(table) == 4  # 2 levels × 2 windows
        assert set(table["level"]) == {8, 12}
        assert set(table["window_min"]) == {15.0, 90.0}

    def test_metric_ranges(self, table):
        for col in ("precision", "recall", "f1"):
            assert table[col].between(0, 1).all()
        assert (table["comparisons"] > 0).all()

    def test_finer_level_not_worse_f1(self, table):
        # paper Fig 4: accuracy rises with spatial detail
        for w in (15.0, 90.0):
            sub = table[table["window_min"] == w].set_index("level")
            assert sub.loc[12, "f1"] >= sub.loc[8, "f1"] - 0.05

    def test_comparisons_grow_with_window(self, table):
        # wider windows aggregate more bins per window ⇒ more bin pairs
        sub = table[table["level"] == 12].set_index("window_min")
        assert sub.loc[90.0, "comparisons"] > sub.loc[15.0, "comparisons"]


class TestE2SpatiotemporalSm:
    def test_runs_on_sm(self, spark):
        t = spatiotemporal.run(spark, dataset="sm", scale="test")
        assert len(t) == 1
        assert t["f1"].iloc[0] > 0.3


class TestE3GmmFit:
    @pytest.fixture(scope="class")
    def table(self, spark):
        return gmm_fit.run(spark, scale="test")

    def test_columns(self, table):
        assert {"level", "threshold", "mu_fp", "mu_tp", "separation"} <= set(
            table.columns
        )

    def test_tp_component_above_fp(self, table):
        assert (table["mu_tp"] >= table["mu_fp"]).all()

    def test_separation_improves_with_detail(self, table):
        sub = table.set_index("level")
        assert sub.loc[12, "separation"] >= sub.loc[8, "separation"] * 0.8


class TestE4Workload:
    @pytest.fixture(scope="class")
    def table(self, spark):
        return workload.run(spark, dataset="cab", scale="test")

    def test_rows(self, table):
        assert len(table) == 2  # 2 inclusion probs × 1 ratio

    def test_denser_not_worse(self, table):
        sub = table.set_index("inclusion_prob")
        assert sub.loc[0.75, "f1"] >= sub.loc[0.25, "f1"] - 0.1

    def test_avg_records_increase_with_p(self, table):
        sub = table.set_index("inclusion_prob")
        assert sub.loc[0.75, "avg_records"] > sub.loc[0.25, "avg_records"]


class TestE5LshLevel:
    @pytest.fixture(scope="class")
    def table(self, spark):
        return lsh_level.run(spark, dataset="cab", scale="test")

    def test_shape(self, table):
        assert len(table) == 4  # 2 sig levels × 2 steps
        assert {"relative_f1", "speedup", "signature_len"} <= set(table.columns)

    def test_speedup_at_least_one(self, table):
        assert (table["speedup"] >= 1.0).all()

    def test_relative_f1_bounded(self, table):
        assert (table["relative_f1"] <= 1.2).all()  # small-scale noise margin


class TestE6LshBuckets:
    @pytest.fixture(scope="class")
    def table(self, spark):
        return lsh_buckets.run(spark, dataset="cab", scale="test")

    def test_shape(self, table):
        assert len(table) == 2  # 2 bucket counts × 1 threshold

    def test_more_buckets_no_less_speedup(self, table):
        sub = table.sort_values("n_buckets")
        assert sub["speedup"].iloc[-1] >= sub["speedup"].iloc[0]

    def test_comparisons_below_bruteforce(self, table):
        assert (table["comparisons"] <= table["comparisons_bf"]).all()


class TestE7Ablation:
    @pytest.fixture(scope="class")
    def table(self, spark):
        return ablation.run(spark, scale="test")

    def test_all_variants_present(self, table):
        assert set(table["variant"]) == set(ablation.VARIANTS)

    def test_two_sweeps(self, table):
        assert set(table["sweep"]) == {"level", "window"}

    def test_f1_ranges(self, table):
        assert table["f1"].between(0, 1).all()

    def test_full_slim_competitive(self, table):
        # SLIM should be within noise of the best variant everywhere
        for _, grp in table.groupby(["sweep", "level", "window_min"]):
            slim_f1 = grp[grp["variant"] == "slim"]["f1"].iloc[0]
            assert slim_f1 >= grp["f1"].max() - 0.25


class TestE8Comparison:
    @pytest.fixture(scope="class")
    def table(self, spark):
        return comparison.run(spark, scale="test")

    def test_algorithms_present(self, table):
        dens = table[table["part"] == "density"]
        assert set(dens["algo"]) == {"slim", "slim_lsh", "stlink", "gm"}
        inter = table[table["part"] == "intersection"]
        assert set(inter["algo"]) == {"slim_lsh", "stlink"}

    def test_hit_precision_ranges(self, table):
        assert table["hit_prec_40"].between(0, 1).all()

    def test_slim_competitive(self, table):
        dens = table[table["part"] == "density"].set_index("algo")
        assert dens.loc["slim", "f1"] >= dens["f1"].max() - 0.15

    def test_stlink_more_comparisons_than_slim_lsh(self, table):
        dens = table[table["part"] == "density"].set_index("algo")
        assert dens.loc["stlink", "comparisons"] > dens.loc["slim_lsh", "comparisons"]


class TestEntryPoint:
    """``python -m repro.experiments <table>`` covers every harness."""

    def test_registry_resolves_to_harnesses(self):
        mods = [spatiotemporal, gmm_fit, workload, lsh_level, lsh_buckets, ablation, comparison]
        assert [cli.harness(t) for t in TABLES] == [m.run for m in mods]

    def test_harness_signatures(self):
        # each table's sweep is its module's grid; run takes nothing else
        for table in TABLES:
            params = inspect.signature(cli.harness(table)).parameters
            assert list(params) == ["spark", "dataset", "scale", "seed"]
            kinds = {p.kind for name, p in params.items() if name != "spark"}
            assert kinds == {inspect.Parameter.KEYWORD_ONLY}

    def test_help_lists_every_table(self):
        # --help exits in argument parsing, before any Spark session
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--help"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        for table in TABLES:
            assert table in out.stdout


class TestBenchmarksCollect:
    def test_all_eight_collect_without_spark(self):
        # benchmarks/ only runs in the hour-long bench sweep, so an edit
        # that breaks its imports would go unseen; JAVA_HOME points
        # nowhere, so any Spark session started while collecting fails
        root = pathlib.Path(__file__).resolve().parents[1]
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(sys.path),
            "JAVA_HOME": str(root / "no-such-java"),
        }
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "benchmarks", "--collect-only", "-q", "-p", "no:cacheprovider"],
            cwd=root,
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert out.returncode == 0, out.stdout + out.stderr
        assert "8 tests collected" in out.stdout, out.stdout


class TestPrintTable:
    def test_returns_input(self, capsys):
        from repro.experiments.common import print_table

        df = pd.DataFrame({"a": [1]})
        out = print_table(df, "T")
        assert out is df
        assert "T" in capsys.readouterr().out


class TestSparkPair:
    def test_caches_filled_on_return(self, spark):
        # a lazy cache would be filled by the first timed linker; the
        # seed is one no fixture caches, so both frames are new caches
        def filled():
            infos = spark.sparkContext._jsc.sc().getRDDStorageInfo()
            return {r.id() for r in infos if 0 < r.numPartitions() == r.numCachedPartitions()}

        before = filled()
        frames = common.spark_pair(spark, generator.cab_pair(scale="test", seed=11, n_entities=3))
        try:
            assert len(filled() - before) == 2
        finally:
            for df in frames:
                df.unpersist()
