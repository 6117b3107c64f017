"""Command-line plumbing for the experiments entry point and ``jobs/``.

``python -m repro.experiments <table>`` (see ``__main__.py``) parses
the common flags, builds (or reuses, under spark-submit) the session,
runs that table's harness, prints the table and optionally writes it
to CSV.
"""
from __future__ import annotations

import argparse
import importlib

from pyspark.sql import SparkSession

from repro.experiments import common


def build_session(app: str) -> SparkSession:
    """The one SparkSession config of jobs, tests and benchmarks.

    Master and driver memory are fixed at JVM launch (spark-submit or
    ``PYSPARK_SUBMIT_ARGS``); these are the per-session configs.
    Broadcast joins are disabled so that the joins run as shuffles at
    every scale. Adaptive query execution may change the output
    partitioning of a cached plan, so it coalesces the partitions of a
    cached relation (the records or bins that benchmarks and tests
    cache) like those of any other shuffle; without it every stage
    that reads the cache runs one task per cached partition.
    """
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.optimizer.canChangeCachedPlanOutputPartitioning", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )


def harness(table: str):
    """The ``run`` function of harness module ``repro.experiments.<table>``."""
    return importlib.import_module(f"repro.experiments.{table}").run


def run_job(tables: dict[str, str]) -> None:
    """Parse ``<table> [flags]``, run that table's harness, print the table.

    ``tables`` maps each harness module name to its printed title.
    """
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run one evaluation harness and print its table.",
    )
    ap.add_argument(
        "table",
        choices=list(tables),
        help="; ".join(f"{name}: {title}" for name, title in tables.items()),
    )
    ap.add_argument("--dataset", choices=["cab", "sm"], default="cab")
    ap.add_argument("--scale", choices=["test", "bench"], default="bench")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", help="also write the table to this CSV path")
    ns = ap.parse_args()
    title = tables[ns.table]
    spark = build_session(title)
    spark.sparkContext.setLogLevel("ERROR")
    df = harness(ns.table)(spark, dataset=ns.dataset, scale=ns.scale, seed=ns.seed)
    common.print_table(df, title)
    if ns.csv:
        df.to_csv(ns.csv, index=False)
    spark.stop()
