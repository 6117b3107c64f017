#!/usr/bin/env python
"""Run SLIM end-to-end on a synthetic linkage instance and print links.

    spark-submit jobs/run_slim.py --dataset cab --scale test --no-lsh
"""
import argparse

from repro.core import metrics
from repro.core.slim import SlimConfig, run_slim
from repro.experiments import common
from repro.experiments.cli import build_session

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", choices=["cab", "sm"], default="cab")
    ap.add_argument("--scale", choices=["test", "bench"], default="test")
    ap.add_argument("--level", type=int, default=SlimConfig.level)
    ap.add_argument("--window-min", type=float, default=SlimConfig.window_min)
    ap.add_argument("--no-lsh", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ns = ap.parse_args()
    spark = build_session("run_slim")
    spark.sparkContext.setLogLevel("ERROR")
    pair = common.make_pair(ns.dataset, ns.scale, seed=ns.seed)
    rec_e, rec_i = common.spark_pair(spark, pair)
    cfg = SlimConfig(level=ns.level, window_min=ns.window_min, use_lsh=not ns.no_lsh)
    res = run_slim(rec_e, rec_i, cfg)
    prf = metrics.evaluate_links(res.links, pair.truth)
    print(res.links.to_string(index=False))
    print(
        f"\nprecision={prf.precision:.3f} recall={prf.recall:.3f} f1={prf.f1:.3f} "
        f"candidates={res.n_candidates} comparisons={res.n_comparisons} "
        f"runtime={res.runtime_sec:.1f}s"
    )
    spark.stop()
