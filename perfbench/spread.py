#!/usr/bin/env python3
"""Seed-to-seed spread of the end-to-end metrics of one workload.

    python3 perfbench/spread.py --workload sm-lsh --seeds 10 [--first-seed 0]

Runs the benchmark untraced once per seed, each in a fresh process, and
prints for every end-to-end metric of BENCHMARK.json its median and its
spread: (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``. A spread above a third of the
metric's bound is marked; one above the bound fails (``setup_s``
excepted, whose bound applies only to its median). The runs are kept
in ``.perfbench/spread-<workload>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from selftest import ROOT, bench_run
from workloads import WORKLOADS


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ns = ap.parse_args()
    runs = []
    for seed in range(ns.first_seed, ns.first_seed + ns.seeds):
        t = time.monotonic()
        res, env = bench_run(ns.workload, seed, spec["run_seconds"], 0)
        runs.append({"seed": seed, "wall_s": time.monotonic() - t, "result": res, "env": env})
        print(f"seed {seed}: {time.monotonic() - t:.1f} s wall, correct={res['correct']}", flush=True)
    out = Path(ROOT / ".perfbench" / f"spread-{ns.workload}.json")
    out.write_text(json.dumps(runs, indent=1) + "\n")
    bad = [r["seed"] for r in runs if not r["result"]["correct"]]
    for m in spec["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        mark = ""
        if spread > m["bound"] and m["name"] != "setup_s":
            mark = "  FAIL: above bound"
            bad.append(m["name"])
        elif spread > m["bound"] / 3 and m["name"] != "setup_s":
            mark = "  above bound/3"
        print(f"{m['name']:>16} median {med:12.4f} {m['unit']:<9} spread {spread:.4f} "
              f"bound {m['bound']}{mark}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
