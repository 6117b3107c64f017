#!/usr/bin/env python3
"""Self-test of the linkage benchmark.

    python3 perfbench/selftest.py                       # workloads of BENCHMARK.json
    python3 perfbench/selftest.py --workloads cab-bf sm-bf --seed 1

Runs each workload once untraced and once traced, in fresh processes.
Checks that both runs are correct, that every end-to-end and per-layer
metric is present with its BENCHMARK.json unit and a finite value,
that each workload reaches the layers it was chosen for (all_pairs only
under brute force, lsh only under LSH), and that the counts repeat
exactly between the two runs. Prints the counts as one JSON line per
workload and exits 1 if any check fails.
"""
from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
ALL_PAIRS = ("similarity.all_pairs_s", "similarity.all_pairs_tasks", "similarity.candidate_pairs")
REPEATED = ("spark_jobs", "spark_tasks", "candidates", "comparisons", "f1")


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result, environment record) of one benchmark process."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} trace={trace} printed no result:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def metric_problems(metrics: dict, expected: dict[str, str]) -> list[str]:
    out = []
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            out.append(f"{name} missing")
        elif m.get("unit") != unit:
            out.append(f"{name} has unit {m.get('unit')!r}, not {unit!r}")
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            out.append(f"{name} is not a finite number: {m.get('value')!r}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ns = ap.parse_args()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    for name in ns.workloads:
        lsh = WORKLOADS[name].use_lsh
        expected = {k: u for k, u in layers.items() if lsh or not k.startswith("lsh.")}
        if not lsh:
            expected.update({k: "s" if k.endswith("_s") else "count" for k in ALL_PAIRS})
        plain, plain_env = bench_run(name, ns.seed, ns.seconds, 0)
        traced, traced_env = bench_run(name, ns.seed, ns.seconds, 1)
        problems = [f"untraced: {p}" for p in metric_problems(plain["metrics"], e2e)]
        problems += [f"traced: {p}" for p in metric_problems(traced["metrics"], expected)]
        for label, res in (("untraced", plain), ("traced", traced)):
            if not res["correct"] or res["failed"]:
                problems.append(f"{label} run not correct: {res['failed']}/{res['attempted']} failed")
        wrong_layer = [k for k in traced["metrics"] if k.startswith("lsh." if not lsh else ALL_PAIRS)]
        problems += [f"{k} reported on a {'LSH' if lsh else 'brute-force'} workload" for k in wrong_layer]
        if not lsh and any(traced["metrics"].get(k, {}).get("value", 0) <= 0 for k in ALL_PAIRS):
            problems.append("all_pairs metrics are not all positive under brute force")
        counts = plain_env.get("counts", {})
        for key in REPEATED:
            if counts.get(key) != traced_env.get("counts", {}).get(key):
                problems.append(
                    f"{key} does not repeat: {counts.get(key)} vs {traced_env.get('counts', {}).get(key)}"
                )
        print(json.dumps({"workload": name, "seed": ns.seed, "counts": counts,
                          "absent_layers": traced_env.get("absent_layers")}))
        for p in problems:
            print(f"FAIL {name}: {p}")
        failures += problems
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
