#!/usr/bin/env python3
"""Linkage benchmark: time, quality and Spark cost of ``run_slim``.

    python3 perfbench/run.py --workload sm-lsh --seed 0 --seconds 5 --trace 0

Run from the repository root. One run is one fresh process:

1. set-up (``setup_s``): start the Spark session with the program's own
   ``repro.experiments.cli.build_session``, build the workload's
   instance with ``repro.mobility.generator``, lift both sides into
   cached DataFrames and count them;
2. one cold ``run_slim`` call (``slim.first_linkage_s``), then warm
   calls until ``--seconds`` of warm calls have run, at least one
   (``slim.linkage_s`` and ``slim.linkage_cpu_s`` are their medians;
   ``spark_jobs`` and ``spark_tasks`` count the first warm call's work);
3. with ``--trace 1``, one more call with every layer function wrapped
   (see ``spans.py``); its per-layer metrics replace the end-to-end ones.

Linkage times are per-layer metrics, not gated ones: on a shared 4-core
host the wall and CPU seconds of the same call moved by a quarter to a
third within ten minutes, as the machine's speed changed under other
tenants' load. The gate uses what repeats exactly: the Spark jobs and
tasks a call runs, the bin-pair comparisons it makes and its quality.

Every call's output is checked (``checks.py``); warm and traced calls
must return exactly the links and scores of the first call. A call
that raises or fails a check counts in ``failed``. The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the environment record. The full record, with spans, is
written to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.
Spark and Python temporary files stay under ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
from spans import Tracer, spark_work
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

E2E_UNITS = {
    "setup_s": "s",
    "spark_jobs": "count",
    "spark_tasks": "count",
    "f1": "ratio",
    "precision": "ratio",
    "recall": "ratio",
    "comparisons": "bin_pairs",
}


def layer_unit(name: str) -> str:
    if name.endswith("_cpu_s"):
        return "cpu_s"
    if name.endswith("_s") or name == "generator.s":
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_recall", "_precision")):
        return "ratio"
    if name.endswith("_per_group"):
        return "bin_pairs"
    return "count"


def _isolate() -> None:
    """Point Python, Spark and the JVM at scratch space inside the checkout."""
    tmp, local = WORK / "tmp", WORK / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([path] if path else []))
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # -XX:-UsePerfData keeps both JVMs (launcher and driver) out of /tmp
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--driver-java-options '-XX:-UsePerfData -Djava.io.tmpdir={tmp}' pyspark-shell"
    )
    sys.path.insert(0, str(SRC))


def _loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def _children() -> dict[int, list[int]]:
    tree: dict[int, list[int]] = {}
    for p in Path("/proc").iterdir():
        if not p.name.isdigit():
            continue
        try:
            ppid = int((p / "stat").read_text().rpartition(")")[2].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        tree.setdefault(ppid, []).append(int(p.name))
    return tree


def _descendants(pid: int) -> list[int]:
    tree, out, todo = _children(), [], [pid]
    while todo:
        kids = tree.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def _status_kb(pid: int, key: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(key + ":"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _comm(pid: int) -> str:
    try:
        return Path(f"/proc/{pid}/comm").read_text().strip()
    except OSError:
        return ""


def cpu_seconds() -> float:
    """User and system CPU seconds of this process, its descendants and their reaped children."""
    total = 0
    for pid in [os.getpid()] + _descendants(os.getpid()):
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
        except OSError:
            continue
        total += sum(int(x) for x in fields[11:15])  # utime stime cutime cstime
    return total / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """VmHWM of this driver process plus the Spark JVM, in MB."""
    pids = [os.getpid()] + [p for p in _descendants(os.getpid()) if _comm(p) == "java"]
    return sum(_status_kb(p, "VmHWM") for p in pids) / 1024.0


def shutdown(spark) -> None:
    """Stop Spark, end the JVM gateway and wait for every child process."""
    from pyspark import SparkContext

    pids = _descendants(os.getpid())
    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    def alive() -> list[int]:  # zombies have no VmRSS
        return [p for p in pids if _status_kb(p, "VmRSS")]

    deadline = time.monotonic() + 30
    while alive() and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in alive():
        with contextlib.suppress(ProcessLookupError):
            os.kill(p, signal.SIGKILL)
    while alive():
        time.sleep(0.1)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout: no SHA to report
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


@dataclass
class Call:
    """One ``run_slim`` call: its result (None if it raised) and its cost."""

    result: object
    seconds: float
    cpu_s: float
    jobs: int
    tasks: int


class Bench:
    """One benchmark process: set-up, timed calls, optional traced call."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list[tuple] | None = None
        self.setup_parts: dict[str, float] = {}

    def setup(self) -> float:
        """Start Spark, build the instance, lift and count it; returns seconds."""
        t0 = time.perf_counter()
        from repro.core import slim
        from repro.experiments.cli import build_session

        self.slim = slim
        self.spark = build_session("perfbench")
        self.spark.sparkContext.setLogLevel("ERROR")
        t1 = time.perf_counter()
        self.pair = self.workload.make_pair(self.seed)
        t2 = time.perf_counter()
        rec_e, rec_i = self.pair.to_spark(self.spark)
        self.rec_e, self.rec_i = rec_e.cache(), rec_i.cache()
        self.rec_e.count()
        self.rec_i.count()
        t3 = time.perf_counter()
        self.cfg = slim.SlimConfig(use_lsh=self.workload.use_lsh)
        self.entities_e = self.pair.e_records["entity"].unique()
        self.entities_i = self.pair.i_records["entity"].unique()
        self.setup_parts = {"session_s": t1 - t0, "generator_s": t2 - t1, "lift_s": t3 - t2}
        return t3 - t0

    def prf(self, res):
        from repro.core import metrics

        return metrics.evaluate_links(res.links, self.pair.truth)

    def check(self, label: str, res) -> None:
        bad = ["raised"] if res is None else checks.problems(res, self.entities_e, self.entities_i)
        if res is not None:
            links = checks.link_set(res)
            if self.reference is None:
                self.reference = links
            elif links != self.reference:
                bad.append(f"differs from the first call: {checks.difference(self.reference, links)}")
        if bad:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(bad)}")

    def call(self, label: str, fn=None) -> Call:
        """One checked ``run_slim`` call under its own Spark job group."""
        sc = self.spark.sparkContext
        group = f"perfbench-call-{label}"
        sc.setJobGroup(group, label)
        self.attempted += 1
        cpu, t = cpu_seconds(), time.perf_counter()
        try:
            res = (fn or self.slim.run_slim)(self.rec_e, self.rec_i, self.cfg)
        except Exception:
            traceback.print_exc()
            res = None
        seconds = time.perf_counter() - t
        cpu = cpu_seconds() - cpu
        sc.setLocalProperty("spark.jobGroup.id", None)
        self.check(label, res)
        return Call(res, seconds, cpu, *spark_work(sc, group))

    def timed_calls(self, seconds: float) -> tuple[Call, list[Call]]:
        """The cold call, then warm calls until ``seconds`` have run (at least one)."""
        cold, warm = self.call("cold"), []
        while cold.result is not None and (not warm or sum(c.seconds for c in warm) < seconds):
            warm.append(self.call(f"warm{len(warm)}"))
            if warm[-1].result is None:
                break
        return cold, warm

    def traced_metrics(self, cold: Call, warm: list[Call], env: dict) -> dict:
        """Run one call with every layer wrapped; its per-layer metrics."""
        tracer = Tracer(self.spark.sparkContext)
        failed_before = self.failed
        result = {}
        with tracer.patched() as absent:
            traced = self.call("traced", tracer.wrap("slim.run_slim", self.slim.run_slim))
            if traced.result is not None:
                result = self.layer_metrics(tracer, traced.result, cold, warm)
        if self.failed > failed_before:
            self.problems.append("the traced run measures a different program")
        env["absent_layers"] = absent
        env["spans"] = tracer.records()
        return result

    def layer_metrics(self, tracer: Tracer, res, cold: Call, warm: list[Call]) -> dict:
        """Per-layer metrics of the traced call (absent layers are left out)."""
        from repro.core import metrics

        run_span = tracer.named("slim.run_slim")[0]
        m = {
            "slim.first_linkage_s": cold.seconds,
            "slim.linkage_s": statistics.median(c.seconds for c in warm),
            "slim.linkage_cpu_s": statistics.median(c.cpu_s for c in warm),
            "slim.peak_rss_mb": peak_rss_mb(),
            "trace.overhead_s": run_span.seconds - statistics.median(c.seconds for c in warm),
            "generator.s": self.setup_parts["generator_s"],
            "generator.records_e": len(self.pair.e_records),
            "generator.records_i": len(self.pair.i_records),
        }
        if tracer.named("similarity.all_pairs"):
            m["similarity.all_pairs_s"] = tracer.total_s("similarity.all_pairs")
            m["similarity.all_pairs_tasks"] = tracer.work("similarity.all_pairs", inclusive=True)[1]
            m["similarity.candidate_pairs"] = sum(s.rows for s in tracer.named("similarity.all_pairs"))
        if tracer.named("similarity.pair_scores"):
            m["similarity.pair_scores_self_s"] = tracer.self_s("similarity.pair_scores")
            m["similarity.pair_scores_tasks"] = tracer.work("similarity.pair_scores", inclusive=False)[1]
            m["similarity.scored_pairs"] = len(res.scores)
            m["similarity.bin_pairs"] = res.n_comparisons
            m["similarity.bin_pairs_per_group"] = res.n_comparisons / max(len(res.scores), 1)
            m["similarity.alibi_pairs"] = res.n_alibi_pairs
        if tracer.named("histories.build_bins"):
            m["histories.build_bins_s"] = tracer.total_s("histories.build_bins")
            top = [s for s in tracer.named("histories.build_bins") if s.parent == run_span.id]
            if len(top) == 2:
                m["histories.bins_e"], m["histories.bins_i"] = top[0].rows, top[1].rows
        if tracer.named("histories.idf"):
            m["histories.idf_s"] = tracer.total_s("histories.idf")
            m["histories.idf_jobs"] = tracer.work("histories.idf", inclusive=False)[0]
        if tracer.named("histories.norm_factors"):
            m["histories.norm_factors_s"] = tracer.total_s("histories.norm_factors")
        cand = tracer.named("lsh.candidates")
        if cand:
            m["lsh.candidates_s"] = tracer.total_s("lsh.candidates")
            for part in ("plan", "signatures", "band_buckets"):
                if tracer.named(f"lsh.{part}"):
                    m[f"lsh.{part}_s"] = tracer.total_s(f"lsh.{part}")
            m["lsh.spark_jobs"], m["lsh.spark_tasks"] = tracer.work("lsh.candidates", inclusive=True)
            m["lsh.candidate_pairs"] = cand[0].rows
            if res.lsh_plan is not None:
                m["lsh.signature_len"] = res.lsh_plan.signature_len
                m["lsh.n_bands"] = res.lsh_plan.n_bands
            pairs = cand[0].output[0].select("u", "v").toPandas()
            kept = metrics.evaluate_links(pairs, self.pair.truth)
            m["lsh.pair_recall"] = kept.recall
            m["lsh.pair_precision"] = kept.precision
        if tracer.named("matching.greedy_match"):
            m["matching.greedy_match_s"] = tracer.total_s("matching.greedy_match")
            m["matching.edges"] = int((res.scores["score"] > 0).sum())
            m["matching.matched"] = len(res.matched)
        if tracer.named("gmm.select_stop_threshold"):
            m["gmm.select_stop_threshold_s"] = tracer.total_s("gmm.select_stop_threshold")
        m["gmm.links"] = len(res.links)
        return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ns.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "repro" / "core" / "slim.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    _isolate()

    env = {"workload": ns.workload, "seed": ns.seed, "trace": ns.trace, "loadavg_start": _loadavg()}
    bench = Bench(WORKLOADS[ns.workload], ns.seed)
    result = {}
    try:
        setup_s = bench.setup()
        cold, warm = bench.timed_calls(ns.seconds)
        if cold.result is not None and warm and warm[-1].result is not None:
            prf = bench.prf(cold.result)
            env["counts"] = {
                "spark_jobs": warm[0].jobs,
                "spark_tasks": warm[0].tasks,
                "candidates": cold.result.n_candidates,
                "comparisons": cold.result.n_comparisons,
                "f1": prf.f1,
            }
            if ns.trace == 0:
                result = {
                    "setup_s": setup_s,
                    "spark_jobs": warm[0].jobs,
                    "spark_tasks": warm[0].tasks,
                    "f1": prf.f1,
                    "precision": prf.precision,
                    "recall": prf.recall,
                    "comparisons": cold.result.n_comparisons,
                }
                env["linkage_s"] = statistics.median(c.seconds for c in warm)
                env["linkage_cpu_s"] = statistics.median(c.cpu_s for c in warm)
                env["peak_rss_mb"] = peak_rss_mb()
            else:
                result = bench.traced_metrics(cold, warm, env)
        spark = bench.spark
        env.update(
            git_sha=git_sha(),
            nproc=len(os.sched_getaffinity(0)),
            python=platform.python_version(),
            spark=spark.version,
            driver_memory=spark.sparkContext.getConf().get("spark.driver.memory", "1g"),
            shuffle_partitions=spark.conf.get("spark.sql.shuffle.partitions"),
            samples={"setup_s": 1, "first_linkage_s": 1, "linkage_s": len(warm), "linkage_cpu_s": len(warm)},
            setup_parts=bench.setup_parts,
            first_linkage_s=cold.seconds,
            warm_s=[c.seconds for c in warm],
            warm_cpu_s=[c.cpu_s for c in warm],
            problems=bench.problems,
        )
    finally:
        if hasattr(bench, "spark"):
            shutdown(bench.spark)
    env["loadavg_end"] = _loadavg()
    units = E2E_UNITS if ns.trace == 0 else {k: layer_unit(k) for k in result}
    out = {
        "correct": bench.failed == 0 and bool(result),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.items()},
    }
    record = WORK / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"
    record.write_text(json.dumps({**out, "env": env}, indent=1) + "\n")
    for p in bench.problems:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    print(json.dumps({k: v for k, v in env.items() if k != "spans"}))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
