"""Per-layer tracing from outside the program.

``Tracer.patched`` replaces each layer function with a wrapper at the
module attribute through which ``run_slim`` looks it up, and restores
every attribute on exit. A wrapper records a span (name, start, end,
parent), tags the span's Spark jobs with its own job group, and, when
the function returns a Spark DataFrame, counts it inside the span so
that the lazy work is charged to the layer that planned it.

The returned DataFrame is counted, not cached: a cache changes the
physical plan of every query that reads it, and the similarity kernel
breaks distance ties by row order, so caching ``histories.idf``'s
output moved Cab scores by up to 4.5 (of ~600). Counting leaves the
program's own plans untouched; the consumer later recomputes the lazy
work, so a parent's self time includes that recomputation. The traced
call comes after every timed call and its links are compared with the
untraced ones.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, span name). ``lsh_candidates`` is imported by
# name into repro.core.slim, so it is patched there; the other layer
# functions are looked up as module attributes at call time.
LAYER_FUNCTIONS = (
    ("repro.core.histories", "build_bins", "histories.build_bins"),
    ("repro.core.histories", "idf", "histories.idf"),
    ("repro.core.histories", "norm_factors", "histories.norm_factors"),
    ("repro.core.slim", "lsh_candidates", "lsh.candidates"),
    ("repro.core.lsh", "plan", "lsh.plan"),
    ("repro.core.lsh", "signatures", "lsh.signatures"),
    ("repro.core.lsh", "band_buckets", "lsh.band_buckets"),
    ("repro.core.similarity", "all_pairs", "similarity.all_pairs"),
    ("repro.core.similarity", "pair_scores", "similarity.pair_scores"),
    ("repro.core.matching", "greedy_match", "matching.greedy_match"),
    ("repro.core.gmm", "select_stop_threshold", "gmm.select_stop_threshold"),
)

GROUP_PREFIX = "perfbench-span-"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    rows: int | None = None
    jobs: int = 0
    tasks: int = 0
    output: object = field(default=None, repr=False)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def spark_work(sc, group: str) -> tuple[int, int]:
    """(jobs, tasks) Spark ran under job group ``group``."""
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    tasks = 0
    for j in jobs:
        info = st.getJobInfo(j)
        for s in info.stageIds if info else ():
            stage = st.getStageInfo(s)
            tasks += stage.numTasks if stage else 0
    return len(jobs), tasks


def _rows(out) -> int | None:
    """Row count of a returned DataFrame (counted by Spark) or pandas frame."""
    from pyspark.sql import DataFrame

    first = out[0] if isinstance(out, tuple) and out else out
    if isinstance(first, DataFrame):
        return first.count()
    if hasattr(first, "__len__") and hasattr(first, "columns"):  # pandas
        return len(first)
    return None


class Tracer:
    def __init__(self, sc):
        self.sc = sc
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._t0 = time.perf_counter()

    def _set_group(self, span: Span | None) -> None:
        if span is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self.sc.setJobGroup(f"{GROUP_PREFIX}{span.id}", span.name)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent.id if parent else None)
            self.spans.append(span)
            self._stack.append(span)
            self._set_group(span)
            span.start = time.perf_counter() - self._t0
            try:
                out = fn(*args, **kwargs)
                span.rows = _rows(out)
                span.output = out
                return out
            finally:
                span.end = time.perf_counter() - self._t0
                self._stack.pop()
                self._set_group(parent)
                span.jobs, span.tasks = spark_work(self.sc, f"{GROUP_PREFIX}{span.id}")

        return traced

    @contextmanager
    def patched(self):
        """Wrap every layer function; yields the names of absent layers."""
        saved, absent = [], []
        try:
            for mod_name, attr, name in LAYER_FUNCTIONS:
                try:
                    mod = importlib.import_module(mod_name)
                except ImportError:
                    absent.append(name)
                    continue
                fn = getattr(mod, attr, None)
                if fn is None:
                    absent.append(name)
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn))
            yield absent
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            self._stack.clear()
            self._set_group(None)

    # ---- aggregation -------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def _subtree(self, span: Span) -> list[Span]:
        out = [span]
        for s in self.spans:
            if s.parent == span.id:
                out += self._subtree(s)
        return out

    def total_s(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def self_s(self, name: str) -> float:
        return sum(
            s.seconds - sum(c.seconds for c in self.spans if c.parent == s.id)
            for s in self.named(name)
        )

    def work(self, name: str, *, inclusive: bool) -> tuple[int, int]:
        """(jobs, tasks) of every ``name`` span, with descendants if inclusive."""
        spans = [
            t
            for s in self.named(name)
            for t in (self._subtree(s) if inclusive else [s])
        ]
        return sum(s.jobs for s in spans), sum(s.tasks for s in spans)

    def records(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "start_s": round(s.start, 6),
                "end_s": round(s.end, 6),
                "rows": s.rows,
                "jobs": s.jobs,
                "tasks": s.tasks,
            }
            for s in self.spans
        ]
