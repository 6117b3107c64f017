"""Workloads of the linkage benchmark.

A workload names one generated linkage instance (dataset and named scale
of ``repro.mobility.generator``) and whether ``run_slim`` filters
candidates with LSH or scores all entity pairs. Everything else is
``SlimConfig()`` defaults. The seed is a benchmark argument; the
program only sees the generated records. README.md says why each
workload was chosen.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # "cab" or "sm"
    scale: str  # a named scale of generator.cab_pair / sm_pair
    use_lsh: bool
    n_entities: int | None = None  # replaces the scale's entity count

    def make_pair(self, seed: int):
        from repro.mobility import generator

        maker = {"cab": generator.cab_pair, "sm": generator.sm_pair}[self.dataset]
        extra = {} if self.n_entities is None else {"n_entities": self.n_entities}
        return maker(scale=self.scale, seed=seed, **extra)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sm-lsh", "sm", "large", True),
        # 120 cabs, not the scale's 60: with ~20 true pairs, recall moves
        # in steps of 0.05 and its seed-to-seed spread was 0.12
        Workload("cab-lsh", "cab", "bench", True, n_entities=120),
        # Not in BENCHMARK.json: brute force runs ~37k Spark tasks per
        # call whatever the data size, so a run takes 2.5-4 minutes.
        Workload("cab-bf", "cab", "test", False),
        Workload("sm-bf", "sm", "test", False),
    )
}
