"""E6 (paper Fig. 9): speed-up vs number of hash buckets."""
import pandas as pd

from repro.experiments import lsh_buckets


def test_e6_lsh_buckets(benchmark, spark, save_table):
    def run_both():
        cab = lsh_buckets.run(spark, dataset="cab", scale="bench")
        sm = lsh_buckets.run(spark, dataset="sm", scale="bench")
        return pd.concat([cab, sm], ignore_index=True)

    table = benchmark.pedantic(run_both, rounds=1, iterations=1)
    save_table(table, "e6_lsh_buckets", "E6 — speed-up vs bucket count (Fig. 9)")
    # more buckets must never reduce the speed-up within a series
    for (_, _), grp in table.groupby(["dataset", "threshold"]):
        s = grp.sort_values("n_buckets")["speedup"]
        assert s.iloc[-1] >= s.iloc[0]
