"""Each committed table under benchmarks/results holds exactly its harness's bench sweep.

The tables are read with pandas and compared, key columns only and in
row order, with the rows that the module grids (and, for E7 and E8,
``VARIANTS`` and ``LINKERS``) define; no Spark session is started.
"""
from pathlib import Path

import pandas as pd
import pytest

from repro.experiments import ablation, comparison, gmm_fit, lsh_buckets, lsh_level, spatiotemporal, workload

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def _e1_e2(dataset):
    grid = spatiotemporal.DEFAULT_GRID["bench"][dataset]
    return [(dataset, lv, w) for w in grid["windows_min"] for lv in grid["levels"]]


def _e3():
    return [("cab", lv, gmm_fit.WINDOW_MIN) for lv in gmm_fit.DEFAULT_LEVELS["bench"]]


def _e4():
    grid = workload.DEFAULT_GRID["bench"]
    return [
        (ds, rho, p) for ds in ("cab", "sm") for rho in grid["intersection_ratios"] for p in grid["inclusion_probs"]
    ]


def _e5():
    grid = lsh_level.DEFAULT_GRID["bench"]
    return [(ds, lv, step) for ds in ("cab", "sm") for lv in grid["sig_levels"] for step in grid["steps"]]


def _e6():
    grid = lsh_buckets.DEFAULT_GRID["bench"]
    return [(ds, t, nb) for ds in ("cab", "sm") for t in grid["thresholds"] for nb in grid["bucket_counts"]]


def _e7():
    grid = ablation.DEFAULT_GRID["bench"]
    sweeps = [("level", lv, grid["fixed_window"]) for lv in grid["levels"]] + [
        ("window", grid["fixed_level"], w) for w in grid["windows_min"]
    ]
    return [("cab", sweep, lv, w, name) for sweep, lv, w in sweeps for name in ablation.VARIANTS]


def _e8():
    grid = comparison.DEFAULT_GRID["bench"]
    density = [("density", p, 0.5, algo) for p in grid["inclusion_probs"] for algo in comparison.LINKERS]
    inter = [
        ("intersection", 0.5, rho, algo) for rho in grid["density_ratios"] for algo in comparison.INTERSECTION_ALGOS
    ]
    return density + inter


# table → (key columns, the bench sweep's keys in row order)
TABLES = {
    "e1_spatiotemporal_cab": (["dataset", "level", "window_min"], lambda: _e1_e2("cab")),
    "e2_spatiotemporal_sm": (["dataset", "level", "window_min"], lambda: _e1_e2("sm")),
    "e3_gmm_fit": (["dataset", "level", "window_min"], _e3),
    "e4_workload": (["dataset", "intersection_ratio", "inclusion_prob"], _e4),
    "e5_lsh_level": (["dataset", "sig_level", "step"], _e5),
    "e6_lsh_buckets": (["dataset", "threshold", "n_buckets"], _e6),
    "e7_ablation": (["dataset", "sweep", "level", "window_min", "variant"], _e7),
    "e8_comparison": (["part", "inclusion_prob", "intersection_ratio", "algo"], _e8),
}


def test_every_table_checked():
    assert sorted(p.stem for p in RESULTS.glob("*.csv")) == sorted(TABLES)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_matches_bench_grid(name):
    keys, sweep = TABLES[name]
    got = pd.read_csv(RESULTS / f"{name}.csv")[keys]
    want = pd.DataFrame(sweep(), columns=keys)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
