"""Run one evaluation table (E1–E8) and print it.

    python -m repro.experiments lsh_level --dataset cab --scale bench
    python -m repro.experiments gmm_fit --scale test --csv e3.csv
"""
from repro.experiments.cli import run_job

# harness module under repro.experiments → printed title
TABLES = {
    "spatiotemporal": "E1/E2 spatio-temporal level",
    "gmm_fit": "E3 GMM stop threshold",
    "workload": "E4 workload sensitivity",
    "lsh_level": "E5 LSH signature sweep",
    "lsh_buckets": "E6 LSH bucket sweep",
    "ablation": "E7 ablation",
    "comparison": "E8 comparison with existing work",
}

if __name__ == "__main__":
    run_job(TABLES)
