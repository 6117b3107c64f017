"""E2 (paper Fig. 5): SM accuracy vs spatio-temporal level."""
from repro.experiments import spatiotemporal


def test_e2_spatiotemporal_sm(benchmark, spark, save_table):
    table = benchmark.pedantic(
        lambda: spatiotemporal.run(spark, dataset="sm", scale="bench"),
        rounds=1,
        iterations=1,
    )
    save_table(table, "e2_spatiotemporal_sm", "E2 — SM: accuracy vs spatio-temporal level (Fig. 5)")
    assert table["f1"].max() > 0.5
