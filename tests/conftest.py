"""Shared dataset fixtures for the test suite.

Session-scoped so the (deterministic) synthetic corpora and their
Spark views are built once; individual tests must not mutate them.
"""
import itertools

import pytest

from repro.core import histories
from repro.mobility import generator


@pytest.fixture(scope="session")
def cab_pair():
    """Tiny Cab-like linkage instance (24 taxis, 6 h)."""
    return generator.cab_pair(scale="test", seed=0)


@pytest.fixture(scope="session")
def cab_records(spark, cab_pair):
    rec_e, rec_i = cab_pair.to_spark(spark)
    return rec_e.cache(), rec_i.cache()


@pytest.fixture(scope="session")
def cab_bins(cab_records):
    """Default-parameter history bins (level 12, 15-minute windows)."""
    rec_e, rec_i = cab_records
    be = histories.build_bins(rec_e, level=12, window_sec=900).cache()
    bi = histories.build_bins(rec_i, level=12, window_sec=900).cache()
    return be, bi


@pytest.fixture(scope="session")
def small_cab_pair():
    """Cab-like instance with two entities a side: fewer than 4 matches."""
    return generator.cab_pair(scale="test", seed=0, n_entities=3)


@pytest.fixture(scope="session")
def small_cab_records(spark, small_cab_pair):
    rec_e, rec_i = small_cab_pair.to_spark(spark)
    return rec_e.cache(), rec_i.cache()


@pytest.fixture(scope="session")
def sm_pair():
    """Tiny SM-like linkage instance (300 users, 26 days)."""
    return generator.sm_pair(scale="test", seed=0)


@pytest.fixture(scope="session")
def sm_records(spark, sm_pair):
    rec_e, rec_i = sm_pair.to_spark(spark)
    return rec_e.cache(), rec_i.cache()


_job_groups = itertools.count()


@pytest.fixture
def spark_jobs(spark):
    """``spark_jobs(call)``: the number of Spark jobs one ``call()`` runs."""
    sc = spark.sparkContext

    def count(call) -> int:
        group = f"test-spark-jobs-{next(_job_groups)}"
        sc.setJobGroup(group, group)
        try:
            call()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        return len(sc.statusTracker().getJobIdsForGroup(group))

    return count
