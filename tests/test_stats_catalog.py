"""StatsCatalog: statistics match a DuckDB GROUP BY, each (relation, column)
is aggregated once per workload, and repeated HISTOGRAM warm-ups run no
Spark job and return the same estimate."""
from itertools import count

import duckdb
import pytest

from repro.core.histogram_union import auto_histogram_warmup, histogram_warmup
from repro.core.union_sampler import warmup_params
from repro.splitting.split import split_view_sets
from repro.workloads import uq2, uq3


@pytest.fixture(scope="module")
def w2(spark):
    return uq2(spark, sf=0.004, overlap=0.2)


@pytest.fixture(scope="module")
def w3(spark):
    return uq3(spark, sf=0.004, overlap=0.2)


def distinct_relations(joins):
    seen = {}
    for j in joins:
        for rel in j.relations():
            seen.setdefault(id(rel.df), rel)
    return list(seen.values())


_groups = count()


def count_jobs(spark, fn):
    """(fn(), number of Spark jobs it ran), counted through a job group."""
    sc = spark.sparkContext
    group = f"test_stats_catalog:{next(_groups)}"
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    # job-start events reach the status tracker asynchronously
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


def assert_same_estimate(a, b):
    assert a.sizes == b.sizes
    assert a.overlaps == b.overlaps
    assert a.covers == b.covers
    assert a.union == b.union


def test_entries_match_duckdb_group_by(w3):
    stats = w3.uctx.stats
    con = duckdb.connect()
    try:
        for rel in distinct_relations(w3.joins):
            con.register("t", rel.df.toPandas())
            for col in rel.cols:
                got = stats.get(rel.df, col)
                truth = con.execute(
                    f'SELECT "{col}" AS v, COUNT(*) AS deg FROM t GROUP BY "{col}"'
                ).fetchdf()
                present = truth[truth["v"].notna()]
                assert got.hist.to_dict() == dict(zip(present["v"], present["deg"])), (
                    rel.name,
                    col,
                )
                agg = con.execute(
                    'SELECT MAX(deg), AVG(deg), SUM(deg) FROM '
                    f'(SELECT COUNT(*) AS deg FROM t GROUP BY "{col}")'
                ).fetchone()
                assert (got.max, got.avg, got.rows) == (agg[0], agg[1], agg[2]), (
                    rel.name,
                    col,
                )
            con.unregister("t")
    finally:
        con.close()


def test_second_uq3_warmup_runs_no_spark_job(spark, w3):
    first, n1 = count_jobs(spark, lambda: warmup_params(w3.uctx, "hist-ew"))
    view_sets = w3.uctx.stats.view_sets
    second, n2 = count_jobs(spark, lambda: warmup_params(w3.uctx, "hist-ew"))
    assert w3.uctx.stats.view_sets is view_sets  # no second template search
    assert n1 > 0  # the counter sees jobs when there are some
    assert n2 == 0
    assert_same_estimate(first, second)
    # fresh split views read only the catalog
    _, n3 = count_jobs(spark, lambda: split_view_sets(w3.joins, w3.uctx.stats, refine="avg"))
    assert n3 == 0


def test_second_uq2_warmup_runs_no_spark_job(spark, w2):
    run = lambda: auto_histogram_warmup(w2.uctx, size_method="eo")  # noqa: E731
    first, n1 = count_jobs(spark, run)
    second, n2 = count_jobs(spark, run)
    assert n1 > 0
    assert n2 == 0
    assert_same_estimate(first, second)


def test_one_entry_per_relation_column(spark, w2):
    auto_histogram_warmup(w2.uctx, size_method="eo")
    requested = []
    for j in w2.joins:
        rels, edges = j.as_chain()
        requested.append((rels[0].df, edges[0].parent_col))
        requested += [(rels[i + 1].df, e.child_col) for i, e in enumerate(edges)]
    distinct = {(id(df), col) for df, col in requested}
    # region, nation, supplier and partsupp are shared by all three joins
    assert len(distinct) < len(requested)
    assert len(w2.uctx.stats) == len(distinct)
    assert all(key in w2.uctx.stats for key in requested)
    # fresh chain views read only the catalog
    _, n = count_jobs(spark, lambda: histogram_warmup(w2.uctx, size_method="eo"))
    assert n == 0
