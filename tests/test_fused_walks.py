"""Fused walk jobs: one ``run_walks`` call serves several joins in ONE Spark
job, with exact per-join walk counts, per-join exact-uniform EW draws and
rows that each belong to their own join (checked against DuckDB)."""
from itertools import count

import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.join_sampler import UnionContext
from repro.core.join_spec import Relation, chain
from repro.core.union_sampler import set_union_sample, warmup_params
from repro.core.walker import JOIN, P, _walk_plan, run_walks
from statutil import assert_uniform, key_series


@pytest.fixture(scope="module")
def tables():
    g = np.random.default_rng(4)
    n = 90
    a = pd.DataFrame({"x": g.integers(1, 13, n), "pa": np.arange(n)})
    b = pd.DataFrame({"bx": np.arange(1, 13), "y": g.integers(1, 6, 12)})
    c = pd.DataFrame({"cy": [1, 1, 2, 3, 3, 3, 4, 5, 5], "pc": np.arange(9)})
    return a, b, c


SLICES = [(0, 50), (30, 80), (45, 90)]


@pytest.fixture(scope="module")
def joins(spark, tables):
    """Three 3-relation chains over overlapping slices of ``a``; ``b`` and
    ``c`` are shared DataFrames."""
    a, b, c = tables
    rb = Relation("b", spark.createDataFrame(b).cache())
    rc = Relation("c", spark.createDataFrame(c).cache())
    out = []
    for i, (lo, hi) in enumerate(SLICES):
        ra = Relation("a", spark.createDataFrame(a.iloc[lo:hi]).cache())
        out.append(chain(f"f{i}", [ra, rb, rc], [("x", "bx"), ("y", "cy")]))
    return out


@pytest.fixture(scope="module")
def exact_joins(tables, joins):
    """Each join's full result, computed by DuckDB."""
    a, b, c = tables
    cols = ", ".join(joins[0].value_cols)
    con = duckdb.connect()
    try:
        con.register("b", b)
        con.register("c", c)
        out = []
        for lo, hi in SLICES:
            con.register("a", a.iloc[lo:hi])
            out.append(
                con.execute(
                    f"SELECT {cols} FROM a JOIN b ON a.x = b.bx JOIN c ON b.y = c.cy"
                ).fetchdf()
            )
            con.unregister("a")
        return out
    finally:
        con.close()


_groups = count()


def count_jobs(spark, fn):
    """(fn(), number of Spark jobs it ran), counted through a job group."""
    sc = spark.sparkContext
    group = f"test_fused_walks:{next(_groups)}"
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    # job-start events reach the status tracker asynchronously
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


@pytest.mark.parametrize("mode", ["ew", "uniform"])
def test_exact_counts_and_own_join_membership(spark, joins, exact_joins, mode):
    ns = [300, 200, 100]
    res = run_walks(spark, list(zip(joins, ns)), mode=mode, seed=3)
    assert res.n_walks == sum(ns)
    assert res.n_failed == 0 and res.failed == [0, 0, 0]
    assert np.bincount(res.pdf[JOIN], minlength=3).tolist() == ns
    cols = joins[0].value_cols
    for k, exact in enumerate(exact_joins):
        rows = res.pdf[res.pdf[JOIN] == k]
        assert set(key_series(rows, cols)) <= set(key_series(exact, cols))


def test_ew_draws_uniform_per_join(spark, joins, exact_joins):
    n = 4000
    res = run_walks(spark, [(j, n) for j in joins], mode="ew", seed=9)
    for k, exact in enumerate(exact_joins):
        rows = res.pdf[res.pdf[JOIN] == k]
        assert len(rows) == n
        assert np.allclose(rows[P], 1.0 / len(exact))
        assert_uniform(rows, exact, joins[0].value_cols)


def test_same_seed_same_frame(spark, joins):
    reqs = [(joins[0], 150), (joins[2], 250)]
    r1 = run_walks(spark, reqs, mode="uniform", seed=42)
    r2 = run_walks(spark, reqs, mode="uniform", seed=42)
    pd.testing.assert_frame_equal(r1.pdf, r2.pdf)
    r3 = run_walks(spark, reqs, mode="uniform", seed=43)
    assert not r1.pdf.equals(r3.pdf)


def test_one_spark_job_per_fused_call(spark, joins):
    uctx = UnionContext(spark, joins)
    hash_cols = uctx.membership.hash_cols
    for j in joins:
        _walk_plan(spark, j)  # the one-time plan collect is not a walk job
    res, jobs = count_jobs(
        spark,
        lambda: run_walks(
            spark, [(j, 500) for j in joins], mode="ew", seed=1, hash_cols=hash_cols
        ),
    )
    assert jobs == 1
    assert len(res.pdf) == 1500
    assert set(uctx.membership.col_sets.values()) <= set(res.pdf.columns)


@pytest.mark.parametrize(
    "sampler,variant", [("ew", "cover-retry"), ("eo", "cover-retry"), ("ew", "bernoulli")]
)
def test_union_sample_one_walk_job_per_round(spark, joins, sampler, variant):
    uctx = UnionContext(spark, joins)
    est = warmup_params(uctx, "exact")
    uctx.membership  # build the hash index before counting
    for name in uctx.names:
        uctx.ctx(name).plan
    res, jobs = count_jobs(
        spark,
        lambda: set_union_sample(
            uctx, 600, warmup=est, sampler=sampler, variant=variant, seed=5
        ),
    )
    assert len(res.samples) == 600
    assert res.rounds >= 1
    if sampler == "ew":
        assert jobs == res.rounds
    else:
        # EO acceptance can leave a join short; sample_join then walks again
        assert jobs >= res.rounds
