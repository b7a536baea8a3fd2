"""The benchmark's own tests.

    python3 -m pytest perfbench/ -q -p no:cacheprovider

Traced runs go through ``run.py`` in a subprocess, exactly as the benchmark
is run; the in-process tests share one SparkSession started the same way.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
from oracle import ExactUnion  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

# Layers that must record at least one span, per workload.
COMMON = {
    "walker.plan",
    "walker.run_walks",
    "membership.build",
    "membership.probe",
    "join_sampler.sample_join",
    "stats",
    "histogram_union",
    "koverlap",
}
ACTIVE = {
    "uq1-eo": COMMON | {"union_sampler"},
    "uq3-ew": COMMON | {"union_sampler", "splitting"},
    "uq2-online": COMMON | {"randomwalk_union", "online_union"},
}


@pytest.fixture(scope="module")
def traced_runs() -> dict[str, dict]:
    out = {}
    for name in ACTIVE:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", "5", "--seconds", "1", "--trace", "1"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-4000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(os.path.join(run.WORK, "runs", f"{name}-seed5-trace1.json")) as fh:
            out[name] = {"result": result, "dump": json.load(fh)}
    return out


@pytest.mark.parametrize("name", sorted(ACTIVE))
def test_active_layers_record_spans(traced_runs, name):
    run_ = traced_runs[name]
    assert run_["result"]["correct"]
    assert run_["dump"]["meta"]["trace_missing_targets"] == []
    keys = {s["key"] for s in run_["dump"]["spans"]}
    assert ACTIVE[name] <= keys, ACTIVE[name] - keys


def test_uq1_records_no_splitting_or_online_spans(traced_runs):
    keys = {s["key"] for s in traced_runs["uq1-eo"]["dump"]["spans"]}
    assert not keys & {"splitting", "randomwalk_union", "online_union"}


@pytest.mark.parametrize("name", sorted(ACTIVE))
def test_every_spark_job_is_attributed(traced_runs, name):
    metrics = traced_runs[name]["result"]["metrics"]
    assert metrics["spark.unattributed_jobs"]["value"] == 0
    assert metrics["spark.jobs_per_query"]["value"] > 0


def test_trace_reports_every_per_layer_metric(traced_runs):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    for run_ in traced_runs.values():
        assert set(run_["result"]["metrics"]) == names


@pytest.fixture(scope="module")
def spark():
    s = run.start_spark()
    yield s
    run.stop_spark(s)


def test_tracing_changes_no_result(spark):
    from repro.core import join_sampler, walker
    from repro.experiments import tables

    spec = WORKLOADS["uq1-eo"]
    w = build(spark, spec, 3)
    tables.prewarm(w.uctx)
    untraced, _ = spec.query(w, spec.n, 11)
    tracer = Tracer(spark.sparkContext)
    tracer.install()
    try:
        # the name bound in join_sampler is wrapped along with walker's own
        assert join_sampler.run_walks is walker.run_walks
        assert hasattr(walker.run_walks, "__wrapped__")
        tracer.begin("q")
        traced, _ = spec.query(w, spec.n, 11)
        tracer.end()
    finally:
        tracer.uninstall()
    assert join_sampler.run_walks is walker.run_walks
    assert not hasattr(walker.run_walks, "__wrapped__")
    assert any(s["key"] == "walker.run_walks" for s in tracer.spans)
    assert untraced.reset_index(drop=True).equals(traced.reset_index(drop=True))


def test_oracle_agrees_with_full_join_union(spark):
    from repro.core.exact import full_join_union

    w = build(spark, WORKLOADS["uq3-ew"], 2)
    ex = full_join_union(spark, w.joins)
    exact = ExactUnion(w.joins)
    try:
        idx = {n: i for i, n in enumerate(ex.names)}
        expected = [0] * len(ex.names)
        for members, count in ex.atoms.items():
            expected[min(idx[m] for m in members)] += count
        assert exact.cover_sizes.tolist() == expected
        assert exact.size == ex.union

        sample = w.joins[1].full_df().limit(50).toPandas()
        f = exact.cover_index(sample)
        assert (f >= 0).all() and (f <= 1).all()
        sample.loc[0, "c_acctbal"] = -1e9  # no such customer
        assert exact.cover_index(sample)[0] == -1
    finally:
        exact.close()


def test_exits_nonzero_without_the_program():
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "uq1-eo",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
