#!/usr/bin/env python3
"""Union-of-joins sampling benchmark.

    python3 perfbench/run.py --workload uq3-ew --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; ``repro`` is imported from its
``src/`` directory. One driver process issues one query at a time (a closed
loop with one client) on ``local[k]``, k = the number of usable cores.

A run sets the workload up ``ROUNDS`` times. Each round generates the
relations from ``--seed`` and materializes them in Spark's cache (untimed),
then times the set-up: ``prewarm`` plus the first query, which is where
lazily filled state is built. Later queries then run on the last round's
workload until ``--seconds`` of them have been measured. After every timer
has stopped, each query's samples are checked against the exact union
(``oracle.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of traced set-ups and queries (``tracer.py``), with
untraced and traced later queries alternating for ``trace.overhead``.
The last stdout line is the JSON result; a fuller record, with run
metadata and the trace spans, goes to ``.perfbench/runs/``. The exit code
is 1 when a correctness check fails and 2 when the checkout has no
``src/repro``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

ROUNDS = 2
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 64

END_TO_END = [
    ("setup_s", "s"),
    ("query_s", "s"),
    ("warmup_s", "s"),
    ("sample_s", "s"),
    ("driver_peak_rss_mb", "MB"),
]

# (metric, unit, phase, key, field): medians over traced set-ups ("setup",
# counted per run) or traced later queries ("query", counted per query).
PER_LAYER = [
    ("walker.plan.self_s", "s", "setup", "walker.plan", "self_s"),
    ("walker.plan.jobs", "count", "setup", "walker.plan", "jobs"),
    ("walker.plan.broadcast_bytes", "bytes", "setup", "walker.plan", "broadcast_bytes"),
    ("membership.build.self_s", "s", "setup", "membership.build", "self_s"),
    ("membership.build.jobs", "count", "setup", "membership.build", "jobs"),
    ("walker.run_walks.calls", "count", "query", "walker.run_walks", "calls"),
    ("walker.run_walks.self_s", "s", "query", "walker.run_walks", "self_s"),
    ("walker.run_walks.walks", "count", "query", "walker.run_walks", "walks"),
    ("walker.run_walks.dead_ends", "count", "query", "walker.run_walks", "dead_ends"),
    ("walker.run_walks.jobs", "count", "query", "walker.run_walks", "jobs"),
    ("join_sampler.sample_join.calls", "count", "query", "join_sampler.sample_join", "calls"),
    ("join_sampler.sample_join.self_s", "s", "query", "join_sampler.sample_join", "self_s"),
    # counted by sample_join in the SampleStats that set_union_sample returns
    (
        "join_sampler.sample_join.weight_rejected",
        "count",
        "query",
        "union_sampler",
        "weight_rejected",
    ),
    ("membership.probe.calls", "count", "query", "membership.probe", "calls"),
    ("membership.probe.self_s", "s", "query", "membership.probe", "self_s"),
    ("membership.probe.rows", "count", "query", "membership.probe", "rows"),
    ("membership.probe.jobs", "count", "query", "membership.probe", "jobs"),
    ("union_sampler.self_s", "s", "query", "union_sampler", "self_s"),
    ("union_sampler.psi", "count", "query", "union_sampler", "psi"),
    ("union_sampler.cover_rejected", "count", "query", "union_sampler", "cover_rejected"),
    ("stats.calls", "count", "query", "stats", "calls"),
    ("stats.self_s", "s", "query", "stats", "self_s"),
    ("stats.jobs", "count", "query", "stats", "jobs"),
    ("splitting.self_s", "s", "query", "splitting", "self_s"),
    ("splitting.jobs", "count", "query", "splitting", "jobs"),
    ("splitting.view_sets", "count", "query", "splitting", "view_sets"),
    ("histogram_union.self_s", "s", "query", "histogram_union", "self_s"),
    ("histogram_union.jobs", "count", "query", "histogram_union", "jobs"),
    ("koverlap.calls", "count", "query", "koverlap", "calls"),
    ("koverlap.self_s", "s", "query", "koverlap", "self_s"),
    ("randomwalk_union.self_s", "s", "query", "randomwalk_union", "self_s"),
    ("randomwalk_union.walks", "count", "query", "randomwalk_union", "walks"),
    ("randomwalk_union.pool_rows", "count", "query", "randomwalk_union", "pool_rows"),
    ("online_union.self_s", "s", "query", "online_union", "self_s"),
    ("online_union.reuse_accepted", "count", "query", "online_union", "reuse_accepted"),
    ("online_union.regular_accepted", "count", "query", "online_union", "regular_accepted"),
    ("online_union.backtracks", "count", "query", "online_union", "backtracks"),
    (
        "online_union.backtrack_rejected",
        "count",
        "query",
        "online_union",
        "backtrack_rejected",
    ),
]
# Derived per-layer metrics, computed in layer_metrics().
PER_LAYER_DERIVED = [
    ("walker.run_walks.call_p50_s", "s"),
    ("walker.run_walks.call_p90_s", "s"),
    ("union_sampler.accept_ratio", "ratio"),
    ("spark.jobs_per_query", "count"),
    ("spark.unattributed_jobs", "count"),
    ("trace.overhead", "ratio"),
    ("cover_tv", "fraction"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---- environment --------------------------------------------------------
def start_spark():
    """A local SparkSession configured like ``repro.experiments.session``
    (64 shuffle partitions, Arrow on, broadcast joins off), with every
    temporary file kept under ``.perfbench/``."""
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # The spark-submit launcher JVM writes no hsperfdata files either.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores()}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf " + shlex.quote(f"spark.local.dir={tmp}"),
            # -Xms = -Xmx: a fixed-size heap steadies GC from run to run;
            # -XX:-UsePerfData: the JVM writes no hsperfdata files to /tmp.
            "--driver-java-options "
            + shlex.quote(f"-Xms{DRIVER_MEMORY} -Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait until its JVM process has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    shutil.rmtree(os.path.join(WORK, "tmp"), ignore_errors=True)


def cores() -> int:
    return len(os.sched_getaffinity(0))


def _git(*args) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def metadata(spark, spec, args) -> dict:
    import pyspark
    from workloads import OVERLAP

    # Only a repository rooted at the checkout identifies the code under test.
    top = _git("rev-parse", "--show-toplevel")
    own = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    sha = _git("rev-parse", "HEAD") if own else None
    status = _git("status", "--porcelain") if own else None
    return {
        "workload": spec.name,
        "template": spec.template,
        "sf": spec.sf,
        "overlap": OVERLAP,
        "n": spec.n,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": ROUNDS,
        "master": spark.sparkContext.master,
        "driver_memory": DRIVER_MEMORY,
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "java": spark.sparkContext._jvm.System.getProperty("java.version"),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src_digest(),
    }


# ---- the run ------------------------------------------------------------
def query_seed(seed: int, i: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0] % 2**31)


def run_query(spec, w, seed: int) -> dict:
    """One query; a raise is recorded as a failed query, not propagated."""
    t0 = time.perf_counter()
    try:
        samples, parts = spec.query(w, spec.n, seed)
        error = None
    except Exception as e:  # the query is the unit that fails
        traceback.print_exc(file=sys.stderr)
        samples, parts, error = None, {}, repr(e)
    return {"query_s": time.perf_counter() - t0, **parts, "samples": samples, "error": error}


def run(spark, spec, args, tracer=None) -> dict:
    from repro.experiments import tables

    from workloads import build

    records: list[dict] = []
    setups: list[float] = []
    builds: list[float] = []
    w = None
    for r in range(ROUNDS):
        if w is not None:
            spark.catalog.clearCache()
        t0 = time.perf_counter()
        w = build(spark, spec, args.seed)
        builds.append(time.perf_counter() - t0)
        tag = f"setup{r}"
        if tracer is not None:
            tracer.install()
            tracer.begin(tag)
        t0 = time.perf_counter()
        tables.prewarm(w.uctx)
        rec = run_query(spec, w, query_seed(args.seed, len(records)))
        setups.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end()
            tracer.uninstall()
        records.append({**rec, "tag": tag, "phase": "setup", "traced": tracer is not None})

    # Later queries run on the last round's workload, once the JVM has been
    # through every set-up.
    measured = 0.0
    n_later = 0
    min_later = 4 if tracer is not None else 1
    while n_later < min_later or measured < args.seconds:
        traced = tracer is not None and n_later % 2 == 1
        tag = f"q{n_later}"
        if traced:
            tracer.install()
            tracer.begin(tag)
        rec = run_query(spec, w, query_seed(args.seed, len(records)))
        if traced:
            tracer.end()
            tracer.uninstall()
        records.append({**rec, "tag": tag, "phase": "later", "traced": traced})
        measured += rec["query_s"]
        n_later += 1
        if rec["error"] is not None:
            break  # the run is already incorrect
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "records": records,
        "setups": setups,
        "builds": builds,
        "peak_rss_mb": peak_rss_mb,
        "w": w,
    }


def check(w, records, n: int) -> tuple[int, float, int]:
    """Failed queries, cover_tv over every query's samples, and |U|, against
    the exact union. Runs after all timers."""
    import numpy as np
    from oracle import ExactUnion

    exact = ExactUnion(w.joins)
    try:
        failed = 0
        covers = []
        for rec in records:
            ok = rec["error"] is None and len(rec["samples"]) == n
            if ok:
                try:
                    f = exact.cover_index(rec["samples"])
                except (KeyError, ValueError, TypeError) as e:
                    rec["error"] = f"oracle: {e!r}"
                    ok = False
                else:
                    ok = bool((f >= 0).all())
                    covers.append(f)
            rec["ok"] = ok
            failed += not ok
        tv = exact.cover_tv(np.concatenate(covers)) if covers else 1.0
        return failed, tv, exact.size
    finally:
        exact.close()


def _median(xs: list[float]) -> float:
    return float(statistics.median(xs)) if xs else float("nan")


def end_to_end(out: dict) -> dict:
    later = [r for r in out["records"] if r["phase"] == "later" and r["ok"] and not r["traced"]]
    return {
        "setup_s": _median(out["setups"]),
        "query_s": _median([r["query_s"] for r in later]),
        "warmup_s": _median([r["warmup_s"] for r in later]),
        "sample_s": _median([r["sample_s"] for r in later]),
        "driver_peak_rss_mb": out["peak_rss_mb"],
    }


def layer_metrics(tracer, out: dict, cover_tv: float) -> dict:
    from tracer import ROOT_KEY, percentile

    records = out["records"]
    setups = [tracer.summary(r["tag"]) for r in records if r["phase"] == "setup"]
    traced = [r for r in records if r["phase"] == "later" and r["traced"]]
    untraced = [r for r in records if r["phase"] == "later" and not r["traced"]]
    queries = [tracer.summary(r["tag"]) for r in traced]
    m = {}
    for name, _, phase, key, field in PER_LAYER:
        pool = setups if phase == "setup" else queries
        m[name] = _median([float(s.get(key, {}).get(field, 0.0)) for s in pool]) if pool else 0.0
    walk_calls = [d for s in queries for d in s.get("walker.run_walks", {}).get("durations", [])]
    m["walker.run_walks.call_p50_s"] = percentile(walk_calls, 50)
    m["walker.run_walks.call_p90_s"] = percentile(walk_calls, 90)
    ratios = [
        s["union_sampler"]["accepted"] / s["union_sampler"]["psi"]
        for s in queries
        if s.get("union_sampler", {}).get("psi")
    ]
    m["union_sampler.accept_ratio"] = _median(ratios) if ratios else 0.0
    traced_tags = {r["tag"] for r in traced}
    m["spark.jobs_per_query"] = _median(
        [sum(q["jobs"].values()) for q in tracer.queries if q["query"] in traced_tags]
    )
    m["spark.unattributed_jobs"] = float(
        max(q["jobs"].get(ROOT_KEY, 0) for q in tracer.queries)
    )
    m["trace.overhead"] = _median([r["query_s"] for r in traced]) / _median(
        [r["query_s"] for r in untraced]
    )
    m["cover_tv"] = cover_tv
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    t_start = time.perf_counter()
    spark = start_spark()
    phase_s = {"spark_start": time.perf_counter() - t_start}
    try:
        import repro

        if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
            print(f"perfbench: repro imported from {repro.__file__}", file=sys.stderr)
            return 2
        meta = metadata(spark, spec, args)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(spark.sparkContext)
        out = run(spark, spec, args, tracer)
        phase_s["build"] = out["builds"]
        t0 = time.perf_counter()
        failed, cover_tv, union_size = check(out["w"], out["records"], spec.n)
        phase_s["check"] = time.perf_counter() - t0
    finally:
        t0 = time.perf_counter()
        stop_spark(spark)
        phase_s["stop"] = time.perf_counter() - t0

    records = out["records"]
    if tracer is not None:
        metrics = layer_metrics(tracer, out, cover_tv)
        units = {m[0]: m[1] for m in PER_LAYER} | dict(PER_LAYER_DERIVED)
    else:
        metrics = end_to_end(out)
        units = dict(END_TO_END)
    correct = failed == 0 and all(v == v for v in metrics.values())  # no NaN
    meta.update(
        {
            "queries_setup": sum(r["phase"] == "setup" for r in records),
            "queries_later": sum(r["phase"] == "later" for r in records),
            "queries_traced": sum(r["traced"] for r in records),
            "failed_frac": failed / len(records),
            "cover_tv": cover_tv,
            "exact_union_size": union_size,
            "phase_s": phase_s,
            "wall_s": time.perf_counter() - t_start,
        }
    )
    if tracer is not None:
        meta["trace_missing_targets"] = tracer.missing
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    dump = {
        "meta": meta,
        "result": result,
        "queries": [
            {k: v for k, v in r.items() if k != "samples"} for r in records
        ],
    }
    if tracer is not None:
        dump["spans"] = tracer.spans
        dump["trace_queries"] = tracer.queries
    os.makedirs(os.path.join(WORK, "runs"), exist_ok=True)
    path = os.path.join(
        WORK, "runs", f"{spec.name}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump(dump, fh, indent=1, default=float)

    for k, v in result["metrics"].items():
        print(f"{k:44s} {v['value']:.6g} {v['unit']}")
    print("meta " + json.dumps(meta, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
