"""The benchmark's workloads: which union of joins, and what one query is.

A *query* is one warm-up plus N samples, issued through ``repro``'s public
API. Query functions look the API up on its module at call time, so the
tracer's wrappers are seen when they are installed.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import pandas as pd

OVERLAP = 0.2


@dataclass(frozen=True)
class Spec:
    name: str
    template: str  # the repro.workloads function that generates it
    sf: float
    n: int
    query: Callable  # (repro Workload, n, seed) -> (samples, {warmup_s, sample_s})


def _algorithm1(warmup: str, sampler: str) -> Callable:
    def query(w, n: int, seed: int) -> tuple[pd.DataFrame, dict]:
        from repro.core import union_sampler

        t0 = time.perf_counter()
        est = union_sampler.warmup_params(w.uctx, warmup, seed=seed)
        t1 = time.perf_counter()
        res = union_sampler.set_union_sample(
            w.uctx, n, warmup=est, sampler=sampler, seed=seed
        )
        t2 = time.perf_counter()
        return res.samples, {"warmup_s": t1 - t0, "sample_s": t2 - t1}

    return query


def _online(w, n: int, seed: int) -> tuple[pd.DataFrame, dict]:
    from repro.core import online_union

    res = online_union.online_union_sample(w.uctx, n, reuse=True, seed=seed)
    t = res.timings
    # ONLINE-UNION runs its warm-up inside the call; its own phase timings
    # split the query the way warmup_params / set_union_sample split it on
    # the Algorithm-1 workloads.
    return res.samples, {
        "warmup_s": t["warmup_hist"] + t["warmup_rw"],
        "sample_s": t["reuse"] + t["regular"],
    }


WORKLOADS: dict[str, Spec] = {
    w.name: w
    for w in (
        # Five chain joins sharing four relations: the most joins, so index
        # build and chain histograms dominate; EO exercises weight rejection.
        # Not in BENCHMARK.json (run time; see README.md).
        Spec("uq1-eo", "uq1", 0.002, 2000, _algorithm1("hist-eo", "eo")),
        # Acyclic root plus two chains over split relations: the only
        # splitting-template warm-up and tree-shaped EW walks (no weight
        # rejection).
        Spec("uq3-ew", "uq3", 0.01, 2000, _algorithm1("hist-ew", "ew")),
        # Three chains sharing all but a filtered part: ONLINE-UNION with
        # reuse, random-walk pools, whole-pool membership and backtracking.
        Spec("uq2-online", "uq2", 0.01, 1000, _online),
    )
}


def build(spark, spec: Spec, seed: int):
    """Generate the workload's relations from ``seed`` and materialize them
    in Spark's cache. Returns the ``repro`` Workload."""
    from repro import workloads

    w = getattr(workloads, spec.template)(spark, sf=spec.sf, overlap=OVERLAP, seed=seed)
    seen: set[int] = set()
    for join in w.joins:
        for rel in join.relations():
            if id(rel.df) not in seen:
                seen.add(id(rel.df))
                rel.df.count()
    return w
