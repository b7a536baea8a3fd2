"""Batched random walks over the join data graph (§6.1, wander join).

One sampling round is ONE Spark job for every join it draws from:
:func:`run_walks` takes (join, walk count) requests, draws every walk's
start row and per-step uniforms on the driver, tags each walk seed with
its request's position (``__join``) and runs all seeds through one
``mapInPandas`` sampling operator. Executors hold broadcast copies of each
join's (reduced, EW-weighted) relations, pre-sorted by their join columns,
and advance the walks of each join with vectorized ``searchsorted``
lookups (:func:`_advance`):

* ``ew``      — within the joinable range [lo, hi) of the child relation a
                row is picked ∝ its Exact Weight via the cumulative-weight
                inverse-CDF; the completed walk is *exactly uniform* over
                its join result, p(t) = 1/|J_j|.
* ``uniform`` — a uniform pick among the d = hi−lo joinable rows (wander
                join); p(t) = 1/|R_root| · Π 1/dᵢ and Π dᵢ are tracked per
                walk for HT estimation and Olken (EO) acceptance.

Dead-ended walks are dropped from the batch and reported in ``n_failed``
(they contribute 0 to HT estimates, as in the paper). Randomness is drawn
on the driver and shipped with the seeds, so results are deterministic in
``seed`` regardless of partitioning. A single-join call is the one-request
case of the same code.

This is the "custom sampling operator" realization: seeds and relations
never pass through a shuffle and the join is never materialized — the
only Spark aggregations happen once, in the EW weight DP and the
statistics.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column, SparkSession
from pyspark.sql import types as T

from .join_spec import Join
from .weights import W

P = "__p"
DPROD = "__dprod"
JOIN = "__join"


@dataclass
class WalkResult:
    """Completed walks of one :func:`run_walks` call: value columns +
    ``__p`` (+ ``__dprod`` in uniform mode) + ``__join`` (the position of
    the walk's request) + any requested ``__h*`` hash columns.
    ``n_walks`` and ``n_failed`` are totals over every request; ``failed``
    holds the dead-ended walks per request."""

    pdf: pd.DataFrame
    n_failed: int
    n_walks: int
    failed: list[int]


def _collect(df) -> pd.DataFrame:
    """Cached toPandas of a relation (shared dimension tables are
    collected once even when several joins reference them)."""
    cached = getattr(df, "_repro_pandas", None)
    if cached is None:
        cached = df.toPandas()
        df._repro_pandas = cached
    return cached


def _walk_plan(spark: SparkSession, join: Join) -> dict:
    """Collect, reduce, weight, and pre-sort the join's relations once;
    broadcast to executors. Cached on the Join object — this is the
    one-time "index construction" of the paper's framework (their hash
    tables). The full (Yannakakis) reduction and the EW weight DP run
    vectorized on the collected data; the Spark-aggregation reference
    implementations live in :mod:`repro.core.olken` and
    :mod:`repro.core.weights` and are cross-checked by tests.
    """
    cached = join.__dict__.get("_walk_plan")
    if cached is not None:
        return cached
    nodes = join.nodes()
    edges = list(join.edges())  # (parent Node, Edge), BFS order
    pdfs: dict[int, pd.DataFrame] = {
        id(n): _collect(n.relation.df).drop(columns=[W], errors="ignore")
        for n in nodes
    }
    # --- full reducer: bottom-up then top-down semijoins -----------------
    for parent, e in reversed(edges):
        keys = pdfs[id(e.child)][e.child_col].unique()
        par = pdfs[id(parent)]
        pdfs[id(parent)] = par[par[e.parent_col].isin(keys)]
    for parent, e in edges:
        keys = pdfs[id(parent)][e.parent_col].unique()
        ch = pdfs[id(e.child)]
        pdfs[id(e.child)] = ch[ch[e.child_col].isin(keys)]
    pdfs = {k: v.reset_index(drop=True) for k, v in pdfs.items()}
    # --- EW weight DP (bottom-up): w(t) = Π_child Σ_joinable w(t') -------
    w: dict[int, np.ndarray] = {id(n): np.ones(len(pdfs[id(n)])) for n in nodes}
    for parent, e in reversed(edges):
        ch = pdfs[id(e.child)]
        sums = pd.Series(w[id(e.child)]).groupby(ch[e.child_col]).sum()
        factor = pdfs[id(parent)][e.parent_col].map(sums).fillna(0.0).to_numpy()
        w[id(parent)] = w[id(parent)] * factor
    root_pdf = pdfs[id(join.root)]
    root_w = w[id(join.root)]
    # --- per-edge sorted key arrays + cumulative weights ------------------
    steps = []
    for parent, e in edges:
        child = pdfs[id(e.child)]
        keys = child[e.child_col].to_numpy()
        order = np.argsort(keys, kind="stable")
        child_sorted = child.iloc[order].reset_index(drop=True)
        keys_sorted = keys[order]
        cw = w[id(e.child)][order]
        cumw = np.concatenate([[0.0], np.cumsum(cw)])
        if len(keys_sorted):
            _, counts = np.unique(keys_sorted, return_counts=True)
            max_deg = int(counts.max())
        else:
            max_deg = 0
        steps.append(
            {
                "pcol": e.parent_col,
                "ccol": e.child_col,
                "keys": keys_sorted,
                "cumw": cumw,
                "child": child_sorted,
                "max_deg": max_deg,
                "fake": e.fake,
            }
        )
    plan = {
        "root": root_pdf,
        "root_w": root_w,
        "total_weight": float(root_w.sum()),
        "steps": steps,
        "bc": spark.sparkContext.broadcast({"root": root_pdf, "steps": steps}),
    }
    join.__dict__["_walk_plan"] = plan
    return plan


def _spark_field(join: Join, col: str) -> T.StructField:
    for rel in join.relations():
        for f in rel.df.schema.fields:
            if f.name == col:
                return T.StructField(col, f.dataType)
    raise KeyError(col)


def _advance(
    data: dict, seeds: pd.DataFrame, mode: str, value_cols: list[str]
) -> pd.DataFrame:
    """Advance one join's walks from their seeds (``__start`` + one
    ``__u<i>`` per step) over its broadcast plan ``data``; return the
    completed walks (value columns, ``__p``, ``__dprod``), or an empty
    frame when every walk dead-ends."""
    frontier = data["root"].iloc[seeds["__start"].to_numpy()].reset_index(drop=True)
    p = np.full(len(frontier), 1.0 / len(data["root"]))
    dprod = np.ones(len(frontier))
    us = [seeds[f"__u{i}"].to_numpy() for i in range(len(data["steps"]))]
    for i, step in enumerate(data["steps"]):
        keyvals = frontier[step["pcol"]].to_numpy()
        lo = np.searchsorted(step["keys"], keyvals, side="left")
        hi = np.searchsorted(step["keys"], keyvals, side="right")
        alive = hi > lo
        if mode == "ew":
            # a range whose weights are all zero is a dead end too
            cw = step["cumw"]
            alive &= cw[hi] > cw[lo]
        if not alive.all():
            frontier = frontier[alive].reset_index(drop=True)
            p, dprod = p[alive], dprod[alive]
            lo, hi = lo[alive], hi[alive]
            us = [u[alive] for u in us]
        if not len(frontier):
            return frontier
        u = us[i]
        if mode == "ew":
            cw = step["cumw"]
            target = cw[lo] + u * (cw[hi] - cw[lo])
            idx = np.searchsorted(cw, target, side="right") - 1
            idx = np.clip(idx, lo, hi - 1)
        else:
            d = hi - lo
            idx = lo + np.minimum((u * d).astype(np.int64), d - 1)
            p = p / d
            dprod = dprod * d
        child_rows = step["child"].iloc[idx].reset_index(drop=True)
        keep = [c for c in child_rows.columns if c not in frontier.columns]
        frontier = pd.concat([frontier, child_rows[keep]], axis=1)
    out = frontier[value_cols].copy()
    out[P] = p
    out[DPROD] = dprod
    return out


def run_walks(
    spark: SparkSession,
    requests: Join | Sequence[tuple[Join, int]],
    n_walks: int | None = None,
    *,
    mode: str = "uniform",
    seed: int = 0,
    hash_cols: Sequence[Column] = (),
) -> WalkResult:
    """Run independent random walks for every (join, walk count) request
    in ONE Spark job; ``run_walks(spark, join, n)`` is the one-request case.

    Every requested join must have the same output columns; rows come out
    in the first request's column order.
    ``hash_cols`` are aliased signature expressions (the membership
    index's ``hash_cols``) appended in the same job, so membership probes
    need no extra Spark round trip.
    """
    if mode not in ("uniform", "ew"):
        raise ValueError(mode)
    if isinstance(requests, Join):
        requests = [(requests, n_walks)]
    joins = [j for j, _ in requests]
    counts = [int(n) for _, n in requests]
    value_cols = joins[0].value_cols  # the output column order
    if any(set(j.value_cols) != set(value_cols) for j in joins):
        raise ValueError("requested joins must share one output schema")
    rng = np.random.default_rng(seed)
    plans = [_walk_plan(spark, j) for j in joins]

    # --- start selection + pre-drawn randomness (driver side) -----------
    width = max(len(plan["steps"]) for plan in plans)
    parts = []
    for k, (plan, n) in enumerate(zip(plans, counts)):
        n_root = len(plan["root"])
        tw = plan["total_weight"]
        if n == 0 or n_root == 0 or (mode == "ew" and tw <= 0):
            continue  # every walk of this request fails
        if mode == "ew":
            starts = rng.choice(n_root, size=n, p=plan["root_w"] / tw)
        else:
            starts = rng.integers(0, n_root, size=n)
        seeds = pd.DataFrame({JOIN: np.full(n, k, dtype=np.int64), "__start": starts})
        for i in range(width):
            seeds[f"__u{i}"] = rng.random(n) if i < len(plan["steps"]) else 0.0
        parts.append(seeds)
    n_total = sum(counts)
    if not parts:
        return WalkResult(pd.DataFrame(), n_total, n_total, list(counts))

    out_fields = [_spark_field(joins[0], c) for c in value_cols]
    out_fields += [
        T.StructField(P, T.DoubleType()),
        T.StructField(DPROD, T.DoubleType()),
        T.StructField(JOIN, T.LongType()),
    ]
    bcs = [plan["bc"] for plan in plans]

    def walk_partition(batches):
        for pdf in batches:
            ks = pdf[JOIN].to_numpy()
            for k in np.unique(ks):
                out = _advance(bcs[k].value, pdf[ks == k], mode, value_cols)
                if len(out):
                    out[JOIN] = k
                    yield out

    # createDataFrame splits the seeds into partitions itself (one per Arrow
    # batch), so the walk job has no shuffle.
    walked = spark.createDataFrame(pd.concat(parts, ignore_index=True)).mapInPandas(
        walk_partition, schema=T.StructType(out_fields)
    )
    pdf = walked.select("*", *hash_cols).toPandas()
    ks = pdf[JOIN].to_numpy(dtype=np.int64)
    done = np.bincount(ks, minlength=len(counts))
    if mode == "ew":
        sizes = np.array([plan["total_weight"] for plan in plans])
        pdf[P] = 1.0 / sizes[ks]
        pdf = pdf.drop(columns=[DPROD])
    failed = [int(n - d) for n, d in zip(counts, done)]
    return WalkResult(pdf, sum(failed), n_total, failed)
