"""Union sampling — Algorithm 1 of the paper, plus comparison variants.

Variants
--------
``cover-retry`` (default)
    Non-Bernoulli join selection (§3.1): each of the N requested samples
    draws a join j with probability |J'_j|/|U| once, then repeatedly
    samples J_j until the draw lands in the cover J'_j (i.e. the tuple's
    min-index join f(u) equals j). Conditioned on j, the accepted tuple is
    uniform over J'_j, so P(u) = |J'_j|/|U| · 1/|J'_j| = 1/|U| — exactly
    Theorem 1. Membership f(u) is computed with the exact oracle
    (:mod:`repro.core.membership`), batched.

``bernoulli``
    The §3 "union trick" (Karp–Luby): select j ∝ |J_j|, sample, accept iff
    f(u) = j, and on rejection RE-SELECT a join. Uniform with rate |U|/Σ|J_j|.

``literal``
    Algorithm 1 exactly as printed: cover probabilities but re-select on
    rejection. *Not* uniform when covers differ from sizes — kept to
    demonstrate why retry-within-join is required (see DESIGN.md).

``lazy``
    Algorithm 1's orig_join bookkeeping with revision: no membership
    oracle; a tuple's join assignment is "first join it was seen from" and
    is revised when a lower-index join produces it later.

All variants take the warm-up parameters (sizes, covers, |U|) from a
WarmupEstimate — exact, HISTOGRAM-BASED, or RANDOM-WALK.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from .exact import full_join_union
from .histogram_union import WarmupEstimate, auto_histogram_warmup, build_estimate
from .join_sampler import SampleStats, UnionContext, sample_join
from .randomwalk_union import randomwalk_warmup
from .walker import JOIN


@dataclass
class UnionSampleResult:
    samples: pd.DataFrame
    warmup: WarmupEstimate
    n_drawn: int = 0  # ψ: total tuples obtained from the join subroutine
    n_rejected_cover: int = 0  # duplicates assigned to another join's cover
    timings: dict = field(default_factory=dict)
    per_join_accepted: dict = field(default_factory=dict)
    stats: SampleStats | None = None
    rounds: int = 0  # sampling rounds; each is one sample_join call for all joins


def warmup_params(
    uctx: UnionContext, method: str, *, seed: int = 0, **kw
) -> WarmupEstimate:
    """Dispatch the warm-up phase. ``exact`` runs FullJoinUnion (ground
    truth, used by tests and as the paper's reference)."""
    if method in ("hist-eo", "hist-ew"):
        return auto_histogram_warmup(uctx, size_method=method.split("-")[1], **kw)
    if method == "rw":
        est, _ = randomwalk_warmup(uctx, seed=seed, **kw)
        return est
    if method == "exact":
        ex = full_join_union(uctx.spark, uctx.joins)
        overlaps = {}
        names = uctx.names
        from itertools import combinations

        for k in range(2, len(names) + 1):
            for d in combinations(names, k):
                overlaps[frozenset(d)] = float(ex.overlap(frozenset(d)))
        return build_estimate(
            "exact", names, {k: float(v) for k, v in ex.sizes.items()}, overlaps
        )
    raise ValueError(method)


def _alloc(rng: np.random.Generator, n: int, probs: dict[str, float]) -> dict[str, int]:
    names = list(probs)
    p = np.array([probs[x] for x in names], dtype=float)
    p = p / p.sum()
    counts = rng.multinomial(n, p)
    return {x: int(c) for x, c in zip(names, counts) if c > 0}


def set_union_sample(
    uctx: UnionContext,
    n: int,
    *,
    warmup: str | WarmupEstimate = "exact",
    sampler: str = "ew",
    variant: str = "cover-retry",
    seed: int = 0,
    max_rounds: int = 200,
) -> UnionSampleResult:
    """Draw ``n`` i.i.d. samples from the set union of ``uctx.joins``."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    est = warmup if isinstance(warmup, WarmupEstimate) else warmup_params(
        uctx, warmup, seed=int(rng.integers(2**31))
    )
    t_warm = time.perf_counter() - t0
    if variant == "lazy":
        res = _lazy_sample(uctx, n, est, sampler, rng, max_rounds)
    else:
        res = _oracle_sample(uctx, n, est, sampler, rng, variant, max_rounds)
    res.timings["warmup"] = t_warm
    return res


def _oracle_sample(
    uctx: UnionContext,
    n: int,
    est: WarmupEstimate,
    sampler: str,
    rng: np.random.Generator,
    variant: str,
    max_rounds: int,
) -> UnionSampleResult:
    names = uctx.names
    joins = uctx.joins
    stats = SampleStats()
    if variant == "cover-retry":
        probs = est.cover_probs()
    elif variant == "bernoulli":
        total = sum(est.sizes.values())
        probs = {j: est.sizes[j] / total for j in names}
    elif variant == "literal":
        probs = est.cover_probs()
    else:
        raise ValueError(variant)

    # Expected accept rate per join (cover mass / join size), to size draws.
    rate = {
        j: min(1.0, max(est.covers.get(j, est.sizes[j]), 1.0) / max(est.sizes[j], 1.0))
        for j in names
    }

    outstanding = _alloc(rng, n, probs)
    ctxs = [uctx.ctx(j) for j in names]
    accepted: list[pd.DataFrame] = []
    per_join: dict[str, int] = {j: 0 for j in names}
    n_drawn = n_rej = 0
    t_acc = t_rej = 0.0
    rounds = 0
    while sum(outstanding.values()) > 0 and rounds < max_rounds:
        rounds += 1
        t0 = time.perf_counter()
        need = np.array([outstanding.get(j, 0) for j in names])
        if variant == "cover-retry":
            # over-draw: each slot retries within its join until accept
            draw = [
                int(np.ceil(c / max(rate[j], 0.02) * 1.3)) + 4 if c > 0 else 0
                for j, c in zip(names, need)
            ]
        else:
            # bernoulli / literal: one draw per slot, re-select on reject
            draw = need.tolist()
        # One fused walk job and one membership probe for every join.
        batch = sample_join(
            [(c, min(d, 50_000)) for c, d in zip(ctxs, draw)],
            method=sampler,
            seed=int(rng.integers(2**31)),
            stats=stats,
            hash_cols=uctx.membership.hash_cols,
        )
        src = batch[JOIN].to_numpy(dtype=np.int64)
        own = uctx.membership.min_index(batch) == src
        got = np.bincount(src, minlength=len(names))
        ok = np.bincount(src[own], minlength=len(names))
        ok_rows = batch[own]
        take = np.minimum(ok, need)
        accepted.append(ok_rows[ok_rows.groupby(JOIN).cumcount().to_numpy() < need[src[own]]])
        n_drawn += len(batch)
        n_rej += int((~own).sum())
        dt = time.perf_counter() - t0
        if len(batch):
            t_acc += dt * int(take.sum()) / len(batch)
            t_rej += dt * (len(batch) - int(take.sum())) / len(batch)
        reselect: dict[str, int] = {}
        for k, j in enumerate(names):
            if need[k] <= 0:
                continue
            per_join[j] += int(take[k])
            # Adapt the empirical accept rate for the next round.
            rate[j] = max(0.02, 0.5 * rate[j] + 0.5 * max(ok[k], 1) / max(got[k], 1))
            if variant == "cover-retry":
                outstanding[j] = int(need[k] - take[k])  # retry within the join
            else:  # bernoulli / literal: rejected slots re-select a join
                outstanding[j] = 0
                miss = int(need[k] - take[k])
                if miss > 0:
                    for jj, c in _alloc(rng, miss, probs).items():
                        reselect[jj] = reselect.get(jj, 0) + c
        for jj, c in reselect.items():
            outstanding[jj] = outstanding.get(jj, 0) + c
        outstanding = {j: v for j, v in outstanding.items() if v > 0}
    samples = (
        pd.concat(accepted, ignore_index=True)[uctx.value_cols]
        if accepted
        else pd.DataFrame(columns=uctx.value_cols)
    )
    return UnionSampleResult(
        samples=samples,
        warmup=est,
        n_drawn=n_drawn,
        n_rejected_cover=n_rej,
        timings={"accepted": t_acc, "rejected": t_rej},
        per_join_accepted=per_join,
        stats=stats,
        rounds=rounds,
    )


def _lazy_sample(
    uctx: UnionContext,
    n: int,
    est: WarmupEstimate,
    sampler: str,
    rng: np.random.Generator,
    max_rounds: int,
) -> UnionSampleResult:
    """Algorithm 1 verbatim: orig_join bookkeeping + revision, no oracle."""
    names = uctx.names
    probs = est.cover_probs()
    stats = SampleStats()
    orig: dict[tuple, int] = {}
    kept: list[tuple[int, tuple, pd.Series]] = []  # (join idx, value key, row)
    n_drawn = n_rej = 0
    t_acc = t_rej = 0.0
    rounds = 0
    while len(kept) < n and rounds < max_rounds:
        rounds += 1
        t0 = time.perf_counter()
        alloc = _alloc(rng, n - len(kept), probs)
        batch = sample_join(
            [(uctx.ctx(j), c) for j, c in alloc.items()],
            method=sampler,
            seed=int(rng.integers(2**31)),
            stats=stats,
        )
        n_drawn += len(batch)
        acc_cnt = 0
        for k, j in enumerate(alloc):
            jidx = names.index(j)
            for _, row in batch.loc[batch[JOIN] == k, uctx.value_cols].iterrows():
                key = tuple(row)
                i = orig.get(key)
                if i is not None and i < jidx:
                    n_rej += 1  # line 8: reject
                    continue
                if i is not None and i > jidx:
                    # lines 10–12: revision — reassign and purge old copies
                    kept = [e for e in kept if e[1] != key]
                orig[key] = jidx
                kept.append((jidx, key, row))
                acc_cnt += 1
        dt = time.perf_counter() - t0
        if len(batch):
            t_acc += dt * acc_cnt / len(batch)
            t_rej += dt * (len(batch) - acc_cnt) / len(batch)
    kept = kept[:n]
    samples = (
        pd.DataFrame([r for _, _, r in kept]).reset_index(drop=True)
        if kept
        else pd.DataFrame(columns=uctx.value_cols)
    )
    per_join = {j: sum(1 for i, _, _ in kept if names[i] == j) for j in names}
    return UnionSampleResult(
        samples=samples,
        warmup=est,
        n_drawn=n_drawn,
        n_rejected_cover=n_rej,
        timings={"accepted": t_acc, "rejected": t_rej},
        per_join_accepted=per_join,
        stats=stats,
        rounds=rounds,
    )


def disjoint_union_sample(
    uctx: UnionContext,
    n: int,
    *,
    sampler: str = "ew",
    sizes: dict[str, float] | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """Definition 1: select a join ∝ |J_j|, sample it uniformly — no
    rejection, duplicates across joins kept."""
    rng = np.random.default_rng(seed)
    sizes = sizes or {j: float(uctx.ctx(j).size_exact) for j in uctx.names}
    total = sum(sizes.values())
    alloc = _alloc(rng, n, {k: v / total for k, v in sizes.items()})
    if not alloc:
        return pd.DataFrame()
    return sample_join(
        [(uctx.ctx(j), c) for j, c in alloc.items()],
        method=sampler,
        seed=int(rng.integers(2**31)),
    ).drop(columns=[JOIN])
