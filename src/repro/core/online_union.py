"""ONLINE-UNION sampling — Algorithm 2 (§7): reuse + backtracking.

Parameters are initialized with the cheap HISTOGRAM-BASED method, then a
RANDOM-WALK warm-up collects per-join sample pools (with recorded p(t) and
membership bitmaps) and refines the estimates. During the main sampling
phase a slot assigned to join j first consumes the j-pool: a pool tuple t
drawn uniformly is accepted with probability p_min/p(t) (p_min = the
pool's smallest recorded probability), which uniformizes the wander-join
draws. The paper's ratio R = l/(p(t)·|J_j|) has the same expectation but
R ≈ l, so one accepted draw would emit pool-size many copies of a single
tuple — unbounded variance; the normalized importance-rejection used here
is the bounded-acceptance equivalent (see DESIGN.md). Accepted tuples
leave the pool (§7's without-replacement note); when the pool is dry, the
slot falls back to the §3.2 join sampler. Each round runs the reuse phase
for every join on the driver, then one fused join-sampler draw (one walk
job) for every join with outstanding slots. Cover uniformity uses the same
retry-within-join semantics as Algorithm 1.

Every φ accepted-or-rejected probability records, the join / overlap /
union estimates are recomputed from the accumulated state and every kept
sample is re-accepted with min(1, new_ratio/old_ratio) — the backtracking
accept/reject that restores uniformity across rounds. Backtracking stops
once the confidence level reaches γ.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import pandas as pd

from .histogram_union import WarmupEstimate, auto_histogram_warmup
from .join_sampler import UnionContext, sample_join
from .randomwalk_union import (
    RWState,
    estimate_from_state,
    overlap_ci_halfwidth,
    randomwalk_warmup,
)
from .union_sampler import _alloc
from .walker import JOIN, P


@dataclass
class OnlineResult:
    samples: pd.DataFrame
    estimate: WarmupEstimate
    timings: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    n_backtracks: int = 0
    n_backtrack_rejected: int = 0

    def per_sample_time(self, phase: str) -> float:
        """Seconds per accepted sample in the 'reuse' or 'regular' phase
        (the Fig 6b metric)."""
        c = self.counts.get(f"{phase}_accepted", 0)
        return self.timings.get(phase, 0.0) / c if c else float("nan")


def online_union_sample(
    uctx: UnionContext,
    n: int,
    *,
    reuse: bool = True,
    phi: int = 200,
    gamma: float = 0.9,
    sampler: str = "ew",
    seed: int = 0,
    warmup_batch: int = 200,
    warmup_max: int = 600,
    max_rounds: int = 300,
) -> OnlineResult:
    rng = np.random.default_rng(seed)
    names = uctx.names
    joins = uctx.joins

    t0 = time.perf_counter()
    hist_est = auto_histogram_warmup(uctx, size_method="eo")
    t_hist = time.perf_counter() - t0

    t0 = time.perf_counter()
    rw_est, state = randomwalk_warmup(
        uctx,
        batch=warmup_batch,
        max_samples=warmup_max,
        seed=int(rng.integers(2**31)),
    )
    t_rw = time.perf_counter() - t0

    # Per §7: parameters START from the cheap HISTOGRAM-BASED estimate;
    # the first backtracking step swaps in the random-walk refinement
    # (estimate_from_state) and re-accepts prior samples accordingly.
    est = hist_est
    del rw_est  # superseded at the first backtracking update
    pools = {j: state.pools[j].copy() for j in names} if reuse else {
        j: pd.DataFrame() for j in names
    }
    pool_member = {j: state.member[j].copy() for j in names}

    probs = est.cover_probs()
    outstanding = _alloc(rng, n, probs)
    # Kept samples as frame slices, with their join index and the cover
    # ratio they were accepted under (for backtracking).
    kept_rows: list[pd.DataFrame] = []
    kept_join: list[np.ndarray] = []
    kept_ratio: list[np.ndarray] = []
    t_reuse = t_regular = 0.0
    c_reuse = c_regular = 0
    records_since_bt = 0
    n_bt = n_bt_rej = 0
    confident = False
    rounds = 0

    def keep(rows: pd.DataFrame, jidx: np.ndarray) -> None:
        cp = est.cover_probs()
        kept_rows.append(rows[uctx.value_cols])
        kept_join.append(jidx)
        kept_ratio.append(np.array([cp[names[i]] for i in jidx], dtype=float))

    while sum(outstanding.values()) > 0 and rounds < max_rounds:
        rounds += 1
        # ---- reuse phase, every join ------------------------------------
        for j, need in list(outstanding.items()):
            pool = pools[j]
            if need <= 0 or not len(pool):
                continue
            t0 = time.perf_counter()
            jidx = names.index(j)
            mem = pool_member[j]
            # cover join of each pool tuple, from its membership bitmap
            f = np.where(mem.any(axis=1), mem.argmax(axis=1), jidx)
            taken, left, attempts = _reuse(pool[P].to_numpy(), f, jidx, need, rng)
            records_since_bt += attempts
            keep(pool.iloc[taken], np.full(len(taken), jidx))
            mask = np.ones(len(pool), dtype=bool)
            mask[left] = False
            pools[j] = pool[mask].reset_index(drop=True)
            pool_member[j] = mem[mask]
            t_reuse += time.perf_counter() - t0
            c_reuse += len(taken)
            outstanding[j] = need - len(taken)
        # ---- regular phase (§3.2 sampler + cover retry), one walk job ----
        short = [j for j in names if outstanding.get(j, 0) > 0]
        if short:
            t0 = time.perf_counter()
            need = np.array([outstanding[j] for j in short])
            batch = sample_join(
                [(uctx.ctx(j), int(np.ceil(c * 1.5)) + 4) for j, c in zip(short, need)],
                method=sampler,
                seed=int(rng.integers(2**31)),
                hash_cols=uctx.membership.hash_cols,
            )
            src = batch[JOIN].to_numpy(dtype=np.int64)
            jidx = np.array([names.index(j) for j in short])[src]
            own = uctx.membership.min_index(batch) == jidx
            first = batch[own].groupby(JOIN).cumcount().to_numpy() < need[src[own]]
            keep(batch[own][first], jidx[own][first])
            take = np.bincount(src[own][first], minlength=len(short))
            records_since_bt += len(batch)
            for k, j in enumerate(short):
                outstanding[j] = int(need[k] - take[k])
            t_regular += time.perf_counter() - t0
            c_regular += int(take.sum())
        outstanding = {j: v for j, v in outstanding.items() if v > 0}

        # ---- backtracking with parameter update (every φ records) -------
        if records_since_bt >= phi and not confident:
            records_since_bt = 0
            new_est = estimate_from_state(uctx, state)
            rows = pd.concat(kept_rows, ignore_index=True) if kept_rows else None
            kj = np.concatenate(kept_join) if kept_join else np.zeros(0, np.int64)
            old_r = np.concatenate(kept_ratio) if kept_ratio else np.zeros(0)
            cp = new_est.cover_probs()
            new_r = np.array([cp[j] for j in names])[kj]
            p_keep = np.minimum(
                1.0, np.divide(new_r, old_r, out=np.ones_like(old_r), where=old_r > 0)
            )
            ok_keep = rng.random(len(old_r)) < p_keep
            n_bt += 1
            n_bt_rej += int((~ok_keep).sum())
            if rows is not None:
                kept_rows = [rows[ok_keep]]
                kept_join = [kj[ok_keep]]
                kept_ratio = [new_r[ok_keep]]
            # redistribute the rejected slots
            miss = n - int(ok_keep.sum()) - sum(outstanding.values())
            if miss > 0:
                for jj, c in _alloc(rng, miss, new_est.cover_probs()).items():
                    outstanding[jj] = outstanding.get(jj, 0) + c
            est = new_est
            confident = _confidence_reached(uctx, state, est, gamma)

    samples = (
        pd.concat(kept_rows, ignore_index=True)
        if kept_rows
        else pd.DataFrame(columns=uctx.value_cols)
    )
    return OnlineResult(
        samples=samples.head(n),
        estimate=est,
        timings={
            "warmup_hist": t_hist,
            "warmup_rw": t_rw,
            "reuse": t_reuse,
            "regular": t_regular,
        },
        counts={"reuse_accepted": c_reuse, "regular_accepted": c_regular},
        n_backtracks=n_bt,
        n_backtrack_rejected=n_bt_rej,
    )


def _reuse(
    p: np.ndarray, f: np.ndarray, jidx: int, need: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, int]:
    """Reuse phase over one join's pool (§7).

    Each attempt draws uniformly from the live pool and accepts with
    p_min/p(t), which uniformizes the wander-join draws; accepted tuples
    leave the pool (§7's without-replacement note), rejected ones stay. An
    accepted tuple whose cover join ``f`` is not ``jidx`` is dropped (retry
    within the join). Returns the pool positions kept as samples, the
    positions that left the pool, and the number of attempts."""
    p_min = float(p.min())
    remaining = list(range(len(p)))
    taken: list[int] = []
    left: list[int] = []
    attempts = 0
    while len(taken) < need and remaining and attempts < 4 * len(p):
        attempts += 1
        i = int(rng.integers(len(remaining)))
        pos = remaining[i]
        if rng.random() >= p_min / p[pos]:
            continue  # rejected; tuple stays in the pool
        remaining.pop(i)
        left.append(pos)
        if f[pos] == jidx:
            taken.append(pos)
    return np.array(taken, dtype=np.int64), np.array(left, dtype=np.int64), attempts


def _confidence_reached(
    uctx: UnionContext, state: RWState, est: WarmupEstimate, gamma: float
) -> bool:
    """γ-confidence: every overlap CI half-width below (1−γ)·|O| (§7)."""
    names = uctx.names
    for k in range(2, len(names) + 1):
        for d in combinations(names, k):
            delta = frozenset(d)
            o = est.overlaps.get(delta, 0.0)
            if o <= 0:
                continue
            if overlap_ci_halfwidth(state, names, delta) > (1 - gamma) * o:
                return False
    return True
