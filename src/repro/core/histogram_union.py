"""HISTOGRAM-BASED instantiation of the warm-up phase (§4–§5, Theorem 4).

Overlap of a set Δ of aligned chain joins is bounded stage-by-stage:

    K(1) = Σ_v min_{J_j∈Δ} pairs_j(v)          (pairs from value histograms)
    K(i) = K(i-1) · min_{J_j∈Δ} M_{j,i}        (max degree; 1 for fake joins)
    |O_Δ| ≤ K(n-1), additionally capped by min_{J_j∈Δ} |J_j|.

Joins of unequal shape are first aligned by the splitting method
(:mod:`repro.splitting`), which yields the same ``ChainStatsView``
interface consumed here. Every input comes from the workload's
:class:`~repro.core.stats.StatsCatalog`: per-column degree histograms of
base relations, each aggregated once per workload — no join is
materialized (the "decentralized / data market" setting of the paper).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import pandas as pd

from .join_sampler import UnionContext
from .join_spec import Join
from .koverlap import cover_sizes, k_overlaps, union_size
from .stats import StatsCatalog, pair_product


@dataclass
class ChainStatsView:
    """Per-join statistics for Theorem 4's stage recursion.

    ``pairs`` is the per-value count of joinable (t1, t2) pairs of the first
    two stage relations (value → pairs); ``ms[i]`` is the stage-(i+2)
    multiplier M_{j,i} (max or avg degree; 1 for fake joins). Both are read
    off the workload's :class:`~repro.core.stats.StatsCatalog` when the
    view is built; the Σ-min over the powerset happens driver-side
    (histograms are column-sized).
    """

    name: str
    pairs: pd.Series
    ms: list[float]

    def pair_series(self) -> pd.Series:
        """pairs indexed by value v, as floats."""
        return self.pairs


def chain_view(join: Join, stats: StatsCatalog, *, refine: str = "max") -> ChainStatsView:
    """Statistics view of a plain chain join (equi-length case, §5.1).

    ``refine='avg'`` uses average instead of max degrees for stages ≥ 2 —
    the paper's "if histograms are available for all join attributes"
    refinement (tighter but no longer a guaranteed upper bound).
    """
    rels, edges = join.as_chain()
    e0 = edges[0]
    h0 = stats.get(rels[0].df, e0.parent_col).hist
    if e0.fake:
        pairs = h0
    else:
        pairs = pair_product(h0, stats.get(rels[1].df, e0.child_col).hist)

    def m(edge, rel) -> float:
        if edge.fake:
            return 1.0
        entry = stats.get(rel.df, edge.child_col)
        return float(entry.max if refine == "max" else entry.avg)

    ms = [m(e, rels[i + 2]) for i, e in enumerate(edges[1:])]
    return ChainStatsView(join.name, pairs.astype(float), ms)


def overlap_bound(views: list[ChainStatsView]) -> float:
    """Theorem 4's K(n-1) for the joins in ``views`` (all same length)."""
    n_stages = {len(v.ms) for v in views}
    if len(n_stages) != 1:
        raise ValueError("views must be aligned to the same number of stages")
    # K(1) = Σ_v min_j pairs_j(v): inner alignment of the collected
    # per-value histograms (values missing from any join contribute 0).
    merged = pd.concat([v.pair_series() for v in views], axis=1, join="inner")
    k = float(merged.min(axis=1).sum()) if len(merged) else 0.0
    for i in range(n_stages.pop()):
        k *= min(v.ms[i] for v in views)
    return k


@dataclass
class WarmupEstimate:
    """Everything Algorithm 1 needs from the warm-up phase."""

    method: str
    names: list[str]
    sizes: dict[str, float]
    overlaps: dict[frozenset, float]
    a_jk: dict[tuple[str, int], float]
    union: float
    covers: dict[str, float]

    @property
    def ratios(self) -> dict[str, float]:
        """Estimated |J_j| / |U| — the error metric of Fig 4a/4b/5a."""
        return {j: s / self.union for j, s in self.sizes.items()}

    def cover_probs(self) -> dict[str, float]:
        total = sum(self.covers.values())
        if total <= 0:  # degenerate estimate; fall back to size-proportional
            total = sum(self.sizes.values())
            return {j: self.sizes[j] / total for j in self.names}
        return {j: self.covers[j] / total for j in self.names}


def build_estimate(
    method: str,
    names: list[str],
    sizes: dict[str, float],
    overlaps: dict[frozenset, float],
) -> WarmupEstimate:
    """Assemble a WarmupEstimate from sizes and |Δ|≥2 overlaps via the
    Theorem 3 algebra, with consistency clamps for estimated inputs."""

    def overlap_fn(delta: frozenset) -> float:
        if len(delta) == 1:
            return sizes[next(iter(delta))]
        cap = min(sizes[j] for j in delta)
        return min(overlaps[delta], cap)

    a = k_overlaps(names, overlap_fn)
    u = union_size(names, a)
    # |U| is always within [max_j |J_j|, Σ_j |J_j|]; bound estimates can
    # stray outside, so clamp (keeps ratio errors finite and sane).
    u = min(max(u, max(sizes.values())), sum(sizes.values()))
    covers = cover_sizes(names, overlap_fn)
    return WarmupEstimate(method, names, dict(sizes), dict(overlaps), a, u, covers)


def histogram_warmup(
    uctx: UnionContext,
    *,
    size_method: str = "eo",
    refine: str = "max",
    views: list[ChainStatsView] | None = None,
    view_sets: list[list[ChainStatsView]] | None = None,
) -> WarmupEstimate:
    """HISTOGRAM-BASED warm-up: Olken (EO) or exact (EW) join sizes plus
    Theorem 4 overlap bounds for every subset of joins.

    ``views`` (one aligned set) or ``view_sets`` (several — e.g. one per
    candidate template from the splitting method) may be supplied for
    non-chain or unequal-length joins; every set gives a sound bound, so
    the overlap estimate is the minimum across sets. Plain equi-length
    chains are handled directly.
    """
    names = uctx.names
    if view_sets is None:
        if views is None:
            views = [chain_view(j, uctx.stats, refine=refine) for j in uctx.joins]
        view_sets = [views]
    sets_by_name = [{v.name: v for v in vs} for vs in view_sets]
    sizes = {
        n: float(
            uctx.ctx(n).size_olken if size_method == "eo" else uctx.ctx(n).size_exact
        )
        for n in names
    }
    overlaps: dict[frozenset, float] = {}
    for k in range(2, len(names) + 1):
        for delta in combinations(names, k):
            overlaps[frozenset(delta)] = min(
                overlap_bound([by_name[d] for d in delta])
                for by_name in sets_by_name
            )
    return build_estimate(f"hist-{size_method}", names, sizes, overlaps)


def auto_histogram_warmup(uctx: UnionContext, *, size_method: str = "eo") -> WarmupEstimate:
    """Dispatch: equi-length chain unions use §5.1 directly; anything else
    (acyclic joins, unequal lengths) goes through the splitting method
    with candidate templates and the §5.1 average-degree refinement
    (full histograms being available in the centralized setting).

    The view sets are built once per workload and kept in ``uctx.stats``,
    so later calls only redo the Σ-min and the Theorem 3 algebra."""
    stats = uctx.stats
    if stats.view_sets is None:
        joins = uctx.joins
        if all(j.is_chain() for j in joins) and len(
            {len(j.relations()) for j in joins}
        ) == 1:
            stats.view_sets = [[chain_view(j, stats) for j in joins]]
        else:
            from repro.splitting.split import split_view_sets  # local: avoids cycle

            stats.view_sets = split_view_sets(joins, stats, refine="avg")
    return histogram_warmup(uctx, size_method=size_method, view_sets=stats.view_sets)
