"""Splitting method: soundness of template-aligned overlap bounds on the
UQ3-style mixed workload, closure logic, candidate templates."""
from itertools import combinations

import pytest

from repro.core.exact import full_join_union
from repro.core.histogram_union import overlap_bound
from repro.core.stats import StatsCatalog
from repro.splitting.split import (
    _closure,
    candidate_templates,
    split_view,
    split_view_sets,
    split_views,
)
from repro.workloads import uq3


@pytest.fixture(scope="module")
def w3(spark):
    return uq3(spark, sf=0.004, overlap=0.3)


@pytest.fixture(scope="module")
def exact3(spark, w3):
    return full_join_union(spark, w3.joins)


@pytest.fixture(scope="module")
def stats3(w3):
    return StatsCatalog()


def test_candidate_templates_cover_anchors(w3):
    cands = candidate_templates(w3.joins)
    assert len(cands) >= 3
    firsts = {tuple(t[:2]) for t in cands}
    # at least one candidate anchored inside orders (captures windows)
    assert any(a.startswith("o_") and b.startswith("o_") for a, b in firsts)


@pytest.mark.parametrize("refine", ["max"])
def test_bounds_sound_all_templates_all_deltas(spark, w3, exact3, stats3, refine):
    """Every candidate template must upper-bound every true overlap."""
    names = [j.name for j in w3.joins]
    for t in candidate_templates(w3.joins):
        views = {j.name: split_view(j, t, stats3, refine) for j in w3.joins}
        for k in range(2, len(names) + 1):
            for d in combinations(names, k):
                bound = overlap_bound([views[x] for x in d])
                truth = exact3.overlap(frozenset(d))
                assert bound >= truth - 1e-6, f"template {t[:3]}… unsound for {d}"


def test_min_over_templates_tighter(spark, w3, exact3, stats3):
    names = [j.name for j in w3.joins]
    view_sets = split_view_sets(w3.joins, stats3, refine="max")
    d = frozenset(names)
    bounds = [
        overlap_bound([{v.name: v for v in vs}[x] for x in d]) for vs in view_sets
    ]
    assert min(bounds) <= bounds[0] + 1e-9
    assert min(bounds) >= exact3.overlap(d) - 1e-6


def test_single_join_bound_covers_size(spark, w3, stats3):
    from repro.core.weights import exact_size

    j = w3.joins[1]
    views, t = split_views([j], stats3)
    assert overlap_bound(views) >= exact_size(j) - 1e-6


def test_closure_propagates_conditions(w3):
    j = w3.joins[1]  # supplier ⋈ customer ⋈ orders
    out = _closure(j, {"s_nationkey"})
    assert "c_nationkey" in out
    got = _closure(j, {"c_custkey"})
    assert "o_custkey" in got


def test_view_stage_counts_aligned(w3, stats3):
    for t in candidate_templates(w3.joins):
        views = [split_view(j, t, stats3) for j in w3.joins]
        assert len({len(v.ms) for v in views}) == 1


def test_template_too_short(w3, stats3):
    with pytest.raises(ValueError):
        split_view(w3.joins[0], ["s_suppkey"], stats3)
