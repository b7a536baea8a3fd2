"""i.i.d. uniform sampling from a single join (§3.2, Zhao et al. adapted).

Two weight instantiations, as evaluated in the paper:

* **EW (Exact Weight)** — top-down sampling proportional to the EW dynamic
  program; zero rejection, exactly uniform.
* **EO (Extended Olken)** — uniform random walk accepted with probability
  (Π dᵢ) / (Π Mᵢ); exactly uniform with rejection rate 1 − |J|/bound.

Both run on the Yannakakis-reduced join (the paper's "extra linear search
to zero out non-joinable tuples"), so walks never dead-end and the EO
bound is as tight as max-degree statistics allow.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from .join_spec import Join
from .olken import reduce_join
from .stats import StatsCatalog
from .walker import DPROD, P, WalkResult, run_walks
from .weights import weighted_join


@dataclass
class SampleStats:
    """Cost accounting for the union sampler's breakdown table (T6)."""

    n_walks: int = 0
    n_accepted: int = 0
    n_rejected_weight: int = 0  # EO weight-bound rejections


class JoinContext:
    """Per-join cached artifacts, all derived from the walk plan (the
    one-time collected + reduced + EW-weighted index of the join).

    ``reduced``/``weighted`` Spark reference implementations remain
    available for cross-checks (:mod:`repro.core.olken`,
    :mod:`repro.core.weights`), but the sampling path reads the plan.
    """

    def __init__(self, spark: SparkSession, join: Join):
        self.spark = spark
        self.join = join
        self.name = join.name
        self._plan: dict | None = None

    @property
    def plan(self) -> dict:
        if self._plan is None:
            from .walker import _walk_plan

            self._plan = _walk_plan(self.spark, self.join)
        return self._plan

    @property
    def reduced(self) -> Join:
        if "_reduced" not in self.__dict__:
            self.__dict__["_reduced"] = reduce_join(self.join)
        return self.__dict__["_reduced"]

    @property
    def weighted(self) -> Join:
        if "_weighted" not in self.__dict__:
            self.__dict__["_weighted"] = weighted_join(self.reduced)
        return self.__dict__["_weighted"]

    @property
    def size_exact(self) -> int:
        """Exact |J| — Σ of root EW weights (no join materialization)."""
        return int(round(self.plan["total_weight"]))

    @property
    def size_olken(self) -> int:
        """Extended Olken bound |R_root| · Π M over the reduced relations
        (the paper's EO with non-joinable tuples zeroed out)."""
        bound = self.n_root
        for step in self.plan["steps"]:
            if not step["fake"]:
                bound *= step["max_deg"]
        return int(bound)

    @property
    def m_prod(self) -> float:
        prod = 1.0
        for step in self.plan["steps"]:
            if not step["fake"]:
                prod *= step["max_deg"]
        return prod

    @property
    def n_root(self) -> int:
        return len(self.plan["root"])


def wander_walks(
    ctx: JoinContext, n: int, seed: int, *, hash_specs=None
) -> WalkResult:
    """Uniform random walks with tracked p(t); the plan's full reduction
    means walks never dead-end (the paper's zero-weight fix)."""
    return run_walks(
        ctx.spark, ctx.join, n, mode="uniform", seed=seed, hash_specs=hash_specs
    )


def sample_join(
    ctx: JoinContext,
    n: int,
    *,
    method: str = "ew",
    seed: int = 0,
    stats: SampleStats | None = None,
    hash_specs=None,
    predicate=None,
) -> pd.DataFrame:
    """Return exactly ``n`` i.i.d. uniform tuples (value columns) from the
    join, using the EW or EO instantiation.

    ``predicate`` (pandas DataFrame → boolean mask) enforces a selection
    during sampling — §8.3's second alternative: an extra rejection factor,
    appropriate for predicates that are not very selective. The result is
    uniform over σ_predicate(J). (The first alternative — push-down — is
    what the workloads do: filter the base relations up front.)"""
    rng = np.random.default_rng(seed)
    out: list[pd.DataFrame] = []
    got = 0
    value_cols = ctx.join.value_cols
    # EO over-draw factor from the analytic acceptance rate |J| / bound.
    if method == "eo":
        acc = max(ctx.size_exact / max(ctx.size_olken, 1), 1e-3)
    elif method == "ew":
        acc = 1.0
    else:
        raise ValueError(method)
    while got < n:
        batch = int(np.ceil((n - got) / acc * 1.2)) + 8
        batch = min(batch, 200_000)
        res = run_walks(
            ctx.spark,
            ctx.join,  # one shared walk plan serves EW and uniform modes
            batch,
            mode="ew" if method == "ew" else "uniform",
            seed=int(rng.integers(2**31)),
            total_weight=float(ctx.size_exact) if method == "ew" else None,
            hash_specs=hash_specs,
        )
        if stats is not None:
            stats.n_walks += batch
        pdf = res.pdf
        if method == "eo" and len(pdf):
            p_acc = pdf[DPROD].to_numpy(dtype=float) / ctx.m_prod
            keep = rng.random(len(pdf)) < p_acc
            if stats is not None:
                stats.n_rejected_weight += int((~keep).sum()) + res.n_failed
            pdf = pdf[keep]
        if predicate is not None and len(pdf):
            pdf = pdf[predicate(pdf)]
        if len(pdf):
            keep_cols = value_cols + [c for c in pdf.columns if c.startswith("__h")]
            out.append(pdf[keep_cols])
            got += len(pdf)
    result = pd.concat(out, ignore_index=True).head(n)
    if stats is not None:
        stats.n_accepted += len(result)
    return result.reset_index(drop=True)


@dataclass
class UnionContext:
    """Contexts for every join of a union workload, keyed by join name,
    plus the workload's degree statistics (``stats``)."""

    spark: SparkSession
    joins: list[Join]
    contexts: dict[str, JoinContext] = field(default_factory=dict)
    stats: StatsCatalog = field(default_factory=StatsCatalog)
    _membership = None

    def __post_init__(self) -> None:
        for j in self.joins:
            self.contexts[j.name] = JoinContext(self.spark, j)

    def ctx(self, name: str) -> JoinContext:
        return self.contexts[name]

    @property
    def membership(self):
        """Lazily built hash MembershipIndex over all joins (§6.2 probes)."""
        if self._membership is None:
            from .membership import MembershipIndex

            self._membership = MembershipIndex(self.spark, self.joins)
        return self._membership

    @property
    def names(self) -> list[str]:
        return [j.name for j in self.joins]

    @property
    def value_cols(self) -> list[str]:
        return self.joins[0].value_cols
