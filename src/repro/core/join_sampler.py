"""i.i.d. uniform sampling from joins (§3.2, Zhao et al. adapted).

Two weight instantiations, as evaluated in the paper:

* **EW (Exact Weight)** — top-down sampling proportional to the EW dynamic
  program; zero rejection, exactly uniform.
* **EO (Extended Olken)** — uniform random walk accepted with probability
  (Π dᵢ) / (Π Mᵢ); exactly uniform with rejection rate 1 − |J|/bound.

Both run on the Yannakakis-reduced join (the paper's "extra linear search
to zero out non-joinable tuples"), so walks never dead-end and the EO
bound is as tight as max-degree statistics allow.

:func:`sample_join` samples several joins at once: each round is one fused
walk job for all of them, and EO acceptance and predicates are applied per
join on the driver. Sampling one join is the one-request case.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column, SparkSession

from .join_spec import Join
from .olken import reduce_join
from .stats import StatsCatalog
from .walker import DPROD, JOIN, _walk_plan, run_walks
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


class SamplingError(RuntimeError):
    """A sampling request that cannot be met, such as uniform tuples from a
    join with no result tuples."""


def sample_join(
    requests: JoinContext | Sequence[tuple[JoinContext, int]],
    n: int | None = None,
    *,
    method: str = "ew",
    seed: int = 0,
    stats: SampleStats | None = None,
    hash_cols: Sequence[Column] = (),
    predicate=None,
) -> pd.DataFrame:
    """Return exactly ``n`` i.i.d. uniform tuples from the join, using the
    EW or EO instantiation; ``sample_join(ctx, n)`` is the one-request case
    of ``sample_join([(ctx_0, n_0), (ctx_1, n_1), ...])``.

    Each round runs ONE fused walk job for every request still short, then
    applies EO acceptance and ``predicate`` per join on the driver. Rows
    hold the value columns, ``hash_cols`` and ``__join`` (the position of
    the row's request). Raises :class:`SamplingError` if a requested join
    has no result tuples.

    ``predicate`` (pandas DataFrame → boolean mask) enforces a selection
    during sampling — §8.3's second alternative: an extra rejection factor,
    appropriate for predicates that are not very selective. The result is
    uniform over σ_predicate(J). (The first alternative — push-down — is
    what the workloads do: filter the base relations up front.)"""
    if isinstance(requests, JoinContext):
        requests = [(requests, n)]
    ctxs = [c for c, _ in requests]
    if method == "eo":
        # EO over-draw factor from the analytic acceptance rate |J| / bound.
        accs = np.array([max(c.size_exact / max(c.size_olken, 1), 1e-3) for c in ctxs])
        m_prod = np.array([c.m_prod for c in ctxs])
    elif method != "ew":
        raise ValueError(method)
    need = np.array([int(k) for _, k in requests], dtype=np.int64)
    for ctx, k in zip(ctxs, need):
        if k > 0 and ctx.plan["total_weight"] <= 0:
            raise SamplingError(f"join {ctx.name!r} has no result tuples")
    rng = np.random.default_rng(seed)
    value_cols = ctxs[0].join.value_cols if ctxs else []
    out: list[pd.DataFrame] = []
    while need.sum() > 0:
        over = need / accs if method == "eo" else need
        walks = np.where(need > 0, np.minimum(np.ceil(over * 1.2) + 8, 200_000), 0)
        res = run_walks(
            ctxs[0].spark,
            [(c.join, int(w)) for c, w in zip(ctxs, walks)],  # one plan serves EW and uniform
            mode="ew" if method == "ew" else "uniform",
            seed=int(rng.integers(2**31)),
            hash_cols=hash_cols,
        )
        if stats is not None:
            stats.n_walks += res.n_walks
        pdf = res.pdf
        if method == "eo" and len(pdf):
            p_acc = pdf[DPROD].to_numpy(dtype=float) / m_prod[pdf[JOIN].to_numpy()]
            keep = rng.random(len(pdf)) < p_acc
            if stats is not None:
                stats.n_rejected_weight += int((~keep).sum()) + res.n_failed
            pdf = pdf[keep]
        if predicate is not None and len(pdf):
            pdf = pdf[predicate(pdf)]
        ks = pdf[JOIN].to_numpy(dtype=np.int64)
        pdf = pdf[pdf.groupby(JOIN).cumcount().to_numpy() < need[ks]]
        need = need - np.bincount(pdf[JOIN].to_numpy(dtype=np.int64), minlength=len(need))
        keep_cols = value_cols + [c for c in pdf.columns if c.startswith("__h")]
        out.append(pdf[keep_cols + [JOIN]])
    if not out:
        return pd.DataFrame(columns=value_cols + [JOIN])
    result = pd.concat(out, ignore_index=True)
    if stats is not None:
        stats.n_accepted += len(result)
    return result


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
