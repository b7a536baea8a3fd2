"""Tuple-in-join membership oracle (§6.2's "queries with key", batched).

A candidate output tuple u belongs to join J iff (a) all of J's join
conditions hold as column equalities inside u, and (b) u's projection onto
every base relation of J exists in that relation. With full-schema outputs
(the paper's setting — all joins share one output schema), (a) + (b) is an
exact membership test.

Two implementations:

* :func:`member_ids` — reference path: one ``left_semi`` join per relation
  (a Spark job per probe batch). Exact; used by tests as the oracle.
* :class:`MembershipIndex` — production path, the analogue of the paper's
  in-memory hash tables over relations: a one-time Spark pass per distinct
  relation computes the ``xxhash64`` of every row's visible columns;
  probes hash the candidate batch with the SAME Spark expressions
  (appended to the walk job itself, or one job per batch for all joins
  together) and test membership with sorted-array lookups on the driver.
  64-bit hashing makes false positives negligible (checked against the
  semijoin path in tests).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from .join_spec import Join

CAND = "__cand"


def member_ids(
    spark: SparkSession, candidates: pd.DataFrame, join: Join
) -> np.ndarray:
    """Reference membership via semijoins. Indices into ``candidates``."""
    pdf = candidates.reset_index(drop=True).copy()
    pdf[CAND] = np.arange(len(pdf), dtype=np.int64)
    df = spark.createDataFrame(pdf)
    for a, b in join.condition_pairs():
        df = df.filter(F.col(a) == F.col(b))
    for rel in join.relations():
        cols = rel.cols
        df = df.join(rel.df.select(*cols).dropDuplicates(), on=cols, how="left_semi")
    ids = df.select(CAND).toPandas()[CAND].to_numpy()
    return np.sort(ids)


def _hash_expr(cols: list[str]):
    # Normalize floats/dates to strings so hashes agree between the
    # relation pass and the candidate pass after a pandas round trip.
    return F.xxhash64(*[F.col(c).cast("string") for c in sorted(cols)])


class MembershipIndex:
    """Pre-hashed relation signatures for O(log n) membership probes.

    Each distinct (relation DataFrame, column set) is hashed by one Spark
    pass, however many joins share it. ``hash_cols`` are the candidate
    signature expressions, built once per workload; the walker appends
    them to its output (``run_walks(hash_cols=...)``)."""

    def __init__(self, spark: SparkSession, joins: list[Join]):
        self.spark = spark
        self.joins = joins
        # candidate signature alias per sorted column set
        self.col_sets: dict[tuple[str, ...], str] = {}
        # per join: (signature alias, sorted relation hashes) per relation
        self.probes: list[list[tuple[str, np.ndarray]]] = []
        hashed: dict[tuple[int, tuple[str, ...]], np.ndarray] = {}
        for join in joins:
            probes = []
            for rel in join.relations():
                key = tuple(sorted(rel.cols))
                alias = self.col_sets.setdefault(key, f"__h{len(self.col_sets)}")
                rel_key = (id(rel.df), key)
                if rel_key not in hashed:
                    h = (
                        rel.df.select(_hash_expr(rel.cols).alias("h"))
                        .distinct()
                        .toPandas()["h"]
                        .to_numpy(dtype=np.int64)
                    )
                    hashed[rel_key] = np.sort(h)
                probes.append((alias, hashed[rel_key]))
            self.probes.append(probes)
        self.hash_cols = [
            _hash_expr(list(cols)).alias(alias) for cols, alias in self.col_sets.items()
        ]

    def _candidate_hashes(self, candidates: pd.DataFrame) -> pd.DataFrame:
        # Fast path: the walker already computed the signature columns in
        # its own job (run_walks(hash_cols=...)) — no Spark round trip.
        aliases = list(self.col_sets.values())
        if all(a in candidates.columns for a in aliases):
            return candidates[aliases]
        df = self.spark.createDataFrame(
            candidates.reset_index(drop=True)[
                [c for c in candidates.columns if not c.startswith("__")]
            ]
        )
        return df.select(*self.hash_cols).toPandas()

    def matrix(self, candidates: pd.DataFrame) -> np.ndarray:
        """Boolean matrix m[i, j] = candidates.iloc[i] ∈ joins[j]."""
        cand_h = self._candidate_hashes(candidates)
        m = np.ones((len(candidates), len(self.joins)), dtype=bool)
        for j, join in enumerate(self.joins):
            for a, b in join.condition_pairs():
                m[:, j] &= (
                    candidates[a].to_numpy() == candidates[b].to_numpy()
                )
            for alias, hashes in self.probes[j]:
                probe = cand_h[alias].to_numpy(dtype=np.int64)
                pos = np.searchsorted(hashes, probe)
                pos = np.clip(pos, 0, len(hashes) - 1) if len(hashes) else pos
                found = (
                    hashes[pos] == probe if len(hashes) else np.zeros(len(probe), bool)
                )
                m[:, j] &= found
        return m

    def min_index(self, candidates: pd.DataFrame) -> np.ndarray:
        """f(u) = index of the first join containing each candidate (the
        deterministic min-index cover of §3.1); -1 if in none."""
        m = self.matrix(candidates)
        out = np.full(len(candidates), -1, dtype=np.int64)
        any_row = m.any(axis=1)
        out[any_row] = m[any_row].argmax(axis=1)
        return out


def membership_matrix(
    spark: SparkSession,
    candidates: pd.DataFrame,
    joins: list[Join],
    index: MembershipIndex | None = None,
) -> np.ndarray:
    """Boolean matrix m[i, j] = candidates.iloc[i] ∈ joins[j]."""
    if index is not None:
        return index.matrix(candidates)
    m = np.zeros((len(candidates), len(joins)), dtype=bool)
    for j, join in enumerate(joins):
        m[member_ids(spark, candidates, join), j] = True
    return m


def min_join_index(
    spark: SparkSession,
    candidates: pd.DataFrame,
    joins: list[Join],
    index: MembershipIndex | None = None,
) -> np.ndarray:
    """f(u) over the reference path or a prebuilt index."""
    if index is not None:
        return index.min_index(candidates)
    m = membership_matrix(spark, candidates, joins)
    out = np.full(len(candidates), -1, dtype=np.int64)
    any_row = m.any(axis=1)
    out[any_row] = m[any_row].argmax(axis=1)
    return out
