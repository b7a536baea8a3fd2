"""Column statistics used by the estimators, and the per-workload catalog.

These are the "histograms DBMSs already maintain" of §5: per-value degree
histograms of join attributes, their maxima and averages.
:func:`degree_histogram` is the one Spark aggregation that computes them;
:class:`StatsCatalog` collects each (relation, column) histogram once per
workload and derives maxima, averages, row counts and the K(1) pair series
of Theorem 4 from it driver-side. Nothing materializes a join.

The remaining Spark helpers (:func:`max_degree`, :func:`avg_degree`,
:func:`pair_degree_product`, :func:`self_degree`) answer one-off questions
directly in Spark; the warm-up reads the catalog instead.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def degree_histogram(df: DataFrame, col: str) -> DataFrame:
    """Per-value degree of ``col``: DataFrame[col, deg]."""
    return df.groupBy(col).agg(F.count(F.lit(1)).alias("deg"))


def max_degree(df: DataFrame, col: str) -> int:
    """Maximum value frequency M_col(df) (Olken's M)."""
    row = degree_histogram(df, col).agg(F.max("deg").alias("m")).collect()[0]
    return int(row["m"] or 0)


def avg_degree(df: DataFrame, col: str) -> float:
    """Average value frequency (used to tighten Theorem 4 when full
    histograms are available)."""
    row = degree_histogram(df, col).agg(F.avg("deg").alias("m")).collect()[0]
    return float(row["m"] or 0.0)


def pair_degree_product(
    df1: DataFrame, col1: str, df2: DataFrame, col2: str
) -> DataFrame:
    """Per-value count of joinable (t1, t2) pairs: d(v, df1) * d(v, df2).

    This is the exact per-value size of df1 ⋈ df2 on col1 = col2, computed
    from the two histograms — the K(1) building block of Theorem 4.
    Returns DataFrame[v, pairs].
    """
    h1 = degree_histogram(df1, col1).withColumnRenamed(col1, "v").withColumnRenamed(
        "deg", "d1"
    )
    h2 = degree_histogram(df2, col2).withColumnRenamed(col2, "v").withColumnRenamed(
        "deg", "d2"
    )
    return h1.join(h2, on="v").select("v", (F.col("d1") * F.col("d2")).alias("pairs"))


def self_degree(df: DataFrame, col: str) -> DataFrame:
    """Per-value pair count of a *fake* first edge: each row matches only
    its own split counterpart, so the pair count at value v is d(v, df).
    Returns DataFrame[v, pairs]."""
    return degree_histogram(df, col).select(
        F.col(col).alias("v"), F.col("deg").alias("pairs")
    )


@dataclass(frozen=True)
class DegreeStats:
    """One collected degree histogram and what derives from it.

    ``hist`` maps each non-null value to its degree; ``max``, ``avg`` and
    ``rows`` also count the null group, as the Spark aggregates do.
    """

    hist: pd.Series
    max: int
    avg: float
    rows: int


class StatsCatalog:
    """Degree statistics of one union workload, keyed by (relation
    DataFrame identity, column).

    Each entry is filled at most once, by collecting one
    :func:`degree_histogram` aggregation to the driver the first time an
    estimator asks for it. The catalog also keeps the Theorem 4 view sets
    that :func:`repro.core.histogram_union.auto_histogram_warmup` builds
    from it, so later warm-ups run no Spark job and no template search.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, str], DegreeStats] = {}
        self._dfs: dict[int, DataFrame] = {}  # keeps every keyed id alive
        self.view_sets: list[list] | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[DataFrame, str]) -> bool:
        df, col = key
        return (id(df), col) in self._entries

    def get(self, df: DataFrame, col: str) -> DegreeStats:
        """The statistics of ``df.col``, aggregated on first use."""
        key = (id(df), col)
        entry = self._entries.get(key)
        if entry is None:
            pdf = degree_histogram(df, col).toPandas()
            deg = pdf["deg"]
            n, rows = len(deg), int(deg.sum())
            present = pdf[pdf[col].notna()]
            entry = DegreeStats(
                hist=pd.Series(present["deg"].to_numpy(), index=present[col].to_numpy()),
                max=int(deg.max()) if n else 0,
                avg=float(rows) / n if n else 0.0,
                rows=rows,
            )
            self._entries[key] = entry
            self._dfs[id(df)] = df
        return entry


def pair_product(h1: pd.Series, h2: pd.Series) -> pd.Series:
    """Per-value d1·d2 over values present in both histograms: the exact
    per-value size of the equi-join (the K(1) block of §5.1)."""
    d1, d2 = h1.align(h2, join="inner")
    return d1 * d2


def pair_min(h1: pd.Series, h2: pd.Series) -> pd.Series:
    """Per-value min(d1, d2): one pair per co-present value when the second
    attribute is equality-determined by the first."""
    d1, d2 = h1.align(h2, join="inner")
    return np.minimum(d1, d2)
