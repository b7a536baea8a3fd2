"""Exact union oracle: the FullJoinUnion baseline, evaluated in DuckDB.

Every join of the workload is materialized in DuckDB over pandas copies of
its base relations, the distinct results are unioned, and each union tuple
u gets f(u), the index of the lowest join that contains it. One anti-join
of the samples against that table finds tuples outside U; one join gives
each sample's cover join, whose shares are compared with the exact
|J'_j| / |U|.

It runs once per benchmark run, after every timer has stopped. DuckDB is
independent of the Spark code under test, and the same construction is
cross-checked against ``repro.core.exact.full_join_union`` by the
benchmark's own tests.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

RID = "__rid"


def _q(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _join_sql(join, table_of: dict[int, str], cols: list[str]) -> str:
    """SELECT DISTINCT of the full join, projected onto ``cols``."""
    nodes = join.nodes()
    idx = {id(n): i for i, n in enumerate(nodes)}
    sql = f"{table_of[id(join.root.relation.df)]} AS t0"
    for parent, edge in join.edges():
        c = idx[id(edge.child)]
        sql += (
            f" JOIN {table_of[id(edge.child.relation.df)]} AS t{c}"
            f" ON t{idx[id(parent)]}.{_q(edge.parent_col)} = t{c}.{_q(edge.child_col)}"
        )
    owner: dict[str, int] = {}
    for n in nodes:
        for col in n.relation.cols:
            owner.setdefault(col, idx[id(n)])
    select = ", ".join(f"t{owner[c]}.{_q(c)} AS {_q(c)}" for c in cols)
    return f"SELECT DISTINCT {select} FROM {sql}"


class ExactUnion:
    """The exact set union of ``joins`` with each tuple's cover join."""

    def __init__(self, joins):
        self.names = [j.name for j in joins]
        self.cols = list(joins[0].value_cols)
        self.con = duckdb.connect()
        table_of: dict[int, str] = {}
        self.dtypes: dict[str, object] = {}
        for join in joins:
            for rel in join.relations():
                if id(rel.df) in table_of:
                    continue
                name = f"r{len(table_of)}"
                pdf = rel.df.toPandas()
                self.con.register(name, pdf)
                table_of[id(rel.df)] = name
                for c in rel.cols:
                    self.dtypes.setdefault(c, pdf[c].dtype)
        parts = [
            f"SELECT *, {i} AS jid FROM ({_join_sql(j, table_of, self.cols)})"
            for i, j in enumerate(joins)
        ]
        col_list = ", ".join(_q(c) for c in self.cols)
        self.con.execute(
            f"CREATE TABLE u AS SELECT {col_list}, MIN(jid) AS f "
            f"FROM ({' UNION ALL '.join(parts)}) GROUP BY {col_list}"
        )
        counts = dict(self.con.execute("SELECT f, COUNT(*) FROM u GROUP BY f").fetchall())
        self.cover_sizes = np.array([counts.get(i, 0) for i in range(len(joins))], float)
        self.size = int(self.cover_sizes.sum())

    def close(self) -> None:
        self.con.close()

    def cover_index(self, samples: pd.DataFrame) -> np.ndarray:
        """f(u) for every sample row; -1 for a row outside the union."""
        pdf = samples[self.cols].astype({c: self.dtypes[c] for c in self.cols})
        pdf = pdf.reset_index(drop=True)
        pdf[RID] = np.arange(len(pdf), dtype=np.int64)
        self.con.register("s", pdf)
        try:
            on = " AND ".join(f"s.{_q(c)} = u.{_q(c)}" for c in self.cols)
            got = self.con.execute(
                f"SELECT s.{RID}, COALESCE(u.f, -1) FROM s LEFT JOIN u ON {on} ORDER BY s.{RID}"
            ).fetchnumpy()
        finally:
            self.con.unregister("s")
        return np.asarray(list(got.values())[1], dtype=np.int64)

    def cover_tv(self, f: np.ndarray) -> float:
        """Total-variation distance between the samples' cover-join shares
        and the exact |J'_j| / |U|."""
        f = f[f >= 0]
        if not len(f):
            return 1.0
        got = np.bincount(f, minlength=len(self.names)) / len(f)
        return float(0.5 * np.abs(got - self.cover_sizes / self.size).sum())
