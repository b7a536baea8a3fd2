"""Join descriptions: relations, rooted join trees, chains, and composition.

A join is a rooted tree of relations (a *chain* join is a path). Every
relation's DataFrame already carries the standardized output column names, so
the set union of joins is well-defined on the concatenation of column values
(§2 of the paper: all joins have the same output schema).

Conventions
-----------
* Columns whose name starts with ``__`` are *hidden* (row ids used by the
  splitting method's fake joins); they never participate in the tuple value.
* If an edge's parent and child column share a name, the join is composed with
  USING semantics (one copy of the column is kept). Otherwise both columns are
  kept and their equality is part of the tuple's invariant.
* Any other column-name collision between two relations of the same join is an
  error — it would make the output tuple ambiguous.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from pyspark.sql import DataFrame


def visible_cols(df: DataFrame) -> list[str]:
    """Value columns of a relation (hidden ``__`` columns excluded)."""
    return [c for c in df.columns if not c.startswith("__")]


@dataclass(frozen=True)
class Relation:
    """A named base relation with standardized output column names."""

    name: str
    df: DataFrame

    @property
    def cols(self) -> list[str]:
        return visible_cols(self.df)


@dataclass
class Edge:
    """A join edge ``parent.parent_col = child.relation.child_col``.

    ``fake`` marks a split-relation rejoin that is 1:1 by construction
    (§5.2 "fake join"); estimators use degree 1 for fake edges.
    """

    parent_col: str
    child_col: str
    child: "Node"
    fake: bool = False


@dataclass
class Node:
    relation: Relation
    edges: list[Edge] = field(default_factory=list)


class Join:
    """A rooted join tree with a standardized output schema."""

    def __init__(self, name: str, root: Node):
        self.name = name
        self.root = root
        self._check_collisions()

    # ---- structure -----------------------------------------------------
    def nodes(self) -> list[Node]:
        """All nodes in BFS order from the root."""
        out, queue = [], [self.root]
        while queue:
            n = queue.pop(0)
            out.append(n)
            queue.extend(e.child for e in n.edges)
        return out

    def edges(self) -> list[tuple[Node, Edge]]:
        """(parent, edge) pairs in BFS order."""
        out = []
        for n in self.nodes():
            out.extend((n, e) for e in n.edges)
        return out

    def relations(self) -> list[Relation]:
        return [n.relation for n in self.nodes()]

    @property
    def value_cols(self) -> list[str]:
        """Output columns: first occurrence order over BFS, deduplicated."""
        seen: list[str] = []
        for r in self.relations():
            for c in r.cols:
                if c not in seen:
                    seen.append(c)
        return seen

    def condition_pairs(self) -> list[tuple[str, str]]:
        """Join conditions whose two sides have *different* column names.

        These are equality invariants of every output tuple; membership
        checks must enforce them explicitly (same-name conditions hold
        trivially because the tuple has a single column of that name).
        """
        return [
            (e.parent_col, e.child_col)
            for _, e in self.edges()
            if e.parent_col != e.child_col
        ]

    def is_chain(self) -> bool:
        return all(len(n.edges) <= 1 for n in self.nodes())

    def as_chain(self) -> tuple[list[Relation], list[Edge]]:
        """(relations, edges) along the path; raises if not a chain."""
        if not self.is_chain():
            raise ValueError(f"join {self.name} is not a chain")
        rels, edges, node = [self.root.relation], [], self.root
        while node.edges:
            e = node.edges[0]
            edges.append(e)
            rels.append(e.child.relation)
            node = e.child
        return rels, edges

    # ---- composition ---------------------------------------------------
    def full_df(self, distinct: bool = True) -> DataFrame:
        """Materialize the full join (ground truth / baseline only).

        The sampling path never calls this; it exists for the
        FullJoinUnion baseline and the correctness oracle.
        """
        df = self.root.relation.df
        for parent, edge in self.edges():
            df = compose_edge(df, edge)
        df = df.select(*self.value_cols)
        return df.dropDuplicates() if distinct else df

    # ---- attribute lookup (used by the splitting method) ----------------
    def node_of_attr(self, col: str) -> Node:
        for n in self.nodes():
            if col in n.relation.cols:
                return n
        raise KeyError(f"attribute {col} not in join {self.name}")

    def tree_distance(self, a: str, b: str) -> int:
        """Number of join edges between the relations holding ``a``, ``b``."""
        na, nb = self.node_of_attr(a), self.node_of_attr(b)
        if na is nb:
            return 0
        parent: dict[int, Node] = {}
        for p, e in self.edges():
            parent[id(e.child)] = p

        def path_to_root(n: Node) -> list[Node]:
            out = [n]
            while id(n) in parent:
                n = parent[id(n)]
                out.append(n)
            return out

        pa, pb = path_to_root(na), path_to_root(nb)
        ids_a = {id(n): i for i, n in enumerate(pa)}
        for j, n in enumerate(pb):
            if id(n) in ids_a:
                return ids_a[id(n)] + j
        raise RuntimeError("disconnected join tree")

    # ---- internals -------------------------------------------------------
    def _check_collisions(self) -> None:
        seen: dict[str, str] = {}
        using: set[str] = {
            e.parent_col for _, e in self.edges() if e.parent_col == e.child_col
        }
        for r in self.relations():
            for c in r.df.columns:
                # Hidden framework columns (EW weights, split row ids) are
                # renamed or keyed explicitly at composition time.
                if c.startswith("__"):
                    continue
                if c in seen and c not in using:
                    raise ValueError(
                        f"join {self.name}: column {c} appears in both "
                        f"{seen[c]} and {r.name} but is not a USING key"
                    )
                seen.setdefault(c, r.name)


def compose_edge(df: DataFrame, edge: Edge) -> DataFrame:
    """Join an accumulated DataFrame with ``edge.child`` (inner join)."""
    child_df = edge.child.relation.df
    if edge.parent_col == edge.child_col:
        return df.join(child_df, on=edge.parent_col, how="inner")
    return df.join(
        child_df, on=df[edge.parent_col] == child_df[edge.child_col], how="inner"
    )


def chain(
    name: str,
    relations: list[Relation],
    conds: list[tuple[str, str]],
    fakes: list[bool] | None = None,
) -> Join:
    """Build a chain join R_1 ⋈ R_2 ⋈ … with ``conds[i]`` between i and i+1."""
    if len(conds) != len(relations) - 1:
        raise ValueError("need exactly len(relations)-1 conditions")
    fakes = fakes or [False] * len(conds)
    node = Node(relations[-1])
    for i in range(len(relations) - 2, -1, -1):
        parent = Node(relations[i])
        parent.edges.append(Edge(conds[i][0], conds[i][1], node, fake=fakes[i]))
        node = parent
    return Join(name, node)


def reroot(join: Join, relation_name: str) -> Join:
    """Re-root the join tree at the named relation (joins are undirected).

    Used by samplers that want the smallest relation as the walk start.
    """
    adj: dict[str, list[tuple[str, str, str, bool]]] = {}
    rels: dict[str, Relation] = {}
    for n in join.nodes():
        rels[n.relation.name] = n.relation
        adj.setdefault(n.relation.name, [])
    for p, e in join.edges():
        a, b = p.relation.name, e.child.relation.name
        adj[a].append((b, e.parent_col, e.child_col, e.fake))
        adj[b].append((a, e.child_col, e.parent_col, e.fake))
    if relation_name not in rels:
        raise KeyError(relation_name)

    def build(rname: str, parent: str | None) -> Node:
        node = Node(rels[rname])
        for other, my_col, their_col, fake in adj[rname]:
            if other == parent:
                continue
            node.edges.append(Edge(my_col, their_col, build(other, rname), fake))
        return node

    return Join(join.name, build(relation_name, None))


JoinFactory = Callable[[], Join]
