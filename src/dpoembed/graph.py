"""Directed graphs with circles.

A graph here is a set of vertices, a set of directed edges with total
source/target maps, and a set of *circles*: closed arcs with neither
source nor target.  Edges and circles together form the *arcs* of the
graph.  All identifiers are strings, totally ordered; every iteration
in this package is in id order so that all derived algorithms are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, KeysView, Mapping, NamedTuple, Optional, Tuple

SRC = "src"
TGT = "tgt"


class Flag(NamedTuple):
    """An incidence of an edge end at a vertex.

    A self-loop at v contributes two distinct flags at v, one per end.
    """

    edge: str
    end: str  # SRC or TGT

    def __str__(self) -> str:
        return f"{self.edge}.{self.end}"


class GraphError(Exception):
    pass


class UnknownVertex(GraphError):
    pass


@dataclass(frozen=True)
class ValidationReport:
    errors: Tuple[Tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors

    def codes(self) -> Tuple[str, ...]:
        return tuple(code for code, _ in self.errors)


@dataclass(frozen=True)
class Graph:
    """A graph with circles: (V, E, O, s, t).

    Immutable after construction; edges maps edge id to (source, target).
    Only `graph` builds one, and it stores `vertices`, `edges` and
    `circles` in id order, so every reader iterates them as stored and
    none sorts them again.  `vertices` and `circles` are read-only key
    views: membership, `len` and the set operators work as on sets.
    """

    vertices: KeysView
    edges: Mapping[str, Tuple[str, str]]
    circles: KeysView

    @cached_property
    def incidence(self) -> Mapping[str, Tuple[Flag, ...]]:
        """Vertex -> its flags in edge order, built in one pass over the
        edges on first use and kept on this instance.

        Not a dataclass field, so equality, repr and serialization do not
        see it.  Tuples rather than sets keep the per-graph memory small.
        Flags are built by `tuple.__new__`, which gives the same objects
        as `Flag(e, end)` without the namedtuple's Python-level `__new__`.
        """
        inc: dict = {v: [] for v in self.vertices}
        new = tuple.__new__
        for e, (s, t) in self.edges.items():
            inc.setdefault(s, []).append(new(Flag, (e, SRC)))
            inc.setdefault(t, []).append(new(Flag, (e, TGT)))
        return {v: tuple(fls) for v, fls in inc.items()}

    @cached_property
    def without_circles(self) -> "Graph":
        """This graph's vertices and edges, its circles dropped; built on
        first use and kept on this instance, as `incidence` is."""
        return graph(self.vertices, self.edges)

    def source(self, e: str) -> str:
        return self.edges[e][0]

    def target(self, e: str) -> str:
        return self.edges[e][1]

    def is_edge(self, a: str) -> bool:
        return a in self.edges

    def is_circle(self, a: str) -> bool:
        return a in self.circles

    def arcs(self) -> Tuple[str, ...]:
        """All arc ids: the edges, then the circles, each in id order."""
        return (*self.edges, *self.circles)

    def __repr__(self) -> str:
        es = ", ".join(f"{e}:{s}->{t}" for e, (s, t) in self.edges.items())
        return (
            f"Graph(V={list(self.vertices)}, E=[{es}], "
            f"O={list(self.circles)})"
        )


def graph(
    vertices: Iterable[str] = (),
    edges: Optional[Mapping[str, Tuple[str, str]]] = None,
    circles: Iterable[str] = (),
) -> Graph:
    """Normalizing constructor; does not validate; repeated ids collapse."""
    return Graph(
        vertices=dict.fromkeys(sorted(vertices)).keys(),
        edges={e: (s, t) for e, (s, t) in sorted((edges or {}).items())},
        circles=dict.fromkeys(sorted(circles)).keys(),
    )


EMPTY_GRAPH = graph()


def validate_graph(g: Graph) -> ValidationReport:
    """Check edge endpoints exist and arc ids are unique across sorts."""
    errors = []
    for e, (s, t) in g.edges.items():
        if s not in g.vertices:
            errors.append(("DanglingEndpoint", f"edge {e}: source {s}"))
        if t not in g.vertices:
            errors.append(("DanglingEndpoint", f"edge {e}: target {t}"))
    errors.extend(("DuplicateId", f"arc id {a} is both an edge and a circle")
                  for a in g.circles if a in g.edges)
    return ValidationReport(tuple(errors))


def flags_at(g: Graph, v: str) -> frozenset:
    """The flags incident at v; a self-loop contributes both its flags.

    Reads `g.incidence`: O(E) once per graph, then O(deg v) per call.
    """
    if v not in g.vertices:
        raise UnknownVertex(v)
    return frozenset(g.incidence[v])


def degree(g: Graph, v: str) -> int:
    """Number of flags at v; self-loops count twice.  O(1) once
    `g.incidence` is built."""
    if v not in g.vertices:
        raise UnknownVertex(v)
    return len(g.incidence[v])


def _union_find(items, pairs, key=None):
    """The classes of `items` under the equivalence that `pairs`
    generate: a dict from each item to the least member (by `key`) of
    its class.  Each union keeps the lesser root, so roots stay least."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            keep, drop = sorted((ra, rb), key=key)
            parent[drop] = keep
    return {x: find(x) for x in parent}


def connected_components(g: Graph):
    """Partition vertices and arcs by edge adjacency.

    Returns a list of (vertex ids, arc ids) pairs, each a key view in id
    order as `Graph.vertices` is: the components with vertices by least
    vertex, then each circle alone, in id order.  O(V + E): walked in id
    order, each class opens at its union-find root (its least member),
    and each edge joins the component of its source in one pass.
    """
    root = _union_find(g.vertices, g.edges.values())
    groups: dict = {}
    for v, r in root.items():
        groups.setdefault(r, ({}, {}))[0][v] = None
    for e, (s, _) in g.edges.items():
        groups[root[s]][1][e] = None
    comps = [(vs.keys(), arcs.keys()) for vs, arcs in groups.values()]
    comps.extend(({}.keys(), {o: None}.keys()) for o in g.circles)
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1
