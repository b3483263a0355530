"""Boundary graphs, partitioning spans, rewrite rules, boundary
embeddings and matches, their checks, and the re-pairing problem.

The pairing graph of a span is a polarity-labelled graph on the
boundary edges: blue edges record pairs merged to a self-loop on the
left leg, red edges pairs merged on the context leg.  Given only the
blue half (from a match), solving the *re-pairing problem* means
choosing the red half so that the connected components correspond to
the arcs of the host graph; each solution parameterizes one pushout
complement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Tuple

from .graph import Graph, is_connected, validate_graph
from .morphism import GraphMorphism, classify

POS = "+"
NEG = "-"

MAX_RE_PAIRINGS = 10000  # enumeration stops at the first solution past this


class BoundaryError(Exception):
    pass


class SpanInvariantViolated(BoundaryError):
    pass


class BoundaryEmbeddingInvariantViolated(BoundaryError):
    pass


class CombinatorialLimitExceeded(BoundaryError):
    pass


@dataclass(frozen=True)
class BoundaryGraph:
    """A two-vertex graph with no self-loops and no circles; its two
    vertices are the boundary and the dual boundary.  Its errors are
    computed on the first ask and kept, as a tuple that is not a
    dataclass field; so are those of the three classes below."""

    graph: Graph
    boundary: str
    dual_boundary: str

    @cached_property
    def _errors(self):
        g, v, w = self.graph, self.boundary, self.dual_boundary
        errors = list(validate_graph(g).errors)
        if g.vertices != frozenset((v, w)) or v == w:
            errors.append(("BadBoundaryVertices", f"expected exactly {{{v}, {w}}}"))
        errors.extend(("SelfLoopInBoundary", e)
                      for e, (s, t) in g.edges.items() if s == t)
        if g.circles:
            errors.append(("CircleInBoundary", ",".join(g.circles)))
        return tuple(errors)

    def polarity(self, e: str) -> str:
        return POS if self.graph.source(e) == self.boundary else NEG

    def boundary_edges(self) -> Tuple[str, ...]:
        return tuple(self.graph.edges)


def validate_boundary_graph(b: BoundaryGraph):
    return list(b._errors)


@dataclass(frozen=True)
class PartitioningSpan:
    """L <-l- B -c-> C with l defined on the boundary only and c on the
    dual boundary only; both legs embeddings.  Its kept errors are B's,
    then l's and c's."""

    b: BoundaryGraph
    left: Graph
    context: Graph
    l: GraphMorphism
    c: GraphMorphism

    @cached_property
    def _errors(self):
        b = self.b
        return (*b._errors,
                *_leg_errors("l", self.l, b, self.left, b.boundary),
                *_leg_errors("c", self.c, b, self.context, b.dual_boundary))


def _leg_errors(name: str, leg: GraphMorphism, b: BoundaryGraph,
                cod: Graph, at: str):
    """The conditions on a leg B -> cod: defined on B's vertex `at` and
    not on the other one, an embedding, and between the right graphs."""
    other = b.dual_boundary if at == b.boundary else b.boundary
    errors = []
    if leg.v(at) is None:
        errors.append(("LegUndefinedOnItsVertex", name))
    if leg.v(other) is not None:
        errors.append(("LegDefinedOnWrongVertex", name))
    if not classify(leg).is_embedding:
        errors.append(("LegNotEmbedding", name))
    if leg.dom != b.graph:
        errors.append(("LegDomainMismatch", name))
    if leg.cod != cod:
        errors.append(("LegCodomainMismatch", name))
    return errors


def validate_span(span: PartitioningSpan):
    return list(span._errors)


def check_span(span: PartitioningSpan) -> None:
    errors = validate_span(span)
    if errors:
        raise SpanInvariantViolated(errors)


@dataclass(frozen=True)
class RewriteRule:
    """L <= B => R: both legs satisfy the left-leg conditions of a
    partitioning span on the boundary vertex.  Its kept errors are B's,
    then l's and r's."""

    b: BoundaryGraph
    left: Graph
    right: Graph
    l: GraphMorphism
    r: GraphMorphism

    @cached_property
    def _errors(self):
        b = self.b
        return (*b._errors,
                *_leg_errors("l", self.l, b, self.left, b.boundary),
                *_leg_errors("r", self.r, b, self.right, b.boundary))


def validate_rule(rule: RewriteRule):
    return list(rule._errors)


@dataclass(frozen=True)
class BoundaryEmbedding:
    """B -l-> L -m-> G with L connected, m an embedding, and the match
    undefined on the image of the boundary vertex but defined on every
    other vertex of L: the complement removes exactly m's image, so a
    vertex m forgets would be left behind in it.  Its kept errors are
    B's, then l's, then the match's."""

    b: BoundaryGraph
    left: Graph
    host: Graph
    l: GraphMorphism
    m: GraphMorphism

    @cached_property
    def _errors(self):
        b = self.b
        return (*b._errors,
                *_leg_errors("l", self.l, b, self.left, b.boundary),
                *_match_errors(self))

    def image_arc(self, e: str) -> str:
        """(m_A . l_A) applied to a boundary edge."""
        return self.m.amap[self.l.amap[e]]


def validate_boundary_embedding(be: BoundaryEmbedding):
    return list(be._errors)


def _match_errors(be: BoundaryEmbedding):
    """The conditions on m and on L, given a valid left leg."""
    errors = []
    if not classify(be.m).is_embedding:
        errors.append(("MatchNotEmbedding", "m"))
    lb = be.l.v(be.b.boundary)
    if lb is not None and be.m.v(lb) is not None:
        errors.append(("MatchDefinedOnBoundaryImage", lb))
    if not is_connected(be.left):
        errors.append(("LeftNotConnected", ""))
    if be.m.dom != be.left:
        errors.append(("LegDomainMismatch", "m"))
    if be.m.cod != be.host:
        errors.append(("LegCodomainMismatch", "m"))
    errors.extend(("MatchUndefinedOnInterior", v)
                  for v in be.left.vertices
                  if v != lb and be.m.v(v) is None)
    return errors


def check_boundary_embedding(be: BoundaryEmbedding) -> None:
    errors = validate_boundary_embedding(be)
    if errors:
        raise BoundaryEmbeddingInvariantViolated(errors)


def check_match(rule: RewriteRule, host: Graph,
                m: GraphMorphism) -> List[Tuple[str, str]]:
    """Validate a candidate match condition by condition; the list of
    failures is empty when `m` is a match."""
    be = BoundaryEmbedding(rule.b, rule.left, host, rule.l, m)
    return validate_rule(rule) + _match_errors(be)


@dataclass(frozen=True)
class PairingGraph:
    """Nodes are the boundary edges, with polarity from the source map.

    Blue pairs run positive -> negative, red pairs the reverse; a node
    carries at most one edge of each colour, so every component is a
    path or a cycle.
    """

    nodes: Tuple[str, ...]
    polarity: Mapping[str, str]
    blue: frozenset  # of (pos, neg) pairs
    red: frozenset   # of (neg, pos) pairs

    def key(self):
        return (self.nodes, tuple(sorted(self.blue)), tuple(sorted(self.red)))


def _pairs_from_identifications(b: BoundaryGraph, leg: GraphMorphism):
    """Edges of B identified by a span leg, as (pos, neg) pairs."""
    groups: Dict[str, list] = {}
    for e in b.boundary_edges():
        groups.setdefault(leg.amap[e], []).append(e)
    pairs = []
    for img in sorted(groups):
        members = groups[img]
        if len(members) == 1:
            continue
        if len(members) > 2:
            raise SpanInvariantViolated(
                [("TooManyIdentifications", f"{img}: {members}")])
        e1, e2 = members
        if b.polarity(e1) == b.polarity(e2):
            raise SpanInvariantViolated(
                [("SamePolarityIdentification", f"{img}: {members}")])
        pos, neg = (e1, e2) if b.polarity(e1) == POS else (e2, e1)
        pairs.append((pos, neg))
    return pairs


def pairing_graph(span: PartitioningSpan) -> PairingGraph:
    """Both halves: blue from the left leg, red from the context leg."""
    check_span(span)
    b = span.b
    nodes = b.boundary_edges()
    polarity = {e: b.polarity(e) for e in nodes}
    blue = frozenset(_pairs_from_identifications(b, span.l))
    red = frozenset((n, p) for p, n in _pairs_from_identifications(b, span.c))
    return PairingGraph(nodes, polarity, blue, red)


def blue_half(be: BoundaryEmbedding) -> PairingGraph:
    """The half pairing graph a boundary embedding determines.  Every
    re-pairing entry reaches the embedding check through here."""
    check_boundary_embedding(be)
    b = be.b
    nodes = b.boundary_edges()
    polarity = {e: b.polarity(e) for e in nodes}
    try:
        blue = frozenset(_pairs_from_identifications(b, be.l))
    except SpanInvariantViolated as exc:
        raise BoundaryEmbeddingInvariantViolated(exc.args[0]) from exc
    return PairingGraph(nodes, polarity, blue, frozenset())


def arc_classes(be: BoundaryEmbedding) -> Dict[str, Tuple[str, ...]]:
    """k(a): the boundary edges mapping to each host arc, keyed by arc.

    Only non-empty classes appear.
    """
    out: Dict[str, list] = {}
    for e in be.b.boundary_edges():
        out.setdefault(be.image_arc(e), []).append(e)
    return {a: tuple(es) for a, es in sorted(out.items())}


def _class_arrangements(be: BoundaryEmbedding, half: PairingGraph, a: str,
                        members: Tuple[str, ...]):
    """All red-edge sets closing one class into a path or a cycle.

    The class is a chain of links, each an (in, out) pair of nodes: the
    lone negative node (None, n) first, then the blue pairs (p, n), then
    the lone positive node (p, None).  A red edge joins each link's
    negative out node to the next link's positive in node, making a
    directed alternating path for a host edge.  For a host circle the
    chain also closes back to its start, and its first pair stays first,
    so each cyclic order is listed once.  Yields tuples of sorted
    (neg, pos) red pairs, identity arrangement first.
    """
    member_set = set(members)
    pairs = sorted((p, n) for p, n in half.blue if p in member_set)
    paired = {x for pn in pairs for x in pn}
    lone = [n for n in members if n not in paired]
    closed = be.host.is_circle(a)
    if closed and lone:
        raise BoundaryEmbeddingInvariantViolated(
            [("LoneNodeInCircleClass", f"{a}: {lone}")])
    head = [(None, n) for n in lone if half.polarity[n] == NEG]
    tail = [(p, None) for p in lone if half.polarity[p] == POS]
    if len(head) > 1 or len(tail) > 1:
        raise BoundaryEmbeddingInvariantViolated(
            [("TooManyLooseEnds", f"{a}: {lone}")])
    if closed:
        head, pairs = pairs[:1], pairs[1:]
    for perm in itertools.permutations(pairs):
        chain = (*head, *perm, *tail)
        nxt = chain[1:] + chain[:1] if closed else chain[1:]
        yield tuple(sorted([(n, p) for (_, n), (p, _) in zip(chain, nxt)]))


def _solutions(be: BoundaryEmbedding, per_class: int):
    """Re-pairing solutions in enumeration order: the product of the
    first `per_class` arrangements of every class, canonical first."""
    half = blue_half(be)
    arrangements = [
        list(itertools.islice(_class_arrangements(be, half, a, members),
                              per_class))
        for a, members in arc_classes(be).items()
    ]
    for combo in itertools.product(*arrangements):
        red = frozenset(pair for reds in combo for pair in reds)
        yield PairingGraph(half.nodes, half.polarity, half.blue, red)


def enumerate_re_pairings(be: BoundaryEmbedding):
    """All solutions of the re-pairing problem, in deterministic order;
    the canonical solution comes first."""
    # No dedupe: a class's red set fixes its path or cyclic order, and
    # classes touch disjoint nodes, so every combination is distinct.
    solutions = list(itertools.islice(_solutions(be, MAX_RE_PAIRINGS + 1),
                                      MAX_RE_PAIRINGS + 1))
    if len(solutions) > MAX_RE_PAIRINGS:
        raise CombinatorialLimitExceeded(
            f"more than {MAX_RE_PAIRINGS} re-pairing solutions")
    return solutions


def solve_re_pairing(be: BoundaryEmbedding) -> PairingGraph:
    """The canonical solution: identity arrangement in id order."""
    return next(_solutions(be, 1))


def red_unmatched_nodes(solution: PairingGraph) -> List[str]:
    touched = {x for pair in solution.red for x in pair}
    return [n for n in solution.nodes if n not in touched]
