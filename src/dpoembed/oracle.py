"""Brute-force oracles: the definitions of the theory, written naively.

Every predicate here is written from the definitions, with no
cleverness and no code shared with the constructive modules it checks
(`classify`, `Graph.incidence`, the match and rule validators, the
matcher and the re-pairing enumeration).  So that it stays that way,
this module imports only data types and plain constructors from the
rest of the library (`tests/test_tooling.py` checks the list), and it
holds no state: the law suite in `lawcheck` keeps the hom-set caches.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Tuple

from .graph import SRC, TGT, Flag, Graph, UnknownVertex
from .morphism import GraphMorphism, morphism
from .boundary import (BoundaryEmbedding, BoundaryGraph, PairingGraph,
                       RewriteRule)
from .rotation import RotationSystem, rotation_system


# ---------------------------------------------------------------------------
# morphisms and embeddings

def enumerate_maps(dom: Graph, cod: Graph) -> Iterator[GraphMorphism]:
    """Every map table dom -> cod: partial vertex tables times total arc
    tables, valid or not."""
    dom_v = sorted(dom.vertices)
    dom_arcs = dom.arcs()
    cod_arcs = cod.arcs()
    vertex_choices = [[None] + sorted(cod.vertices) for _ in dom_v]
    for vassign in itertools.product(*vertex_choices):
        vmap = {v: w for v, w in zip(dom_v, vassign) if w is not None}
        for aassign in itertools.product(cod_arcs, repeat=len(dom_arcs)):
            yield morphism(dom, cod, vmap, dict(zip(dom_arcs, aassign)))


def is_morphism(f: GraphMorphism) -> bool:
    """Whether the map data forms a morphism, from the definitions: the
    arc map is total on the domain's arcs and lands on arcs, circles go
    to circles, the vertex map is a partial map between the vertex
    sets, and at every defined vertex v each edge end at v goes to an
    edge end at f(v), with every edge end at f(v) hit.  Stops at the
    first failure; independent of `classify`, which it checks."""
    return _conditions_hold(f, flag_surjective=True)


def is_premorphism(f: GraphMorphism) -> bool:
    """Whether the map data meets every condition of `is_morphism`
    except, possibly, that every edge end at f(v) is hit."""
    return _conditions_hold(f, flag_surjective=False)


def _conditions_hold(f: GraphMorphism, flag_surjective: bool) -> bool:
    dom, cod = f.dom, f.cod
    if set(f.amap) != set(dom.edges) | dom.circles:
        return False
    for a, img in f.amap.items():
        if img not in cod.edges and img not in cod.circles:
            return False
        if a in dom.circles and img not in cod.circles:
            return False
    for v, w in f.vmap.items():
        if v not in dom.vertices or w not in cod.vertices:
            return False
        hit = set()
        for e, (s, t) in dom.edges.items():
            for end, x, i in ((SRC, s, 0), (TGT, t, 1)):
                if x != v:
                    continue
                img = f.amap[e]
                if img not in cod.edges or cod.edges[img][i] != w:
                    return False
                hit.add(Flag(img, end))
        if flag_surjective and not scan_flags(cod, w) <= hit:
            return False
    return True


def is_embedding(f: GraphMorphism) -> bool:
    """Whether f is an embedding, from the definitions: a morphism that
    is injective on vertices, on circles and on flags, a flag (e, end)
    at a defined vertex going to (f(e), end)."""
    if not is_morphism(f):
        return False
    vertex_images = list(f.vmap.values())
    circle_images = [f.amap[o] for o in f.dom.circles]
    flag_images = [(f.amap[e], end)
                   for e, (s, t) in f.dom.edges.items()
                   for end, x in ((SRC, s), (TGT, t)) if x in f.vmap]
    return all(len(set(images)) == len(images)
               for images in (vertex_images, circle_images, flag_images))


def graph_key(g: Graph):
    return (tuple(sorted(g.vertices)),
            tuple(sorted(g.edges.items())),
            tuple(sorted(g.circles)))


# ---------------------------------------------------------------------------
# flags and rotations

def scan_flags(g: Graph, v: str) -> frozenset:
    """The flags at v by a scan of every edge.

    Deliberately independent of `Graph.incidence`, which the laws check.
    """
    if v not in g.vertices:
        raise UnknownVertex(v)
    out = set()
    for e, (s, t) in g.edges.items():
        if s == v:
            out.add(Flag(e, SRC))
        if t == v:
            out.add(Flag(e, TGT))
    return frozenset(out)


def all_rotations(g: Graph) -> List[RotationSystem]:
    """Every rotation system of g: independent cyclic orders per vertex."""
    per_vertex = []
    vs = g.sorted_vertices()
    for v in vs:
        fls = sorted(scan_flags(g, v))
        if not fls:
            per_vertex.append([()])
            continue
        first, rest = fls[0], fls[1:]
        per_vertex.append(
            [(first,) + perm for perm in itertools.permutations(rest)])
    return [
        rotation_system(g, dict(zip(vs, combo)))
        for combo in itertools.product(*per_vertex)
    ]


# ---------------------------------------------------------------------------
# pairing graphs

def pairing_components(p: PairingGraph) -> List[Tuple[str, ...]]:
    """The connected components of a pairing graph, each a sorted node
    tuple, by a search over its blue and red pairs."""
    near: Dict[str, set] = {n: set() for n in p.nodes}
    for a, b in itertools.chain(p.blue, p.red):
        near[a].add(b)
        near[b].add(a)
    comps, seen = [], set()
    for start in p.nodes:
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            new = near[frontier.pop()] - comp
            comp |= new
            frontier.extend(new)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def is_cycle_component(p: PairingGraph, comp: Tuple[str, ...]) -> bool:
    """A component is a cycle when every node in it has degree 2."""
    deg = dict.fromkeys(comp, 0)
    for pair in itertools.chain(p.blue, p.red):
        for n in pair:
            if n in deg:
                deg[n] += 1
    return bool(comp) and all(d == 2 for d in deg.values())


# ---------------------------------------------------------------------------
# rules and matches

def _is_boundary_graph(b: BoundaryGraph) -> bool:
    """Exactly its two distinct vertices, and edges between them only:
    no self-loops, no circles and no dangling ends."""
    g = b.graph
    return (b.boundary != b.dual_boundary
            and g.vertices == {b.boundary, b.dual_boundary}
            and not g.circles
            and all(s != t and {s, t} <= g.vertices
                    for s, t in g.edges.values()))


def _is_leg(leg: GraphMorphism, b: BoundaryGraph, cod: Graph) -> bool:
    """An embedding B -> cod defined on the boundary vertex only."""
    return (is_embedding(leg) and set(leg.vmap) == {b.boundary}
            and leg.dom == b.graph and leg.cod == cod)


def is_valid_rule(rule: RewriteRule) -> bool:
    """Whether the rule's boundary graph and both legs are valid."""
    b = rule.b
    return (_is_boundary_graph(b) and _is_leg(rule.l, b, rule.left)
            and _is_leg(rule.r, b, rule.right))


def _is_connected(g: Graph) -> bool:
    """At most one component, by a search from one vertex along the
    edges either way; each circle is a component of its own."""
    if not g.vertices:
        return len(g.circles) <= 1
    reached, frontier = set(), [min(g.vertices)]
    while frontier:
        v = frontier.pop()
        if v not in reached:
            reached.add(v)
            frontier += [t if s == v else s
                         for s, t in g.edges.values() if v in (s, t)]
    return reached == g.vertices and not g.circles


def is_match(rule: RewriteRule, host: Graph, m: GraphMorphism) -> bool:
    """Whether m: L -> host is a match of a valid rule: an embedding,
    undefined on the image of the boundary vertex and defined on every
    other vertex of L, with L connected."""
    lb = rule.l.vmap[rule.b.boundary]
    return (is_embedding(m)
            and set(m.vmap) == rule.left.vertices - {lb}
            and _is_connected(rule.left)
            and m.dom == rule.left and m.cod == host)


def brute_force_matches(rule: RewriteRule, host: Graph):
    """All valid matches by enumerating every map from L to the host;
    none for an invalid rule."""
    if not is_valid_rule(rule):
        return []
    out = [BoundaryEmbedding(rule.b, rule.left, host, rule.l, m)
           for m in enumerate_maps(rule.left, host)
           if is_match(rule, host, m)]
    out.sort(key=lambda be: be.m.key())
    return out
