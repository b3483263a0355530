"""Executable law suite: the structural lemmas of the theory, checked
against generated instances.

Instance generation is exhaustive up to a budget and seeded-random
beyond it.  Hom sets come from the naive definitions in `oracle`,
filtered once per pair of graphs and cached here, so that the laws
check the constructive code paths against code they share nothing
with.  Every counterexample is reported as a replayable serialized
fixture.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from .graph import Graph, graph, is_connected
from .morphism import (
    GraphMorphism,
    classify,
    compose,
    flag_map,
    forget_to_b,
    identity,
    is_flag_bijective,
    is_flag_surjective,
    morphism,
)
from .boundary import (
    NEG,
    POS,
    BoundaryEmbedding,
    BoundaryGraph,
    PartitioningSpan,
    arc_classes,
    enumerate_re_pairings,
    pairing_graph,
    solve_re_pairing,
    validate_span,
)
from .dpo import PushoutResult, iso_check, pushout, pushout_complement
from .oracle import (
    all_rotations,
    enumerate_maps,
    graph_key,
    is_cycle_component,
    is_morphism,
    is_premorphism,
    pairing_components,
    scan_flags,
)
from .rotation import check_rot_morphism
from . import serialize


class LawCheckError(Exception):
    pass


class UnknownLaw(LawCheckError):
    pass


@dataclass(frozen=True)
class GenBudget:
    max_vertices: int = 3
    max_edges: int = 4
    max_circles: int = 1
    max_boundary_edges: int = 3
    seed: int = 0


DEFAULT_BUDGET = GenBudget()

# Exhaustive morphism-pair enumeration is quadratic in the hom sets, so
# morphism-shaped laws cap their graph budget lower than span-shaped ones.
# Random sampling can afford slightly larger graphs.
_MORPHISM_CAP = GenBudget(max_vertices=2, max_edges=2, max_circles=1)
_RANDOM_MORPHISM_CAP = GenBudget(max_vertices=3, max_edges=2, max_circles=1)
# Every rotation system of both graphs is walked, so these stay tiny.
_ROT_CAP = GenBudget(max_vertices=2, max_edges=2, max_circles=0)


def _cap(budget: GenBudget, cap: GenBudget) -> GenBudget:
    return GenBudget(
        min(budget.max_vertices, cap.max_vertices),
        min(budget.max_edges, cap.max_edges),
        min(budget.max_circles, cap.max_circles),
        min(budget.max_boundary_edges, cap.max_boundary_edges),
        budget.seed,
    )


# ---------------------------------------------------------------------------
# graph generation

def gen_graphs(budget: GenBudget) -> Iterator[Graph]:
    """Every graph up to the budget, with canonical ids."""
    for nv in range(budget.max_vertices + 1):
        vs = [f"v{i}" for i in range(nv)]
        pairs = [(s, t) for s in vs for t in vs]
        for ne in range(budget.max_edges + 1):
            if ne > 0 and not pairs:
                break
            for combo in itertools.combinations_with_replacement(pairs, ne):
                edges = {f"e{i}": st for i, st in enumerate(combo)}
                for no in range(budget.max_circles + 1):
                    yield graph(vs, edges, [f"o{i}" for i in range(no)])


def random_graph(rng: random.Random, budget: GenBudget) -> Graph:
    nv = rng.randint(0, budget.max_vertices)
    vs = [f"v{i}" for i in range(nv)]
    ne = rng.randint(0, budget.max_edges) if vs else 0
    edges = {f"e{i}": (rng.choice(vs), rng.choice(vs)) for i in range(ne)}
    no = rng.randint(0, budget.max_circles)
    return graph(vs, edges, [f"o{i}" for i in range(no)])


# ---------------------------------------------------------------------------
# hom sets, by brute force and cached per pair of graphs

_HOM_CACHE: Dict[tuple, List[GraphMorphism]] = {}
_PRE_CACHE: Dict[tuple, List[GraphMorphism]] = {}


def _homs(cache: Dict[tuple, List[GraphMorphism]],
          pred: Callable[[GraphMorphism], bool],
          dom: Graph, cod: Graph) -> List[GraphMorphism]:
    key = (graph_key(dom), graph_key(cod))
    if key not in cache:
        cache[key] = [f for f in enumerate_maps(dom, cod) if pred(f)]
    return cache[key]


def enumerate_morphisms(dom: Graph, cod: Graph) -> List[GraphMorphism]:
    """All morphisms dom -> cod, by brute force over map tables."""
    return _homs(_HOM_CACHE, is_morphism, dom, cod)


def enumerate_premorphisms(dom: Graph, cod: Graph) -> List[GraphMorphism]:
    """Maps satisfying every morphism condition except, possibly, flag
    surjectivity.  Used to test laws about that condition itself."""
    return _homs(_PRE_CACHE, is_premorphism, dom, cod)


# The pair laws' composites, interned by value: a morphism's map tables
# are sorted when it is built, so equal composites over the same two
# graph objects have one key.  The identities that
# `ForgetfulFunctoriality` reads are kept per graph object.  Each entry
# of either table holds its morphism and so its graphs, whose ids
# therefore stay unique while the entry lives.
_COMPOSITES: Dict[tuple, GraphMorphism] = {}
_IDENTITIES: Dict[int, GraphMorphism] = {}


def _intern(h: GraphMorphism) -> GraphMorphism:
    key = (id(h.dom), id(h.cod), tuple(h.vmap.items()),
           tuple(h.amap.items()))
    return _COMPOSITES.setdefault(key, h)


def _identity(g: Graph) -> GraphMorphism:
    if id(g) not in _IDENTITIES:
        _IDENTITIES[id(g)] = identity(g)
    return _IDENTITIES[id(g)]


# ---------------------------------------------------------------------------
# span and boundary-embedding generation

def _boundary(nb: int, npos: int) -> BoundaryGraph:
    edges = {}
    for i in range(npos):
        edges[f"p{i}"] = ("bnd", "dbd")
    for i in range(nb - npos):
        edges[f"n{i}"] = ("dbd", "bnd")
    return BoundaryGraph(graph(["bnd", "dbd"], edges), "bnd", "dbd")


def _matchings(pos: List[str], neg: List[str]):
    """All sets of disjoint (pos, neg) pairs, the empty matching first."""
    yield ()
    for j in range(1, min(len(pos), len(neg)) + 1):
        for ps in itertools.combinations(pos, j):
            for ns in itertools.permutations(neg, j):
                yield tuple(zip(ps, ns))


def _build_side(b: BoundaryGraph, prefix: str, defined_vertex: str,
                pos_at_source: bool, matching, assignment: Dict[str, str],
                interior: List[str], deco: str):
    """One leg of a span: self-loops for the matched pairs, one edge per
    unmatched boundary edge into the interior, plus a small decoration."""
    vb = f"{prefix}bv"
    edges = {}
    amap = {}
    for i, (p, n) in enumerate(matching):
        loop = f"{prefix}l{i}"
        edges[loop] = (vb, vb)
        amap[p] = loop
        amap[n] = loop
    for e, iv in sorted(assignment.items()):
        ne = f"{prefix}x{e}"
        at_source = (b.polarity(e) == POS) == pos_at_source
        edges[ne] = (vb, iv) if at_source else (iv, vb)
        amap[e] = ne
    circles = []
    if deco == "loop":
        edges[f"{prefix}d"] = (interior[0], interior[0])
    elif deco == "edge":
        edges[f"{prefix}d"] = (interior[0], interior[1])
    elif deco == "circle":
        circles.append(f"{prefix}d")
    g = graph([vb] + interior, edges, circles)
    leg = morphism(b.graph, g, {defined_vertex: vb}, amap)
    return g, leg


def _decos(k: int, budget: GenBudget, used_edges: int) -> List[str]:
    out = ["none"]
    if k >= 1 and used_edges < budget.max_edges:
        out.append("loop")
    if k >= 2 and used_edges < budget.max_edges:
        out.append("edge")
    if budget.max_circles >= 1:
        out.append("circle")
    return out


def _side_variants(b: BoundaryGraph, prefix: str, defined_vertex: str,
                   pos_at_source: bool, budget: GenBudget):
    pos = sorted(e for e in b.boundary_edges() if b.polarity(e) == POS)
    neg = sorted(e for e in b.boundary_edges() if b.polarity(e) == NEG)
    max_interior = max(0, budget.max_vertices - 1)
    for matching in _matchings(pos, neg):
        paired = {x for pn in matching for x in pn}
        unmatched = [e for e in b.boundary_edges() if e not in paired]
        min_k = 1 if unmatched else 0
        for k in range(min_k, min(max_interior, 2) + 1):
            interior = [f"{prefix}i{j}" for j in range(k)]
            slots = [interior for _ in unmatched]
            for targets in itertools.product(*slots):
                assignment = dict(zip(unmatched, targets))
                used = len(matching) + len(unmatched)
                for deco in _decos(k, budget, used):
                    yield _build_side(b, prefix, defined_vertex,
                                      pos_at_source, matching, assignment,
                                      interior, deco)


def gen_spans(budget: GenBudget) -> Iterator[PartitioningSpan]:
    """Every partitioning span the side grammar produces: matched pairs
    become self-loops at the boundary image, unmatched boundary edges
    attach to interior vertices, decorated with at most one extra arc."""
    for nb in range(budget.max_boundary_edges + 1):
        for npos in range(nb + 1):
            b = _boundary(nb, npos)
            lefts = list(_side_variants(b, "L", b.boundary, True, budget))
            contexts = list(_side_variants(b, "C", b.dual_boundary, False,
                                           budget))
            for left, l in lefts:
                for ctx, c in contexts:
                    yield PartitioningSpan(b, left, ctx, l, c)


def _random_matching(rng: random.Random, pos, neg):
    j = rng.randint(0, min(len(pos), len(neg)))
    return tuple(zip(rng.sample(pos, j), rng.sample(neg, j)))


def _random_side(rng: random.Random, b: BoundaryGraph, prefix: str,
                 defined_vertex: str, pos_at_source: bool, budget: GenBudget):
    pos = sorted(e for e in b.boundary_edges() if b.polarity(e) == POS)
    neg = sorted(e for e in b.boundary_edges() if b.polarity(e) == NEG)
    matching = _random_matching(rng, pos, neg)
    paired = {x for pn in matching for x in pn}
    unmatched = [e for e in b.boundary_edges() if e not in paired]
    min_k = 1 if unmatched else 0
    k = rng.randint(min_k, max(min_k, budget.max_vertices - 1))
    interior = [f"{prefix}i{j}" for j in range(k)]
    assignment = {e: rng.choice(interior) for e in unmatched}
    used = len(matching) + len(unmatched)
    deco = rng.choice(_decos(k, budget, used))
    return _build_side(b, prefix, defined_vertex, pos_at_source, matching,
                       assignment, interior, deco)


def random_span(rng: random.Random, budget: GenBudget) -> PartitioningSpan:
    nb = rng.randint(0, budget.max_boundary_edges)
    b = _boundary(nb, rng.randint(0, nb))
    left, l = _random_side(rng, b, "L", b.boundary, True, budget)
    ctx, c = _random_side(rng, b, "C", b.dual_boundary, False, budget)
    return PartitioningSpan(b, left, ctx, l, c)


def span_to_boundary_embedding(span: PartitioningSpan
                               ) -> Optional[BoundaryEmbedding]:
    """The boundary embedding into the pushout, when L is connected."""
    if not is_connected(span.left):
        return None
    po = pushout(span)
    return BoundaryEmbedding(span.b, span.left, po.graph, span.l, po.m)


def gen_boundary_embeddings(budget: GenBudget) -> Iterator[BoundaryEmbedding]:
    for span in gen_spans(budget):
        be = span_to_boundary_embedding(span)
        if be is not None:
            yield be


def random_boundary_embedding(rng: random.Random, budget: GenBudget
                              ) -> Optional[BoundaryEmbedding]:
    return span_to_boundary_embedding(random_span(rng, budget))


# ---------------------------------------------------------------------------
# universal property

def _circle_compatible(po: PushoutResult, m2: GraphMorphism,
                       g2: GraphMorphism) -> bool:
    """A cospan respects the circle structure when every circle of the
    pushout has a circle as its forced image.  A self-loop may legally
    map to an edge while forgetting its vertex, so a commuting cospan
    can send an identified pair of loops to an edge; no mediating
    morphism can exist there and the universal property is only claimed
    over circle-compatible cospans."""
    forced = {}
    for a, img in m2.amap.items():
        forced[po.m.amap[a]] = img
    for a, img in g2.amap.items():
        forced[po.g.amap[a]] = img
    return all(m2.cod.is_circle(forced[o])
               for o in po.graph.circles)


def check_universal_property(span: PartitioningSpan, po: PushoutResult,
                             cospan_budget: GenBudget):
    """Exactly one mediating morphism for every commuting
    circle-compatible cospan within the budget.  Returns (cospans
    checked, commuting cospans excluded as not circle-compatible,
    counterexample or None)."""
    checked = excluded = 0
    for other in gen_graphs(cospan_budget):
        hom_left = enumerate_morphisms(span.left, other)
        hom_ctx = enumerate_morphisms(span.context, other)
        for m2 in hom_left:
            via_left = compose(m2, span.l).key()
            for g2 in hom_ctx:
                if via_left != compose(g2, span.c).key():
                    continue
                if not _circle_compatible(po, m2, g2):
                    excluded += 1
                    continue
                checked += 1
                mediating = [
                    u for u in enumerate_morphisms(po.graph, other)
                    if compose(u, po.m).key() == m2.key()
                    and compose(u, po.g).key() == g2.key()
                ]
                if len(mediating) != 1:
                    detail = (f"{len(mediating)} mediating morphisms for "
                              f"cospan {m2.key()} / {g2.key()}")
                    return checked, excluded, detail
    return checked, excluded, None


# ---------------------------------------------------------------------------
# instance predicates, one per law

@dataclass(frozen=True)
class MorphismPair:
    """A composable pair f: A -> B, g: B -> C.  Unpacks as (f, g); its
    composite g . f is built on first use and shared by every pair law
    that reads it.  The composite handed out is the interned morphism
    equal to it, so its classification, flag map and image under
    `forget_to_b` are derived once per distinct composite, not once
    per pair."""
    f: GraphMorphism
    g: GraphMorphism

    def __iter__(self):
        return iter((self.f, self.g))

    @cached_property
    def composite(self) -> GraphMorphism:
        return _intern(compose(self.g, self.f))


def _holds_flag_bij_composition(inst: MorphismPair) -> bool:
    if not (is_flag_bijective(inst.f) and is_flag_bijective(inst.g)):
        return True
    return is_flag_bijective(inst.composite)


def _holds_morphism_composition(inst: MorphismPair) -> bool:
    h = inst.composite
    if not classify(h).is_morphism:
        return False
    if classify(inst.f).is_embedding and classify(inst.g).is_embedding:
        return classify(h).is_embedding
    return True


def _holds_degree_preservation(f: GraphMorphism) -> bool:
    if not classify(f).is_embedding:
        return True
    fm = flag_map(f)
    for v in f.vmap:
        at_v = scan_flags(f.dom, v)
        at_image = scan_flags(f.cod, f.vmap[v])
        if len(at_v) != len(at_image):
            return False
        image = {fm[fl] for fl in at_v if fl in fm}
        if image != at_image:
            return False
    return True


def _holds_almost_vertex_injective(f: GraphMorphism) -> bool:
    if not (classify(f).is_morphism and is_flag_bijective(f)):
        return True
    by_image: Dict[str, List[str]] = {}
    for v, w in f.vmap.items():
        by_image.setdefault(w, []).append(v)
    for vs in by_image.values():
        if len(vs) > 1 and any(scan_flags(f.dom, v) for v in vs):
            return False
    return True


def _holds_self_loop_creation(span: PartitioningSpan) -> bool:
    for leg, vb in ((span.l, span.l.v(span.b.boundary)),
                    (span.c, span.c.v(span.b.dual_boundary))):
        groups: Dict[str, List[str]] = {}
        for e in span.b.boundary_edges():
            groups.setdefault(leg.amap[e], []).append(e)
        for img, members in groups.items():
            if len(members) < 2:
                continue
            if len(members) > 2:
                return False
            if not leg.cod.is_edge(img):
                return False
            if leg.cod.edges[img] != (vb, vb):
                return False
            if span.b.polarity(members[0]) == span.b.polarity(members[1]):
                return False
    return True


def _holds_pairing_paths_or_cycles(span: PartitioningSpan) -> bool:
    p = pairing_graph(span)
    blue_deg = {n: 0 for n in p.nodes}
    red_deg = {n: 0 for n in p.nodes}
    for pos, neg in p.blue:
        if p.polarity[pos] != POS or p.polarity[neg] != NEG:
            return False
        blue_deg[pos] += 1
        blue_deg[neg] += 1
    for neg, pos in p.red:
        if p.polarity[neg] != NEG or p.polarity[pos] != POS:
            return False
        red_deg[neg] += 1
        red_deg[pos] += 1
    # one edge of each colour per node: components are paths or cycles
    return all(blue_deg[n] <= 1 and red_deg[n] <= 1 for n in p.nodes)


def _holds_path_in_b(span: PartitioningSpan) -> bool:
    p = pairing_graph(span)
    po = pushout(span)
    comps = {frozenset(c) for c in pairing_components(p)}
    for members in po.arc_classes.values():
        if members and frozenset(members) not in comps:
            return False
    covered = [frozenset(m) for m in po.arc_classes.values() if m]
    return sorted(map(sorted, covered)) == sorted(map(sorted, comps))


def _holds_edges_and_circles(span: PartitioningSpan) -> bool:
    p = pairing_graph(span)
    po = pushout(span)
    for arc, members in po.arc_classes.items():
        if not members:
            continue
        comp = tuple(sorted(members))
        if po.graph.is_circle(arc) != is_cycle_component(p, comp):
            return False
    return True


def _holds_pushout_legs(span: PartitioningSpan) -> bool:
    po = pushout(span)
    if not classify(po.m).is_embedding or not classify(po.g).is_embedding:
        return False
    return compose(po.m, span.l).key() == compose(po.g, span.c).key()


def _holds_complement_round_trip(be: BoundaryEmbedding) -> bool:
    for i, solution in enumerate(enumerate_re_pairings(be)):
        comp = pushout_complement(be, i)
        if comp.solution != solution:
            return False
        span = comp.span(be.l, be.b, be.left)
        if validate_span(span):
            return False
        if iso_check(pushout(span).graph, be.host) is None:
            return False
    return True


def _holds_complement_uniqueness(be: BoundaryEmbedding) -> bool:
    contexts = []
    for i in range(len(enumerate_re_pairings(be))):
        comp = pushout_complement(be, i)
        if not classify(comp.c).is_embedding:
            return False
        if not classify(comp.g).is_embedding:
            return False
        contexts.append(comp.context)
    # unique up to isomorphism of the underlying graphs
    return all(iso_check(contexts[0], other) is not None
               for other in contexts[1:])


def _holds_re_pairing_existence(be: BoundaryEmbedding) -> bool:
    solutions = enumerate_re_pairings(be)
    if not solutions:
        return False
    canonical = solve_re_pairing(be)
    if solutions[0].key() != canonical.key():
        return False
    classes = {frozenset(m) for m in arc_classes(be).values()}
    for sol in solutions:
        comps = {frozenset(c) for c in pairing_components(sol)}
        if comps != {c for c in classes if c}:
            return False
    return True


def _holds_rot_implies_flag_surj(inst) -> bool:
    f, rot_dom, rot_cod = inst
    if not check_rot_morphism(f, rot_dom, rot_cod):
        return True
    return is_flag_surjective(f)


def _holds_forgetful_functoriality(inst: MorphismPair) -> bool:
    f = inst.f
    _, vmap_h, emap_h = forget_to_b(inst.composite)
    _, vmap_f, emap_f = forget_to_b(f)
    _, vmap_g, emap_g = forget_to_b(inst.g)
    vmap = {v: vmap_g[w] for v, w in vmap_f.items() if w in vmap_g}
    emap = {e: emap_g[x] for e, x in emap_f.items() if x in emap_g}
    if (vmap, emap) != (vmap_h, emap_h):
        return False
    _, vid, eid = forget_to_b(_identity(f.dom))
    return (vid == {v: v for v in f.dom.vertices}
            and eid == {e: e for e in f.dom.edges})


# ---------------------------------------------------------------------------
# generators per instance shape

def gen_morphisms(budget: GenBudget) -> Iterator[GraphMorphism]:
    small = _cap(budget, _MORPHISM_CAP)
    graphs = list(gen_graphs(small))
    for dom in graphs:
        for cod in graphs:
            yield from enumerate_morphisms(dom, cod)


def gen_morphism_pairs(budget: GenBudget):
    small = _cap(budget, _MORPHISM_CAP)
    graphs = list(gen_graphs(small))
    tables = {}
    for i, dom in enumerate(graphs):
        for j, cod in enumerate(graphs):
            homs = enumerate_morphisms(dom, cod)
            if homs:
                tables[(i, j)] = homs
    for (i, j), homs in tables.items():
        for k in range(len(graphs)):
            second = tables.get((j, k))
            if not second:
                continue
            for f in homs:
                for g in second:
                    yield MorphismPair(f, g)


def gen_rot_instances(budget: GenBudget):
    small = _cap(budget, _ROT_CAP)
    graphs = list(gen_graphs(small))
    for dom in graphs:
        rot_doms = all_rotations(dom)
        for cod in graphs:
            pres = enumerate_premorphisms(dom, cod)
            if not pres:
                continue
            rot_cods = all_rotations(cod)
            for f in pres:
                for rd in rot_doms:
                    for rc in rot_cods:
                        yield f, rd, rc


def random_morphism(rng: random.Random, budget: GenBudget):
    small = _cap(budget, _RANDOM_MORPHISM_CAP)
    homs = enumerate_morphisms(random_graph(rng, small),
                               random_graph(rng, small))
    return rng.choice(homs) if homs else None


def random_morphism_pair(rng: random.Random, budget: GenBudget):
    small = _cap(budget, _RANDOM_MORPHISM_CAP)
    mid = random_graph(rng, small)
    homs_in = enumerate_morphisms(random_graph(rng, small), mid)
    homs_out = enumerate_morphisms(mid, random_graph(rng, small))
    if not homs_in or not homs_out:
        return None
    return MorphismPair(rng.choice(homs_in), rng.choice(homs_out))


def random_rot_instance(rng: random.Random, budget: GenBudget):
    small = _cap(budget, _ROT_CAP)
    dom = random_graph(rng, small)
    cod = random_graph(rng, small)
    pres = enumerate_premorphisms(dom, cod)
    if not pres:
        return None
    return (rng.choice(pres), rng.choice(all_rotations(dom)),
            rng.choice(all_rotations(cod)))


# ---------------------------------------------------------------------------
# counterexample serialization

def _describe_morphism(f: GraphMorphism) -> str:
    return serialize.print_document(serialize.morphism_doc(f))


def _describe_pair(inst) -> str:
    f, g = inst
    return _describe_morphism(f) + _describe_morphism(g)


def _describe_span_shaped(obj) -> str:
    return serialize.print_document(serialize.span_shaped_doc(obj))


def _describe_rot(inst) -> str:
    f, rd, rc = inst
    return serialize.print_document(serialize.morphism_doc(f, rd, rc))


# ---------------------------------------------------------------------------
# the registry

@dataclass(frozen=True)
class Shape:
    """What a law's instances are: how to list them up to a budget, how
    to draw one at random (None when a draw fails), and how to print one
    as a replayable fixture."""
    generate: Callable[[GenBudget], Iterable]
    generate_random: Callable[[random.Random, GenBudget], object]
    describe: Callable[[object], str]


MORPHISMS = Shape(gen_morphisms, random_morphism, _describe_morphism)
PAIRS = Shape(gen_morphism_pairs, random_morphism_pair, _describe_pair)
SPANS = Shape(gen_spans, random_span, _describe_span_shaped)
EMBEDDINGS = Shape(gen_boundary_embeddings, random_boundary_embedding,
                   _describe_span_shaped)
ROTATED = Shape(gen_rot_instances, random_rot_instance, _describe_rot)


@dataclass(frozen=True)
class Law:
    name: str
    shape: Shape
    holds: Callable[[object], bool]


LAWS: Dict[str, Law] = {
    law.name: law
    for law in (
        Law("FlagBijComposition", PAIRS, _holds_flag_bij_composition),
        Law("MorphismComposition", PAIRS, _holds_morphism_composition),
        Law("DegreePreservation", MORPHISMS, _holds_degree_preservation),
        Law("AlmostVertexInjective", MORPHISMS,
            _holds_almost_vertex_injective),
        Law("SelfLoopCreation", SPANS, _holds_self_loop_creation),
        Law("PairingPathsOrCycles", SPANS, _holds_pairing_paths_or_cycles),
        Law("PathInB", SPANS, _holds_path_in_b),
        Law("EdgesAndCircles", SPANS, _holds_edges_and_circles),
        Law("PushoutLegsAreEmbeddings", SPANS, _holds_pushout_legs),
        Law("ComplementRoundTrip", EMBEDDINGS, _holds_complement_round_trip),
        Law("ComplementUniqueness", EMBEDDINGS, _holds_complement_uniqueness),
        Law("RePairingExistence", EMBEDDINGS, _holds_re_pairing_existence),
        Law("RotPreservationImpliesFlagSurj", ROTATED,
            _holds_rot_implies_flag_surj),
        Law("ForgetfulFunctoriality", PAIRS, _holds_forgetful_functoriality),
    )
}


@dataclass(frozen=True)
class LawReport:
    law: str
    instances: int
    counterexample: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def check_lemma(name: str, budget: GenBudget = DEFAULT_BUDGET,
                random_instances: int = 0,
                exhaustive: bool = True) -> LawReport:
    """Run one law exhaustively over the budget, then over seeded-random
    instances; stops at the first counterexample."""
    return run_all(budget, random_instances, [name], exhaustive)[0]


def run_all(budget: GenBudget = DEFAULT_BUDGET, random_instances: int = 0,
            laws: Optional[Iterable[str]] = None,
            exhaustive: bool = True) -> List[LawReport]:
    """Run the named laws (all by default), one report per name in the
    order given.  Laws of one shape walk its instances once; each
    law's report is the one `check_lemma` gives for it alone."""
    names = list(laws) if laws is not None else sorted(LAWS)
    for name in names:
        if name not in LAWS:
            raise UnknownLaw(f"unknown law {name!r}")
    groups: Dict[Shape, List[Law]] = {}
    for name in dict.fromkeys(names):
        law = LAWS[name]
        groups.setdefault(law.shape, []).append(law)
    reports: Dict[str, LawReport] = {}
    for group in groups.values():
        reports.update(_walk(group, budget, random_instances, exhaustive))
    return [reports[name] for name in names]


def _instances(shape: Shape, budget: GenBudget, random_instances: int,
               exhaustive: bool) -> Iterator:
    """The shape's exhaustive instances, then up to `random_instances`
    seeded-random ones, generated as they are asked for."""
    if exhaustive:
        yield from shape.generate(budget)
    rng = random.Random(budget.seed)
    produced = 0
    attempts = 0
    while produced < random_instances and attempts < random_instances * 20:
        attempts += 1
        inst = shape.generate_random(rng, budget)
        if inst is not None:
            produced += 1
            yield inst


def _walk(laws: List[Law], budget: GenBudget, random_instances: int,
          exhaustive: bool) -> Dict[str, LawReport]:
    """One walk over the instances of the laws' shared shape.  Each
    instance goes to every law that has not failed yet; a law stops at
    its first counterexample, and the walk when every law has stopped."""
    reports: Dict[str, LawReport] = {}
    shape = laws[0].shape
    open_laws = list(laws)
    count = 0
    for inst in _instances(shape, budget, random_instances, exhaustive):
        count += 1
        for law in list(open_laws):
            if not law.holds(inst):
                reports[law.name] = LawReport(law.name, count,
                                              shape.describe(inst))
                open_laws.remove(law)
        if not open_laws:
            break
    for law in open_laws:
        reports[law.name] = LawReport(law.name, count)
    return reports

