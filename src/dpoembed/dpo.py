"""The rewriting engine: pushouts of partitioning spans, pushout
complements of boundary embeddings, the DPO step `rewrite` and the
genus classification of re-pairing solutions.

Each square has one function.  Given a `rotations` mapping keyed by
role (the shape `serialize.load_document` returns), it carries the
rotation systems through the square; without one it is the plain
construction.  The checks on rules, matches, embeddings and rotations
live in `boundary` and `rotation`; this module only builds.

All maps are explicit tables; embeddings are never treated as
inclusions.  Pushout element ids are prefixed by side ("L." / "C."),
with identified arcs named after the least member of their class, so
traces stay readable and every run is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .graph import (
    SRC,
    TGT,
    Flag,
    Graph,
    _union_find,
    graph,
    validate_graph,
)
from .morphism import GraphMorphism, morphism
from .boundary import (
    POS,
    BoundaryEmbedding,
    BoundaryEmbeddingInvariantViolated,
    BoundaryGraph,
    PairingGraph,
    PartitioningSpan,
    RewriteRule,
    SpanInvariantViolated,
    check_span,
    enumerate_re_pairings,
    red_unmatched_nodes,
    solve_re_pairing,
    validate_rule,
)
from .rotation import (
    Rotations,
    RotationSystem,
    SurfaceReport,
    _surface,
    check_rotations,
    genus_report,
    role_rotations,
    rotation_system,
    validated_rotation,
)


class DpoError(Exception):
    pass


class SolutionIndexOutOfRange(DpoError):
    pass


class SizeLimitExceeded(DpoError):
    pass


ISO_MAX_VERTICES = 64  # iso_check refuses larger graphs


def _check_embedding_rotations(be: BoundaryEmbedding, rots) -> None:
    check_rotations("boundary embedding", rots, (be.b.graph, be.left, be.host),
                    (("l", be.l, 0, 1), ("m", be.m, 1, 2)))


@dataclass(frozen=True)
class PushoutResult:
    graph: Graph
    m: GraphMorphism  # L -> G
    g: GraphMorphism  # C -> G
    arc_classes: Mapping[str, Tuple[str, ...]]  # pushout arc -> B edges
    rotation: Optional[RotationSystem] = None


def _side_key(member):
    side, ident = member
    return (0 if side == "L" else 1, ident)


def pushout(span: PartitioningSpan,
            rotations: Rotations = None) -> PushoutResult:
    """Glue left and context along the boundary.

    Vertices are the non-boundary vertices of both sides; arcs are the
    quotient of both arc sets by the identifications the boundary edges
    induce.  An arc's endpoints come from whichever side defines them
    away from the boundary image; arcs left with no endpoints at all
    become circles.  With `rotations`, keyed "boundary", "left" and
    "context", each surviving vertex keeps the rotation of the side it
    came from.

    The rotations, when given, are checked first, then the span.  The
    gluing still raises `SpanInvariantViolated` at an arc whose
    endpoints are not single-valued or only half defined, and when the
    glued graph fails `validate_graph`.
    """
    rots = role_rotations(rotations, ("boundary", "left", "context"))
    if rots is not None:
        check_rotations("span", rots, (span.b.graph, span.left, span.context),
                        (("left leg", span.l, 0, 1),
                         ("context leg", span.c, 0, 2)))
    check_span(span)
    b, left, ctx = span.b, span.left, span.context
    vb_l = span.l.vmap[b.boundary]
    vb_c = span.c.vmap[b.dual_boundary]

    # only the arcs a boundary edge reaches are glued: at most 2|B|
    # members; every other arc is a class of its own
    bedges = b.boundary_edges()
    glue = [(("L", span.l.amap[e]), ("C", span.c.amap[e])) for e in bedges]
    root = _union_find(itertools.chain.from_iterable(glue), glue,
                       key=_side_key)
    # side -> glued arc -> its class, named after its least member, which
    # is its root
    glued: Dict[str, Dict[str, str]] = {"L": {}, "C": {}}
    for (side, a), (root_side, root_arc) in root.items():
        glued[side][a] = f"{root_side}.{root_arc}"

    vertices = {f"L.{v}" for v in left.vertices if v != vb_l} | {
        f"C.{v}" for v in ctx.vertices if v != vb_c
    }

    sources: Dict[str, set] = {cid: set() for cid in glued["L"].values()}
    targets: Dict[str, set] = {cid: set() for cid in glued["L"].values()}
    sides = (("L", left, vb_l), ("C", ctx, vb_c))
    for side, g_side, boundary_v in sides:
        for a, cid in glued[side].items():
            if g_side.is_edge(a):
                s, t = g_side.edges[a]
                if s != boundary_v:
                    sources[cid].add(f"{side}.{s}")
                if t != boundary_v:
                    targets[cid].add(f"{side}.{t}")

    edges = {}
    circles = set()
    for cid in sources:
        src, tgt = sources[cid], targets[cid]
        # Single-valuedness is a theorem about partitioning spans; a
        # failure here means the span invariants were violated.
        if len(src) > 1 or len(tgt) > 1:
            raise SpanInvariantViolated(
                [("SourceMapNotSingleValued", cid)])
        if bool(src) != bool(tgt):
            raise SpanInvariantViolated(
                [("HalfDefinedEndpoints", cid)])
        if src:
            edges[cid] = (next(iter(src)), next(iter(tgt)))
        else:
            circles.add(cid)

    # the unglued arcs, copied with their side's prefix; the span check
    # put none of them at the boundary image, which the glue reaches
    amaps = {}
    for side, g_side, _ in sides:
        here = glued[side]
        amap = amaps[side] = {}
        for e, (s, t) in g_side.edges.items():
            if e not in here:
                amap[e] = cid = f"{side}.{e}"
                edges[cid] = (f"{side}.{s}", f"{side}.{t}")
        for o in g_side.circles:
            if o not in here:
                amap[o] = cid = f"{side}.{o}"
                circles.add(cid)
        amap.update(here)

    result = graph(vertices, edges, circles)
    report = validate_graph(result)
    if not report.ok:
        raise SpanInvariantViolated(list(report.errors))

    m_map = morphism(
        left, result,
        {v: f"L.{v}" for v in left.vertices if v != vb_l}, amaps["L"])
    g_map = morphism(
        ctx, result,
        {v: f"C.{v}" for v in ctx.vertices if v != vb_c}, amaps["C"])

    classes_out: Dict[str, Tuple[str, ...]] = dict.fromkeys(
        itertools.chain(result.edges, result.circles), ())
    for e in bedges:  # in id order, so each class's tuple is sorted
        classes_out[glued["L"][span.l.amap[e]]] += (e,)

    rotation = None
    if rots is not None:
        inc = {}
        for f, rs in ((m_map, rots[1]), (g_map, rots[2])):
            for v, w in f.vmap.items():
                inc[w] = tuple(Flag(f.amap[fl.edge], fl.end)
                               for fl in rs.rotation(v))
        rotation = validated_rotation(rotation_system(result, inc))
    return PushoutResult(result, m_map, g_map, classes_out, rotation)


@dataclass(frozen=True)
class ComplementResult:
    context: Graph
    dual_boundary: str
    c: GraphMorphism  # B -> C
    g: GraphMorphism  # C -> G
    solution: PairingGraph
    rotation: Optional[RotationSystem] = None

    def span(self, l: GraphMorphism, b: BoundaryGraph,
             left: Graph) -> PartitioningSpan:
        return PartitioningSpan(b, left, self.context, l, self.c)


def _fresh(base: str, *used) -> str:
    """`base` with "+" appended until it is in none of the `used`."""
    name = base
    while any(name in u for u in used):
        name += "+"
    return name


def pushout_complement(be: BoundaryEmbedding,
                       solution_index: Optional[int] = None,
                       rotations: Rotations = None) -> ComplementResult:
    """Remove the matched region, leaving a context graph over the dual
    boundary, wired up according to the canonical re-pairing solution
    or the `solution_index`-th of all of them.  With `rotations`, keyed
    "boundary", "left" and "host", surviving vertices keep their host
    rotation and the dual boundary takes its rotation from the boundary
    graph through c.

    The embedding is checked as the solution is picked, then the
    rotations; the complement is `_wiring`'s two steps, prepare and
    wire, and the two legs c: B -> C and g: C -> G built from the
    wire's arc tables."""
    rots = role_rotations(rotations, ("boundary", "left", "host"))
    if solution_index is None:
        solution = solve_re_pairing(be)
    else:
        solutions = enumerate_re_pairings(be)
        if not 0 <= solution_index < len(solutions):
            raise SolutionIndexOutOfRange(f"solution index {solution_index} "
                                          f"not in [0, {len(solutions)})")
        solution = solutions[solution_index]
    if rots is not None:
        _check_embedding_rotations(be, rots)
    dual, wire = _wiring(be, rots)
    context, rotation, c_amap, g_amap = wire(solution)
    if rotation is not None:
        validated_rotation(rotation)
    c_map = morphism(be.b.graph, context, {be.b.dual_boundary: dual}, c_amap)
    g_map = morphism(context, be.host,
                     {v: v for v in context.vertices if v != dual}, g_amap)
    return ComplementResult(context, dual, c_map, g_map, solution, rotation)


def _wiring(be: BoundaryEmbedding, rots=None, rest=((), ())):
    """The complement of a checked embedding in two steps: (dual id,
    wire).

    The prepare step, done here once, is what every re-pairing solution
    shares: the survivors, the dual boundary's id, the surviving edges
    and circles, the survivors' host rotations and B's rotation at the
    dual boundary.  `wire(solution)` adds what differs between
    solutions, the red loops at the dual and the edges from the dual to
    the survivors, and returns (context, its rotation or None, c's arc
    table, g's arc table).  A survivor's rotation is its host rotation
    with each flag a new edge maps onto renamed to the new edge's flag;
    the dual's is B's mapped through c.  No morphism or flag table is
    built.

    When be.host is the part of a larger host that m touches, `rest` is
    (vertex ids, arc ids) of the other part: the fresh ids avoid them
    too, so they are the ones the whole host would get."""
    host, b = be.host, be.b
    survivors = host.vertices - set(be.m.vmap.values())
    rest_vertices, rest_arcs = rest
    dual = _fresh(b.dual_boundary, survivors, rest_vertices)
    vertices = survivors | {dual}
    image_arcs = set(be.m.amap.values())
    # matched arcs can touch surviving vertices (a matched self-loop at
    # an unmatched vertex), so filter by arc image, not just endpoints
    kept = {e: (s, t) for e, (s, t) in host.edges.items()
            if e not in image_arcs and s in survivors and t in survivors}
    circles = host.circles - image_arcs
    # the host's edges come in id order, so this table nearly does too,
    # and `morphism` sorts g's arc table in about linear time
    kept_amap = {a: a for a in itertools.chain(kept, circles)}
    if rots is not None:
        host_inc = {v: rots[2].rotation(v) for v in survivors}
        dual_rot = rots[0].rotation(b.dual_boundary)

    # flags by `tuple.__new__`, as `Graph.incidence` builds them
    flag = tuple.__new__

    def wire(solution: PairingGraph):
        edges = dict(kept)
        c_amap: Dict[str, str] = {}
        g_amap = dict(kept_amap)
        renamed: Dict[Flag, Flag] = {}  # host flag -> context flag
        for neg, pos in sorted(solution.red):
            loop = _fresh(min(neg, pos), edges, circles, rest_arcs)
            edges[loop] = (dual, dual)
            c_amap[neg] = loop
            c_amap[pos] = loop
            g_amap[loop] = be.image_arc(neg)
        for e in red_unmatched_nodes(solution):
            new = _fresh(e, edges, circles, rest_arcs)
            a = be.image_arc(e)
            if solution.polarity[e] == POS:
                edges[new] = (host.source(a), dual)
                renamed[flag(Flag, (a, SRC))] = flag(Flag, (new, SRC))
            else:
                edges[new] = (dual, host.target(a))
                renamed[flag(Flag, (a, TGT))] = flag(Flag, (new, TGT))
            c_amap[e] = new
            g_amap[new] = a
        context = graph(vertices, edges, circles)
        rotation = None
        if rots is not None:
            inc = {v: tuple(renamed.get(fl, fl) for fl in fls)
                   for v, fls in host_inc.items()}
            inc[dual] = tuple(flag(Flag, (c_amap[fl.edge], fl.end))
                              for fl in dual_rot)
            rotation = rotation_system(context, inc)
        return context, rotation, c_amap, g_amap

    return dual, wire


def classify_re_pairings(be: BoundaryEmbedding, rotations: Rotations
                         ) -> List[Tuple[PairingGraph, SurfaceReport]]:
    """Every re-pairing solution together with the genus report of its
    rotation-equipped complement, in deterministic order.

    The embedding is checked once by the enumeration, then the rotation
    data once; `genus_report` validates each solution's constructed
    rotation once, and reads the host rotation's cached report.

    Solutions differ only on the host components that m touches, and
    Euler's formula holds per component.  So the host is reported once,
    from its own rotation, and its component reports are split into the
    touched ones, which meet m's vertex or arc image, and the kept ones.
    The touched part is prepared once (`_wiring`), and every solution is
    wired on it and reported there, with the kept reports merged in as
    the same objects: O(host) once, then O(touched part + boundary
    edges) per solution, one morphism per call (m onto the touched
    part) and no flag table."""
    rots = role_rotations(rotations or {}, ("boundary", "left", "host"))
    solutions = enumerate_re_pairings(be)
    _check_embedding_rotations(be, rots)
    vimg, aimg = set(be.m.vmap.values()), set(be.m.amap.values())
    touched, kept = [], []
    for c in genus_report(rots[2]).components:
        (kept if vimg.isdisjoint(c.vertices) and aimg.isdisjoint(c.arcs)
         else touched).append(c)
    host = be.host
    vertices, arcs = _ids(touched)
    part = graph(vertices, {a: host.edges[a] for a in arcs if a in host.edges},
                 arcs.intersection(host.circles))
    local_be = BoundaryEmbedding(be.b, be.left, part, be.l,
                                 morphism(be.left, part, be.m.vmap, be.m.amap))
    # the wire reads host rotations at touched survivors only
    _, wire = _wiring(local_be, rots, _ids(kept))
    kept = tuple(kept)
    out = []
    for s in solutions:
        local = genus_report(wire(s)[1])
        # connected_components order: by least vertex, then circles
        out.append((s, _surface(sorted(
            local.components + kept,
            key=lambda c: (0, c.vertices[0]) if c.vertices
            else (1, c.arcs[0])))))
    return out


def _ids(reports) -> Tuple[set, set]:
    """(vertex ids, arc ids) of the components `reports` describe."""
    return (set(itertools.chain.from_iterable(c.vertices for c in reports)),
            set(itertools.chain.from_iterable(c.arcs for c in reports)))


@dataclass(frozen=True)
class RewriteTrace:
    complement: ComplementResult  # carries the re-pairing solution
    result_pushout: PushoutResult


def rewrite(rule: RewriteRule, host: Graph, match: GraphMorphism,
            solution_index: Optional[int] = None,
            rotations: Rotations = None) -> Tuple[Graph, RewriteTrace]:
    """One DPO step: `pushout_complement` of the match, then `pushout`
    of the span (B, R, C, r, c).  Returns (result graph, trace).

    The rule is checked first, and both refusals, of the rule and of
    the match, are `BoundaryEmbeddingInvariantViolated`.  With
    `rotations`, keyed "boundary", "left", "right" and "host", every
    role is asked for before anything is built; the complement takes
    the boundary, left and host rotations, and the span the boundary,
    right and context ones.
    """
    role_rotations(rotations, ("boundary", "left", "host", "right"))
    errors = validate_rule(rule)
    if errors:
        raise BoundaryEmbeddingInvariantViolated(errors)
    be = BoundaryEmbedding(rule.b, rule.left, host, rule.l, match)
    comp = pushout_complement(be, solution_index, rotations)
    span_rots = None if rotations is None else {
        "boundary": rotations["boundary"], "left": rotations["right"],
        "context": comp.rotation}
    po = pushout(PartitioningSpan(rule.b, rule.right, comp.context, rule.r,
                                  comp.c), span_rots)
    return po.graph, RewriteTrace(comp, po)


def iso_check(g1: Graph, g2: Graph):
    """Search for an isomorphism preserving sources and targets.

    Exhaustive backtracking with degree-signature pruning; intended for
    desk-scale graphs, hence the `ISO_MAX_VERTICES` cap.  g1 is searched
    breadth-first from each component's least (signature, id) vertex; a
    vertex with a mapped BFS parent tries only the neighbours of the
    parent's image, and a candidate is tested against its mapped
    neighbours only.  Returns (vmap, amap) or None.
    """
    if max(len(g1.vertices), len(g2.vertices)) > ISO_MAX_VERTICES:
        raise SizeLimitExceeded(f"more than {ISO_MAX_VERTICES} vertices")
    if (len(g1.vertices) != len(g2.vertices)
            or len(g1.edges) != len(g2.edges)
            or len(g1.circles) != len(g2.circles)):
        return None

    def profile(g: Graph):
        """(vertex -> (out, in, loops), pair -> count, neighbours)."""
        sig = {v: [0, 0, 0] for v in g.vertices}
        counts: Dict[Tuple[str, str], int] = {}
        near = {v: set() for v in g.vertices}
        for s, t in g.edges.values():
            counts[(s, t)] = counts.get((s, t), 0) + 1
            if s in sig:
                sig[s][0] += 1
            if t in sig:
                sig[t][1] += 1
                if s == t:
                    sig[t][2] += 1
            if s != t and s in near and t in near:
                near[s].add(t)
                near[t].add(s)
        return ({v: tuple(x) for v, x in sig.items()}, counts,
                {v: sorted(ns) for v, ns in near.items()})

    sig1, counts1, near1 = profile(g1)
    sig2, counts2, near2 = profile(g2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None

    order: List[str] = []
    parent: Dict[str, Optional[str]] = {}
    for root in sorted(g1.vertices, key=lambda v: (sig1[v], v)):
        if root in parent:
            continue
        parent[root] = None
        i = len(order)
        order.append(root)
        while i < len(order):
            for u in near1[order[i]]:
                if u not in parent:
                    parent[u] = order[i]
                    order.append(u)
            i += 1
    candidates = sorted(g2.vertices)
    vmap: Dict[str, str] = {}
    preimage: Dict[str, str] = {}

    def consistent(v, w):
        # Edge-pair counts with mapped neighbours must match, and a
        # mapped neighbour of w must be the image of a neighbour of v;
        # the signatures already agree on self-loops.
        for u in near1[v]:
            x = vmap.get(u)
            if x is not None and (
                    counts1.get((u, v), 0) != counts2.get((x, w), 0)
                    or counts1.get((v, u), 0) != counts2.get((w, x), 0)):
                return False
        for x in near2[w]:
            u = preimage.get(x)
            if u is not None and u not in near1[v]:
                return False
        return True

    def backtrack(i):
        if i == len(order):
            return True
        v = order[i]
        p = parent[v]
        for w in candidates if p is None else near2[vmap[p]]:
            if w in preimage or sig2[w] != sig1[v]:
                continue
            if not consistent(v, w):
                continue
            vmap[v] = w
            preimage[w] = v
            if backtrack(i + 1):
                return True
            del vmap[v]
            del preimage[w]
        return False

    if not backtrack(0):
        return None

    amap: Dict[str, str] = {}
    buckets: Dict[Tuple[str, str], List[str]] = {}
    for e, ends in g2.edges.items():
        buckets.setdefault(ends, []).append(e)
    for e, (s, t) in g1.edges.items():
        amap[e] = buckets[(vmap[s], vmap[t])].pop(0)
    for o1, o2 in zip(g1.sorted_circles(), g2.sorted_circles()):
        amap[o1] = o2
    return dict(sorted(vmap.items())), amap
