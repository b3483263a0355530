"""Rotation systems: cyclic flag orders, face tracing, genus,
rotation-aware pushouts and complements, and the DPO rewrite step,
which carries rotations through both squares when given them.

A rotation system fixes, at every vertex, a cyclic order of the
incident flags, which determines an embedding of each connected
component into a minimal orientable surface.  Cyclic sequences compare
equal up to rotation only, never reflection: reflecting reverses the
orientation and can change the genus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .graph import (
    SRC,
    TGT,
    Flag,
    Graph,
    ValidationReport,
    connected_components,
    flags_at,
    validate_graph,
)
from .morphism import GraphMorphism, flag_map
from .boundary import (
    BoundaryEmbedding,
    BoundaryGraph,
    PairingGraph,
    PartitioningSpan,
    enumerate_re_pairings,
    validate_boundary_embedding,
)
from .dpo import (
    ComplementResult,
    NotABoundaryEmbedding,
    PushoutResult,
    RewriteRule,
    _complement,
    _pick,
    pushout,
    pushout_complement,
    validate_rule,
)


class RotationError(Exception):
    pass


@dataclass(frozen=True)
class RotationSystem:
    """A graph together with a cyclic flag order at every vertex."""

    graph: Graph
    inc: Mapping[str, Tuple[Flag, ...]]

    def rotation(self, v: str) -> Tuple[Flag, ...]:
        return tuple(self.inc.get(v, ()))


def rotation_system(g: Graph, inc: Mapping[str, Sequence[Flag]]) -> RotationSystem:
    return RotationSystem(g, {v: tuple(fls) for v, fls in sorted(inc.items())})


def cyclic_equal(a: Sequence, b: Sequence) -> bool:
    """Equality of cyclic sequences up to rotation (not reflection)."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        return False
    if not a:
        return True
    return any(a == b[i:] + b[:i] for i in range(len(b)))


def validate_rotation(rs: RotationSystem) -> ValidationReport:
    """Every flag appears exactly once at its vertex, and nothing else."""
    errors = list(validate_graph(rs.graph).errors)
    for v in rs.graph.sorted_vertices():
        expected = flags_at(rs.graph, v)
        listed = rs.rotation(v)
        seen = set()
        for fl in listed:
            if fl in seen:
                errors.append(("DuplicateFlag", f"{v}: {fl}"))
            seen.add(fl)
        for fl in sorted(expected - seen):
            errors.append(("MissingFlag", f"{v}: {fl}"))
        for fl in sorted(seen - expected):
            errors.append(("ExtraFlag", f"{v}: {fl}"))
    for v in sorted(set(rs.inc) - set(rs.graph.vertices)):
        errors.append(("ExtraFlag", f"rotation at unknown vertex {v}"))
    return ValidationReport(tuple(errors))


def check_rot_morphism(f: GraphMorphism, dom: RotationSystem,
                       cod: RotationSystem) -> bool:
    """Rotation preservation: wherever the vertex map is defined, the
    mapped rotation equals the codomain rotation up to rotation."""
    fm = flag_map(f)
    for v in sorted(f.vmap):
        mapped = []
        for fl in dom.rotation(v):
            if fl not in fm:
                return False
            mapped.append(fm[fl])
        if not cyclic_equal(mapped, cod.rotation(f.vmap[v])):
            return False
    return True


def _relabel_rotation(rot: Tuple[Flag, ...], f: GraphMorphism) -> Tuple[Flag, ...]:
    return tuple(Flag(f.amap[fl.edge], fl.end) for fl in rot)


def rot_pushout(span: PartitioningSpan, rot_b: RotationSystem,
                rot_left: RotationSystem, rot_context: RotationSystem
                ) -> Tuple[PushoutResult, RotationSystem]:
    """Underlying pushout with rotations carried over from whichever
    side each surviving vertex came from."""
    for rs, g in ((rot_b, span.b.graph), (rot_left, span.left),
                  (rot_context, span.context)):
        if rs.graph != g or not validate_rotation(rs).ok:
            raise RotationError("invalid rotation data for span")
    if not check_rot_morphism(span.l, rot_b, rot_left):
        raise RotationError("left leg does not preserve rotations")
    if not check_rot_morphism(span.c, rot_b, rot_context):
        raise RotationError("context leg does not preserve rotations")

    po = pushout(span)
    inc: Dict[str, Tuple[Flag, ...]] = {}
    for v, w in po.m.vmap.items():
        inc[w] = _relabel_rotation(rot_left.rotation(v), po.m)
    for v, w in po.g.vmap.items():
        inc[w] = _relabel_rotation(rot_context.rotation(v), po.g)
    rs = rotation_system(po.graph, inc)
    report = validate_rotation(rs)
    if not report.ok:
        raise RotationError(report.errors)
    return po, rs


def rot_complement(be: BoundaryEmbedding, rot_b: RotationSystem,
                   rot_left: RotationSystem, rot_host: RotationSystem,
                   solution: Optional[PairingGraph] = None
                   ) -> Tuple[ComplementResult, RotationSystem]:
    """Complement whose surviving vertices keep the host rotations and
    whose dual boundary takes its rotation exactly from the boundary
    graph through c."""
    _check_embedding_rotations(be, rot_b, rot_left, rot_host)
    comp = pushout_complement(be, solution)
    rs = _context_rotation(be, comp, rot_b, rot_host)
    report = validate_rotation(rs)
    if not report.ok:
        raise RotationError(report.errors)
    return comp, rs


def _check_embedding_rotations(be: BoundaryEmbedding, rot_b: RotationSystem,
                               rot_left: RotationSystem,
                               rot_host: RotationSystem) -> None:
    for rs, g in ((rot_b, be.b.graph), (rot_left, be.left),
                  (rot_host, be.host)):
        if rs.graph != g or not validate_rotation(rs).ok:
            raise RotationError("invalid rotation data for boundary embedding")
    if not check_rot_morphism(be.l, rot_b, rot_left):
        raise RotationError("l does not preserve rotations")
    if not check_rot_morphism(be.m, rot_left, rot_host):
        raise RotationError("m does not preserve rotations")


def _context_rotation(be: BoundaryEmbedding, comp: ComplementResult,
                      rot_b: RotationSystem,
                      rot_host: RotationSystem) -> RotationSystem:
    """The complement's rotation system, built from checked inputs and
    not yet validated."""
    inc: Dict[str, Tuple[Flag, ...]] = {}
    g_fm = flag_map(comp.g)
    inv: Dict[Flag, Flag] = {w: fl for fl, w in g_fm.items()}
    for v in comp.g.vmap:  # surviving host vertices keep their rotation
        host_rot = rot_host.rotation(comp.g.vmap[v])
        inc[v] = tuple(inv[fl] for fl in host_rot)
    c_fm = flag_map(comp.c)
    inc[comp.dual_boundary] = tuple(
        c_fm[fl] for fl in rot_b.rotation(be.b.dual_boundary))
    return rotation_system(comp.context, inc)


Dart = Tuple[str, str]  # (edge, "fwd" | "rev")
FWD = "fwd"
REV = "rev"


def trace_faces(rs: RotationSystem) -> List[Tuple[Dart, ...]]:
    """Orbits of the next-dart permutation.

    A dart is a directed traversal of an edge; on arrival its flag's
    successor in the rotation tells which dart leaves next.  Each of the
    two darts of every edge lies in exactly one face walk.  Circles are
    not traced here; see `genus_report` for their face convention.
    """
    report = validate_rotation(rs)
    if not report.ok:
        raise RotationError(report.errors)
    g = rs.graph
    position: Dict[Flag, Tuple[str, int]] = {}
    for v in g.sorted_vertices():
        for i, fl in enumerate(rs.rotation(v)):
            position[fl] = (v, i)

    def next_dart(d: Dart) -> Dart:
        e, direction = d
        v, i = position[Flag(e, TGT if direction == FWD else SRC)]
        rot = rs.rotation(v)
        nxt = rot[(i + 1) % len(rot)]
        return (nxt.edge, FWD if nxt.end == SRC else REV)

    todo = [(e, direction) for e in g.sorted_edges() for direction in (FWD, REV)]
    seen = set()
    faces = []
    for start in todo:
        if start in seen:
            continue
        walk = []
        d = start
        while d not in seen:
            seen.add(d)
            walk.append(d)
            d = next_dart(d)
        faces.append(tuple(walk))
    return faces


@dataclass(frozen=True)
class ComponentReport:
    vertices: Tuple[str, ...]
    arcs: Tuple[str, ...]
    vertex_count: int
    edge_count: int
    circle_count: int
    face_count: int
    euler_characteristic: int
    genus: int


@dataclass(frozen=True)
class SurfaceReport:
    components: Tuple[ComponentReport, ...]
    max_genus: int
    is_planar: bool
    embedding_underdetermined: bool


def genus_report(rs: RotationSystem) -> SurfaceReport:
    """Per-component face count, Euler characteristic and genus.

    A circle contributes two faces and nothing to V or E (equivalent to
    subdividing it with one anonymous vertex); an isolated vertex bounds
    a single face.  Multi-component inputs are flagged as underdetermined:
    rotations alone do not fix a disconnected embedding.
    """
    faces = trace_faces(rs)
    g = rs.graph
    comps = connected_components(g)
    reports = []
    for vs, arcs in comps:
        edge_count = sum(1 for a in arcs if g.is_edge(a))
        circle_count = len(arcs) - edge_count
        if circle_count:
            face_count = 2 * circle_count
        elif edge_count == 0:
            face_count = 1
        else:
            face_count = sum(
                1 for walk in faces if walk[0][0] in arcs)
        chi = len(vs) - edge_count + face_count
        if (2 - chi) % 2 != 0:
            raise RotationError(f"OddEulerDefect: chi={chi}")
        genus = (2 - chi) // 2
        if genus < 0:
            raise RotationError("negative genus from a valid rotation system")
        reports.append(ComponentReport(
            vertices=tuple(sorted(vs)),
            arcs=tuple(sorted(arcs)),
            vertex_count=len(vs),
            edge_count=edge_count,
            circle_count=circle_count,
            face_count=face_count,
            euler_characteristic=chi,
            genus=genus,
        ))
    max_genus = max((r.genus for r in reports), default=0)
    return SurfaceReport(
        components=tuple(reports),
        max_genus=max_genus,
        is_planar=all(r.genus == 0 for r in reports),
        embedding_underdetermined=len(reports) > 1,
    )


def classify_re_pairings(be: BoundaryEmbedding, rot_b: RotationSystem,
                         rot_left: RotationSystem, rot_host: RotationSystem,
                         planar_only: bool = False):
    """Every re-pairing solution together with the genus report of its
    rotation-equipped complement, in deterministic order.

    The embedding is checked once by the enumeration, then the rotation
    data once; each solution then runs through the unchecked complement
    core, and `genus_report` validates its constructed rotation once."""
    solutions = enumerate_re_pairings(be)
    _check_embedding_rotations(be, rot_b, rot_left, rot_host)
    out = []
    for solution in solutions:
        rs = _context_rotation(be, _complement(be, solution), rot_b, rot_host)
        report = genus_report(rs)
        if planar_only and not report.is_planar:
            continue
        out.append((solution, report))
    return out


@dataclass(frozen=True)
class RewriteTrace:
    boundary: BoundaryGraph
    match: GraphMorphism
    solution: PairingGraph
    complement: ComplementResult
    result_pushout: PushoutResult
    context_rotation: Optional[RotationSystem] = None
    result_rotation: Optional[RotationSystem] = None


def rewrite(rule: RewriteRule, host: Graph, match: GraphMorphism,
            solution_index: Optional[int] = None,
            rotations: Optional[Mapping[str, RotationSystem]] = None):
    """One DPO step: complement of the match, then pushout against the
    right-hand side.  Returns (result graph, trace).

    The rule and the embedding are checked once and the re-pairing
    solution is picked once (`dpo.pick_solution`).  With `rotations`,
    keyed "boundary", "left", "right" and "host", the context takes its
    rotation as in `rot_complement` and the result as in `rot_pushout`,
    which validates the context rotation.
    """
    be = BoundaryEmbedding(rule.b, rule.left, host, rule.l, match)
    errors = validate_rule(rule) + validate_boundary_embedding(be)
    if errors:
        raise NotABoundaryEmbedding(errors)
    solution = _pick(be, solution_index)
    if rotations is not None:
        rot_b, rot_host = rotations["boundary"], rotations["host"]
        _check_embedding_rotations(be, rot_b, rotations["left"], rot_host)
    comp = _complement(be, solution)
    right_span = PartitioningSpan(rule.b, rule.right, comp.context,
                                  rule.r, comp.c)
    if rotations is None:
        po, rs_ctx, rs_out = pushout(right_span), None, None
    else:
        rs_ctx = _context_rotation(be, comp, rot_b, rot_host)
        po, rs_out = rot_pushout(right_span, rot_b, rotations["right"],
                                 rs_ctx)
    trace = RewriteTrace(rule.b, match, solution, comp, po, rs_ctx, rs_out)
    return po.graph, trace
