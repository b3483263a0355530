"""Rotation systems: cyclic flag orders, rotation-preserving
morphisms, face tracing and genus, and the checks on rotations keyed by
role.  The rewriting engine (`dpo`) and the matcher carry these through
their constructions; this module knows nothing of rewriting.

A rotation system fixes, at every vertex, a cyclic order of the
incident flags, which determines an embedding of each connected
component into a minimal orientable surface.  Cyclic sequences compare
equal up to rotation only, never reflection: reflecting reverses the
orientation and can change the genus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


class RotationError(Exception):
    pass


@dataclass(frozen=True)
class RotationSystem:
    """A graph together with a cyclic flag order at every vertex.

    `inc` is never written after construction, so the rotation's
    validity is computed once: `report` is `validate_rotation(self)`,
    built on first use and kept on this instance, as `Graph.incidence`
    is.  It is not a dataclass field, so equality and repr ignore it.
    """

    graph: Graph
    inc: Mapping[str, Tuple[Flag, ...]]

    @cached_property
    def report(self) -> ValidationReport:
        return validate_rotation(self)

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
    for v in rs.graph.vertices:
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
    for v in f.vmap:
        mapped = []
        for fl in dom.rotation(v):
            if fl not in fm:
                return False
            mapped.append(fm[fl])
        if not cyclic_equal(mapped, cod.rotation(f.vmap[v])):
            return False
    return True


# rotation systems keyed by role: "boundary", "left", "host" and so on
Rotations = Optional[Mapping[str, Optional[RotationSystem]]]


def role_rotations(rotations: Rotations,
                   roles) -> Optional[Tuple[RotationSystem, ...]]:
    """The rotation systems of `roles`, in order, or None without
    rotations.  Every entry that takes rotations calls this first."""
    if rotations is None:
        return None
    missing = sorted(r for r in roles if rotations.get(r) is None)
    if missing:
        raise RotationError("rotations required on: " + ", ".join(missing))
    return tuple(rotations[r] for r in roles)


def check_rotations(what: str, rots, graphs, legs) -> None:
    """Each rotation system is valid on its graph, and each leg (name,
    morphism, domain index, codomain index) preserves them."""
    for rs, g in zip(rots, graphs):
        if rs.graph != g or not rs.report.ok:
            raise RotationError(f"invalid rotation data for {what}")
    for name, f, i, j in legs:
        if not check_rot_morphism(f, rots[i], rots[j]):
            raise RotationError(f"{name} does not preserve rotations")


def validated_rotation(rs: RotationSystem) -> RotationSystem:
    """`rs`, once its cached `validate_rotation` report passes it."""
    report = rs.report
    if not report.ok:
        raise RotationError(report.errors)
    return rs


Dart = Tuple[str, str]  # (edge, "fwd" | "rev")
FWD = "fwd"
REV = "rev"


def trace_faces(rs: RotationSystem) -> List[Tuple[Dart, ...]]:
    """Orbits of the next-dart permutation.

    A dart is a directed traversal of an edge; on arrival its flag's
    successor in the rotation tells which dart leaves next.  Each of the
    two darts of every edge lies in exactly one face walk.  Circles are
    not traced here; see `genus_report` for their face convention.

    The permutation is built once as a table, from the dart arriving at
    each flag to the dart leaving by its successor, and every face walk
    takes its darts out of the table.
    """
    g = validated_rotation(rs).graph
    step: Dict[Dart, Dart] = {}
    for v in g.vertices:
        rot = rs.rotation(v)
        for fl, nxt in zip(rot, rot[1:] + rot[:1]):
            step[(fl.edge, FWD if fl.end == TGT else REV)] = (
                nxt.edge, FWD if nxt.end == SRC else REV)
    faces = []
    for e in g.edges:
        for d in ((e, FWD), (e, REV)):
            walk = []
            while d in step:
                walk.append(d)
                d = step.pop(d)
            if walk:
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
    # one pass buckets every face walk by the component of its first edge
    comp_of = {a: i for i, (_, arcs) in enumerate(comps) for a in arcs}
    walks = [0] * len(comps)
    for walk in faces:
        walks[comp_of[walk[0][0]]] += 1
    reports = []
    for i, (vs, arcs) in enumerate(comps):
        edge_count = sum(1 for a in arcs if g.is_edge(a))
        circle_count = len(arcs) - edge_count
        if circle_count:
            face_count = 2 * circle_count
        elif edge_count == 0:
            face_count = 1
        else:
            face_count = walks[i]
        chi = len(vs) - edge_count + face_count
        if (2 - chi) % 2 != 0:
            raise RotationError(f"OddEulerDefect: chi={chi}")
        genus = (2 - chi) // 2
        if genus < 0:
            raise RotationError("negative genus from a valid rotation system")
        reports.append(ComponentReport(
            vertices=tuple(vs),
            arcs=tuple(arcs),
            vertex_count=len(vs),
            edge_count=edge_count,
            circle_count=circle_count,
            face_count=face_count,
            euler_characteristic=chi,
            genus=genus,
        ))
    return _surface(reports)


def _surface(reports: Sequence[ComponentReport]) -> SurfaceReport:
    """The surface report of per-component reports, kept in order."""
    return SurfaceReport(
        components=tuple(reports),
        max_genus=max((r.genus for r in reports), default=0),
        is_planar=all(r.genus == 0 for r in reports),
        embedding_underdetermined=len(reports) > 1,
    )
