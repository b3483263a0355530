"""Morphisms and embeddings of graphs with circles.

A morphism carries a partial vertex map (a finite table; absent keys
mean undefined) and a total arc map.  Validity is *checked*, never
assumed: `classify` decides whether the data forms a morphism, an
embedding, or neither, and reports every violated condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from .graph import SRC, TGT, Flag, Graph, flags_at, graph

INVALID = "invalid"
MORPHISM = "morphism"
EMBEDDING = "embedding"


class MorphismError(Exception):
    pass


class DomainMismatch(MorphismError):
    pass


@dataclass(frozen=True)
class GraphMorphism:
    dom: Graph
    cod: Graph
    vmap: Mapping[str, str]
    amap: Mapping[str, str]

    def v(self, x: str) -> Optional[str]:
        return self.vmap.get(x)

    def a(self, x: str) -> Optional[str]:
        return self.amap.get(x)

    def key(self):
        return (tuple(sorted(self.vmap.items())), tuple(sorted(self.amap.items())))


def morphism(dom: Graph, cod: Graph, vmap=None, amap=None) -> GraphMorphism:
    return GraphMorphism(dom, cod, dict(sorted((vmap or {}).items())),
                         dict(sorted((amap or {}).items())))


def identity(g: Graph) -> GraphMorphism:
    return morphism(g, g, {v: v for v in g.vertices}, {a: a for a in g.arcs()})


@dataclass(frozen=True)
class MorphismClass:
    kind: str  # INVALID, MORPHISM or EMBEDDING
    violations: Tuple[Tuple[str, str], ...] = ()

    @property
    def is_morphism(self) -> bool:
        return self.kind in (MORPHISM, EMBEDDING)

    @property
    def is_embedding(self) -> bool:
        return self.kind == EMBEDDING

    def codes(self) -> Tuple[str, ...]:
        return tuple(code for code, _ in self.violations)


def flag_map(f: GraphMorphism) -> Dict[Flag, Flag]:
    """The induced partial map on flags.

    Defined on (e, end) exactly when the vertex map is defined on the
    endpoint of that flag; the value keeps the end tag, which is what
    makes the map well-defined on self-loops.
    """
    out: Dict[Flag, Flag] = {}
    for e in f.dom.sorted_edges():
        s, t = f.dom.edges[e]
        img = f.a(e)
        for end, v in ((SRC, s), (TGT, t)):
            if f.v(v) is not None and img is not None and f.cod.is_edge(img):
                out[Flag(e, end)] = Flag(img, end)
    return out


def _lax_violations(f: GraphMorphism):
    """Lax naturality of source/target against the arc map."""
    out = []
    for e in f.dom.sorted_edges():
        img = f.a(e)
        if img is None:
            continue
        for end in (SRC, TGT):
            v = f.dom.source(e) if end == SRC else f.dom.target(e)
            fv = f.v(v)
            if fv is None:
                continue
            if not f.cod.is_edge(img):
                out.append(("LaxNaturalityBroken",
                            f"edge {e} maps to circle {img} but vertex map is "
                            f"defined on its {end}"))
                continue
            w = f.cod.source(img) if end == SRC else f.cod.target(img)
            if w != fv:
                out.append(("LaxNaturalityBroken",
                            f"edge {e}.{end}: {w} != {fv}"))
    return out


def is_flag_injective(f: GraphMorphism) -> bool:
    fm = flag_map(f)
    return len(set(fm.values())) == len(fm)


def is_flag_surjective(f: GraphMorphism) -> bool:
    """Preimage-containment form: for defined v, the flags at f(v) are
    covered by the images of the flags at v."""
    return not _surjectivity_failures(f, flag_map(f))


def _surjectivity_failures(f: GraphMorphism, fm: Dict[Flag, Flag]):
    out = []
    for v in f.dom.sorted_vertices():
        fv = f.v(v)
        if fv not in f.cod.vertices:  # undefined, or a bad entry
            continue
        image = {fm[fl] for fl in flags_at(f.dom, v) if fl in fm}
        missing = flags_at(f.cod, fv) - image
        if missing:
            out.append((v, tuple(sorted(missing))))
    return out


def is_flag_bijective(f: GraphMorphism) -> bool:
    return is_flag_injective(f) and is_flag_surjective(f)


def classify(f: GraphMorphism) -> MorphismClass:
    """Decide morphism/embedding status, reporting all violations."""
    violations = []

    dom_arcs = set(f.dom.arcs())
    for a in sorted(dom_arcs):
        img = f.a(a)
        if img is None or (img not in f.cod.edges
                           and img not in f.cod.circles):
            violations.append(("NotTotalOnArcs", f"arc {a} has no image"))
    for a in sorted(f.amap):
        if a not in dom_arcs:
            violations.append(("NotTotalOnArcs", f"spurious arc {a} in map"))
    for v in sorted(f.vmap):
        if v not in f.dom.vertices or f.vmap[v] not in f.cod.vertices:
            violations.append(("NotTotalOnArcs", f"bad vertex entry {v}"))

    for o in f.dom.sorted_circles():
        img = f.a(o)
        if img is not None and f.cod.is_edge(img):
            violations.append(("CircleToEdge", f"circle {o} maps to edge {img}"))

    violations.extend(_lax_violations(f))

    fm = flag_map(f)
    for v, missing in _surjectivity_failures(f, fm):
        violations.append(("NotFlagSurjective",
                           f"vertex {v}: uncovered flags "
                           + ",".join(str(m) for m in missing)))

    if violations:
        return MorphismClass(INVALID, tuple(violations))

    # Embedding conditions: reported but not fatal to morphism-hood.
    emb_violations = []
    seen = {}
    for v in sorted(f.vmap):
        w = f.vmap[v]
        if w in seen:
            emb_violations.append(("VertexMapNotInjective", f"{seen[w]},{v} -> {w}"))
        seen[w] = v
    oimg = {}
    for o in f.dom.sorted_circles():
        img = f.a(o)
        if img in oimg:
            emb_violations.append(("CircleMapNotInjective", f"{oimg[img]},{o} -> {img}"))
        oimg[img] = o
    vals = {}
    for fl in sorted(fm):
        img = fm[fl]
        if img in vals:
            emb_violations.append(("NotFlagInjective", f"{vals[img]},{fl} -> {img}"))
        vals[img] = fl

    if emb_violations:
        return MorphismClass(MORPHISM, tuple(emb_violations))
    return MorphismClass(EMBEDDING)


def compose(g: GraphMorphism, f: GraphMorphism) -> GraphMorphism:
    """The pointwise composite g . f; requires f.cod = g.dom."""
    if f.cod != g.dom:
        raise DomainMismatch("codomain of f is not the domain of g")
    vmap = {v: g.vmap[w] for v, w in f.vmap.items() if w in g.vmap}
    amap = {a: g.amap[b] for a, b in f.amap.items() if b in g.amap}
    return morphism(f.dom, g.cod, vmap, amap)


def forget_to_b(f: GraphMorphism):
    """Drop circles and circle-valued components, landing in the category
    of partial graphs and flag maps.

    Returns ((dom graph, cod graph), vmap, edge-only map).
    """
    dom = graph(f.dom.vertices, dict(f.dom.edges))
    cod = graph(f.cod.vertices, dict(f.cod.edges))
    emap = {
        e: img
        for e, img in f.amap.items()
        if f.dom.is_edge(e) and f.cod.is_edge(img)
    }
    return (dom, cod), dict(f.vmap), dict(sorted(emap.items()))
