"""Morphisms and embeddings of graphs with circles.

A morphism carries a partial vertex map (a finite table; absent keys
mean undefined) and a total arc map.  Validity is *checked*, never
assumed: `classify` decides whether the data forms a morphism, an
embedding, or neither, and reports every violated condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from .graph import SRC, TGT, Flag, Graph

INVALID = "invalid"
MORPHISM = "morphism"
EMBEDDING = "embedding"


class MorphismError(Exception):
    pass


class DomainMismatch(MorphismError):
    pass


@dataclass(frozen=True)
class GraphMorphism:
    """A partial vertex map and a total arc map from `dom` to `cod`.

    Immutable after construction, like `Graph`: nothing writes into
    `vmap` or `amap` once `morphism` has built them.  Only `morphism`
    builds one, and it stores both maps in id order, as `graph` stores
    a graph's edges, so every reader iterates them as stored and none
    sorts them again.  The flag map, the flag-surjectivity failures and
    the classification are derived from them on first use and kept on
    this instance, as `Graph.incidence` is, and so is its image under
    `forget_to_b`; they are not dataclass fields, so equality, repr and
    serialization do not see them.
    """

    dom: Graph
    cod: Graph
    vmap: Mapping[str, str]
    amap: Mapping[str, str]

    def v(self, x: str) -> Optional[str]:
        return self.vmap.get(x)

    def key(self):
        return (tuple(self.vmap.items()), tuple(self.amap.items()))

    @cached_property
    def _flags(self):
        return _flag_table(self)

    @cached_property
    def _uncovered(self):
        return _surjectivity_failures(self)

    @cached_property
    def _class(self):
        return _classify(self)

    @cached_property
    def _forgotten(self):
        return _forget(self)


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


def _flag_table(f: GraphMorphism):
    """The flag map, read-only, the lax-naturality violations of the
    source/target maps against the arc map, and whether the map is
    injective, built together in one walk over the domain's edges.  The
    map's keys come out in flag order: edges in id order, each with its
    source end first."""
    fm: Dict[Flag, Flag] = {}
    lax = []
    vmap, cod_edges = f.vmap, f.cod.edges
    new = tuple.__new__
    for e, ends in f.dom.edges.items():
        img = f.amap.get(e)
        if img is None:
            continue
        img_ends = cod_edges.get(img)
        for end, v, w in zip((SRC, TGT), ends, img_ends or (None, None)):
            fv = vmap.get(v)
            if fv is None:
                continue
            if img_ends is None:
                lax.append(("LaxNaturalityBroken",
                            f"edge {e} maps to circle {img} but vertex map "
                            f"is defined on its {end}"))
                continue
            # as in Graph.incidence: a Flag without its Python __new__
            fm[new(Flag, (e, end))] = new(Flag, (img, end))
            if w != fv:
                lax.append(("LaxNaturalityBroken", f"edge {e}.{end}: {w} != {fv}"))
    injective = len(set(fm.values())) == len(fm)
    return MappingProxyType(fm), tuple(lax), injective


def flag_map(f: GraphMorphism) -> Mapping[Flag, Flag]:
    """The induced partial map on flags, as a read-only view.

    Defined on (e, end) exactly when the vertex map is defined on the
    endpoint of that flag; the value keeps the end tag, which is what
    makes the map well-defined on self-loops.
    """
    return f._flags[0]


def is_flag_injective(f: GraphMorphism) -> bool:
    return f._flags[2]


def is_flag_surjective(f: GraphMorphism) -> bool:
    """Preimage-containment form: for defined v, the flags at f(v) are
    covered by the images of the flags at v."""
    return not f._uncovered


def _surjectivity_failures(f: GraphMorphism):
    """(v, uncovered flags at f(v), in flag order) for each vertex v of
    the domain, in id order, that maps into the codomain.

    The flags at the image vertices are read in one pass over the
    codomain's edges, in the order `Graph.incidence` lists them, and
    the codomain's incidence is not built: a leg onto one vertex of a
    large graph costs one scan, not a flag table for every vertex."""
    fm = flag_map(f)
    dom, cod = f.dom, f.cod
    hits = [(v, fv) for v, fv in f.vmap.items()
            if v in dom.vertices and fv in cod.vertices]  # no bad entry
    if not hits:
        return ()
    at = {fv: [] for _, fv in hits}
    new = tuple.__new__
    for e, (s, t) in cod.edges.items():
        if s in at:
            at[s].append(new(Flag, (e, SRC)))
        if t in at:
            at[t].append(new(Flag, (e, TGT)))
    out = []
    for v, fv in hits:
        image = {fm[fl] for fl in dom.incidence[v] if fl in fm}
        missing = [fl for fl in at[fv] if fl not in image]
        if missing:
            out.append((v, tuple(missing)))
    return tuple(out)


def is_flag_bijective(f: GraphMorphism) -> bool:
    return is_flag_injective(f) and is_flag_surjective(f)


def classify(f: GraphMorphism) -> MorphismClass:
    """Decide morphism/embedding status, reporting all violations.  Each
    morphism is classified once, on the first call."""
    return f._class


def _classify(f: GraphMorphism) -> MorphismClass:
    violations = []
    dom, cod = f.dom, f.cod

    dom_arcs = dom.edges.keys() | dom.circles
    for a in sorted(dom_arcs):  # edges and circles in one id order
        img = f.amap.get(a)
        if img is None or (img not in cod.edges and img not in cod.circles):
            violations.append(("NotTotalOnArcs", f"arc {a} has no image"))
    for a in f.amap:
        if a not in dom_arcs:
            violations.append(("NotTotalOnArcs", f"spurious arc {a} in map"))
    for v in f.vmap:
        if v not in dom.vertices or f.vmap[v] not in cod.vertices:
            violations.append(("NotTotalOnArcs", f"bad vertex entry {v}"))

    for o in dom.sorted_circles():
        img = f.amap.get(o)
        if img is not None and img in cod.edges:
            violations.append(("CircleToEdge", f"circle {o} maps to edge {img}"))

    fm, lax, _ = f._flags
    violations.extend(lax)
    for v, missing in f._uncovered:
        violations.append(("NotFlagSurjective",
                           f"vertex {v}: uncovered flags "
                           + ",".join(str(m) for m in missing)))

    if violations:
        return MorphismClass(INVALID, tuple(violations))

    # Embedding conditions: reported but not fatal to morphism-hood.
    emb_violations = []
    seen = {}
    for v in f.vmap:
        w = f.vmap[v]
        if w in seen:
            emb_violations.append(("VertexMapNotInjective", f"{seen[w]},{v} -> {w}"))
        seen[w] = v
    oimg = {}
    for o in dom.sorted_circles():
        img = f.amap.get(o)
        if img in oimg:
            emb_violations.append(("CircleMapNotInjective", f"{oimg[img]},{o} -> {img}"))
        oimg[img] = o
    vals = {}
    for fl, img in fm.items():
        if img in vals:
            emb_violations.append(("NotFlagInjective", f"{vals[img]},{fl} -> {img}"))
        vals[img] = fl

    if emb_violations:
        return MorphismClass(MORPHISM, tuple(emb_violations))
    return MorphismClass(EMBEDDING)


def compose(g: GraphMorphism, f: GraphMorphism) -> GraphMorphism:
    """The pointwise composite g . f; requires f.cod = g.dom."""
    if f.cod is not g.dom and f.cod != g.dom:
        raise DomainMismatch("codomain of f is not the domain of g")
    vmap = {v: g.vmap[w] for v, w in f.vmap.items() if w in g.vmap}
    amap = {a: g.amap[b] for a, b in f.amap.items() if b in g.amap}
    return morphism(f.dom, g.cod, vmap, amap)


def forget_to_b(f: GraphMorphism):
    """Drop circles and circle-valued components, landing in the category
    of partial graphs and flag maps.

    Returns ((dom graph, cod graph), vmap, edge-only map), the two maps
    as read-only views.  The result is built on the first call and kept
    on the morphism, so every call hands out the same object.
    """
    return f._forgotten


def _forget(f: GraphMorphism):
    dom = f.dom.without_circles if f.dom.circles else f.dom
    cod = f.cod.without_circles if f.cod.circles else f.cod
    emap = {
        e: img
        for e, img in f.amap.items()
        if f.dom.is_edge(e) and f.cod.is_edge(img)
    }
    return ((dom, cod), MappingProxyType(dict(f.vmap)), MappingProxyType(emap))
