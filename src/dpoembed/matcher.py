"""Match search: finding embeddings of a rule's left-hand side into a
host graph that form boundary embeddings.

One backtracking walk over the flags of L.  It visits L's interior
breadth-first, one component of L minus the boundary image at a time,
each from a root next to the boundary image.  A root takes a vertex
step, trying every unused host vertex of equal degree; every other
vertex is placed by the edge that reached it.  Each interior vertex
then takes one flag step per flag at it, in rotation order given
rotations and in incidence order otherwise.  A flag takes an unused
host flag with its end at the vertex's image: the one its mapped edge
forces, the one at its cyclic offset from the vertex's first flag given
rotations, or any; mapping a new edge places its far endpoint.
Self-loops at the boundary image take any host arc.
The rule is validated once per search.  A completed walk is an
embedding by construction, so no candidate is classified.  The
brute-force oracle in `oracle` checks the search for soundness and
completeness with its own naive match predicate.
"""

from __future__ import annotations

import itertools
from typing import List

from .graph import SRC, Flag, Graph, degree, is_connected
from .morphism import morphism
from .boundary import BoundaryEmbedding, RewriteRule, validate_rule
from .rotation import Rotations, check_rotations, role_rotations


class MatcherError(Exception):
    pass


class LNotConnected(MatcherError):
    pass


class MatchLimitExceeded(MatcherError):
    pass


MAX_MATCHES = 10000  # a search stops at the first match past this


def _far_end(g: Graph, fl: Flag) -> str:
    """The vertex at the other end of the flag's edge."""
    s, t = g.edges[fl.edge]
    return t if fl.end == SRC else s


def find_matches(rule: RewriteRule, host: Graph,
                 rotations: Rotations = None) -> List[BoundaryEmbedding]:
    """All matches of the rule's left-hand side into the host, as
    boundary embeddings sorted by match; with `rotations`, keyed "left"
    and "host", only the rotation-preserving ones."""
    rots = role_rotations(rotations, ("left", "host"))
    left = rule.left
    if rots is not None:
        check_rotations("match", rots, (left, host), ())
    if not is_connected(left):
        raise LNotConnected("rule left-hand side must be connected")
    # The rule's half of the boundary-embedding conditions, once per
    # search: an invalid rule has no matches.  A valid rule's L holds
    # the boundary image, so, being connected, it has no circle.
    if validate_rule(rule) or not left.edges:
        return []  # invalid rule, or nothing to anchor a match
    lb = rule.l.v(rule.b.boundary)

    flags = left.incidence if rots is None else rots[0].inc
    if rots is not None:
        offset = {fl: i for w in host.vertices
                  for i, fl in enumerate(rots[1].rotation(w))}
    steps, seen = [], {lb}
    for root in [_far_end(left, fl) for fl in flags[lb]]:
        if root in seen:
            continue
        seen.add(root)
        component = [root]
        steps.append((root, None))  # only a root takes a vertex step
        for v in component:  # grows as the loop runs: breadth-first
            steps += [(v, k) for k in range(len(flags[v]))]
            for u in [_far_end(left, fl) for fl in flags[v]]:
                if u not in seen:
                    seen.add(u)
                    component.append(u)
    loops = [e for e, ends in left.edges.items() if ends == (lb, lb)]
    host_vertices = host.sorted_vertices()
    host_arcs = host.arcs()
    results: List[BoundaryEmbedding] = []

    def fits(u, x, vmap):
        return (x in host.vertices and x not in vmap.values()
                and degree(host, x) == degree(left, u))

    def leaves(vmap, amap):
        # vmap covers exactly the interior, one to one; the walk keeps
        # degrees and ends and takes each host flag once, so the map is
        # total, laxly natural and flag bijective at every defined
        # vertex: an embedding.  Loops at the boundary image have no
        # defined end, so any arc will do, and distinct walks and loop
        # images give distinct morphisms.
        for imgs in itertools.product(host_arcs, repeat=len(loops)):
            m = morphism(left, host, vmap, {**amap, **dict(zip(loops, imgs))})
            results.append(BoundaryEmbedding(rule.b, left, host, rule.l, m))
            if len(results) > MAX_MATCHES:
                raise MatchLimitExceeded(f"more than {MAX_MATCHES} matches")

    # Depth first over partial maps, each a fresh (step, vmap, amap, host
    # flags taken): an explicit stack, so L's size meets no recursion limit.
    stack = [(0, {}, {}, frozenset())]
    while stack:
        i, vmap, amap, taken = stack.pop()
        if i == len(steps):
            leaves(vmap, amap)
            continue
        v, k = steps[i]
        if k is None:  # a root; the edge that reached any other placed it
            stack.extend((i + 1, {**vmap, v: w}, amap, taken)
                         for w in host_vertices if fits(v, w, vmap))
            continue
        fl, w = flags[v][k], vmap[v]
        e, u = fl.edge, _far_end(left, fl)
        if rots is not None and k:
            first, rot = flags[v][0], rots[1].rotation(w)
            at = offset[Flag(amap[first.edge], first.end)] + k
            candidates = [rot[at % len(rot)]]
        elif e in amap:
            candidates = [Flag(amap[e], fl.end)]
        else:
            candidates = host.incidence[w]
        for hfl in candidates:
            if (hfl.end != fl.end or hfl in taken
                    or amap.get(e, hfl.edge) != hfl.edge):
                continue
            x, mapped = _far_end(host, hfl), {**amap, e: hfl.edge}
            if u == lb or vmap.get(u) == x:
                stack.append((i + 1, vmap, mapped, taken | {hfl}))
            elif u not in vmap and fits(u, x, vmap):
                stack.append((i + 1, {**vmap, u: x}, mapped, taken | {hfl}))

    results.sort(key=lambda be: be.m.key())
    return results
