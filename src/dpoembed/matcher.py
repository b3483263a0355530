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
embedding by construction, so no candidate is classified.  The walk
yields each match as its vertex and arc tables: `find_matches` builds
every match, `nth_match` only the one it returns.  The
brute-force oracle in `oracle` checks the search for soundness and
completeness with its own naive match predicate.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from .graph import SRC, Flag, Graph, is_connected
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


def _walk(rule: RewriteRule, host: Graph, rotations: Rotations):
    """Each match of the rule's left-hand side into the host as its
    (vertex map, arc map) tables, in walk order; raises at the first
    match past the cap."""
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
        return  # invalid rule, or nothing to anchor a match
    lb = rule.l.v(rule.b.boundary)
    hedges, hinc, hverts = host.edges, host.incidence, host.vertices

    # Each step's data, once per search: (vertex v, index k of the flag
    # at v or None for a root, flag, far, vertex u, degree du).  A flag
    # step's u is the flag's far endpoint, None for the boundary image,
    # and a host flag with the flag's end has its far endpoint at index
    # `far` of its edge's ends.  A root has only v and its degree du.
    flags = left.incidence if rots is None else rots[0].inc
    steps, seen = [], {lb}
    for root in [_far_end(left, fl) for fl in flags[lb]]:
        if root in seen:
            continue
        seen.add(root)
        component = [root]
        steps.append((root, None, None, None, None,
                      len(left.incidence[root])))
        for v in component:  # grows as the loop runs: breadth-first
            for k, fl in enumerate(flags[v]):
                u = _far_end(left, fl)
                steps.append((v, k, fl, fl.end == SRC,
                              None if u == lb else u,
                              len(left.incidence[u])))
                if u not in seen:
                    seen.add(u)
                    component.append(u)
    if rots is not None:
        offset = {fl: i for w in hverts
                  for i, fl in enumerate(rots[1].rotation(w))}
    # a root tries every host vertex of its degree, in id order
    by_degree: dict = {}
    for w in host.vertices:
        by_degree.setdefault(len(hinc[w]), []).append(w)
    loops = [e for e, ends in left.edges.items() if ends == (lb, lb)]
    host_arcs = host.arcs()
    count, end = 0, len(steps)

    # Depth first over partial maps, each a fresh (step, vmap, amap, host
    # flags taken): an explicit stack, so L's size meets no recursion limit.
    stack = [(0, {}, {}, ())]
    while stack:
        i, vmap, amap, taken = stack.pop()
        if i == end:
            # vmap covers exactly the interior, one to one; the walk
            # keeps degrees and ends and takes each host flag once, so
            # the map is total, laxly natural and flag bijective at
            # every defined vertex: an embedding.  Loops at the boundary
            # image have no defined end, so any arc will do, and
            # distinct walks and loop images give distinct morphisms.
            for imgs in itertools.product(host_arcs, repeat=len(loops)):
                count += 1
                if count > MAX_MATCHES:
                    raise MatchLimitExceeded(
                        f"more than {MAX_MATCHES} matches")
                yield vmap, ({**amap, **dict(zip(loops, imgs))} if loops
                             else amap)
            continue
        v, k, fl, far, u, du = steps[i]
        if k is None:  # a root; the edge that reached any other placed it
            used = vmap.values()
            stack.extend((i + 1, {**vmap, v: w}, amap, taken)
                         for w in by_degree.get(du, ()) if w not in used)
            continue
        w, e, fend = vmap[v], fl.edge, fl.end
        if rots is not None and k:
            first, rot = flags[v][0], rots[1].rotation(w)
            at = offset[Flag(amap[first.edge], first.end)] + k
            candidates = [rot[at % len(rot)]]
        elif e in amap:
            candidates = [Flag(amap[e], fend)]
        else:
            candidates = hinc[w]
        image = amap.get(e)
        for hfl in candidates:
            he = hfl.edge
            if (hfl.end != fend or hfl in taken
                    or (image is not None and image != he)):
                continue
            x, mapped = hedges[he][far], {**amap, e: he}
            if u is None or vmap.get(u) == x:
                stack.append((i + 1, vmap, mapped, taken + (hfl,)))
            elif (u not in vmap and x in hverts
                  and x not in vmap.values() and len(hinc[x]) == du):
                stack.append((i + 1, {**vmap, u: x}, mapped, taken + (hfl,)))


def _sorted_keys(rule: RewriteRule, host: Graph, rotations: Rotations):
    """The `GraphMorphism.key` of each match, sorted: the walk's tables
    give it without building the morphism."""
    return sorted((tuple(sorted(vmap.items())), tuple(sorted(amap.items())))
                  for vmap, amap in _walk(rule, host, rotations))


def _embedding(rule: RewriteRule, host: Graph, key) -> BoundaryEmbedding:
    vmap, amap = key
    return BoundaryEmbedding(rule.b, rule.left, host, rule.l,
                             morphism(rule.left, host, dict(vmap), dict(amap)))


def find_matches(rule: RewriteRule, host: Graph,
                 rotations: Rotations = None) -> List[BoundaryEmbedding]:
    """All matches of the rule's left-hand side into the host, as
    boundary embeddings sorted by match; with `rotations`, keyed "left"
    and "host", only the rotation-preserving ones."""
    return [_embedding(rule, host, key)
            for key in _sorted_keys(rule, host, rotations)]


def nth_match(rule: RewriteRule, host: Graph, i: int,
              rotations: Rotations = None
              ) -> Tuple[int, Optional[BoundaryEmbedding]]:
    """(number of matches, `find_matches(rule, host, rotations)[i]`, or
    None for an i outside [0, number of matches)); builds only that
    one match."""
    keys = _sorted_keys(rule, host, rotations)
    if not 0 <= i < len(keys):
        return len(keys), None
    return len(keys), _embedding(rule, host, keys[i])
