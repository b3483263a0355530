"""Match search: finding embeddings of a rule's left-hand side into a
host graph that form boundary embeddings.

Backtracking over the interior vertices of L in id order, followed by
enumeration of the per-vertex flag bijections and of the images of
flagless arcs (self-loops at the boundary image and circles).  The rule
is validated once per search; each candidate then gets the one check
that can fail, `classify` of the match.  `check_match` is the full naive
check of one candidate; lawcheck's brute-force oracle uses it to check
the search for soundness and completeness.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from .graph import SRC, TGT, Graph, degree, flags_at, is_connected
from .morphism import GraphMorphism, classify, morphism
from .boundary import BoundaryEmbedding, _match_errors
from .dpo import Rotations, RewriteRule, _check_rotations, _roles, validate_rule
from .rotation import check_rot_morphism


class MatcherError(Exception):
    pass


class LNotConnected(MatcherError):
    pass


class MatchLimitExceeded(MatcherError):
    pass


MAX_MATCHES = 10000  # a search stops at the first match past this


def check_match(rule: RewriteRule, host: Graph,
                m: GraphMorphism) -> List[Tuple[str, str]]:
    """Validate a candidate match condition by condition; the list of
    failures is empty when `m` is a match."""
    be = BoundaryEmbedding(rule.b, rule.left, host, rule.l, m)
    return validate_rule(rule) + _match_errors(be)


def _flag_bijections(l_flags, h_flags):
    """All end-preserving bijections between two flag sets."""
    by_end_l = {SRC: [], TGT: []}
    by_end_h = {SRC: [], TGT: []}
    for fl in sorted(l_flags):
        by_end_l[fl.end].append(fl)
    for fl in sorted(h_flags):
        by_end_h[fl.end].append(fl)
    if any(len(by_end_l[e]) != len(by_end_h[e]) for e in (SRC, TGT)):
        return
    for src_perm in itertools.permutations(by_end_h[SRC]):
        for tgt_perm in itertools.permutations(by_end_h[TGT]):
            yield dict(zip(by_end_l[SRC], src_perm)) | dict(
                zip(by_end_l[TGT], tgt_perm))


def find_matches(rule: RewriteRule, host: Graph,
                 rotations: Rotations = None) -> List[BoundaryEmbedding]:
    """All matches of the rule's left-hand side into the host, as
    boundary embeddings sorted by match; with `rotations`, keyed "left"
    and "host", only the rotation-preserving ones."""
    rots = _roles(rotations, ("left", "host"))
    left = rule.left
    if rots is not None:
        _check_rotations("match", rots, (left, host), ())
    if not is_connected(left):
        raise LNotConnected("rule left-hand side must be connected")
    # The rule's half of the boundary-embedding conditions, once per
    # search: an invalid rule has no matches.
    rule_ok = not validate_rule(rule)
    boundary_image = rule.l.v(rule.b.boundary)
    interior = sorted(v for v in left.vertices if v != boundary_image)
    if not interior and not left.edges and not left.circles:
        return []  # degenerate rule: nothing to anchor a match

    host_vertices = host.sorted_vertices()
    free_arcs = sorted(
        [e for e in left.edges
         if left.edges[e] == (boundary_image, boundary_image)]
        + list(left.circles))
    results: List[BoundaryEmbedding] = []

    def record(vmap, amap):
        # vmap covers exactly the interior, and distinct vertex maps,
        # flag bijections and free-arc choices give distinct morphisms:
        # only the embedding condition can fail here
        m = morphism(left, host, vmap, amap)
        if not classify(m).is_embedding:
            return
        results.append(BoundaryEmbedding(rule.b, left, host, rule.l, m))
        if len(results) > MAX_MATCHES:
            raise MatchLimitExceeded(f"more than {MAX_MATCHES} matches")

    host_arcs = host.arcs()
    host_circles = host.sorted_circles()

    def assign_free_arcs(vmap, amap):
        loops = [a for a in free_arcs if left.is_edge(a)]
        circles = [a for a in free_arcs if left.is_circle(a)]
        loop_choices = itertools.product(host_arcs, repeat=len(loops))
        for loop_imgs in loop_choices:
            for circ_imgs in itertools.permutations(host_circles, len(circles)):
                full = dict(amap)
                full.update(zip(loops, loop_imgs))
                full.update(zip(circles, circ_imgs))
                record(vmap, full)

    def assign_arcs(vmap):
        # Per matched vertex, enumerate end-preserving flag bijections;
        # each choice forces the arc map on the incident edges, and the
        # forcings must agree where an edge has two matched endpoints.
        per_vertex = []
        for v in interior:
            options = list(_flag_bijections(
                flags_at(left, v), flags_at(host, vmap[v])))
            if not options:
                return
            per_vertex.append(options)
        for combo in itertools.product(*per_vertex):
            amap: Dict[str, str] = {}
            ok = True
            for bij in combo:
                for fl, hfl in bij.items():
                    forced = amap.get(fl.edge)
                    if forced is not None and forced != hfl.edge:
                        ok = False
                        break
                    amap[fl.edge] = hfl.edge
                if not ok:
                    break
            if ok:
                assign_free_arcs(vmap, amap)

    def backtrack(i, vmap, used):
        if i == len(interior):
            assign_arcs(dict(vmap))
            return
        v = interior[i]
        d = degree(left, v)
        for w in host_vertices:
            if w in used or degree(host, w) != d:
                continue
            vmap[v] = w
            used.add(w)
            backtrack(i + 1, vmap, used)
            del vmap[v]
            used.remove(w)

    if rule_ok:
        backtrack(0, {}, set())

    if rots is not None:
        results = [be for be in results if check_rot_morphism(be.m, *rots)]
    results.sort(key=lambda be: be.m.key())
    return results
