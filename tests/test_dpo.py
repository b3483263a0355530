import itertools
import time
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from dpoembed import (
    BoundaryEmbedding,
    BoundaryGraph,
    Flag,
    PartitioningSpan,
    RewriteRule,
    blue_half,
    classify,
    classify_re_pairings,
    compose,
    enumerate_re_pairings,
    graph,
    iso_check,
    morphism,
    pushout,
    pushout_complement,
    rewrite,
    rotation_system,
    solve_re_pairing,
    validate_boundary_embedding,
    validate_rule,
)
from dpoembed import dpo
from dpoembed.boundary import (
    BoundaryEmbeddingInvariantViolated,
    SpanInvariantViolated,
)
from dpoembed.dpo import (
    ISO_MAX_VERTICES,
    SizeLimitExceeded,
    SolutionIndexOutOfRange,
)

from conftest import bouquet_embedding, bouquet_rotations, count_calls


def test_pushout_of_edgeless_boundary():
    # both boundary images vanish; the rest is a disjoint union
    b = BoundaryGraph(graph(["bnd", "dbd"]), "bnd", "dbd")
    left = graph(["vb", "u"])
    l = morphism(b.graph, left, {"bnd": "vb"}, {})
    ctx = graph(["wb", "w"])
    c = morphism(b.graph, ctx, {"dbd": "wb"}, {})
    po = pushout(PartitioningSpan(b, left, ctx, l, c))
    assert po.graph.vertices == frozenset(["L.u", "C.w"])
    assert not po.graph.edges and not po.graph.circles


def test_pushout_two_cycle_yields_circle(two_edge_boundary, loop_left):
    left, l = loop_left
    ctx = graph(["w"], {"c": ("w", "w")})
    c = morphism(two_edge_boundary.graph, ctx, {"dbd": "w"},
                 {"e1": "c", "e2": "c"})
    po = pushout(PartitioningSpan(two_edge_boundary, left, ctx, l, c))
    assert not po.graph.vertices and not po.graph.edges
    assert len(po.graph.circles) == 1
    (o,) = po.graph.circles
    assert po.arc_classes[o] == ("e1", "e2")


def test_pushout_two_region_glues(two_region_span):
    po = pushout(two_region_span)
    assert len(po.graph.vertices) == 2
    assert len(po.graph.edges) == 2
    assert not po.graph.circles
    assert iso_check(po.graph,
                     graph(["x", "y"], {"f": ("x", "y"), "g": ("y", "x")}))


def test_pushout_legs_commute_and_embed(two_region_span):
    span = two_region_span
    po = pushout(span)
    assert classify(po.m).is_embedding
    assert classify(po.g).is_embedding
    assert (compose(po.m, span.l).key() == compose(po.g, span.c).key())


def _far_context_span(b, left, l, extra_edges=None):
    """L <= B => C with C a self-loop x at the dual vertex d, which both
    boundary edges reach, and 200 arcs away from d: a 150-edge cycle and
    50 circles."""
    ring = [f"w{i:03d}" for i in range(150)]
    edges = {f"r{i:03d}": (ring[i], ring[(i + 1) % 150]) for i in range(150)}
    edges["x"] = ("d", "d")
    edges.update(extra_edges or {})
    ctx = graph(["d", *ring], edges, [f"o{i:02d}" for i in range(50)])
    c = morphism(b.graph, ctx, {"dbd": "d"}, {"e1": "x", "e2": "x"})
    return PartitioningSpan(b, left, ctx, l, c)


def test_pushout_glues_only_the_arcs_the_boundary_reaches(
        monkeypatch, two_edge_boundary, loop_left):
    left, l = loop_left
    span = _far_context_span(two_edge_boundary, left, l)
    glued = []

    def spy(items, pairs, key=None):
        items = list(items)
        glued.append(len(items))
        return union_find(items, pairs, key)

    union_find = dpo._union_find
    monkeypatch.setattr(dpo, "_union_find", spy)
    po = pushout(span)
    assert glued and max(glued) <= 2 * len(two_edge_boundary.graph.edges)
    far = [a for a in span.context.arcs() if a != "x"]
    assert len(far) == 200
    for a in far:
        assert po.g.amap[a] == f"C.{a}"
        assert po.arc_classes[f"C.{a}"] == ()
        if span.context.is_edge(a):
            s, t = span.context.edges[a]
            assert po.graph.edges[f"C.{a}"] == (f"C.{s}", f"C.{t}")
        else:
            assert f"C.{a}" in po.graph.circles
    # the glued class: L's loop a and C's loop x close into one circle
    assert po.arc_classes["L.a"] == ("e1", "e2")
    assert po.g.amap["x"] == po.m.amap["a"] == "L.a"
    assert "L.a" in po.graph.circles


def test_pushout_refuses_an_unreached_context_edge_at_the_dual_vertex(
        two_edge_boundary, loop_left):
    left, l = loop_left
    span = _far_context_span(two_edge_boundary, left, l,
                             {"z": ("d", "w000")})
    with pytest.raises(SpanInvariantViolated) as err:
        pushout(span)
    assert ("LegNotEmbedding", "c") in err.value.args[0]


def test_complement_of_circle_host(circle_host_embedding):
    comp = pushout_complement(circle_host_embedding)
    # a single dual-boundary vertex carrying one self-loop
    assert comp.context.vertices == frozenset([comp.dual_boundary])
    assert len(comp.context.edges) == 1
    (e,) = comp.context.edges
    assert comp.context.edges[e] == (comp.dual_boundary, comp.dual_boundary)
    assert not comp.context.circles
    assert comp.c.amap == {"e1": e, "e2": e}


def test_complement_round_trip(circle_host_embedding):
    be = circle_host_embedding
    comp = pushout_complement(be)
    span = comp.span(be.l, be.b, be.left)
    assert iso_check(pushout(span).graph, be.host) is not None


def test_rewrite_identity_rule(loop_rule, mixed_host):
    from dpoembed import find_matches
    matches = find_matches(loop_rule, mixed_host)
    assert len(matches) == len(mixed_host.arcs())
    for be in matches:
        result, _ = rewrite(loop_rule, mixed_host, be.m)
        assert iso_check(result, mixed_host) is not None


def test_rewrite_rejects_non_match(loop_rule, mixed_host):
    bad = morphism(loop_rule.left, mixed_host, {"v": "x"}, {"a": "h"})
    with pytest.raises(BoundaryEmbeddingInvariantViolated):
        rewrite(loop_rule, mixed_host, bad)


def test_rewrite_solution_index_out_of_range(loop_rule, mixed_host):
    from dpoembed import find_matches
    be = find_matches(loop_rule, mixed_host)[0]
    with pytest.raises(SolutionIndexOutOfRange,
                       match=r"^solution index 99 not in \[0, 1\)$"):
        rewrite(loop_rule, mixed_host, be.m, solution_index=99)


def test_pick_solution_is_canonical_or_indexed(circle_host_embedding):
    be = circle_host_embedding
    solutions = enumerate_re_pairings(be)
    assert pushout_complement(be).solution.key() == solve_re_pairing(be).key()
    for i, solution in enumerate(solutions):
        assert pushout_complement(be, i).solution.key() == solution.key()
    with pytest.raises(SolutionIndexOutOfRange, match="solution index"):
        pushout_complement(be, len(solutions))


def test_validate_rule(loop_rule):
    assert validate_rule(loop_rule) == []


def test_validate_rule_checks_leg_domains_and_codomains(misdirected_rules):
    for rule, failure in misdirected_rules:
        assert validate_rule(rule) == [failure]


def test_rewrite_refuses_a_misdirected_rule_before_the_complement(
        monkeypatch, loop_rule, mixed_host, misdirected_rules):
    from dpoembed import dpo, find_matches
    m = find_matches(loop_rule, mixed_host)[0].m
    built = count_calls(monkeypatch, dpo._wiring)
    for rule, failure in misdirected_rules:
        with pytest.raises(BoundaryEmbeddingInvariantViolated) as err:
            rewrite(rule, mixed_host, m)
        assert failure in err.value.args[0]
    assert built == [0]


def _interior_undefined(b):
    """L = vb -x-> u -y-> vb onto p -f-> q -g-> p with u left unmapped,
    and valid rotations on the boundary, L and the host."""
    left = graph(["vb", "u"], {"x": ("vb", "u"), "y": ("u", "vb")})
    l = morphism(b.graph, left, {"bnd": "vb"}, {"e1": "x", "e2": "y"})
    host = graph(["p", "q"], {"f": ("p", "q"), "g": ("q", "p")})
    m = morphism(left, host, {}, {"x": "f", "y": "g"})
    rots = {"boundary": rotation_system(b.graph, {
                "bnd": [Flag("e1", "src"), Flag("e2", "tgt")],
                "dbd": [Flag("e1", "tgt"), Flag("e2", "src")]}),
            "left": rotation_system(left, {
                "vb": [Flag("x", "src"), Flag("y", "tgt")],
                "u": [Flag("x", "tgt"), Flag("y", "src")]}),
            "host": rotation_system(host, {
                "p": [Flag("f", "src"), Flag("g", "tgt")],
                "q": [Flag("f", "tgt"), Flag("g", "src")]})}
    return BoundaryEmbedding(b, left, host, l, m), rots


def test_match_undefined_on_an_interior_vertex_is_refused(two_edge_boundary):
    # the complement would keep q, so no square may be built from it
    from dpoembed import check_match
    be, rots = _interior_undefined(two_edge_boundary)
    b, left, host, l, m = be.b, be.left, be.host, be.l, be.m
    assert classify(m).is_embedding
    refusal = [("MatchUndefinedOnInterior", "u")]
    assert validate_boundary_embedding(be) == refusal
    assert check_match(RewriteRule(b, left, left, l, l), host, m) == refusal
    with pytest.raises(BoundaryEmbeddingInvariantViolated):
        pushout_complement(be)
    with pytest.raises(BoundaryEmbeddingInvariantViolated):
        classify_re_pairings(be, rots)
    with pytest.raises(BoundaryEmbeddingInvariantViolated) as err:
        rewrite(RewriteRule(b, left, left, l, l), host, m)
    assert err.value.args[0] == refusal


# Every entry that solves the re-pairing problem, as a function of the
# embedding and its rotations; each reaches the one embedding check in
# `blue_half`.  `rewrite` gets the identity rule on the embedding's L.
_RE_PAIRING_ENTRIES = {
    "blue_half": lambda be, rots: blue_half(be),
    "solve_re_pairing": lambda be, rots: solve_re_pairing(be),
    "enumerate_re_pairings": lambda be, rots: enumerate_re_pairings(be),
    "pushout_complement": lambda be, rots: pushout_complement(be),
    "pushout_complement-index": lambda be, rots: pushout_complement(be, 0),
    "classify_re_pairings": lambda be, rots: classify_re_pairings(be, rots),
    "rewrite": lambda be, rots: rewrite(
        RewriteRule(be.b, be.left, be.left, be.l, be.l), be.host, be.m),
}


@pytest.mark.parametrize("entry", sorted(_RE_PAIRING_ENTRIES))
def test_every_re_pairing_entry_refuses_an_invalid_embedding(
        monkeypatch, two_edge_boundary, entry):
    from dpoembed import dpo
    be, rots = _interior_undefined(two_edge_boundary)
    built = count_calls(monkeypatch, dpo._wiring)
    with pytest.raises(BoundaryEmbeddingInvariantViolated) as err:
        _RE_PAIRING_ENTRIES[entry](be, rots)
    assert err.value.args[0] == [("MatchUndefinedOnInterior", "u")]
    assert built == [0]


@pytest.mark.parametrize("entry", sorted(_RE_PAIRING_ENTRIES))
def test_every_re_pairing_entry_validates_the_embedding_once(monkeypatch,
                                                             entry):
    from dpoembed import boundary
    be = bouquet_embedding((4,))
    rots = {**bouquet_rotations(be), "host": rotation_system(be.host, {})}
    calls = count_calls(monkeypatch, validate_boundary_embedding)
    match_checks = count_calls(monkeypatch, boundary._match_errors)
    _RE_PAIRING_ENTRIES[entry](be, rots)
    assert calls[0] <= 1
    assert match_checks == [1]


def test_rewrite_checks_each_condition_once(monkeypatch):
    # the rule check, the blue_half gate and the closing pushout's span
    # check each see the boundary graph; the legs are l and r, l and c
    from dpoembed import boundary
    be = bouquet_embedding((4,))
    spans = count_calls(monkeypatch, boundary.check_span)
    boundary_graphs = count_calls(monkeypatch,
                                  boundary.validate_boundary_graph)
    legs = count_calls(monkeypatch, boundary._leg_errors)
    _, trace = rewrite(RewriteRule(be.b, be.left, be.left, be.l, be.l),
                       be.host, be.m)
    assert spans == [1]
    assert boundary_graphs == [3]
    assert legs == [5]
    # classifying c reads the flags at the dual boundary only
    assert "incidence" not in trace.complement.context.__dict__


def test_rewrite_refuses_a_complement_whose_c_is_not_an_embedding(
        monkeypatch):
    # a wire step that drops one boundary edge from c's arc table
    be = bouquet_embedding((4,))
    wiring = dpo._wiring

    def lossy(*args, **kwargs):
        dual, wire = wiring(*args, **kwargs)

        def lossy_wire(solution):
            context, rotation, c_amap, g_amap = wire(solution)
            c_amap.pop(min(c_amap))
            return context, rotation, c_amap, g_amap

        return dual, lossy_wire

    monkeypatch.setattr(dpo, "_wiring", lossy)
    with pytest.raises(SpanInvariantViolated) as err:
        rewrite(RewriteRule(be.b, be.left, be.left, be.l, be.l),
                be.host, be.m)
    assert ("LegNotEmbedding", "c") in err.value.args[0]


def test_rewrite_closes_the_square_as_the_checked_pushout_does():
    # rewrite's trace is the complement and the pushout of its span,
    # each as the public entry builds it on its own
    from dpoembed.lawcheck import GenBudget, gen_boundary_embeddings
    count = 0
    for be in gen_boundary_embeddings(GenBudget(3, 3, 1, 3)):
        count += 1
        rule = RewriteRule(be.b, be.left, be.left, be.l, be.l)
        for i in range(len(enumerate_re_pairings(be))):
            _, trace = rewrite(rule, be.host, be.m, i)
            comp = pushout_complement(be, i)
            assert trace.complement == comp
            assert trace.result_pushout == pushout(PartitioningSpan(
                rule.b, rule.right, comp.context, rule.r, comp.c))
    assert count == 2237


def test_iso_check_positive_and_negative():
    g1 = graph(["a", "b", "c"],
               {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "a")})
    g2 = graph(["x", "y", "z"],
               {"d1": ("y", "z"), "d2": ("z", "x"), "d3": ("x", "y")})
    iso = iso_check(g1, g2)
    assert iso is not None
    vmap, amap = iso
    for e in g1.edges:
        s, t = g1.edges[e]
        assert g2.edges[amap[e]] == (vmap[s], vmap[t])
    path = graph(["x", "y", "z"], {"d1": ("x", "y"), "d2": ("y", "z")})
    assert iso_check(g1, path) is None


def test_iso_check_distinguishes_directions():
    cyc = graph(["a", "b"], {"e1": ("a", "b"), "e2": ("b", "a")})
    par = graph(["a", "b"], {"e1": ("a", "b"), "e2": ("a", "b")})
    assert iso_check(cyc, par) is None


def _assert_isomorphism(g1, g2, iso):
    vmap, amap = iso
    assert set(vmap) == set(g1.vertices)
    assert sorted(vmap.values()) == sorted(g2.vertices)
    assert set(amap) == set(g1.arcs())
    assert sorted(amap.values()) == sorted(g2.arcs())
    for e, (s, t) in g1.edges.items():
        assert g2.edges[amap[e]] == (vmap[s], vmap[t])
    for o in g1.circles:
        assert amap[o] in g2.circles


def _cycle(names, prefix):
    n = len(names)
    return graph(names, {f"{prefix}{i}": (names[i], names[(i + 1) % n])
                         for i in range(n)})


def _torus(names, prefix):
    """The 8x8 directed torus on 64 names, one right and one down arc
    per vertex."""
    at = lambda r, c: names[8 * (r % 8) + c % 8]
    return graph(names, {
        f"{prefix}{d}{r}{c}": (at(r, c), at(r + dr, c + dc))
        for r in range(8) for c in range(8)
        for d, (dr, dc) in enumerate(((0, 1), (1, 0)))})


def test_iso_check_at_its_vertex_cap():
    # g1's id order follows the cycle (or the torus rows); g2 is the
    # same graph relabelled, so its id order follows neither
    perm = [(17 * i + 5) % 64 for i in range(64)]
    ordered = [f"v{i:02d}" for i in range(64)]
    shuffled = [f"w{perm[i]}" for i in range(64)]
    for build in (_cycle, _torus):
        g1, g2 = build(ordered, "e"), build(shuffled, "d")
        for a, b in ((g1, g2), (g2, g1)):
            start = time.perf_counter()
            iso = iso_check(a, b)
            assert time.perf_counter() - start < 1.0
            assert iso is not None
            _assert_isomorphism(a, b, iso)


def test_iso_check_size_limit():
    over = _cycle([f"v{i:02d}" for i in range(ISO_MAX_VERTICES + 1)], "e")
    with pytest.raises(SizeLimitExceeded,
                       match=f"^more than {ISO_MAX_VERTICES} vertices$"):
        iso_check(over, over)
    at_cap = _cycle([f"v{i:02d}" for i in range(ISO_MAX_VERTICES)], "e")
    with pytest.raises(SizeLimitExceeded):
        iso_check(at_cap, over)


def _brute_force_isomorphic(g1, g2):
    """Try every vertex bijection against the edge multisets."""
    if (len(g1.vertices) != len(g2.vertices)
            or len(g1.circles) != len(g2.circles)):
        return False
    target = Counter(g2.edges.values())
    vs1, vs2 = sorted(g1.vertices), sorted(g2.vertices)
    for image in itertools.permutations(vs2):
        pi = dict(zip(vs1, image))
        if Counter((pi[s], pi[t]) for s, t in g1.edges.values()) == target:
            return True
    return False


def test_iso_check_equal_signatures_not_isomorphic():
    c6 = _cycle([f"a{i}" for i in range(6)], "e")
    two_c3 = graph([f"b{i}" for i in range(6)],
                   {"d0": ("b0", "b1"), "d1": ("b1", "b2"), "d2": ("b2", "b0"),
                    "d3": ("b3", "b4"), "d4": ("b4", "b5"), "d5": ("b5", "b3")})
    assert not _brute_force_isomorphic(c6, two_c3)
    assert iso_check(c6, two_c3) is None
    assert iso_check(two_c3, c6) is None
    # the same signatures at the vertex cap, two_c32's ids shuffled
    c64 = _cycle([f"a{i:02d}" for i in range(64)], "e")
    b = [f"b{(17 * i + 5) % 64}" for i in range(64)]
    two_c32 = graph(b, {f"d{i:02d}": (b[i], b[i // 32 * 32 + (i + 1) % 32])
                        for i in range(64)})
    assert iso_check(c64, two_c32) is None
    assert iso_check(two_c32, c64) is None


@st.composite
def small_graph_data(draw):
    """Up to 6 vertices and 8 edges, with self-loops, parallel edges,
    isolated vertices and circles: (n, endpoint pairs, circle count)."""
    n = draw(st.integers(0, 6))
    if not n:
        return 0, [], draw(st.integers(0, 2))
    v = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(v, v), max_size=8))
    return n, pairs, draw(st.integers(0, 2))


def _build(n, pairs, no, v, e, o, edge_ids=None):
    edge_ids = edge_ids or range(len(pairs))
    return graph([f"{v}{i}" for i in range(n)],
                 {f"{e}{j}": (f"{v}{s}", f"{v}{t}")
                  for j, (s, t) in zip(edge_ids, pairs)},
                 [f"{o}{i}" for i in range(no)])


@st.composite
def graph_pairs(draw):
    """A small graph paired with a relabelled copy, a relabelled copy
    with one edge redirected, or an unrelated graph."""
    n, pairs, no = draw(small_graph_data())
    g1 = _build(n, pairs, no, "v", "e", "o")
    how = draw(st.sampled_from(["relabel", "redirect", "unrelated"]))
    if how == "unrelated":
        return g1, _build(*draw(small_graph_data()), "w", "d", "p")
    perm = draw(st.permutations(range(n)))
    pairs2 = [(perm[s], perm[t]) for s, t in pairs]
    if how == "redirect" and pairs2:
        i = draw(st.integers(0, len(pairs2) - 1))
        pairs2[i] = (pairs2[i][0], draw(st.integers(0, n - 1)))
    edge_ids = draw(st.permutations(range(len(pairs2))))
    return g1, _build(n, pairs2, no, "w", "d", "p", edge_ids)


@given(graph_pairs())
@example((  # needs the reverse-direction pair check
    graph(["v0", "v1", "v2", "v3"], {"e0": ("v0", "v1"), "e1": ("v2", "v3")}),
    graph(["w0", "w1", "w2", "w3"], {"d0": ("w0", "w2"), "d1": ("w3", "w1")})))
def test_iso_check_agrees_with_brute_force(pair):
    g1, g2 = pair
    iso = iso_check(g1, g2)
    assert (iso is not None) == _brute_force_isomorphic(g1, g2)
    if iso is not None:
        _assert_isomorphism(g1, g2, iso)
