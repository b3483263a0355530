import dataclasses
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from dpoembed import (
    BoundaryEmbedding,
    BoundaryGraph,
    PairingGraph,
    PartitioningSpan,
    RewriteRule,
    arc_classes,
    blue_half,
    enumerate_re_pairings,
    graph,
    morphism,
    pairing_graph,
    solve_re_pairing,
    validate_boundary_embedding,
    validate_boundary_graph,
    validate_graph,
    validate_rule,
    validate_span,
)
from dpoembed.boundary import (
    MAX_RE_PAIRINGS,
    NEG,
    POS,
    BoundaryEmbeddingInvariantViolated,
    CombinatorialLimitExceeded,
    _class_arrangements,
    red_unmatched_nodes,
)
from dpoembed.lawcheck import (
    GenBudget,
    gen_boundary_embeddings,
    random_boundary_embedding,
)
from dpoembed.oracle import is_cycle_component, pairing_components
from dpoembed.serialize import (
    Document,
    boundary_to_body,
    graph_doc,
    print_document,
    span_shaped_doc,
)

from conftest import bouquet_embedding


def test_boundary_graph_polarity(two_edge_boundary):
    b = two_edge_boundary
    assert b.polarity("e1") == POS
    assert b.polarity("e2") == NEG
    assert validate_boundary_graph(b) == []


def test_boundary_graph_rejects_self_loops_and_circles():
    g = graph(["bnd", "dbd"], {"e": ("bnd", "bnd")}, ["o"])
    b = BoundaryGraph(g, "bnd", "dbd")
    codes = [c for c, _ in validate_boundary_graph(b)]
    assert "SelfLoopInBoundary" in codes
    assert "CircleInBoundary" in codes


def test_span_legs_must_sit_on_their_vertices(two_edge_boundary, loop_left):
    left, l = loop_left
    bad = PartitioningSpan(two_edge_boundary, left, left, l, l)
    codes = [c for c, _ in validate_span(bad)]
    assert "LegUndefinedOnItsVertex" in codes  # c not defined on dbd
    assert "LegDefinedOnWrongVertex" in codes  # c defined on bnd


def test_pairing_graph_two_cycle(two_edge_boundary, loop_left):
    left, l = loop_left
    ctx = graph(["w"], {"c": ("w", "w")})
    c = morphism(two_edge_boundary.graph, ctx, {"dbd": "w"},
                 {"e1": "c", "e2": "c"})
    p = pairing_graph(PartitioningSpan(two_edge_boundary, left, ctx, l, c))
    assert p.blue == {("e1", "e2")}
    assert p.red == {("e2", "e1")}
    comps = pairing_components(p)
    assert comps == [("e1", "e2")]
    assert is_cycle_component(p, comps[0])


def test_pairing_graph_path_and_lone_node():
    # e1 -blue- e2 -red- e3 is a path; e4 touches no pair
    nodes = ("e1", "e2", "e3", "e4")
    p = PairingGraph(nodes, {"e1": POS, "e2": NEG, "e3": POS, "e4": NEG},
                     frozenset({("e1", "e2")}), frozenset({("e2", "e3")}))
    comps = pairing_components(p)
    assert comps == [("e1", "e2", "e3"), ("e4",)]
    assert not is_cycle_component(p, comps[0])
    assert not is_cycle_component(p, comps[1])


def test_blue_half_and_classes(circle_host_embedding):
    be = circle_host_embedding
    half = blue_half(be)
    assert half.blue == {("e1", "e2")}
    assert half.red == frozenset()
    assert arc_classes(be) == {"o": ("e1", "e2")}


def test_single_pair_circle_class_has_one_solution(circle_host_embedding):
    sols = enumerate_re_pairings(circle_host_embedding)
    assert len(sols) == 1
    assert sols[0].red == {("e2", "e1")}
    assert sorted(sols[0].red) == [("e2", "e1")]
    assert red_unmatched_nodes(sols[0]) == []


def _oracle_solutions(be):
    """Independent enumeration: every red set, each red edge a (neg, pos)
    pair inside one class and each node on at most one, such that blue
    and red make each class one cycle (host circle) or one path (host
    edge) through all of its nodes.  Returns the set of red frozensets."""
    half = blue_half(be)
    per_class = []
    for a, members in arc_classes(be).items():
        closed = be.host.is_circle(a)
        blue = frozenset((p, n) for p, n in half.blue if p in members)
        candidates = [(n, p) for n in members for p in members
                      if half.polarity[n] == NEG and half.polarity[p] == POS]
        size = len(members) - len(blue) - (0 if closed else 1)
        found = []
        for red in itertools.combinations(candidates, size):
            ends = [x for pair in red for x in pair]
            if len(set(ends)) < len(ends):
                continue
            p = PairingGraph(members, half.polarity, blue, frozenset(red))
            comps = pairing_components(p)
            if len(comps) == 1 and is_cycle_component(p, comps[0]) == closed:
                found.append(red)
        per_class.append(found)
    return {frozenset(pair for red in combo for pair in red)
            for combo in itertools.product(*per_class)}


def _assert_matches_oracle(be):
    sols = enumerate_re_pairings(be)
    assert len({s.red for s in sols}) == len(sols)
    assert {s.red for s in sols} == _oracle_solutions(be)
    assert sols[0].key() == solve_re_pairing(be).key()
    return sols


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 2), (4, 6)])
def test_circle_class_solution_counts(n, expected):
    sols = _assert_matches_oracle(bouquet_embedding((n,)))
    assert len(sols) == expected  # (n-1)! distinct cyclic arrangements


@pytest.mark.parametrize("sizes", [(2, 1), (3, 2), (2, 2, 1)])
def test_bouquet_solutions_match_the_oracle(sizes):
    _assert_matches_oracle(bouquet_embedding(sizes))


def _loops_onto_edge(k, lone_ends):
    """L: k self-loops at the boundary image vb, each one blue pair, all
    mapped onto the host loop he; with `lone_ends`, also vb -x-> u -y->
    vb, whose boundary edges P (positive) and N (negative) stay unpaired
    and map onto he too."""
    edges, amap, left_edges = {}, {}, {}
    for i in range(k):
        edges[f"p{i}"], edges[f"n{i}"] = ("bnd", "dbd"), ("dbd", "bnd")
        amap[f"p{i}"] = amap[f"n{i}"] = f"a{i}"
        left_edges[f"a{i}"] = ("vb", "vb")
    vertices, vmap = ["vb"], {}
    if lone_ends:
        edges["P"], edges["N"] = ("bnd", "dbd"), ("dbd", "bnd")
        amap["P"], amap["N"] = "x", "y"
        left_edges["x"], left_edges["y"] = ("vb", "u"), ("u", "vb")
        vertices.append("u")
        vmap["u"] = "h"
    b = BoundaryGraph(graph(["bnd", "dbd"], edges), "bnd", "dbd")
    left = graph(vertices, left_edges)
    l = morphism(b.graph, left, {"bnd": "vb"}, amap)
    host = graph(["h"], {"he": ("h", "h")})
    m = morphism(left, host, vmap, {a: "he" for a in left_edges})
    be = BoundaryEmbedding(b, left, host, l, m)
    assert validate_boundary_embedding(be) == []
    return be


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("lone_ends", [False, True])
def test_edge_class_paths_match_the_oracle(k, lone_ends):
    # k blue pairs on a host edge close into k! paths, with or without a
    # lone negative start and a lone positive end
    sols = _assert_matches_oracle(_loops_onto_edge(k, lone_ends))
    assert len(sols) == math.factorial(k)


def test_small_embeddings_match_the_oracle():
    bes = list(gen_boundary_embeddings(GenBudget(2, 3, 1, 4)))
    assert bes
    for be in bes:
        _assert_matches_oracle(be)


def test_edge_class_lone_ends():
    # one positive, one negative boundary edge onto one host edge:
    # the red edge must connect them into a single path
    b = BoundaryGraph(graph(["bnd", "dbd"],
                            {"p": ("bnd", "dbd"), "n": ("dbd", "bnd")}),
                      "bnd", "dbd")
    left = graph(["v", "u"], {"x": ("v", "u"), "y": ("u", "v")})
    l = morphism(b.graph, left, {"bnd": "v"}, {"p": "x", "n": "y"})
    host = graph(["hu"], {"he": ("hu", "hu")})
    m = morphism(left, host, {"u": "hu"}, {"x": "he", "y": "he"})
    be = BoundaryEmbedding(b, left, host, l, m)
    assert validate_boundary_embedding(be) == []
    sols = enumerate_re_pairings(be)
    assert len(sols) == 1
    assert sols[0].red == {("n", "p")}


def test_lone_node_in_circle_class_rejected():
    # a single unpaired boundary edge cannot map onto a circle
    b = BoundaryGraph(graph(["bnd", "dbd"], {"p": ("bnd", "dbd")}),
                      "bnd", "dbd")
    left = graph(["v", "u"], {"x": ("v", "u")})
    l = morphism(b.graph, left, {"bnd": "v"}, {"p": "x"})
    host = graph([], {}, ["o"])
    m = morphism(left, host, {}, {"x": "o"})
    be = BoundaryEmbedding(b, left, host, l, m)
    # the loop's end at u cannot land on a circle, so m is undefined on
    # the interior vertex u and the embedding is refused before any
    # class is arranged
    assert validate_boundary_embedding(be) == [("MatchUndefinedOnInterior",
                                                 "u")]
    with pytest.raises(BoundaryEmbeddingInvariantViolated):
        enumerate_re_pairings(be)
    # no valid embedding reaches the class guard, so call it directly
    half = PairingGraph(("p",), {"p": POS}, frozenset(), frozenset())
    with pytest.raises(BoundaryEmbeddingInvariantViolated) as exc:
        next(_class_arrangements(be, half, "o", ("p",)))
    assert exc.value.args[0] == [("LoneNodeInCircleClass", "o: ['p']")]


@pytest.mark.parametrize("polarity", [POS, NEG])
def test_too_many_loose_ends_rejected(polarity):
    # two lone nodes of one polarity cannot both end one path; no valid
    # embedding reaches this guard either
    host = graph(["h"], {"he": ("h", "h")})
    be = BoundaryEmbedding(None, None, host, None, None)
    nodes = ("q1", "q2", "x", "y")
    half = PairingGraph(nodes, {"q1": polarity, "q2": polarity,
                                "x": POS, "y": NEG},
                        frozenset({("x", "y")}), frozenset())
    with pytest.raises(BoundaryEmbeddingInvariantViolated) as exc:
        next(_class_arrangements(be, half, "he", nodes))
    assert exc.value.args[0] == [("TooManyLooseEnds", "he: ['q1', 'q2']")]


def test_solutions_are_deterministic(circle_host_embedding):
    a = [s.key() for s in enumerate_re_pairings(circle_host_embedding)]
    b = [s.key() for s in enumerate_re_pairings(circle_host_embedding)]
    assert a == b


def test_re_pairing_cap_edge():
    # (7-1)! * (4-1)! * (3-1)! = 8,640 and (8-1)! * (3-1)! = 10,080
    assert len(enumerate_re_pairings(bouquet_embedding((7, 4, 3)))) == 8640
    with pytest.raises(CombinatorialLimitExceeded):
        enumerate_re_pairings(bouquet_embedding((8, 3)))


def test_re_pairing_cap_bounds_the_work():
    # 9! = 362,880 arrangements; the refusal must not build them all
    be = bouquet_embedding((10,))
    start = time.perf_counter()
    with pytest.raises(CombinatorialLimitExceeded,
                       match=f"more than {MAX_RE_PAIRINGS} "):
        enumerate_re_pairings(be)
    assert time.perf_counter() - start < 1.0


def _expected_solution_count(be):
    """Product over host arcs of the orders of their blue pairs: (p-1)!
    cyclic orders on a circle, p! path orders on an edge."""
    pairs_per_arc = {}
    for img in set(be.l.amap.values()):
        members = [e for e in be.b.graph.edges if be.l.amap[e] == img]
        if len(members) == 2:
            arc = be.m.amap[img]
            pairs_per_arc[arc] = pairs_per_arc.get(arc, 0) + 1
    arcs = {be.m.amap[be.l.amap[e]] for e in be.b.graph.edges}
    count = 1
    for a in arcs:
        p = pairs_per_arc.get(a, 0)
        count *= math.factorial(p - 1 if be.host.is_circle(a) else p)
    return count


def _assert_distinct_and_counted(be):
    sols = enumerate_re_pairings(be)
    assert len({s.key() for s in sols}) == len(sols)
    assert len(sols) == _expected_solution_count(be)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_embedding_solutions_are_distinct_and_counted(seed):
    be = random_boundary_embedding(random.Random(seed),
                                   GenBudget(5, 6, 2, 4))
    if be is not None:
        _assert_distinct_and_counted(be)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_bouquet_solutions_are_distinct_and_counted(sizes):
    _assert_distinct_and_counted(bouquet_embedding(sizes))


# Each class that keeps a verdict: a fresh object of it, its check, its
# document and its dataclass fields.  The span is not valid (its c is
# defined on the boundary), so its check returns a non-empty list.
_KEEPERS = {
    "graph": (lambda be: be.host, validate_graph, graph_doc,
              ("vertices", "edges", "circles")),
    "boundary_graph": (
        lambda be: be.b, validate_boundary_graph,
        lambda b: Document("trace", boundary_to_body(b)),
        ("graph", "boundary", "dual_boundary")),
    "rule": (lambda be: RewriteRule(be.b, be.left, be.left, be.l, be.l),
             validate_rule, span_shaped_doc,
             ("b", "left", "right", "l", "r")),
    "span": (lambda be: PartitioningSpan(be.b, be.left, be.left, be.l, be.l),
             validate_span, span_shaped_doc,
             ("b", "left", "context", "l", "c")),
    "boundary_embedding": (lambda be: be, validate_boundary_embedding,
                           span_shaped_doc, ("b", "left", "host", "l", "m")),
}


@pytest.mark.parametrize("kind", sorted(_KEEPERS))
def test_a_kept_verdict_is_invisible(kind):
    make, check, doc, names = _KEEPERS[kind]
    checked, fresh = make(bouquet_embedding((2,))), make(
        bouquet_embedding((2,)))
    answer = check(checked)
    assert check(checked) == answer
    assert checked == fresh
    assert repr(checked) == repr(fresh)
    assert print_document(doc(checked)) == print_document(doc(fresh))
    assert tuple(f.name for f in dataclasses.fields(checked)) == names
    assert check(fresh) == answer


@pytest.mark.parametrize("kind", sorted(set(_KEEPERS) - {"graph"}))
def test_a_kept_verdict_is_not_shared_with_the_caller(kind):
    # a graph's report is frozen; the others hand out a fresh list
    make, check, _, _ = _KEEPERS[kind]
    obj = make(bouquet_embedding((2,)))
    answer = check(obj)
    first = check(obj)
    first.append(("Mutated", ""))
    assert check(obj) == answer
    first.clear()
    assert check(obj) == answer
