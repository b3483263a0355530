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
    arc_classes,
    blue_half,
    enumerate_re_pairings,
    graph,
    morphism,
    pairing_graph,
    solve_re_pairing,
    validate_boundary_embedding,
    validate_boundary_graph,
    validate_span,
)
from dpoembed.boundary import (
    MAX_RE_PAIRINGS,
    NEG,
    POS,
    BoundaryEmbeddingInvariantViolated,
    CombinatorialLimitExceeded,
    red_unmatched_nodes,
)
from dpoembed.lawcheck import (
    GenBudget,
    is_cycle_component,
    pairing_components,
    random_boundary_embedding,
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


def _oracle_circle_solutions(be):
    """Independent count: all red perfect matchings whose union with the
    blue half forms one single cycle through every node."""
    half = blue_half(be)
    pos = sorted(n for n in half.nodes if half.polarity[n] == POS)
    neg = sorted(n for n in half.nodes if half.polarity[n] == NEG)
    succ_blue = {p: n for p, n in half.blue}
    count = 0
    for perm in itertools.permutations(pos):
        red = dict(zip(neg, perm))
        node = pos[0]
        seen = 0
        while True:
            node = red[succ_blue[node]]
            seen += 1
            if node == pos[0]:
                break
        if seen == len(pos):
            count += 1
    return count


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 2), (4, 6)])
def test_circle_class_solution_counts(n, expected):
    be = bouquet_embedding((n,))
    sols = enumerate_re_pairings(be)
    assert len(sols) == expected  # (n-1)! distinct cyclic arrangements
    assert len(sols) == _oracle_circle_solutions(be)
    assert sols[0].key() == solve_re_pairing(be).key()
    keys = {s.key() for s in sols}
    assert len(keys) == len(sols)


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
    if not validate_boundary_embedding(be):
        with pytest.raises(BoundaryEmbeddingInvariantViolated):
            enumerate_re_pairings(be)


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
