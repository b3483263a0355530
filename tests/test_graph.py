import time

import pytest
from hypothesis import assume, example, given, strategies as st

from dpoembed import (
    EMPTY_GRAPH,
    Flag,
    connected_components,
    degree,
    flags_at,
    graph,
    is_connected,
    validate_graph,
)
from dpoembed.graph import UnknownVertex


def test_empty_graph_is_valid():
    assert validate_graph(EMPTY_GRAPH).ok
    assert is_connected(EMPTY_GRAPH)


def test_dangling_endpoint_reported():
    g = graph(["v"], {"e": ("v", "w")})
    report = validate_graph(g)
    assert report.codes() == ("DanglingEndpoint",)


def test_arc_id_shared_between_edge_and_circle():
    g = graph(["v"], {"a": ("v", "v")}, ["a"])
    assert "DuplicateId" in validate_graph(g).codes()


def test_self_loop_contributes_two_flags():
    g = graph(["v"], {"a": ("v", "v")})
    assert flags_at(g, "v") == {Flag("a", "src"), Flag("a", "tgt")}
    assert degree(g, "v") == 2


def test_flags_at_unknown_vertex():
    with pytest.raises(UnknownVertex):
        flags_at(EMPTY_GRAPH, "v")


def test_circles_are_their_own_components():
    g = graph(["v"], {}, ["o1", "o2"])
    comps = connected_components(g)
    assert len(comps) == 3
    assert not is_connected(g)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 5))
    vs = [f"v{i}" for i in range(n)]
    ne = draw(st.integers(0, 6)) if vs else 0
    edges = {}
    for i in range(ne):
        edges[f"e{i}"] = (draw(st.sampled_from(vs)), draw(st.sampled_from(vs)))
    no = draw(st.integers(0, 2))
    return graph(vs, edges, [f"o{i}" for i in range(no)])


@given(small_graphs())
def test_components_partition_vertices_and_arcs(g):
    comps = connected_components(g)
    all_vs = [v for vs, _ in comps for v in vs]
    all_arcs = [a for _, arcs in comps for a in arcs]
    assert sorted(all_vs) == sorted(g.vertices)
    assert sorted(all_arcs) == sorted(g.arcs())


def _bfs_components(g):
    """Components by breadth-first search over edges taken both ways:
    the reference for the union-find."""
    adjacent = {v: [] for v in g.vertices}
    for s, t in g.edges.values():
        adjacent[s].append(t)
        adjacent[t].append(s)
    seen, comps = set(), []
    for start in sorted(g.vertices):
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        for v in queue:
            for w in adjacent[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        vs = frozenset(queue)
        arcs = frozenset(e for e, (s, _) in g.edges.items() if s in vs)
        comps.append((vs, arcs))
    return comps + [(frozenset(), frozenset([o])) for o in sorted(g.circles)]


@given(small_graphs())
@example(graph(["a", "b", "c", "d"],
               {"l": ("a", "a"), "p": ("b", "c"), "q": ("c", "b")}, ["o"]))
def test_components_equal_a_breadth_first_search(g):
    assert connected_components(g) == _bfs_components(g)


def test_components_take_one_pass_over_the_edges():
    # a per-component scan of every edge takes seconds here
    n = 4000
    g = graph([f"v{i:05d}" for i in range(2 * n)],
              {f"e{i:05d}": (f"v{2 * i:05d}", f"v{2 * i + 1:05d}")
               for i in range(n)})
    start = time.perf_counter()
    comps = connected_components(g)
    assert time.perf_counter() - start < 0.5
    assert len(comps) == n


@given(small_graphs())
def test_degree_sums_to_twice_edge_count(g):
    assert sum(degree(g, v) for v in g.vertices) == 2 * len(g.edges)


def _scan_flags(g, v):
    """The flags at v by a scan of every edge: the reference for the index."""
    out = set()
    for e, (s, t) in g.edges.items():
        if s == v:
            out.add(Flag(e, "src"))
        if t == v:
            out.add(Flag(e, "tgt"))
    return frozenset(out)


@given(small_graphs())
def test_flags_at_and_degree_match_an_edge_scan(g):
    for v in g.vertices:
        expected = _scan_flags(g, v)
        assert flags_at(g, v) == expected
        assert degree(g, v) == len(expected)


@given(small_graphs(), st.text(min_size=1, max_size=3))
def test_unknown_vertex_raises_after_indexing(g, v):
    assume(v not in g.vertices)
    for w in g.vertices:
        flags_at(g, w)
    with pytest.raises(UnknownVertex):
        flags_at(g, v)
    with pytest.raises(UnknownVertex):
        degree(g, v)


@given(small_graphs())
def test_index_leaves_equality_and_repr_unchanged(g):
    twin = graph(g.vertices, dict(g.edges), g.circles)
    before = repr(g)
    assert set(g.incidence) == set(g.vertices)
    assert g == twin and twin == g
    assert repr(g) == before == repr(twin)


def test_graph_keeps_edges_given_in_reverse_in_id_order():
    # `graph` decides the order once; the readers iterate as stored
    edges = {"e1": ("u", "u"), "e10": ("v", "u"), "e2": ("u", "v")}
    g = graph(["v", "u"], dict(reversed(edges.items())), ["o2", "o1"])
    assert list(g.edges) == ["e1", "e10", "e2"]
    assert g.arcs() == ("e1", "e10", "e2", "o1", "o2")
    assert g.incidence["u"] == (Flag("e1", "src"), Flag("e1", "tgt"),
                                Flag("e10", "tgt"), Flag("e2", "src"))
    assert repr(g) == ("Graph(V=['u', 'v'], E=[e1:u->u, e10:v->u, e2:u->v], "
                       "O=['o1', 'o2'])")
    assert g == graph(["u", "v"], edges, ["o1", "o2"])
