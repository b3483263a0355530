import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dpoembed import (
    Flag,
    MatchRequest,
    check_rot_morphism,
    classify_re_pairings,
    cyclic_equal,
    find_matches,
    genus_report,
    graph,
    identity,
    morphism,
    rewrite,
    rot_complement,
    rot_pushout,
    rotation_system,
    trace_faces,
    validate_rotation,
)
from dpoembed.boundary import (
    BoundaryEmbedding,
    BoundaryEmbeddingInvariantViolated,
    BoundaryGraph,
    PartitioningSpan,
)
from dpoembed.rotation import FWD, REV, RotationError
from dpoembed.serialize import read_document

from conftest import FIXTURES, count_calls


def bouquet(n):
    return graph(["v"], {chr(ord("a") + i): ("v", "v") for i in range(n)})


def test_cyclic_equal_rotation_only():
    assert cyclic_equal("abc", "bca")
    assert not cyclic_equal("abc", "acb")  # reflection is not allowed
    assert cyclic_equal((), ())


def test_validate_rotation_reports_missing_and_extra():
    g = bouquet(1)
    rs = rotation_system(g, {"v": [Flag("a", "src")]})
    codes = validate_rotation(rs).codes()
    assert "MissingFlag" in codes
    rs2 = rotation_system(g, {"v": [Flag("a", "src"), Flag("a", "tgt"),
                                    Flag("b", "src")]})
    assert "ExtraFlag" in validate_rotation(rs2).codes()


def test_single_loop_two_faces_genus_zero():
    g = bouquet(1)
    rs = rotation_system(g, {"v": [Flag("a", "src"), Flag("a", "tgt")]})
    faces = trace_faces(rs)
    assert len(faces) == 2
    rep = genus_report(rs)
    assert rep.components[0].face_count == 2
    assert rep.components[0].genus == 0
    assert rep.is_planar


def test_interleaved_loops_one_face_genus_one():
    g = bouquet(2)
    rs = rotation_system(g, {"v": [Flag("a", "src"), Flag("b", "src"),
                                   Flag("a", "tgt"), Flag("b", "tgt")]})
    assert len(trace_faces(rs)) == 1
    rep = genus_report(rs)
    assert rep.components[0].genus == 1
    assert not rep.is_planar


def test_nested_loops_three_faces_genus_zero():
    g = bouquet(2)
    rs = rotation_system(g, {"v": [Flag("a", "src"), Flag("a", "tgt"),
                                   Flag("b", "src"), Flag("b", "tgt")]})
    assert len(trace_faces(rs)) == 3
    assert genus_report(rs).components[0].genus == 0


def test_genus_is_relabel_invariant():
    g = bouquet(2)
    rs = rotation_system(g, {"v": [Flag("a", "src"), Flag("b", "src"),
                                   Flag("a", "tgt"), Flag("b", "tgt")]})
    relabeled = graph(["z"], {"q": ("z", "z"), "r": ("z", "z")})
    rs2 = rotation_system(relabeled,
                          {"z": [Flag("q", "src"), Flag("r", "src"),
                                 Flag("q", "tgt"), Flag("r", "tgt")]})
    assert genus_report(rs).components[0].genus == \
        genus_report(rs2).components[0].genus


def test_circle_component_convention():
    g = graph([], {}, ["o"])
    rep = genus_report(rotation_system(g, {}))
    assert rep.components[0].face_count == 2
    assert rep.components[0].genus == 0


def test_isolated_vertex_single_face():
    rep = genus_report(rotation_system(graph(["v"]), {"v": []}))
    assert rep.components[0].face_count == 1
    assert rep.components[0].euler_characteristic == 2


def test_multi_component_flagged_underdetermined():
    g = graph(["v", "w"])
    rep = genus_report(rotation_system(g, {"v": [], "w": []}))
    assert rep.embedding_underdetermined


def random_rotation(g, rng):
    inc = {}
    for v in g.sorted_vertices():
        fls = sorted(
            Flag(e, end) for e in g.edges for end in ("src", "tgt")
            if (g.source(e) if end == "src" else g.target(e)) == v)
        rng.shuffle(fls)
        inc[v] = fls
    return rotation_system(g, inc)


def random_graph(rng):
    n = rng.randint(1, 5)
    vs = [f"v{i}" for i in range(n)]
    edges = {f"e{i}": (rng.choice(vs), rng.choice(vs))
             for i in range(rng.randint(0, 7))}
    return graph(vs, edges)


def test_face_side_conservation_random():
    rng = random.Random(42)
    for _ in range(1000):
        g = random_graph(rng)
        rs = random_rotation(g, rng)
        faces = trace_faces(rs)
        darts = [d for walk in faces for d in walk]
        assert sorted(darts) == sorted(
            (e, direction) for e in g.edges for direction in (FWD, REV))
        genus_report(rs)  # no assertion failures on any random system


def test_check_rot_morphism_identity():
    g = bouquet(2)
    rs = rotation_system(g, {"v": [Flag("a", "src"), Flag("a", "tgt"),
                                   Flag("b", "src"), Flag("b", "tgt")]})
    assert check_rot_morphism(identity(g), rs, rs)
    other = rotation_system(g, {"v": [Flag("a", "src"), Flag("b", "src"),
                                      Flag("a", "tgt"), Flag("b", "tgt")]})
    assert not check_rot_morphism(identity(g), rs, other)


def _interleaving_fixture():
    b = BoundaryGraph(
        graph(["bnd", "dbd"], {"e1": ("bnd", "dbd"), "e2": ("dbd", "bnd"),
                               "e3": ("bnd", "dbd"), "e4": ("dbd", "bnd")}),
        "bnd", "dbd")
    left = graph(["v"], {"a": ("v", "v"), "b": ("v", "v")})
    l = morphism(b.graph, left, {"bnd": "v"},
                 {"e1": "a", "e2": "a", "e3": "b", "e4": "b"})
    host = graph([], {}, ["o"])
    m = morphism(left, host, {}, {"a": "o", "b": "o"})
    be = BoundaryEmbedding(b, left, host, l, m)
    rot_b = rotation_system(b.graph, {
        "bnd": [Flag("e1", "src"), Flag("e2", "tgt"),
                Flag("e3", "src"), Flag("e4", "tgt")],
        "dbd": [Flag("e1", "tgt"), Flag("e2", "src"),
                Flag("e4", "src"), Flag("e3", "tgt")]})
    rot_l = rotation_system(left, {
        "v": [Flag("a", "src"), Flag("a", "tgt"),
              Flag("b", "src"), Flag("b", "tgt")]})
    rot_h = rotation_system(host, {})
    return be, rot_b, rot_l, rot_h


def test_circle_interleaving_complement_not_planar():
    # two nested loops around the boundary map onto one circle: the
    # unique re-pairing forces an interleaved dual boundary, so the
    # complement lives on the torus
    be, rot_b, rot_l, rot_h = _interleaving_fixture()
    out = classify_re_pairings(be, rot_b, rot_l, rot_h)
    assert len(out) == 1
    _, report = out[0]
    assert report.max_genus >= 1
    assert not report.is_planar
    assert classify_re_pairings(be, rot_b, rot_l, rot_h,
                                planar_only=True) == []


def test_rot_complement_dual_rotation_copied():
    be, rot_b, rot_l, rot_h = _interleaving_fixture()
    comp, rs = rot_complement(be, rot_b, rot_l, rot_h)
    dual_rot = rs.rotation(comp.dual_boundary)
    mapped = tuple(Flag(comp.c.amap[fl.edge], fl.end)
                   for fl in rot_b.rotation(be.b.dual_boundary))
    assert dual_rot == mapped


def test_rot_pushout_preserves_rotations(two_edge_boundary, loop_left):
    left, l = loop_left
    ctx = graph(["w"], {"c": ("w", "w")})
    c = morphism(two_edge_boundary.graph, ctx, {"dbd": "w"},
                 {"e1": "c", "e2": "c"})
    span = PartitioningSpan(two_edge_boundary, left, ctx, l, c)
    rot_b = rotation_system(two_edge_boundary.graph, {
        "bnd": [Flag("e1", "src"), Flag("e2", "tgt")],
        "dbd": [Flag("e1", "tgt"), Flag("e2", "src")]})
    rot_l = rotation_system(left, {"v": [Flag("a", "src"), Flag("a", "tgt")]})
    rot_c = rotation_system(ctx, {"w": [Flag("c", "tgt"), Flag("c", "src")]})
    po, rs = rot_pushout(span, rot_b, rot_l, rot_c)
    assert len(po.graph.circles) == 1
    assert validate_rotation(rs).ok


def test_rot_complement_rejects_non_preserving_leg():
    be, rot_b, _, rot_h = _interleaving_fixture()
    # interleaved order at v disagrees with the nested boundary rotation
    bad_l = rotation_system(be.left, {
        "v": [Flag("a", "src"), Flag("b", "src"),
              Flag("a", "tgt"), Flag("b", "tgt")]})
    with pytest.raises(RotationError):
        rot_complement(be, rot_b, bad_l, rot_h)


def _bouquet_on_circle(k):
    """k loops at one vertex, all matched onto one host circle beside a
    host triangle: (k-1)! re-pairing solutions."""
    b_edges = {}
    for j in range(k):
        b_edges[f"p{j}"] = ("bnd", "dbd")
        b_edges[f"n{j}"] = ("dbd", "bnd")
    b = BoundaryGraph(graph(["bnd", "dbd"], b_edges), "bnd", "dbd")
    left = graph(["v"], {f"a{j}": ("v", "v") for j in range(k)})
    l = morphism(b.graph, left, {"bnd": "v"},
                 {e: f"a{e[1:]}" for e in b_edges})
    host = graph(["x", "y", "z"], {"f": ("x", "y"), "g": ("y", "z"),
                                   "h": ("z", "x")}, ["o"])
    m = morphism(left, host, {}, {f"a{j}": "o" for j in range(k)})
    be = BoundaryEmbedding(b, left, host, l, m)
    rot_b = rotation_system(b.graph, {
        "bnd": [fl for j in range(k)
                for fl in (Flag(f"p{j}", "src"), Flag(f"n{j}", "tgt"))],
        "dbd": [fl for j in reversed(range(k))
                for fl in (Flag(f"n{j}", "src"), Flag(f"p{j}", "tgt"))]})
    rot_l = rotation_system(left, {
        "v": [fl for j in range(k)
              for fl in (Flag(f"a{j}", "src"), Flag(f"a{j}", "tgt"))]})
    rot_h = rotation_system(host, {
        "x": [Flag("f", "src"), Flag("h", "tgt")],
        "y": [Flag("g", "src"), Flag("f", "tgt")],
        "z": [Flag("h", "src"), Flag("g", "tgt")]})
    return be, rot_b, rot_l, rot_h


@pytest.mark.parametrize("k", [4, 5])
def test_classify_re_pairings_validates_each_rotation_once(monkeypatch, k):
    # the three input rotations once, then each solution's constructed
    # rotation once as a postcondition
    args = _bouquet_on_circle(k)
    calls = count_calls(monkeypatch, validate_rotation)
    out = classify_re_pairings(*args)
    assert len(out) == math.factorial(k - 1)
    assert calls[0] <= len(out) + 3


def test_classify_re_pairings_agrees_with_rot_complement():
    be, rot_b, rot_l, rot_h = _bouquet_on_circle(4)
    for solution, report in classify_re_pairings(be, rot_b, rot_l, rot_h):
        _, rs = rot_complement(be, rot_b, rot_l, rot_h, solution)
        assert report == genus_report(rs)


def test_classify_re_pairings_checks_embedding_before_rotations():
    be, rot_b, rot_l, rot_h = _bouquet_on_circle(4)
    bad_be = BoundaryEmbedding(be.b, be.left, be.host, be.l,
                               morphism(be.left, be.host, {}, {}))
    with pytest.raises(BoundaryEmbeddingInvariantViolated):
        classify_re_pairings(bad_be, rot_b, rot_l, rot_l)
    with pytest.raises(RotationError):
        classify_re_pairings(be, rot_b, rot_l, rot_l)


def test_rewrite_with_rotations_is_rot_complement_then_rot_pushout():
    _, (rule, host, _, rots) = read_document(
        (FIXTURES / "match_rotation_loop.json").read_text())
    matches = find_matches(MatchRequest(rule, host))
    assert matches
    for mt in matches:
        result, trace = rewrite(rule, host, mt.m, rotations=rots)
        be = BoundaryEmbedding(rule.b, rule.left, host, rule.l, mt.m)
        comp, rs_ctx = rot_complement(be, rots["boundary"], rots["left"],
                                      rots["host"])
        po, rs = rot_pushout(
            PartitioningSpan(rule.b, rule.right, comp.context, rule.r,
                             comp.c),
            rots["boundary"], rots["right"], rs_ctx)
        assert result == po.graph == trace.result_pushout.graph
        assert trace.complement == comp
        assert trace.context_rotation == rs_ctx
        assert trace.result_rotation == rs
        _, plain = rewrite(rule, host, mt.m)
        assert plain.result_pushout == po
        assert plain.context_rotation is None and plain.result_rotation is None
