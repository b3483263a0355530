import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dpoembed import (
    Flag,
    check_rot_morphism,
    classify_re_pairings,
    cyclic_equal,
    enumerate_re_pairings,
    find_matches,
    genus_report,
    graph,
    identity,
    morphism,
    pushout,
    pushout_complement,
    rewrite,
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
    return be, {"boundary": rot_b, "left": rot_l, "host": rot_h}


def test_circle_interleaving_complement_not_planar():
    # two nested loops around the boundary map onto one circle: the
    # unique re-pairing forces an interleaved dual boundary, so the
    # complement lives on the torus
    be, rots = _interleaving_fixture()
    out = classify_re_pairings(be, rots)
    assert len(out) == 1
    _, report = out[0]
    assert report.max_genus >= 1
    assert not report.is_planar


def test_rot_complement_dual_rotation_copied():
    be, rots = _interleaving_fixture()
    comp = pushout_complement(be, rotations=rots)
    dual_rot = comp.rotation.rotation(comp.dual_boundary)
    mapped = tuple(Flag(comp.c.amap[fl.edge], fl.end)
                   for fl in rots["boundary"].rotation(be.b.dual_boundary))
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
    po = pushout(span, {"boundary": rot_b, "left": rot_l, "context": rot_c})
    assert len(po.graph.circles) == 1
    assert validate_rotation(po.rotation).ok
    assert pushout(span).rotation is None


def test_rot_complement_rejects_non_preserving_leg():
    be, rots = _interleaving_fixture()
    # interleaved order at v disagrees with the nested boundary rotation
    bad_l = rotation_system(be.left, {
        "v": [Flag("a", "src"), Flag("b", "src"),
              Flag("a", "tgt"), Flag("b", "tgt")]})
    with pytest.raises(RotationError, match="^l does not preserve"):
        pushout_complement(be, rotations=dict(rots, left=bad_l))


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
    return be, {"boundary": rot_b, "left": rot_l, "host": rot_h}


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
    be, rots = _bouquet_on_circle(4)
    solutions = enumerate_re_pairings(be)
    out = classify_re_pairings(be, rots)
    assert [s for s, _ in out] == solutions
    for i, (_, report) in enumerate(out):
        comp = pushout_complement(be, i, rots)
        assert report == genus_report(comp.rotation)


def test_classify_re_pairings_checks_embedding_before_rotations():
    be, rots = _bouquet_on_circle(4)
    bad_be = BoundaryEmbedding(be.b, be.left, be.host, be.l,
                               morphism(be.left, be.host, {}, {}))
    wrong = dict(rots, host=rots["left"])
    with pytest.raises(BoundaryEmbeddingInvariantViolated):
        classify_re_pairings(bad_be, wrong)
    with pytest.raises(RotationError):
        classify_re_pairings(be, wrong)


def test_rewrite_with_rotations_is_rot_complement_then_rot_pushout():
    _, (rule, host, _, rots) = read_document(
        (FIXTURES / "match_rotation_loop.json").read_text())
    matches = find_matches(rule, host)
    assert matches
    for be in matches:
        result, trace = rewrite(rule, host, be.m, rotations=rots)
        comp = pushout_complement(be, rotations=rots)
        po = pushout(
            PartitioningSpan(rule.b, rule.right, comp.context, rule.r,
                             comp.c),
            {"boundary": rots["boundary"], "left": rots["right"],
             "context": comp.rotation})
        assert result == po.graph == trace.result_pushout.graph
        assert trace.complement == comp
        assert trace.result_pushout == po
        _, plain = rewrite(rule, host, be.m)
        assert plain.result_pushout == replace(po, rotation=None)
        assert plain.complement == replace(comp, rotation=None)


def _rotation_entries():
    """Each entry that takes rotations, as a function of the mapping,
    with a complete mapping for it."""
    _, (span, span_rots) = read_document(
        (FIXTURES / "span_rotation_loop.json").read_text())
    be, be_rots = _interleaving_fixture()
    _, (rule, host, _, rots) = read_document(
        (FIXTURES / "match_rotation_loop.json").read_text())
    m = find_matches(rule, host)[0].m
    return {
        "pushout": (lambda r: pushout(span, r), span_rots),
        "pushout_complement": (
            lambda r: pushout_complement(be, rotations=r), be_rots),
        "classify_re_pairings": (
            lambda r: classify_re_pairings(be, r), be_rots),
        "rewrite": (lambda r: rewrite(rule, host, m, rotations=r), rots),
        "find_matches": (
            lambda r: find_matches(rule, host, r),
            {"left": rots["left"], "host": rots["host"]}),
    }


@pytest.mark.parametrize("entry", ["pushout", "pushout_complement",
                                   "classify_re_pairings", "rewrite",
                                   "find_matches"])
def test_missing_role_is_named(entry):
    call, rots = _rotation_entries()[entry]
    call(rots)
    for role in rots:
        absent = {k: v for k, v in rots.items() if k != role}
        for partial in (absent, dict(absent, **{role: None})):
            with pytest.raises(RotationError,
                               match=f"^rotations required on: {role}$"):
                call(partial)


def test_find_matches_checks_the_rotations_it_is_given():
    _, (rule, host, _, rots) = read_document(
        (FIXTURES / "match_rotation_loop.json").read_text())
    assert len(find_matches(rule, host, rots)) == 2
    for wrong in ({"left": rots["host"], "host": rots["left"]},
                  {"left": rots["boundary"], "host": rots["host"]}):
        with pytest.raises(RotationError, match="^invalid rotation data"):
            find_matches(rule, host, wrong)
