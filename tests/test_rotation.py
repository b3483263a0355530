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
    NEG,
    POS,
    BoundaryEmbedding,
    BoundaryEmbeddingInvariantViolated,
    BoundaryGraph,
    PartitioningSpan,
    red_unmatched_nodes,
)
from dpoembed.graph import connected_components, flags_at
from dpoembed.lawcheck import (
    GenBudget,
    _boundary,
    _build_side,
    _decos,
    gen_graphs,
)
from dpoembed.morphism import flag_map
from dpoembed.oracle import all_rotations
from dpoembed.rotation import FWD, REV, RotationError
from dpoembed.serialize import read_document

from conftest import FIXTURES, bouquet_rotations, count_calls


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
    for v in g.vertices:
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


def _naive_faces(rs):
    """Face walks from the definition: every step looks the arrival
    flag up in its vertex's rotation and leaves by the next flag."""
    g = rs.graph
    where = {fl: v for v in g.vertices for fl in rs.rotation(v)}

    def after(d):
        e, direction = d
        fl = Flag(e, "tgt" if direction == FWD else "src")
        rot = rs.rotation(where[fl])
        nxt = rot[(rot.index(fl) + 1) % len(rot)]
        return (nxt.edge, FWD if nxt.end == "src" else REV)

    faces, seen = [], set()
    for start in [(e, x) for e in sorted(g.edges) for x in (FWD, REV)]:
        walk, d = [], start
        while d not in seen:
            seen.add(d)
            walk.append(d)
            d = after(d)
        if walk:
            faces.append(tuple(walk))
    return faces


def test_trace_faces_equals_the_naive_walk_on_every_small_rotation():
    budget = GenBudget(max_vertices=3, max_edges=3, max_circles=1)
    systems = [rs for g in gen_graphs(budget) for rs in all_rotations(g)]
    assert len(systems) > 3000
    for rs in systems:
        faces = trace_faces(rs)
        assert faces == _naive_faces(rs)
        darts = [d for walk in faces for d in walk]
        assert sorted(darts) == sorted(
            (e, x) for e in rs.graph.edges for x in (FWD, REV))


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
    rot_h = rotation_system(host, {
        "x": [Flag("f", "src"), Flag("h", "tgt")],
        "y": [Flag("g", "src"), Flag("f", "tgt")],
        "z": [Flag("h", "src"), Flag("g", "tgt")]})
    return be, {**bouquet_rotations(be), "host": rot_h}


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


def test_classify_re_pairings_builds_no_morphism_per_solution(monkeypatch):
    # the first solution's complement and the touched part's match are
    # morphisms; every other solution is wired from arc tables
    built = {}
    for k in (4, 5):
        args = _bouquet_on_circle(k)
        calls = count_calls(monkeypatch, morphism)
        assert len(classify_re_pairings(*args)) == math.factorial(k - 1)
        built[k] = calls[0]
        monkeypatch.undo()
    assert built[4] == built[5]


def _bouquet_on_chord(k, seed):
    """k loops at v, all matched onto the chord u0 -> u3 of a 6-cycle,
    beside an untouched triangle and a circle, with seeded random
    rotations on B, and so on L, and on the host: k! re-pairing
    solutions, whose dangling edges to u0 and u3 come from different
    unmatched red nodes."""
    rng = random.Random(seed)
    b_edges = {}
    for j in range(k):
        b_edges[f"p{j}"] = ("bnd", "dbd")
        b_edges[f"n{j}"] = ("dbd", "bnd")
    b = BoundaryGraph(graph(["bnd", "dbd"], b_edges), "bnd", "dbd")
    left = graph(["v"], {f"a{j}": ("v", "v") for j in range(k)})
    l = morphism(b.graph, left, {"bnd": "v"},
                 {e: f"a{e[1:]}" for e in b_edges})
    edges = {f"c{i}": (f"u{i}", f"u{(i + 1) % 6}") for i in range(6)}
    edges.update({f"s{i}": (f"t{i}", f"t{(i + 1) % 3}") for i in range(3)})
    edges["h"] = ("u0", "u3")
    host = graph([f"u{i}" for i in range(6)] + ["t0", "t1", "t2"], edges,
                 ["o"])
    m = morphism(left, host, {}, {f"a{j}": "h" for j in range(k)})
    rot_b = rotation_system(b.graph, {
        v: _shuffled(rng, flags_at(b.graph, v)) for v in b.graph.vertices})
    lm = flag_map(l)
    rot_l = rotation_system(left, {
        "v": [lm[fl] for fl in rot_b.rotation("bnd")]})
    rot_h = rotation_system(host, {
        v: _shuffled(rng, flags_at(host, v)) for v in host.vertices})
    return (BoundaryEmbedding(b, left, host, l, m),
            {"boundary": rot_b, "left": rot_l, "host": rot_h})


def _rotation_from_legs(be, comp, rots):
    """The context rotation read off the complement's legs: a survivor's
    host rotation through the inverse of g's flag map, and B's rotation
    at the dual boundary through c's flag map."""
    inv = {w: fl for fl, w in flag_map(comp.g).items()}
    inc = {v: [inv[fl] for fl in rots["host"].rotation(w)]
           for v, w in comp.g.vmap.items()}
    c_fm = flag_map(comp.c)
    inc[comp.dual_boundary] = [
        c_fm[fl] for fl in rots["boundary"].rotation(be.b.dual_boundary)]
    return rotation_system(comp.context, inc)


def _classified_as_each_complement(be, rots):
    """classify_re_pairings(be, rots), checked solution by solution
    against the whole complement: its rotation is the one its legs
    give, and its genus report is the classified one."""
    out = classify_re_pairings(be, rots)
    assert [s for s, _ in out] == enumerate_re_pairings(be)
    for i, (_, report) in enumerate(out):
        comp = pushout_complement(be, i, rots)
        assert comp.rotation == _rotation_from_legs(be, comp, rots)
        assert report == genus_report(comp.rotation)
    return out


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_classify_re_pairings_on_loops_onto_a_host_edge(k, seed):
    be, rots = _bouquet_on_chord(k, seed)
    out = _classified_as_each_complement(be, rots)
    assert len(out) == math.factorial(k)
    assert len({tuple(red_unmatched_nodes(s)) for s, _ in out}) > 1
    # the 6-cycle with the dual, the triangle and the circle
    assert {len(r.components) for _, r in out} == {3}


def test_classify_re_pairings_on_the_chord_fixture():
    _, (be, rots) = read_document(
        (FIXTURES / "boundary_embedding_chord_bouquet.json").read_text())
    out = _classified_as_each_complement(be, rots)
    assert [r.max_genus for _, r in out] == [1, 0, 0, 1, 1, 0]
    # the untouched components are the same objects in every report
    for _, report in out[1:]:
        assert all(a is b for a, b in zip(report.components[1:],
                                          out[0][1].components[1:]))


def test_classify_re_pairings_on_random_embeddings_matches_the_legs():
    for seed in range(60):
        _classified_as_each_complement(*_random_rotated_embedding(seed))


def test_parsed_and_wired_flags_are_flags():
    # both are built by tuple.__new__, as Graph.incidence builds flags
    _, (be, rots) = read_document(
        (FIXTURES / "boundary_embedding_chord_bouquet.json").read_text())
    comp = pushout_complement(be, 3, rots)
    # the dual's rotation, and the survivor flags renamed to the two
    # dangling edges' flags, are wired
    wired = {v for v, fls in comp.rotation.inc.items()
             if any(fl.edge not in be.host.edges for fl in fls)}
    assert wired == {comp.dual_boundary, "u0", "u3"}
    for rs in (*rots.values(), comp.rotation):
        for fls in rs.inc.values():
            for fl in fls:
                assert type(fl) is Flag
                assert fl == Flag(fl.edge, fl.end)
                assert str(fl) == f"{fl.edge}.{fl.end}"


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


def test_rewrite_with_rotations_validates_the_context_and_result_once(
        monkeypatch):
    # the document's rotations are validated as it loads; the step then
    # validates the context rotation, in the span's rotation check, and
    # the result rotation
    _, (rule, host, _, rots) = read_document(
        (FIXTURES / "match_rotation_loop.json").read_text())
    m = find_matches(rule, host)[0].m
    calls = count_calls(monkeypatch, validate_rotation)
    _, trace = rewrite(rule, host, m, rotations=rots)
    assert calls == [2]
    assert "report" in trace.complement.rotation.__dict__


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


def _shuffled(rng, items):
    items = sorted(items)
    rng.shuffle(items)
    return items


def _renamed(g, rs, vnames, anames):
    """g and its rotation with vertex and arc ids replaced."""
    h = graph((vnames[v] for v in g.vertices),
              {anames[e]: (vnames[s], vnames[t])
               for e, (s, t) in g.edges.items()},
              (anames[o] for o in g.circles))
    return h, rotation_system(h, {
        vnames[v]: [Flag(anames[fl.edge], fl.end) for fl in rs.rotation(v)]
        for v in g.vertices})


# ids that `pushout_complement` picks for its fresh dual vertex, loops and
# dangling edges, and their first "+" variants
_CLASHING = ["dbd", "dbd+", "p0", "p1", "n0", "n1", "p0+", "n1+"]


def _random_span(rng):
    """A partitioning span with up to five self-loops on each side, L's
    as many as it can have, so that several loops of L end up on one
    host arc: a re-pairing problem with several solutions.  L is
    connected."""
    npos, nneg = rng.randint(1, 5), rng.randint(1, 5)
    most = min(npos, nneg)
    b = _boundary(npos + nneg, npos)
    pos = [e for e in b.boundary_edges() if b.polarity(e) == POS]
    neg = [e for e in b.boundary_edges() if b.polarity(e) == NEG]
    sides = []
    for prefix, at, lo in (("L", b.boundary, most), ("C", b.dual_boundary, 0)):
        j = rng.randint(lo, most)
        matching = tuple(zip(rng.sample(pos, j), rng.sample(neg, j)))
        paired = {x for pn in matching for x in pn}
        unmatched = [e for e in b.boundary_edges() if e not in paired]
        # L gets one interior vertex, and only when an edge reaches it
        k = int(bool(unmatched)) if prefix == "L" else rng.randint(
            int(bool(unmatched)), 2)
        interior = [f"{prefix}i{i}" for i in range(k)]
        decos = ["none", "loop"][:k + 1] if prefix == "L" else _decos(
            k, GenBudget(), 0)
        sides.append(_build_side(
            b, prefix, at, prefix == "L", matching,
            {e: rng.choice(interior) for e in unmatched}, interior,
            rng.choice(decos)))
    (left, l), (ctx, c) = sides
    return PartitioningSpan(b, left, ctx, l, c)


def _random_rotated_embedding(seed):
    """(embedding, rotations) from a random partitioning span's pushout
    with random rotations; the host's ids are renamed onto ones the
    fresh names collide with, and random untouched components are set
    beside it."""
    rng = random.Random(seed)
    span = _random_span(rng)
    b = span.b
    rot_b = rotation_system(b.graph, {v: _shuffled(rng, flags_at(b.graph, v))
                                      for v in b.graph.vertices})

    def side(g, leg, at):
        # the leg's vertex takes the boundary rotation, so the leg
        # preserves rotations; every other vertex is random
        inc = {v: _shuffled(rng, flags_at(g, v)) for v in g.vertices}
        fm = flag_map(leg)
        inc[leg.vmap[at]] = [fm[fl] for fl in rot_b.rotation(at)]
        return rotation_system(g, inc)

    rot_l = side(span.left, span.l, b.boundary)
    po = pushout(span, {"boundary": rot_b, "left": rot_l,
                        "context": side(span.context, span.c,
                                        b.dual_boundary)})
    g = po.graph
    vpool = _CLASHING + [f"w{i}" for i in range(len(g.vertices) + 4)]
    apool = _CLASHING + [f"x{i}" for i in range(len(g.arcs()) + 6)]
    rng.shuffle(vpool)
    rng.shuffle(apool)
    vnames = dict(zip(g.vertices, vpool))
    anames = dict(zip(g.arcs(), apool))
    host, rot_h = _renamed(g, po.rotation, vnames, anames)
    m = morphism(span.left, host,
                 {x: vnames[y] for x, y in po.m.vmap.items()},
                 {x: anames[y] for x, y in po.m.amap.items()})
    # untouched components on the ids left over
    extra_vs = vpool[len(g.vertices):][:rng.randint(0, 4)]
    extra_as = apool[len(g.arcs()):]
    n_edges = rng.randint(0, 5) if extra_vs else 0
    n_circles = rng.randint(0, 2)
    host = graph(host.vertices | set(extra_vs),
                 {**host.edges, **{e: (rng.choice(extra_vs),
                                       rng.choice(extra_vs))
                                   for e in extra_as[:n_edges]}},
                 host.circles | set(extra_as[n_edges:n_edges + n_circles]))
    inc = dict(rot_h.inc)
    inc.update({v: _shuffled(rng, flags_at(host, v)) for v in extra_vs})
    be = BoundaryEmbedding(b, span.left, host, span.l,
                           morphism(span.left, host, m.vmap, m.amap))
    return be, {"boundary": rot_b, "left": rot_l,
                "host": rotation_system(host, inc)}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_classify_re_pairings_agrees_with_naive_per_solution(seed):
    # genus_report of each solution's whole complement is the oracle
    be, rots = _random_rotated_embedding(seed)
    out = classify_re_pairings(be, rots)
    assert [s for s, _ in out] == enumerate_re_pairings(be)
    assert [r for _, r in out] == [
        genus_report(pushout_complement(be, i, rots).rotation)
        for i in range(len(out))]


def test_random_rotated_embeddings_cover_the_local_cases():
    # the generator above reaches every case the local classification
    # must get right: matches inside a larger component (dangling edges
    # to the dual), untouched components, untouched ids that the fresh
    # names start from, and more than one solution
    seen = set()
    for seed in range(300):
        be, rots = _random_rotated_embedding(seed)
        comp = pushout_complement(be, rotations=rots)
        if any(s != t and comp.dual_boundary in (s, t)
               for s, t in comp.context.edges.values()):
            seen.add("dangling edge")
        vimg, aimg = set(be.m.vmap.values()), set(be.m.amap.values())
        for vs, arcs in connected_components(be.host):
            if not (vs & vimg or arcs & aimg):
                seen.add("untouched component")
                if be.b.dual_boundary in vs or arcs & set(be.b.graph.edges):
                    seen.add("untouched id clashes")
        if len(enumerate_re_pairings(be)) > 1:
            seen.add("several solutions")
    assert seen == {"dangling edge", "untouched component",
                    "untouched id clashes", "several solutions"}


def _bouquet_beside_grid(k, side):
    """`_bouquet_on_circle(k)` with the triangle replaced by a side x
    side grid in its planar rotation."""
    be, rots = _bouquet_on_circle(k)
    vid = lambda i, j: f"g{i}_{j}"
    edges, inc = {}, {}
    for i in range(side):
        for j in range(side):
            if j + 1 < side:
                edges[f"x{i}_{j}"] = (vid(i, j), vid(i, j + 1))
            if i + 1 < side:
                edges[f"y{i}_{j}"] = (vid(i, j), vid(i + 1, j))
    for i in range(side):
        for j in range(side):
            # counterclockwise: right, up, left, down
            inc[vid(i, j)] = [fl for fl, ok in (
                (Flag(f"x{i}_{j}", "src"), j + 1 < side),
                (Flag(f"y{i - 1}_{j}", "tgt"), i > 0),
                (Flag(f"x{i}_{j - 1}", "tgt"), j > 0),
                (Flag(f"y{i}_{j}", "src"), i + 1 < side)) if ok]
    host = graph(inc, edges, ["o"])
    m = morphism(be.left, host, {}, be.m.amap)
    return (BoundaryEmbedding(be.b, be.left, host, be.l, m),
            dict(rots, host=rotation_system(host, inc)))


def test_classify_re_pairings_traces_only_the_touched_part_per_solution(
        monkeypatch):
    # count, not time: the sizes of the graphs genus_report traces
    import dpoembed.dpo as dpo
    real = dpo.genus_report
    traced = {}
    for side in (4, 8):
        sizes = traced[side] = []

        def recording(rs):
            g = rs.graph
            sizes.append((len(g.vertices), len(g.edges), len(g.circles)))
            return real(rs)

        monkeypatch.setattr(dpo, "genus_report", recording)
        be, rots = _bouquet_beside_grid(4, side)
        out = classify_re_pairings(be, rots)
        assert len(out) == 6 and len(sizes) == 7
        grid = out[0][1].components[1]
        assert grid.genus == 0 and grid.face_count == (side - 1) ** 2 + 1
    # the host is traced whole once, from its own rotation, and every
    # solution only at the dual vertex with its four loops
    assert traced[4][0] == (16, 24, 1) and traced[8][0] == (64, 112, 1)
    assert traced[4][1:] == traced[8][1:] == [(1, 4, 0)] * 6


def test_genus_report_counts_faces_per_component_with_many_components():
    # one loop (2 faces), two interleaved loops (1 face, genus 1), an
    # isolated vertex (1 face), each 200 times, plus 50 circles
    edges, inc, expected = {}, {}, {}
    for i in range(200):
        a, b, c, z = f"a{i:03d}", f"b{i:03d}", f"c{i:03d}", f"z{i:03d}"
        edges[a] = (a, a)
        inc[a] = [Flag(a, "src"), Flag(a, "tgt")]
        edges[b] = edges[c] = (b, b)
        inc[b] = [Flag(b, "src"), Flag(c, "src"),
                  Flag(b, "tgt"), Flag(c, "tgt")]
        inc[z] = []
        expected.update({a: (2, 0), b: (1, 1), z: (1, 0)})
    circles = [f"o{i:02d}" for i in range(50)]
    expected.update((o, (2, 0)) for o in circles)
    rs = rotation_system(graph(inc, edges, circles), inc)
    report = genus_report(rs)
    assert {(c.vertices or c.arcs)[0]: (c.face_count, c.genus)
            for c in report.components} == expected
    faces = trace_faces(rs)
    for comp in report.components:
        if comp.edge_count:
            assert comp.face_count == sum(
                1 for walk in faces if walk[0][0] in comp.arcs)
