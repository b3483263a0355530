import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import dpoembed
from dpoembed import (
    Flag,
    RewriteRule,
    check_match,
    check_rot_morphism,
    find_matches,
    graph,
    morphism,
    nth_match,
    rotation_system,
    validate_rule,
)
from dpoembed.boundary import BoundaryGraph
from dpoembed.oracle import (
    all_rotations,
    brute_force_matches,
    enumerate_maps,
    is_match,
    is_valid_rule,
)
from dpoembed.matcher import MAX_MATCHES, LNotConnected, MatchLimitExceeded
from dpoembed.morphism import classify

from conftest import count_calls


def keys(matches):
    return [be.m.key() for be in matches]


def test_loop_rule_matches_every_arc(loop_rule, mixed_host):
    found = find_matches(loop_rule, mixed_host)
    assert len(found) == len(mixed_host.arcs())
    assert keys(found) == keys(brute_force_matches(loop_rule, mixed_host))


@pytest.fixture
def path_rule(two_edge_boundary):
    """L is a path through one interior vertex u."""
    left = graph(["vb", "u"], {"x": ("vb", "u"), "y": ("u", "vb")})
    l = morphism(two_edge_boundary.graph, left, {"bnd": "vb"},
                 {"e1": "x", "e2": "y"})
    return RewriteRule(two_edge_boundary, left, left, l, l)


def test_interior_rule_agrees_with_brute_force(path_rule):
    host = graph(["p", "q"], {"f": ("p", "q"), "g": ("q", "p")})
    found = find_matches(path_rule, host)
    assert found
    assert keys(found) == keys(brute_force_matches(path_rule, host))


def test_interior_rule_on_mixed_host(path_rule, mixed_host):
    found = find_matches(path_rule, mixed_host)
    assert keys(found) == keys(brute_force_matches(path_rule, mixed_host))


def test_matches_are_sorted_and_distinct(loop_rule, mixed_host):
    found = keys(find_matches(loop_rule, mixed_host))
    assert found == sorted(found)
    assert len(set(found)) == len(found)


def test_degenerate_rule_has_no_matches(two_edge_boundary, mixed_host):
    left = graph(["vb"])
    l = morphism(two_edge_boundary.graph, left, {"bnd": "vb"}, {})
    rule = RewriteRule(two_edge_boundary, left, left, l, l)
    assert find_matches(rule, mixed_host) == []


def test_disconnected_left_rejected(two_edge_boundary, mixed_host):
    left = graph(["vb", "z"], {"a": ("vb", "vb")})
    l = morphism(two_edge_boundary.graph, left, {"bnd": "vb"},
                 {"e1": "a", "e2": "a"})
    rule = RewriteRule(two_edge_boundary, left, left, l, l)
    with pytest.raises(LNotConnected):
        find_matches(rule, mixed_host)


def test_misdirected_rule_has_no_matches(misdirected_rules, mixed_host):
    for rule, _ in misdirected_rules:
        assert find_matches(rule, mixed_host) == []
        assert brute_force_matches(rule, mixed_host) == []


def _circles(n):
    return graph([], {}, [f"o{i:05d}" for i in range(n)])


def test_match_limit(loop_rule):
    # the loop sits at the boundary image, so each host circle is a match
    found = find_matches(loop_rule, _circles(MAX_MATCHES))
    assert len(found) == MAX_MATCHES
    with pytest.raises(MatchLimitExceeded,
                       match=f"^more than {MAX_MATCHES} matches$"):
        find_matches(loop_rule, _circles(MAX_MATCHES + 1))


def test_check_match_rejects_map_onto_boundary_image(loop_rule, mixed_host):
    bad = morphism(loop_rule.left, mixed_host, {"v": "x"}, {"a": "h"})
    failures = check_match(loop_rule, mixed_host, bad)
    assert any(code == "MatchDefinedOnBoundaryImage"
               for code, _ in failures)


def _spoked_rule(two_edge_boundary):
    """Interior vertex of degree four: two path edges plus a self-loop."""
    left = graph(["vb", "u"],
                 {"x": ("vb", "u"), "y": ("u", "vb"), "z": ("u", "u")})
    l = morphism(two_edge_boundary.graph, left, {"bnd": "vb"},
                 {"e1": "x", "e2": "y"})
    return RewriteRule(two_edge_boundary, left, left, l, l)


def _spoked_host():
    return graph(["p", "q"],
                 {"hx": ("p", "q"), "hy": ("q", "p"), "hz": ("q", "q")})


@pytest.fixture
def rot_instance(two_edge_boundary):
    rule = _spoked_rule(two_edge_boundary)
    host = _spoked_host()
    rot_l = rotation_system(rule.left, {
        "vb": [Flag("x", "src"), Flag("y", "tgt")],
        "u": [Flag("x", "tgt"), Flag("z", "src"),
              Flag("z", "tgt"), Flag("y", "src")]})
    return rule, host, rot_l


def test_rotation_filter_keeps_preserving_match(rot_instance):
    rule, host, rot_l = rot_instance
    rot_h = rotation_system(host, {
        "p": [Flag("hx", "src"), Flag("hy", "tgt")],
        "q": [Flag("hx", "tgt"), Flag("hz", "src"),
              Flag("hz", "tgt"), Flag("hy", "src")]})
    found = find_matches(rule, host, {"left": rot_l, "host": rot_h})
    assert len(found) == 1
    assert found[0].m.vmap == {"u": "q"}


def test_rotation_filter_drops_twisted_match(rot_instance):
    rule, host, rot_l = rot_instance
    twisted = rotation_system(host, {
        "p": [Flag("hx", "src"), Flag("hy", "tgt")],
        "q": [Flag("hx", "tgt"), Flag("hz", "src"),
              Flag("hy", "src"), Flag("hz", "tgt")]})
    plain = find_matches(rule, host)
    assert len(plain) == 1
    filtered = find_matches(rule, host, {"left": rot_l, "host": twisted})
    assert filtered == []


def test_rotation_filter_matches_manual_check(rot_instance):
    rule, host, rot_l = rot_instance
    rot_h = rotation_system(host, {
        "p": [Flag("hx", "src"), Flag("hy", "tgt")],
        "q": [Flag("hx", "tgt"), Flag("hz", "src"),
              Flag("hz", "tgt"), Flag("hy", "src")]})
    plain = find_matches(rule, host)
    manual = [be for be in plain if check_rot_morphism(be.m, rot_l, rot_h)]
    filtered = find_matches(rule, host, {"left": rot_l, "host": rot_h})
    assert keys(filtered) == keys(manual)


def _boundary():
    return BoundaryGraph(
        graph(["bnd", "dbd"], {"e1": ("bnd", "dbd"), "e2": ("dbd", "bnd")}),
        "bnd", "dbd")


def _loop_rule():
    b = _boundary()
    left = graph(["v"], {"a": ("v", "v")})
    l = morphism(b.graph, left, {"bnd": "v"}, {"e1": "a", "e2": "a"})
    return RewriteRule(b, left, left, l, l)


def _path_rule():
    b = _boundary()
    left = graph(["vb", "u"], {"x": ("vb", "u"), "y": ("u", "vb")})
    l = morphism(b.graph, left, {"bnd": "vb"}, {"e1": "x", "e2": "y"})
    return RewriteRule(b, left, left, l, l)


def _cycle(n):
    vs = [f"c{i:03d}" for i in range(n)]
    return graph(vs, {f"k{i:03d}": (vs[i], vs[(i + 1) % n])
                      for i in range(n)})


@pytest.mark.parametrize("n", [50, 100])
def test_find_matches_classifies_each_candidate_once(monkeypatch, n):
    # the rule is validated once per search, so classify runs once per
    # candidate plus a constant (the rule's two legs)
    import dpoembed.matcher as matcher
    candidates = count_calls(monkeypatch, matcher.morphism)
    classified = count_calls(monkeypatch, classify)
    found = find_matches(_path_rule(), _cycle(n))
    assert len(found) == n
    assert candidates[0] >= n
    assert classified[0] <= candidates[0] + 3


def _invalid_rules():
    b = _boundary()
    left = graph(["v"], {"a": ("v", "v")})
    l = morphism(b.graph, left, {"bnd": "v"}, {"e1": "a", "e2": "a"})
    # right leg undefined on the boundary vertex: validate_rule fails
    r = morphism(b.graph, left, {}, {"e1": "a", "e2": "a"})
    # left leg over a copy of B with other edge ids: only the
    # boundary-embedding half (leg domains) catches it
    other = graph(["bnd", "dbd"], {"f1": ("bnd", "dbd"), "f2": ("dbd", "bnd")})
    l_other = morphism(other, left, {"bnd": "v"}, {"f1": "a", "f2": "a"})
    # left leg undefined on the boundary vertex
    l_none = morphism(b.graph, left, {}, {"e1": "a", "e2": "a"})
    return [RewriteRule(b, left, left, l, r),
            RewriteRule(b, left, left, l_other, l_other),
            RewriteRule(b, left, left, l_none, l)]


@pytest.mark.parametrize("index", range(3),
                         ids=["right-leg", "leg-domain", "left-leg"])
def test_invalid_rule_has_no_matches(mixed_host, index):
    rule = _invalid_rules()[index]
    assert find_matches(rule, mixed_host) == []
    assert brute_force_matches(rule, mixed_host) == []


def _host_shapes():
    """A few hosts in the range of `small_hosts`."""
    return [
        graph(),
        graph([], {}, ["o0"]),
        _spoked_host(),
        graph(["h0", "h1"], {"g0": ("h0", "h1"), "g1": ("h1", "h0"),
                             "g2": ("h0", "h1")}),
        graph(["h0", "h1", "h2"],
              {"g0": ("h0", "h1"), "g1": ("h1", "h2"), "g2": ("h2", "h0"),
               "g3": ("h1", "h1")}, ["o0"]),
    ]


def test_match_oracle_agrees_with_check_match(misdirected_rules,
                                              mixed_host):
    # the oracle's rule and match predicates are written from the
    # definitions and share no code with check_match; over every map
    # table from L, invalid maps and invalid rules included, they must
    # agree with it
    b = _boundary()
    point = graph(["vb"])
    degenerate = morphism(b.graph, point, {"bnd": "vb"}, {})
    split = graph(["vb", "z"], {"a": ("vb", "vb")})
    to_split = morphism(b.graph, split, {"bnd": "vb"}, {"e1": "a", "e2": "a"})
    rules = [_loop_rule(), _path_rule(), _spoked_rule(b), *_invalid_rules(),
             *(rule for rule, _ in misdirected_rules),
             RewriteRule(b, point, point, degenerate, degenerate),
             RewriteRule(b, split, split, to_split, to_split)]
    valid = [is_valid_rule(rule) for rule in rules]
    assert valid == [True] * 3 + [False] * 6 + [True]
    verdicts = Counter()
    for rule, ok in zip(rules, valid):
        for host in [mixed_host, *_host_shapes()]:
            for m in enumerate_maps(rule.left, host):
                expected = check_match(rule, host, m) == []
                assert (ok and is_match(rule, host, m)) == expected, m
                verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]


@st.composite
def small_hosts(draw):
    """Up to 4 vertices, 4 edges (self-loops and parallels allowed) and
    one circle."""
    n = draw(st.integers(0, 4))
    pairs = (draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1)), max_size=4))
             if n else [])
    return graph([f"h{i}" for i in range(n)],
                 {f"g{j}": (f"h{s}", f"h{t}")
                  for j, (s, t) in enumerate(pairs)},
                 [f"o{i}" for i in range(draw(st.integers(0, 1)))])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["loop", "path", "spoked"]), small_hosts())
def test_find_matches_agrees_with_brute_force(which, host):
    # the search no longer goes through check_match, the oracle does
    rule = {"loop": _loop_rule, "path": _path_rule,
            "spoked": lambda: _spoked_rule(_boundary())}[which]()
    found = find_matches(rule, host)
    expected = brute_force_matches(rule, host)
    assert keys(found) == keys(expected)
    assert found == expected


def test_circle_beside_the_boundary_image_is_not_connected(mixed_host):
    # a valid rule's L holds the boundary image, so a circle in L is a
    # second component: the search never meets a circle of L
    b = BoundaryGraph(graph(["bnd", "dbd"]), "bnd", "dbd")
    left = graph(["vb"], {}, ["o"])
    l = morphism(b.graph, left, {"bnd": "vb"}, {})
    rule = RewriteRule(b, left, left, l, l)
    assert validate_rule(rule) == []
    with pytest.raises(LNotConnected):
        find_matches(rule, mixed_host)


def _two_step_rule():
    """L is a path through two interior vertices: vb -> u -> w -> vb."""
    b = _boundary()
    left = graph(["vb", "u", "w"],
                 {"x": ("vb", "u"), "y": ("u", "w"), "z": ("w", "vb")})
    l = morphism(b.graph, left, {"bnd": "vb"}, {"e1": "x", "e2": "z"})
    return RewriteRule(b, left, left, l, l)


class _CountingDict(dict):
    """A dict that counts its subscript reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_two_step_rule_walks_from_its_first_vertex():
    # only u tries every host vertex; w is placed by the edge u -> w, so
    # the reads of the host's incidence grow linearly with the host, not
    # quadratically
    counts = []
    for n in (50, 100):
        host = _cycle(n)
        inc = host.__dict__["incidence"] = _CountingDict(host.incidence)
        assert len(find_matches(_two_step_rule(), host)) == n
        counts.append(inc.reads)
    assert counts[1] <= 2.2 * counts[0]


def _bouquet_instance(k, rotated=False):
    """An interior vertex with k self-loops, one arc in from the
    boundary image and one out to it, on a host of the same shape; with
    `rotated`, the same rotation at both centres, so exactly one of the
    k! plain matches preserves it."""
    b = _boundary()
    left = graph(["vb", "v"], {"x": ("vb", "v"), "y": ("v", "vb"),
                               **{f"a{i}": ("v", "v") for i in range(k)}})
    l = morphism(b.graph, left, {"bnd": "vb"}, {"e1": "x", "e2": "y"})
    host = graph(["p", "q"], {"hx": ("p", "q"), "hy": ("q", "p"),
                              **{f"h{i}": ("q", "q") for i in range(k)}})
    rule = RewriteRule(b, left, left, l, l)
    if not rotated:
        return rule, host, None

    def rotation(g, centre, side, inward, outward, loop):
        loops = [Flag(f"{loop}{i}", end)
                 for i in range(k) for end in ("src", "tgt")]
        return rotation_system(g, {
            side: [Flag(inward, "src"), Flag(outward, "tgt")],
            centre: [Flag(inward, "tgt"), *loops, Flag(outward, "src")]})
    return rule, host, {"left": rotation(left, "v", "vb", "x", "y", "a"),
                        "host": rotation(host, "q", "p", "hx", "hy", "h")}


def test_bouquet_builds_each_match_once(monkeypatch):
    # 6 loops: 720 matches, and no candidate morphism beyond them
    import dpoembed.matcher as matcher
    candidates = count_calls(monkeypatch, matcher.morphism)
    rule, host, _ = _bouquet_instance(6)
    assert len(find_matches(rule, host)) == 720
    assert candidates[0] == 720


_CAP_CHILD = """
import resource, sys
sys.path.insert(0, {tests!r})
from test_matcher import _bouquet_instance
from dpoembed.matcher import MatchLimitExceeded, find_matches
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
rule, host, rotations = _bouquet_instance(8, rotated=True)
print(len(find_matches(rule, host, rotations)))
try:
    find_matches(rule, host)
except MatchLimitExceeded as exc:
    print(exc)
"""


def test_match_limit_counts_rotation_preserving_matches():
    # 8 loops: 8! = 40,320 plain matches, past the cap, of which one
    # preserves rotation; in a child with 1 GiB of address space, so a
    # search that builds its candidates eagerly fails fast
    tests = str(pathlib.Path(__file__).parent)
    src = str(pathlib.Path(dpoembed.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _CAP_CHILD.format(tests=tests)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"1\nmore than {MAX_MATCHES} matches\n"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["loop", "path", "spoked"]), small_hosts(), st.data())
def test_find_matches_with_rotations_agrees_with_brute_force(which, host,
                                                             data):
    # the oracle filters brute-force matches with check_rot_morphism,
    # which the search does not call
    rule = {"loop": _loop_rule, "path": _path_rule,
            "spoked": lambda: _spoked_rule(_boundary())}[which]()
    rot_l = data.draw(st.sampled_from(all_rotations(rule.left)))
    rot_h = data.draw(st.sampled_from(all_rotations(host)))
    found = find_matches(rule, host, {"left": rot_l, "host": rot_h})
    expected = [be for be in brute_force_matches(rule, host)
                if check_rot_morphism(be.m, rot_l, rot_h)]
    assert found == expected


def _nth_match_corpus(mixed_host):
    """(rule, host, rotations) instances: the matcher's rules on its
    hosts, plain, and the rotation cases."""
    rules = [_loop_rule(), _path_rule(), _spoked_rule(_boundary()),
             _two_step_rule(), _bouquet_instance(3)[0], *_invalid_rules()]
    hosts = [mixed_host, *_host_shapes(), _cycle(6), _bouquet_instance(3)[1]]
    cases = [(rule, host, None) for rule in rules for host in hosts]
    rule, host = _spoked_rule(_boundary()), _spoked_host()
    cases += [(rule, host, {"left": rot_l, "host": rot_h})
              for rot_l in all_rotations(rule.left)
              for rot_h in all_rotations(host)]
    cases.append(_bouquet_instance(3, rotated=True))
    return cases


def test_nth_match_is_the_nth_found_match(mixed_host):
    found_any = 0
    for rule, host, rotations in _nth_match_corpus(mixed_host):
        found = find_matches(rule, host, rotations)
        found_any += bool(found)
        for i, be in enumerate(found):
            assert nth_match(rule, host, i, rotations) == (len(found), be)
        for i in (-1, len(found), len(found) + 5):
            assert nth_match(rule, host, i, rotations) == (len(found), None)
    assert found_any > 10


def test_nth_match_counts_to_the_cap(loop_rule):
    assert nth_match(loop_rule, _circles(MAX_MATCHES), MAX_MATCHES) == (
        MAX_MATCHES, None)
    with pytest.raises(MatchLimitExceeded,
                       match=f"^more than {MAX_MATCHES} matches$"):
        nth_match(loop_rule, _circles(MAX_MATCHES + 1), 0)


def test_nth_match_builds_one_morphism(monkeypatch):
    import dpoembed.matcher as matcher
    rule, host = _path_rule(), _cycle(12)
    built = count_calls(monkeypatch, matcher.morphism)
    count, be = nth_match(rule, host, 7)
    assert (count, built[0]) == (12, 1)
    assert be == find_matches(rule, host)[7]
    assert built[0] == 1 + 12


def test_a_dangling_host_endpoint_is_no_match():
    # an unvalidated host whose edges d and o meet at z, not a vertex:
    # the walk never places w at z, though z has w's degree
    host = graph(["b", "p"], {"i": ("b", "p"), "d": ("p", "z"),
                              "o": ("z", "b")})
    assert keys(find_matches(_two_step_rule(), host)) == [
        ((("u", "b"), ("w", "p")), (("x", "o"), ("y", "i"), ("z", "d")))]
    assert keys(find_matches(_path_rule(), host)) == [
        ((("u", "b"),), (("x", "o"), ("y", "i"))),
        ((("u", "p"),), (("x", "i"), ("y", "d")))]
