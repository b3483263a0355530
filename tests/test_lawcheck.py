import itertools
from collections import Counter

import pytest

from dpoembed import (
    EMBEDDING,
    INVALID,
    MORPHISM,
    BoundaryEmbedding,
    BoundaryGraph,
    PartitioningSpan,
    classify,
    enumerate_re_pairings,
    graph,
    morphism,
    pushout,
)
from dpoembed import lawcheck
from dpoembed.lawcheck import (
    LAWS,
    GenBudget,
    Law,
    UnknownLaw,
    _describe_pair,
    _enumerate_maps,
    _holds_self_loop_creation,
    check_lemma,
    check_universal_property,
    gen_boundary_embeddings,
    gen_graphs,
    gen_morphism_pairs,
    gen_spans,
    is_morphism,
    is_premorphism,
    random_morphism_pair,
    run_all,
)

from conftest import bouquet_embedding

SMALL = GenBudget(max_vertices=2, max_edges=2, max_circles=1,
                  max_boundary_edges=2)


def test_tiny_graph_corpus():
    gs = list(gen_graphs(GenBudget(max_vertices=1, max_edges=1,
                                   max_circles=0)))
    shapes = {(len(g.vertices), len(g.edges), len(g.circles)) for g in gs}
    assert shapes == {(0, 0, 0), (1, 0, 0), (1, 1, 0)}
    assert len(gs) == 3


def test_generators_yield_valid_objects():
    from dpoembed import validate_boundary_embedding, validate_span
    spans = list(gen_spans(SMALL))
    assert spans
    for span in spans:
        assert validate_span(span) == []
    bes = list(gen_boundary_embeddings(SMALL))
    assert bes
    for be in bes:
        assert validate_boundary_embedding(be) == []


@pytest.mark.parametrize("name", sorted(LAWS))
def test_law_holds_at_small_budget(name):
    report = check_lemma(name, SMALL, random_instances=5)
    assert report.instances > 0
    assert report.ok, report.counterexample


def _loops_on_edge(k):
    """k loops at the boundary image, each one blue pair, all mapped
    onto one host edge: k! path orders."""
    be = bouquet_embedding((k,))
    host = graph(["x", "y"], {"h": ("x", "y")})
    m = morphism(be.left, host, {}, {a: "h" for a in be.left.edges})
    return BoundaryEmbedding(be.b, be.left, host, be.l, m)


@pytest.mark.parametrize("make,count", [
    (lambda: bouquet_embedding((3,)), 2),
    (lambda: bouquet_embedding((4,)), 6),
    (lambda: bouquet_embedding((2, 3)), 2),
    (lambda: bouquet_embedding((3, 1)), 2),
    (lambda: bouquet_embedding((5,)), 24),
    (lambda: _loops_on_edge(2), 2),
    (lambda: _loops_on_edge(3), 6),
], ids=["circle-3", "circle-4", "circles-2-3", "circles-3-1", "circle-5",
        "edge-2", "edge-3"])
@pytest.mark.parametrize("name", ["ComplementRoundTrip",
                                  "ComplementUniqueness",
                                  "RePairingExistence"])
def test_re_pairing_laws_with_several_solutions(name, make, count):
    # the random generator draws at most one solution at the suite's
    # budgets, so these laws meet a choice of re-pairing only here
    be = make()
    assert len(enumerate_re_pairings(be)) == count
    assert LAWS[name].holds(be)


def test_unknown_law():
    with pytest.raises(UnknownLaw):
        check_lemma("NoSuchLaw", SMALL)


def test_reports_are_deterministic():
    a = run_all(SMALL, laws=["RePairingExistence"])
    b = run_all(SMALL, laws=["RePairingExistence"])
    assert [(r.law, r.instances, r.counterexample) for r in a] == \
        [(r.law, r.instances, r.counterexample) for r in b]


def _triples(reports):
    return [(r.law, r.instances, r.counterexample) for r in reports]


@pytest.mark.parametrize("budget,random_instances", [
    (SMALL, 5),
    (GenBudget(2, 1, 1, 2, seed=1), 100),
    (GenBudget(2, 1, 1, 2, seed=2), 100),
], ids=["small", "suite-seed-1", "suite-seed-2"])
def test_run_all_equals_each_law_alone(budget, random_instances):
    # laws that share a generator walk it once, and each law's report is
    # still the one it gets when it runs alone
    alone = [check_lemma(name, budget, random_instances)
             for name in sorted(LAWS)]
    assert _triples(run_all(budget, random_instances)) == _triples(alone)


PAIRS = GenBudget(max_vertices=1, max_edges=1, max_circles=1)
PAIR_LAWS = ["FlagBijComposition", "ForgetfulFunctoriality",
             "MorphismComposition"]


def _fails_at(k, calls):
    """A law on the morphism-pair generators whose k-th instance fails;
    `calls` counts the instances it is given."""
    def holds(inst):
        calls.append(inst)
        return len(calls) != k
    return Law("FailsAt", gen_morphism_pairs, random_morphism_pair, holds,
               _describe_pair)


def _run_with_failing_law(monkeypatch, k, laws):
    calls = []
    monkeypatch.setitem(LAWS, "FailsAt", _fails_at(k, calls))
    return {r.law: r for r in run_all(PAIRS, 5, laws)}, calls


@pytest.mark.parametrize("phase", ["exhaustive", "random"])
def test_a_failing_law_stops_alone(monkeypatch, phase):
    exhaustive = len(list(gen_morphism_pairs(PAIRS)))
    k = 4 if phase == "exhaustive" else exhaustive + 3
    together, calls = _run_with_failing_law(monkeypatch, k,
                                            ["FailsAt"] + PAIR_LAWS)
    assert len(calls) == k
    alone, _ = _run_with_failing_law(monkeypatch, k, ["FailsAt"])
    failed = together["FailsAt"]
    assert (failed.instances, failed.counterexample) == \
        (k, _describe_pair(calls[-1]))
    assert (alone["FailsAt"].instances,
            alone["FailsAt"].counterexample) == \
        (failed.instances, failed.counterexample)
    if phase == "exhaustive":
        first = next(itertools.islice(gen_morphism_pairs(PAIRS), k - 1, None))
        assert failed.counterexample == _describe_pair(first)
    for name in PAIR_LAWS:
        assert together[name].ok
        assert together[name].instances == exhaustive + 5
        assert _triples([together[name]]) == \
            _triples([check_lemma(name, PAIRS, 5)])


def test_an_exhaustive_failure_gets_no_random_instances(monkeypatch):
    # its siblings go on into the random phase; it is given nothing more
    reports, calls = _run_with_failing_law(monkeypatch, 1,
                                           ["FailsAt"] + PAIR_LAWS)
    assert reports["FailsAt"].instances == len(calls) == 1
    exhaustive = len(list(gen_morphism_pairs(PAIRS)))
    assert {reports[name].instances for name in PAIR_LAWS} == \
        {exhaustive + 5}


def test_pair_laws_compose_each_pair_once(monkeypatch):
    # the three pair laws read one composite per pair, built on first use
    compose, calls = lawcheck.compose, [0]

    def counted(g, f):
        calls[0] += 1
        return compose(g, f)

    monkeypatch.setattr(lawcheck, "compose", counted)
    reports = run_all(SMALL, laws=PAIR_LAWS)
    assert all(r.ok for r in reports)
    assert {r.instances for r in reports} == {calls[0]}


def test_universal_property_on_two_cycle(two_edge_boundary, loop_left):
    left, l = loop_left
    ctx = graph(["w"], {"c": ("w", "w")})
    c = morphism(two_edge_boundary.graph, ctx, {"dbd": "w"},
                 {"e1": "c", "e2": "c"})
    span = PartitioningSpan(two_edge_boundary, left, ctx, l, c)
    checked, excluded, counterexample = check_universal_property(
        span, pushout(span), GenBudget(max_vertices=2, max_edges=2,
                                       max_circles=1))
    assert checked > 0
    # the pushout is a circle, and a cospan may send both loops onto one
    # edge: such cospans commute but are excluded
    assert excluded > 0
    assert counterexample is None


def test_universal_property_on_two_region(two_region_span):
    checked, excluded, counterexample = check_universal_property(
        two_region_span, pushout(two_region_span),
        GenBudget(max_vertices=2, max_edges=2, max_circles=1))
    assert checked > 0
    assert excluded == 0  # a pushout without circles excludes nothing
    assert counterexample is None


def test_self_loop_predicate_is_falsifiable():
    # two boundary edges of the same polarity onto one arc: not a legal
    # partitioning span, and the predicate notices
    b = BoundaryGraph(
        graph(["bnd", "dbd"], {"e1": ("bnd", "dbd"), "e3": ("bnd", "dbd"),
                               "e2": ("dbd", "bnd")}),
        "bnd", "dbd")
    left = graph(["v"], {"a": ("v", "v"), "b2": ("v", "v")})
    l = morphism(b.graph, left, {"bnd": "v"},
                 {"e1": "a", "e3": "a", "e2": "b2"})
    ctx = graph(["w"], {"c1": ("w", "w"), "c2": ("w", "w")})
    c = morphism(b.graph, ctx, {"dbd": "w"},
                 {"e1": "c1", "e3": "c2", "e2": "c2"})
    bad = PartitioningSpan(b, left, ctx, l, c)
    assert not _holds_self_loop_creation(bad)


def test_brute_force_matcher_on_degenerate_rule(two_edge_boundary,
                                                mixed_host):
    from dpoembed import RewriteRule
    from dpoembed.lawcheck import brute_force_matches
    left = graph(["vb"])
    l = morphism(two_edge_boundary.graph, left, {"bnd": "vb"}, {})
    rule = RewriteRule(two_edge_boundary, left, left, l, l)
    assert brute_force_matches(rule, mixed_host) == []


def test_is_morphism_agrees_with_classify_on_every_small_map():
    # the oracles' filters are written from the definitions and share no
    # code with classify; over every map table between the pair laws'
    # graphs, invalid maps included, they must agree with it: a
    # premorphism meets every morphism condition but flag surjectivity
    graphs = list(gen_graphs(GenBudget(max_vertices=2, max_edges=2,
                                       max_circles=1)))
    kinds, premorphisms, disagree = Counter(), 0, []
    for dom in graphs:
        for cod in graphs:
            for f in _enumerate_maps(dom, cod):
                cls = classify(f)
                kinds[cls.kind] += 1
                pre = (cls.is_morphism
                       or set(cls.codes()) <= {"NotFlagSurjective"})
                premorphisms += pre and not cls.is_morphism
                if (is_morphism(f) != cls.is_morphism
                        or is_premorphism(f) != pre):
                    disagree.append(f)
    assert not disagree, disagree[0]
    assert sum(kinds.values()) == 62927
    assert kinds[INVALID] and kinds[MORPHISM] and kinds[EMBEDDING]
    assert premorphisms
