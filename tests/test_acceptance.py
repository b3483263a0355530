"""End-to-end acceptance checks.

Each test prints a single [PASS]/[FAIL] line for its criterion.
"""

import itertools
import random
import time

from dpoembed import (
    EMBEDDING,
    BoundaryGraph,
    Flag,
    RewriteRule,
    blue_half,
    classify,
    classify_re_pairings,
    enumerate_re_pairings,
    find_matches,
    genus_report,
    graph,
    iso_check,
    morphism,
    pushout,
    pushout_complement,
    rewrite,
    rotation_system,
    trace_faces,
)
from dpoembed.boundary import POS
from dpoembed.cli import main
from dpoembed.lawcheck import (
    LAWS,
    GenBudget,
    check_lemma,
    check_universal_property,
    gen_spans,
)
from dpoembed.serialize import load_document, parse_document, print_document

from conftest import FIXTURES, bouquet_embedding

CORPUS = sorted(FIXTURES.glob("*.json"))


def report(capsys, number, ok, text):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok


def test_criterion_1_law_suite(capsys):
    started = time.time()
    failures = []
    exhaustive_budget = GenBudget(max_vertices=3, max_edges=4,
                                  max_circles=1, max_boundary_edges=3)
    random_budget = GenBudget(max_vertices=5, max_edges=6,
                              max_circles=2, max_boundary_edges=4)
    for name in sorted(LAWS):
        rep = check_lemma(name, exhaustive_budget)
        if not rep.ok or rep.instances == 0:
            failures.append((name, rep.counterexample))
        rep = check_lemma(name, random_budget, random_instances=1000,
                          exhaustive=False)
        if not rep.ok or rep.instances < 1000:
            failures.append((name, rep.counterexample))
    elapsed = time.time() - started
    ok = not failures and elapsed < 300
    report(capsys, 1, ok,
           f"all {len(LAWS)} laws green, exhaustive + 1000 random each, "
           f"{elapsed:.1f}s")


def test_criterion_2_universal_property(capsys):
    spans = list(gen_spans(GenBudget(max_vertices=3, max_edges=2,
                                     max_circles=1, max_boundary_edges=2)))
    stride = max(1, len(spans) // 250)
    sample = spans[::stride][:250]
    assert len(sample) >= 200
    cospans = 0
    bad = []
    cospan_budget = GenBudget(max_vertices=2, max_edges=2, max_circles=1)
    for span in sample:
        checked, counterexample = check_universal_property(
            span, pushout(span), cospan_budget)
        cospans += checked
        if counterexample is not None:
            bad.append(counterexample)
    ok = not bad and cospans > 0
    report(capsys, 2, ok,
           f"unique mediating morphism on {len(sample)} spans "
           f"({cospans} commuting cospans)")


def test_criterion_3_complement_round_trip(capsys):
    rep = check_lemma("ComplementRoundTrip",
                      GenBudget(max_vertices=3, max_edges=4,
                                max_circles=1, max_boundary_edges=3))
    ok = rep.ok and rep.instances > 0
    report(capsys, 3, ok,
           f"pushout of complement span isomorphic to host on "
           f"{rep.instances} boundary embeddings")


def test_criterion_4_worked_examples(capsys, circle_host_embedding):
    checks = []

    loop = graph(["v"], {"a": ("v", "v")})
    circle = graph([], {}, ["o"])
    f = morphism(loop, circle, {}, {"a": "o"})
    checks.append(classify(f).kind == EMBEDDING)

    comp = pushout_complement(circle_host_embedding)
    checks.append(comp.context.vertices == frozenset([comp.dual_boundary]))
    checks.append(len(comp.context.edges) == 1 and not comp.context.circles)
    (e,) = comp.context.edges
    checks.append(comp.context.edges[e]
                  == (comp.dual_boundary, comp.dual_boundary))

    doc = parse_document(
        (FIXTURES / "morphism_not_flag_surjective.json").read_text())
    g1, _, _ = load_document(doc)
    checks.append(classify(g1).codes() == ("NotFlagSurjective",))
    doc = parse_document(
        (FIXTURES / "morphism_circle_to_edge.json").read_text())
    g2, _, _ = load_document(doc)
    checks.append(classify(g2).codes() == ("CircleToEdge",))

    doc = parse_document(
        (FIXTURES / "boundary_embedding_interleaving.json").read_text())
    be, rots = load_document(doc)
    out = classify_re_pairings(be, rots)
    checks.append(len(out) == 1)
    checks.append(out[0][1].max_genus >= 1 and not out[0][1].is_planar)

    report(capsys, 4, all(checks),
           "worked examples reproduced "
           "(loop-to-circle, complement shape, negatives, torus fixture)")


def test_criterion_5_genus_oracle(capsys):
    checks = []
    bouquet1 = graph(["v"], {"a": ("v", "v")})
    bouquet2 = graph(["v"], {"a": ("v", "v"), "b": ("v", "v")})
    single = rotation_system(bouquet1,
                             {"v": [Flag("a", "src"), Flag("a", "tgt")]})
    nested = rotation_system(bouquet2,
                             {"v": [Flag("a", "src"), Flag("a", "tgt"),
                                    Flag("b", "src"), Flag("b", "tgt")]})
    interleaved = rotation_system(bouquet2,
                                  {"v": [Flag("a", "src"), Flag("b", "src"),
                                         Flag("a", "tgt"), Flag("b", "tgt")]})
    checks.append(genus_report(single).components[0].genus == 0)
    checks.append(genus_report(nested).components[0].genus == 0)
    checks.append(genus_report(interleaved).components[0].genus == 1)

    relabeled = graph(["w"], {"p": ("w", "w"), "q": ("w", "w")})
    again = rotation_system(relabeled,
                            {"w": [Flag("p", "src"), Flag("q", "src"),
                                   Flag("p", "tgt"), Flag("q", "tgt")]})
    checks.append(genus_report(again).components[0].genus
                  == genus_report(interleaved).components[0].genus)

    rng = random.Random(20260824)
    conserved = True
    for _ in range(1000):
        n = rng.randint(1, 5)
        vs = [f"v{i}" for i in range(n)]
        edges = {f"e{i}": (rng.choice(vs), rng.choice(vs))
                 for i in range(rng.randint(0, 7))}
        g = graph(vs, edges)
        inc = {}
        for v in vs:
            fls = sorted(Flag(e, end) for e in edges
                         for end in ("src", "tgt")
                         if (edges[e][0] if end == "src"
                             else edges[e][1]) == v)
            rng.shuffle(fls)
            inc[v] = fls
        rs = rotation_system(g, inc)
        darts = sorted(d for walk in trace_faces(rs) for d in walk)
        expected = sorted((e, d) for e in edges for d in ("fwd", "rev"))
        if darts != expected:
            conserved = False
            break
    checks.append(conserved)
    report(capsys, 5, all(checks),
           "bouquet genus triple, relabel invariance, face-side "
           "conservation on 1000 random rotation systems")


def test_criterion_6_determinism_and_round_trips(capsys):
    checks = []
    for path in CORPUS:
        text = path.read_text()
        checks.append(print_document(parse_document(text)) == text)
        code1 = main(["validate", str(path)])
        out1 = capsys.readouterr().out
        code2 = main(["validate", str(path)])
        out2 = capsys.readouterr().out
        checks.append(code1 == 0 and code2 == 0 and out1 == out2 == text)

    b = BoundaryGraph(
        graph(["bnd", "dbd"], {"e1": ("bnd", "dbd"), "e2": ("dbd", "bnd")}),
        "bnd", "dbd")
    left = graph(["v"], {"a": ("v", "v")})
    l = morphism(b.graph, left, {"bnd": "v"}, {"e1": "a", "e2": "a"})
    rule = RewriteRule(b, left, left, l, l)
    for path in CORPUS:
        doc = parse_document(path.read_text())
        if doc.kind not in ("graph", "rotation_graph"):
            continue
        host, _ = load_document(doc)
        for be in find_matches(rule, host):
            result, _ = rewrite(rule, host, be.m)
            checks.append(iso_check(result, host) is not None)

    report(capsys, 6, all(checks),
           "byte-stable CLI output, parse/print identity, identity "
           "rewrites isomorphic to their hosts across the corpus")


def _oracle_solutions(be):
    half = blue_half(be)
    pos = sorted(x for x in half.nodes if half.polarity[x] == POS)
    neg = sorted(x for x in half.nodes if half.polarity[x] != POS)
    succ_blue = {p: q for p, q in half.blue}
    count = 0
    for perm in itertools.permutations(pos):
        red = dict(zip(neg, perm))
        node, seen = pos[0], 0
        while True:
            node = red[succ_blue[node]]
            seen += 1
            if node == pos[0]:
                break
        if seen == len(pos):
            count += 1
    return count


def test_criterion_7_re_pairing_counts(capsys):
    two = bouquet_embedding((2,))
    three = bouquet_embedding((3,))
    n2 = len(enumerate_re_pairings(two))
    n3 = len(enumerate_re_pairings(three))
    ok = (n2 == 1 and n3 == 2
          and n2 == _oracle_solutions(two)
          and n3 == _oracle_solutions(three))
    report(capsys, 7, ok,
           f"re-pairing counts 2-pair={n2}, 3-pair={n3} match the "
           f"exhaustive matching oracle")
