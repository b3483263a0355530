import pathlib
import sys

import pytest

from dpoembed import (
    BoundaryEmbedding,
    BoundaryGraph,
    Flag,
    Graph,
    PartitioningSpan,
    RewriteRule,
    graph,
    morphism,
    rotation_system,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture
def two_edge_boundary():
    """B with one positive and one negative boundary edge."""
    return BoundaryGraph(
        graph(["bnd", "dbd"], {"e1": ("bnd", "dbd"), "e2": ("dbd", "bnd")}),
        "bnd", "dbd")


@pytest.fixture
def loop_left(two_edge_boundary):
    """L: a single vertex carrying one self-loop, both boundary edges
    identified onto it."""
    left = graph(["v"], {"a": ("v", "v")})
    l = morphism(two_edge_boundary.graph, left, {"bnd": "v"},
                 {"e1": "a", "e2": "a"})
    return left, l


@pytest.fixture
def circle_host():
    return graph([], {}, ["o"])


@pytest.fixture
def circle_host_embedding(two_edge_boundary, loop_left, circle_host):
    left, l = loop_left
    m = morphism(left, circle_host, {}, {"a": "o"})
    return BoundaryEmbedding(two_edge_boundary, left, circle_host, l, m)


@pytest.fixture
def loop_rule(two_edge_boundary, loop_left):
    """The identity rule: L = R = one self-loop over the two-edge
    boundary; rewriting replaces an arc by an equal arc."""
    left, l = loop_left
    return RewriteRule(two_edge_boundary, left, left, l, l)


@pytest.fixture
def misdirected_rules(loop_rule):
    """The identity-loop rule with r landing outside its right-hand side,
    and with l starting outside its boundary graph; each with the one
    failure `validate_rule` reports for it."""
    rule = loop_rule
    elsewhere = graph(["w"], {"c": ("w", "w")})
    other_b = graph(["bnd", "dbd"],
                    {"f1": ("bnd", "dbd"), "f2": ("dbd", "bnd")})
    l = morphism(other_b, rule.left, {"bnd": "v"}, {"f1": "a", "f2": "a"})
    return [
        (RewriteRule(rule.b, rule.left, elsewhere, rule.l, rule.r),
         ("LegCodomainMismatch", "r")),
        (RewriteRule(rule.b, rule.left, rule.right, l, rule.r),
         ("LegDomainMismatch", "l")),
    ]


@pytest.fixture
def mixed_host():
    return graph(["x", "y"],
                 {"f": ("x", "y"), "g": ("y", "x"), "h": ("x", "x")},
                 ["oo"])


@pytest.fixture
def two_region_span(two_edge_boundary):
    b = two_edge_boundary
    left = graph(["vb", "u"], {"le1": ("vb", "u"), "le2": ("u", "vb")})
    l = morphism(b.graph, left, {"bnd": "vb"}, {"e1": "le1", "e2": "le2"})
    ctx = graph(["wb", "w"], {"ce1": ("w", "wb"), "ce2": ("wb", "w")})
    c = morphism(b.graph, ctx, {"dbd": "wb"}, {"e1": "ce1", "e2": "ce2"})
    return PartitioningSpan(b, left, ctx, l, c)


def bouquet_embedding(sizes):
    """A bouquet of sum(sizes) loops, each one blue pair, with sizes[j]
    of them mapped onto host circle o{j}."""
    n = sum(sizes)
    edges = {}
    for i in range(n):
        edges[f"p{i}"] = ("bnd", "dbd")
        edges[f"n{i}"] = ("dbd", "bnd")
    b = BoundaryGraph(graph(["bnd", "dbd"], edges), "bnd", "dbd")
    left = graph(["v"], {f"a{i}": ("v", "v") for i in range(n)})
    amap = {}
    for i in range(n):
        amap[f"p{i}"] = f"a{i}"
        amap[f"n{i}"] = f"a{i}"
    l = morphism(b.graph, left, {"bnd": "v"}, amap)
    circles = [f"o{j}" for j, size in enumerate(sizes) for _ in range(size)]
    host = graph([], {}, sorted(set(circles)))
    m = morphism(left, host, {}, {f"a{i}": o for i, o in enumerate(circles)})
    return BoundaryEmbedding(b, left, host, l, m)


def bouquet_rotations(be):
    """Rotations on the boundary and L of a bouquet of loops p{j}/n{j}
    -> a{j} at v, keeping each blue pair's flags side by side."""
    k = len(be.left.edges)
    return {
        "boundary": rotation_system(be.b.graph, {
            "bnd": [fl for j in range(k)
                    for fl in (Flag(f"p{j}", "src"), Flag(f"n{j}", "tgt"))],
            "dbd": [fl for j in reversed(range(k))
                    for fl in (Flag(f"n{j}", "src"), Flag(f"p{j}", "tgt"))]}),
        "left": rotation_system(be.left, {
            "v": [fl for j in range(k)
                  for fl in (Flag(f"a{j}", "src"), Flag(f"a{j}", "tgt"))]})}


def count_calls(monkeypatch, fn):
    """Rebind `fn` in every dpoembed module that binds it to a wrapper
    that counts its calls; returns the counter, a one-element list."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "dpoembed":
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


# the classes that keep a verdict: a graph its report, the others their
# error tuple, each computed by the body of one cached property
VERDICT_CLASSES = (Graph, BoundaryGraph, RewriteRule, PartitioningSpan,
                   BoundaryEmbedding)


def record_verdicts(monkeypatch, cls):
    """Wrap the body of the verdict `cls` keeps; returns the list of the
    objects it checks, in order.  The list holds each object, so no two
    of them share an `id`."""
    prop = vars(cls)["_report" if cls is Graph else "_errors"]
    body, checked = prop.func, []

    def recorded(obj):
        checked.append(obj)
        return body(obj)

    monkeypatch.setattr(prop, "func", recorded)
    return checked
