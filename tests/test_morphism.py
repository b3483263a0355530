import importlib

import pytest

from dpoembed import (
    EMBEDDING,
    INVALID,
    MORPHISM,
    classify,
    compose,
    flag_map,
    graph,
    identity,
    is_flag_bijective,
    is_flag_injective,
    is_flag_surjective,
    morphism,
)
from dpoembed.graph import Flag
from dpoembed.lawcheck import LAWS, MorphismPair
from dpoembed.morphism import DomainMismatch, forget_to_b

LOOP = graph(["v"], {"a": ("v", "v")})
CIRCLE = graph([], {}, ["o"])
POINT = graph(["v"])
LOOPED = graph(["w"], {"e": ("w", "w")})


def test_identity_is_embedding():
    g = graph(["x", "y"], {"e": ("x", "y")}, ["o"])
    assert classify(identity(g)).kind == EMBEDDING


def test_loop_to_circle_is_embedding():
    # the vertex of a self-loop can be forgotten: the loop becomes a circle
    f = morphism(LOOP, CIRCLE, {}, {"a": "o"})
    assert classify(f).kind == EMBEDDING
    assert flag_map(f) == {}


def test_missing_arc_image_is_invalid():
    f = morphism(LOOP, LOOPED, {"v": "w"}, {})
    cls = classify(f)
    assert cls.kind == INVALID
    assert "NotTotalOnArcs" in cls.codes()


def test_not_flag_surjective():
    f = morphism(POINT, LOOPED, {"v": "w"}, {})
    cls = classify(f)
    assert cls.kind == INVALID
    assert cls.codes() == ("NotFlagSurjective",)


def test_classify_reads_the_flags_at_the_image_vertices_only():
    # a span's context leg: B's dual vertex onto one vertex of C; the
    # uncovered flags still come out in flag order, a self-loop's source
    # end before its target end
    b = graph(["bnd", "dbd"], {"e1": ("bnd", "dbd"), "e2": ("dbd", "bnd")})
    onto = graph(["x", "y"], {"l": ("x", "x"), "k": ("y", "y")})
    leg = morphism(b, onto, {"dbd": "x"}, {"e1": "l", "e2": "l"})
    assert classify(leg).kind == EMBEDDING
    assert "incidence" not in onto.__dict__
    loops = graph(["x"], {"l": ("x", "x"), "n": ("x", "x")})
    leg = morphism(b, loops, {"dbd": "x"}, {"e1": "l", "e2": "n"})
    assert classify(leg).violations == (
        ("NotFlagSurjective", "vertex dbd: uncovered flags l.src,n.tgt"),)
    assert "incidence" not in loops.__dict__


def test_circle_to_edge_forbidden():
    f = morphism(CIRCLE, LOOPED, {}, {"o": "e"})
    cls = classify(f)
    assert cls.kind == INVALID
    assert cls.codes() == ("CircleToEdge",)


def test_lax_naturality_violation():
    g = graph(["x", "y"], {"e": ("x", "y")})
    h = graph(["p", "q"], {"d": ("p", "q")})
    f = morphism(g, h, {"x": "q", "y": "p"}, {"e": "d"})
    cls = classify(f)
    assert cls.kind == INVALID
    assert "LaxNaturalityBroken" in cls.codes()


def test_edge_to_circle_with_defined_endpoint_is_invalid():
    h = graph(["p"], {}, ["o"])
    g = graph(["v"], {"a": ("v", "v")})
    f = morphism(g, h, {"v": "p"}, {"a": "o"})
    cls = classify(f)
    assert cls.kind == INVALID
    assert "LaxNaturalityBroken" in cls.codes()


def test_merge_parallel_edges_is_morphism_not_embedding():
    # two parallel edges onto one: flag surjective but not flag injective
    g = graph(["x", "y"], {"e1": ("x", "y"), "e2": ("x", "y")})
    h = graph(["p", "q"], {"d": ("p", "q")})
    f = morphism(g, h, {"x": "p", "y": "q"}, {"e1": "d", "e2": "d"})
    cls = classify(f)
    assert cls.kind == MORPHISM
    assert "NotFlagInjective" in cls.codes()
    assert is_flag_surjective(f) and not is_flag_injective(f)


def test_flag_map_keeps_end_tags():
    g = graph(["x"], {"e": ("x", "x")})
    f = morphism(g, LOOPED, {"x": "w"}, {"e": "e"})
    fm = flag_map(f)
    assert fm[Flag("e", "src")] == Flag("e", "src")
    assert fm[Flag("e", "tgt")] == Flag("e", "tgt")
    assert is_flag_bijective(f)


def test_compose_requires_matching_middle():
    f = identity(LOOP)
    g = identity(CIRCLE)
    with pytest.raises(DomainMismatch):
        compose(g, f)


def test_compose_drops_undefined_vertices():
    f = morphism(LOOP, CIRCLE, {}, {"a": "o"})
    g = identity(CIRCLE)
    h = compose(g, f)
    assert h.vmap == {}
    assert h.amap == {"a": "o"}
    assert classify(h).kind == EMBEDDING


def test_forget_to_b_drops_circle_components():
    g = graph(["v"], {"a": ("v", "v")}, ["u"])
    h = graph([], {}, ["o"])
    f = morphism(g, h, {}, {"a": "o", "u": "o"})
    (dom, cod), vmap, emap = forget_to_b(f)
    assert not dom.circles and not cod.circles
    assert vmap == {} and emap == {}


def _mutations():
    fl = Flag("e", "src")
    return [lambda fm: fm.__setitem__(fl, Flag("e", "tgt")),
            lambda fm: fm.__delitem__(fl),
            lambda fm: fm.update({fl: fl}),
            lambda fm: fm.pop(fl),
            lambda fm: fm.clear()]


@pytest.mark.parametrize("mutate", _mutations(),
                         ids=["setitem", "delitem", "update", "pop", "clear"])
def test_flag_map_cannot_be_changed_through_its_result(mutate):
    # the flag map and the classification are cached on the morphism,
    # so what flag_map hands out must not write into the cache
    g = graph(["x"], {"e": ("x", "x")})
    f = morphism(g, LOOPED, {"x": "w"}, {"e": "e"})
    before, cls = dict(flag_map(f)), classify(f)
    with pytest.raises((TypeError, AttributeError)):
        mutate(flag_map(f))
    assert flag_map(f) == before
    assert classify(f) == cls and cls.kind == EMBEDDING
    assert is_flag_bijective(f)


def test_composition_law_builds_each_flag_table_once(monkeypatch):
    # classify reads a table cached on the morphism: the composite, f and
    # g each build theirs at most once, however often the law asks
    # (dpoembed.morphism the module; the package re-exports the function)
    module = importlib.import_module("dpoembed.morphism")
    builds, build = {}, module._flag_table

    def counted(f):
        builds[id(f)] = builds.get(id(f), 0) + 1
        return build(f)

    monkeypatch.setattr(module, "_flag_table", counted)
    g = graph(["x", "y"], {"e": ("x", "y"), "l": ("y", "y")}, ["o"])
    assert LAWS["MorphismComposition"].holds(
        MorphismPair(identity(g), identity(g)))
    assert sorted(builds.values()) == [1, 1, 1]


def test_forget_to_b_keeps_a_graph_without_circles():
    g = graph(["x", "y"], {"e": ("x", "y")})
    (dom, cod), vmap, emap = forget_to_b(identity(g))
    assert dom is g and cod is g
    assert vmap == {"x": "x", "y": "y"} and emap == {"e": "e"}


def test_forget_to_b_builds_each_circle_free_graph_once():
    # the circle-free copy is kept on the graph, so repeated calls, and
    # calls on other morphisms over the same graphs, hand out one object
    g = graph(["x"], {"e": ("x", "x")}, ["o"])
    h = graph(["w"], {"c": ("w", "w")}, ["p"])
    f = morphism(g, h, {"x": "w"}, {"e": "c", "o": "p"})
    (dom, cod), _, emap = forget_to_b(f)
    (dom2, cod2), _, _ = forget_to_b(f)
    assert dom2 is dom and cod2 is cod
    assert dom == graph(["x"], {"e": ("x", "x")})
    assert cod == graph(["w"], {"c": ("w", "w")})
    assert emap == {"e": "c"}
    (dom3, _), _, _ = forget_to_b(identity(g))
    assert dom3 is dom


def _forgotten_loop():
    g = graph(["x"], {"e": ("x", "x")}, ["o"])
    h = graph(["w"], {"c": ("w", "w")}, ["p"])
    return morphism(g, h, {"x": "w"}, {"e": "c", "o": "p"})


_MAP_MUTATIONS = [lambda m, k: m.__setitem__(k, k),
                  lambda m, k: m.__delitem__(k),
                  lambda m, k: m.update({k: k}),
                  lambda m, k: m.pop(k),
                  lambda m, k: m.clear()]


@pytest.mark.parametrize("mutate", _MAP_MUTATIONS,
                         ids=["setitem", "delitem", "update", "pop", "clear"])
@pytest.mark.parametrize("part,key", [(1, "x"), (2, "e")],
                         ids=["vmap", "emap"])
def test_forget_to_b_cannot_be_changed_through_its_result(mutate, part, key):
    # forget_to_b's result is cached on the morphism, so the maps it
    # hands out must not write into the cache
    f = _forgotten_loop()
    result = forget_to_b(f)
    before = [dict(m) for m in result[1:]]
    with pytest.raises((TypeError, AttributeError)):
        mutate(result[part], key)
    assert forget_to_b(f) is result
    assert [dict(m) for m in result[1:]] == before == \
        [{"x": "w"}, {"e": "c"}]
    assert f.vmap == {"x": "w"} and f.amap == {"e": "c", "o": "p"}


def test_forget_to_b_is_built_once_per_morphism():
    f = _forgotten_loop()
    assert forget_to_b(f) is forget_to_b(f)
    other = _forgotten_loop()
    assert forget_to_b(other) is not forget_to_b(f)
    assert forget_to_b(other)[1:] == forget_to_b(f)[1:]


def _reversed(table):
    return dict(reversed(list(table.items())))


def test_morphism_keeps_maps_given_in_reverse_in_id_order():
    dom = graph(["b", "a"], {"l2": ("a", "a"), "l1": ("b", "b")})
    cod = graph(["x"], {"k": ("x", "x")}, ["o"])
    vmap, amap = {"a": "x", "b": "x"}, {"l1": "k", "l2": "k"}
    f = morphism(dom, cod, _reversed(vmap), _reversed(amap))
    assert list(f.vmap) == ["a", "b"] and list(f.amap) == ["l1", "l2"]
    assert f.key() == (tuple(vmap.items()), tuple(amap.items()))
    assert list(flag_map(f)) == [Flag("l1", "src"), Flag("l1", "tgt"),
                                 Flag("l2", "src"), Flag("l2", "tgt")]
    assert list(forget_to_b(f)[2]) == ["l1", "l2"]


@pytest.mark.parametrize("dom,cod,vmap,amap,kind,violations", [
    (graph(["a", "b"]),
     graph(["x"], {"e2": ("x", "x"), "e10": ("x", "x")}),
     {"a": "x", "b": "x", "p": "x", "q": "x"}, {"z0": "e10", "z1": "e2"},
     INVALID,
     [("NotTotalOnArcs", "spurious arc z0 in map"),
      ("NotTotalOnArcs", "spurious arc z1 in map"),
      ("NotTotalOnArcs", "bad vertex entry p"),
      ("NotTotalOnArcs", "bad vertex entry q"),
      ("NotFlagSurjective",
       "vertex a: uncovered flags e10.src,e10.tgt,e2.src,e2.tgt"),
      ("NotFlagSurjective",
       "vertex b: uncovered flags e10.src,e10.tgt,e2.src,e2.tgt")]),
    (graph(["a", "b", "c"], {}, ["o1", "o2"]), graph(["x"], {}, ["k"]),
     {"a": "x", "b": "x", "c": "x"}, {"o1": "k", "o2": "k"},
     MORPHISM,
     [("VertexMapNotInjective", "a,b -> x"),
      ("VertexMapNotInjective", "b,c -> x"),
      ("CircleMapNotInjective", "o1,o2 -> k")]),
    (graph(["a"], {"l1": ("a", "a"), "l2": ("a", "a")}),
     graph(["x"], {"k": ("x", "x")}),
     {"a": "x"}, {"l1": "k", "l2": "k"},
     MORPHISM,
     [("NotFlagInjective", "l1.src,l2.src -> k.src"),
      ("NotFlagInjective", "l1.tgt,l2.tgt -> k.tgt")]),
], ids=["invalid", "not-injective", "not-flag-injective"])
def test_classify_lists_violations_in_id_order_whatever_the_input_order(
        dom, cod, vmap, amap, kind, violations):
    # classify walks the maps as `morphism` stored them, sorting nothing
    given = classify(morphism(dom, cod, _reversed(vmap), _reversed(amap)))
    assert given == classify(morphism(dom, cod, vmap, amap))
    assert given.kind == kind
    assert list(given.violations) == violations
