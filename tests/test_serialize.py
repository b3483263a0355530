import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from dpoembed import graph, identity, morphism
from dpoembed.serialize import (
    _BODY_FIELDS,
    _RUN_MIN,
    _encode_run,
    _write,
    Document,
    DocumentError,
    DocumentSyntaxError,
    FieldTypeError,
    UnknownField,
    ValidationFailed,
    VersionMismatch,
    graph_doc,
    graph_from_body,
    load_document,
    morphism_doc,
    parse_document,
    print_document,
    read_document,
    span_shaped_doc,
)

from conftest import FIXTURES

CORPUS = sorted(FIXTURES.glob("*.json"))


def test_corpus_is_present():
    assert len(CORPUS) >= 15


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_print_parse_round_trip_is_byte_identical(path):
    text = path.read_text()
    doc = parse_document(text)
    assert print_document(doc) == text


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_parse_is_idempotent(path):
    text = path.read_text()
    once = print_document(parse_document(text))
    twice = print_document(parse_document(once))
    assert once == twice


SPAN_SHAPED = [p for p in CORPUS if json.loads(p.read_text())["kind"]
               in ("rule", "span", "boundary_embedding")]


@pytest.mark.parametrize("path", SPAN_SHAPED, ids=lambda p: p.stem)
def test_span_shaped_writer_round_trip(path):
    text = path.read_text()
    obj, rots = load_document(parse_document(text))
    written = print_document(span_shaped_doc(obj, rots))
    assert written == text
    assert print_document(parse_document(written)) == written
    assert load_document(parse_document(written)) == (obj, rots)


def test_graph_doc_round_trip():
    g = graph(["x", "y"], {"e": ("x", "y"), "f": ("y", "y")}, ["o"])
    doc = parse_document(print_document(graph_doc(g)))
    loaded, rs = load_document(doc)
    assert loaded == g
    assert rs is None


def test_morphism_doc_round_trip():
    g = graph(["v"], {"a": ("v", "v")})
    doc = parse_document(print_document(morphism_doc(identity(g))))
    f, dom_rot, cod_rot = load_document(doc)
    assert f.key() == identity(g).key()
    assert dom_rot is None and cod_rot is None


def test_unknown_top_level_field_strict_vs_lenient():
    g = graph(["v"])
    payload = json.loads(print_document(graph_doc(g)))
    payload["extra"] = 1
    text = json.dumps(payload)
    with pytest.raises(UnknownField):
        parse_document(text)
    doc = parse_document(text, lenient=True)
    assert load_document(doc, lenient=True)[0] == g


def test_unknown_body_field_strict_vs_lenient():
    g = graph(["v"])
    payload = json.loads(print_document(graph_doc(g)))
    payload["body"]["comment"] = "hello"
    text = json.dumps(payload)
    with pytest.raises(UnknownField):
        parse_document(text)
    parse_document(text, lenient=True)


def test_version_mismatch():
    payload = json.loads(print_document(graph_doc(graph([]))))
    payload["format_version"] = "2"
    with pytest.raises(VersionMismatch):
        parse_document(json.dumps(payload))


def test_syntax_error_carries_position():
    with pytest.raises(DocumentSyntaxError) as err:
        parse_document('{"format_version": "1",\n  "kind": }')
    assert err.value.line == 2
    assert err.value.col > 0


def test_unknown_kind_rejected():
    payload = {"format_version": "1", "kind": "mystery", "body": {}}
    with pytest.raises(ValidationFailed):
        parse_document(json.dumps(payload))


def test_unhashable_kind_rejected():
    payload = {"format_version": "1", "kind": ["graph"], "body": {}}
    with pytest.raises(ValidationFailed, match="unknown document kind"):
        parse_document(json.dumps(payload))


def test_invalid_graph_rejected():
    body = {"vertices": ["v"], "edges": {"e": ["v", "ghost"]}}
    with pytest.raises(ValidationFailed):
        parse_document(json.dumps(
            {"format_version": "1", "kind": "graph", "body": body}))


def test_invalid_span_rejected():
    text = (FIXTURES / "span_two_cycle.json").read_text()
    payload = json.loads(text)
    # break the context leg: drop the vertex it must be defined on
    payload["body"]["context_map"]["vertices"] = {}
    with pytest.raises(ValidationFailed):
        parse_document(json.dumps(payload))


def test_loaded_fixture_objects_are_consistent():
    from dpoembed import validate_boundary_embedding
    doc = parse_document(
        (FIXTURES / "boundary_embedding_circle_host.json").read_text())
    be, rots = load_document(doc)
    assert validate_boundary_embedding(be) == []
    doc2 = parse_document(
        (FIXTURES / "boundary_embedding_interleaving.json").read_text())
    be2, rots2 = load_document(doc2)
    assert rots2["boundary"] is not None
    assert rots2["left"] is not None


def test_match_document_loads_rule_and_host():
    doc = parse_document((FIXTURES / "match_identity_loop.json").read_text())
    rule, host, matches, rots = load_document(doc)
    assert rule.left == rule.right
    assert host.vertices
    assert matches == []


_MISSING_SOURCE = (ValidationFailed, "host.edges.e: missing field 'source'")
_UNKNOWN_NOTE = (UnknownField, "host.edges.e: unknown field 'note'")
_BAD_SOURCE = (FieldTypeError, "host.edges.e.source: expected a string")


# (edge spec, (exception, message) strict, the same lenient or None)
@pytest.mark.parametrize("spec, strict, lenient", [
    ("a", (ValidationFailed, "host.edges.e: expected an object"), "same"),
    (["a", "b"], (ValidationFailed, "host.edges.e: expected an object"),
     "same"),
    ({"target": "b"}, _MISSING_SOURCE, "same"),
    ({"source": "a"},
     (ValidationFailed, "host.edges.e: missing field 'target'"), "same"),
    ({"note": 1}, _UNKNOWN_NOTE, _MISSING_SOURCE),
    ({"source": "a", "target": "b", "note": 1}, _UNKNOWN_NOTE, None),
    ({"source": 1, "target": "b"}, _BAD_SOURCE, "same"),
    ({"source": "a", "target": 2},
     (FieldTypeError, "host.edges.e.target: expected a string"), "same"),
    ({"source": 1, "target": 2}, _BAD_SOURCE, "same"),
    ({"source": None, "target": "b", "note": 1}, _UNKNOWN_NOTE, _BAD_SOURCE),
], ids=["string", "list", "no-source", "no-target", "no-ends", "extra-key",
        "bad-source", "bad-target", "both-bad", "extra-key-bad-source"])
def test_a_malformed_edge_spec_is_named(spec, strict, lenient):
    # the well-formed spec takes one test; any other goes through the
    # field checks, which name its first fault, the source before the
    # target
    body = {"vertices": ["a", "b"], "edges": {"e": spec}}
    for is_lenient, expected in ((False, strict),
                                 (True, strict if lenient == "same"
                                  else lenient)):
        if expected is None:
            g, _ = graph_from_body(body, "host", is_lenient)
            assert g.edges == {"e": ("a", "b")}
            continue
        error, message = expected
        with pytest.raises(error) as err:
            graph_from_body(body, "host", is_lenient)
        assert (type(err.value), str(err.value)) == (error, message)


def test_load_document_names_a_missing_field():
    def body(name, drop, part=None):
        out = json.loads((FIXTURES / name).read_text())["body"]
        del (out[part] if part else out)[drop]
        return out

    cases = [
        (Document("morphism", {}), "morphism: missing field 'cod'"),
        (Document("span", body("span_two_cycle.json", "context_map")),
         "span: missing field 'context_map'"),
        (Document("match", body("match_identity_loop.json", "host")),
         "match: missing field 'host'"),
        (Document("match", body("match_identity_loop.json", "right_map",
                                "rule")),
         "rule: missing field 'right_map'"),
    ]
    for doc, message in cases:
        with pytest.raises(ValidationFailed, match=f"^{message}$"):
            load_document(doc)


def test_rotation_graph_requires_rotations():
    body = {"vertices": [], "edges": {}, "rotations": {}}
    doc = parse_document(json.dumps(
        {"format_version": "1", "kind": "rotation_graph", "body": body}))
    g, rs = load_document(doc)
    assert rs is not None


def _dumped(body):
    return json.dumps({"format_version": "1", "kind": "trace", "body": body},
                      sort_keys=True, indent=2) + "\n"


_PLAIN = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.lists(st.text(), max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)
                   | st.dictionaries(st.text(), st.text(), max_size=4)),
    max_leaves=25)


@given(_PLAIN)
def test_print_document_is_json_dumps(body):
    # strings run through non-ASCII text, escapes and empty containers
    assert print_document(Document("trace", body)) == _dumped(body)


@pytest.mark.parametrize("body", [
    {"x": 1.5, "y": ["a"]}, [0.1, -0.0, 1e16, 1e-7, 2.5e+300],
    "caf\u00e9 \"\\\n\t\x00"],
    ids=["float", "finite-floats", "escapes"])
def test_print_document_writes_plain_values_as_json_dumps(body):
    assert print_document(Document("trace", body)) == _dumped(body)


@pytest.mark.parametrize("body", [
    [float("inf")], [float("nan")], {1: "a", 2: ["b"]}, {"b": {3: None}}],
    ids=["infinity", "nan", "int-keys", "nested-int-key"])
def test_print_document_refuses_what_strict_json_cannot_hold(body):
    with pytest.raises(TypeError):
        print_document(Document("trace", body))


@pytest.mark.parametrize("literal", [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "[1e400, NaN]"])
def test_read_document_refuses_non_finite_numbers(literal):
    text = '{"format_version": "1", "kind": "trace", "body": %s}' % literal
    with pytest.raises(DocumentError, match="^non-finite number "):
        read_document(text)


# Containers holding a run of at least _RUN_MIN non-empty dicts of
# strings or lists of strings: the runs the writer hands to the stdlib
# encoder in one call.  Ids run through st.text(), so they hold
# newlines, brackets and quotes.
def _run_of(flat):
    return st.lists(flat, min_size=_RUN_MIN, max_size=_RUN_MIN + 4)


_STRING_DICT = st.dictionaries(st.text(), st.text(), min_size=1, max_size=3)
_STRING_LIST = st.lists(st.text(), min_size=1, max_size=3)
_RUN = (_run_of(_STRING_DICT) | _run_of(_STRING_LIST)
        | _run_of(_STRING_LIST.map(tuple))
        | _run_of(_STRING_DICT | _STRING_LIST))
_RUN_CONTAINER = _RUN | _RUN.flatmap(lambda values: st.lists(
    st.text(), min_size=len(values), max_size=len(values),
    unique=True).map(lambda keys: dict(zip(keys, values))))


@given(_RUN_CONTAINER, st.booleans())
def test_print_document_writes_runs_of_flat_containers_as_json_dumps(
        container, nested):
    body = {"g": {"edges": container}} if nested else {"edges": container}
    assert print_document(Document("trace", body)) == _dumped(body)


@pytest.mark.parametrize("nested", [False, True], ids=["depth1", "depth3"])
@pytest.mark.parametrize("ident", ["},\n    {", "}", "\\", "\u00e9",
                                   "\",\n      \"", "]"],
                         ids=["separator", "brace", "backslash", "e-acute",
                              "quoted-separator", "bracket"])
def test_print_document_splits_an_encoded_run_exactly(ident, nested):
    edges = {f"{ident}{j}": {"source": ident, "target": ident * j}
             for j in range(_RUN_MIN)}
    pairs = [[ident, f"{j}{ident}"] for j in range(_RUN_MIN)]
    body = {"edges": edges, "pairs": pairs}
    if nested:
        body = {"g": {"h": body}}
    for run in (list(edges.values()), pairs):
        assert _encode_run(run, "\n  ") is not None
    assert print_document(Document("trace", body)) == _dumped(body)


_EDGE = {"source": "a", "target": "b"}


@pytest.mark.parametrize("run", [
    [_EDGE] * (_RUN_MIN - 1) + [{}],
    [["a"]] * (_RUN_MIN - 1) + [[]],
    [["a", "b"]] * (_RUN_MIN - 2) + [[]],
    [[]],
    [_EDGE] * (_RUN_MIN - 1) + [{"source": 1}],
    [["a"]] * (_RUN_MIN - 1) + [["a", 2]],
    [["a"], ["a", 2]],
    [_EDGE] * (_RUN_MIN - 1) + [["a"]],
    [_EDGE] * (_RUN_MIN - 1) + ["a"],
    [_EDGE] * (_RUN_MIN - 1),
], ids=["empty-dict", "empty-list", "short-with-empty-list",
        "one-empty-list", "int-in-dict", "int-in-list", "short-int-in-list",
        "dicts-and-lists", "bare-string", "below-the-minimum"])
def test_print_document_writes_an_uneven_run_value_by_value(run):
    assert _encode_run(run, "\n  ") is None
    for body in ({"edges": run},
                 {"g": {"edges": {str(j): v for j, v in enumerate(run)}}}):
        assert print_document(Document("trace", body)) == _dumped(body)


_SHORT_RUNS = [
    [[f"n{j}", f"p{j}\u00e9]"] for j in range(n)] for n in range(1, _RUN_MIN)]


@pytest.mark.parametrize("pairs", _SHORT_RUNS,
                         ids=[f"{len(r)}-pairs" for r in _SHORT_RUNS])
def test_writer_joins_each_list_of_a_short_run(pairs):
    # the blue and red pairs of a re-pairing solution, at two indents
    # and inside a dict that every report repeats
    tuples = [tuple(p) for p in pairs]
    for run in (pairs, tuples):
        texts = _encode_run(run, "\n  ")
        assert texts == [json.dumps(p, indent=2).replace("\n", "\n  ")
                         for p in pairs]
        d = {"blue": run, "red": run, "n": 1}
        for body in ({"red": run}, {"g": {"h": [run]}},
                     {"reports": [d, d, d]}):
            assert print_document(Document("trace", body)) == _dumped(body)


def _shared_bodies():
    """Bodies holding one object at several places: the dicts the
    writer reuses the text of, and a list it writes each time."""
    d = {"n": 1, "ids": ["a", "b"], "t": None, "flat": {"k": "v"}}
    inner = {"x": [1, "y"], "z": True}
    outer = {"inner": inner, "k": 2, "again": [inner, inner]}
    shared_list = [d, 3, ["s"]]
    return {
        "twice": {"reports": [d, d]},
        "three-times": {"reports": [d, d, d], "other": [1, {"n": 1}]},
        "two-indents": {"a": d, "b": {"c": d}, "d": [[d]]},
        "nested": {"x": [outer, outer, inner, {"y": inner}], "z": outer},
        "list": {"a": shared_list, "b": shared_list,
                 "c": [shared_list, shared_list]},
    }


@pytest.mark.parametrize("name", sorted(_shared_bodies()))
def test_print_document_writes_a_repeated_object_as_json_dumps(name):
    body = _shared_bodies()[name]
    assert print_document(Document("trace", body)) == _dumped(body)


@given(_PLAIN, st.integers(1, 4))
def test_print_document_writes_any_repeated_value_as_json_dumps(value, n):
    body = {"a": value, "b": [value] * n, "c": {"d": value, "e": [value]}}
    assert print_document(Document("trace", body)) == _dumped(body)


def test_writer_joins_a_dict_only_from_its_second_sighting():
    d = {"n": 1, "ids": ["a", "b"]}
    payload = {"once": {"m": 2}, "many": [d, d, d]}
    out, seen = [], {}
    _write(payload, "\n", out, seen)
    assert "".join(out) == json.dumps(payload, sort_keys=True, indent=2)
    texts = {key for key, known in seen.items() if isinstance(known, str)}
    assert texts == {(id(d), "\n    ")}


# Field names and ids the loaders read, so that generated values get
# past the first checks and reach the nested ones.
_NAMES = st.sampled_from(sorted(
    {f for spec in _BODY_FIELDS.values() if spec for part in spec
     for f in part}
    | {"vertices", "edges", "circles", "rotations", "source", "target",
       "arcs", "boundary_vertex", "dual_boundary_vertex"}))
_IDS = st.sampled_from(["v", "w", "e", "o", "bnd", "dbd", "e.src", "e.tgt"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | _IDS
    | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(_NAMES | _IDS, inner, max_size=5)),
    max_leaves=20)
_DROP = object()
# Every kind with an empty body, whose root an edit replaces by an
# arbitrary value, and every fixture body under its own kind.
_SEEDS = ([(kind, {}) for kind in sorted(_BODY_FIELDS)]
          + [(doc["kind"], doc["body"]) for doc in
             (json.loads(path.read_text()) for path in CORPUS)])


def _slots(value):
    """(container, key) for every value nested in `value`."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    out = []
    for key, inner in items:
        out += [(value, key)] + _slots(inner)
    return out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_SEEDS),
       st.lists(st.tuples(st.integers(0), _JSON | st.just(_DROP)),
                min_size=1, max_size=3),
       st.booleans())
def test_read_document_loads_or_refuses_any_json(seed, edits, lenient):
    # exit codes 1 and 2 rest on this: whatever JSON value a field
    # holds, the document loads or is refused with a DocumentError
    kind, body = seed[0], copy.deepcopy(seed[1])
    for where, value in edits:
        if value is not _DROP:
            value = copy.deepcopy(value)  # later edits may write into it
        slots = _slots(body)
        if not slots:
            body = {} if value is _DROP else value
            continue
        container, key = slots[where % len(slots)]
        if value is _DROP:
            del container[key]
        else:
            container[key] = value
    text = json.dumps({"format_version": "1", "kind": kind, "body": body})
    try:
        read_document(text, lenient)
    except DocumentError:
        pass
