import argparse
import io
import json
import os
import subprocess
import sys

import pytest

from dpoembed import cli, graph, matcher
from dpoembed.cli import main
from dpoembed.matcher import MAX_MATCHES
from dpoembed.serialize import (
    graph_to_body,
    print_document,
    span_shaped_doc,
)

from conftest import (FIXTURES, VERDICT_CLASSES, bouquet_embedding,
                      count_calls, record_verdicts)
from golden import DOCUMENT_VARIANTS

CORPUS = sorted(FIXTURES.glob("*.json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name):
    return str(FIXTURES / name)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_validate_echoes_every_fixture(capsys, path):
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0
    assert out == path.read_text()
    assert err == ""


def test_validate_is_byte_stable(capsys):
    path = fixture("graph_host_mixed.json")
    _, first, _ = run(capsys, "validate", path)
    _, second, _ = run(capsys, "validate", path)
    assert first == second


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "no/such/file.json")
    assert code == 1
    assert "error:" in err


def test_bad_json_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line" in err


def test_deeply_nested_json_is_usage_error(capsys, tmp_path):
    # the JSON parser recurses once per level and gives up near 1,000
    depth = 100_000
    deep = tmp_path / "deep.json"
    deep.write_text('{"format_version": "1", "kind": "graph", "body": '
                    + "[" * depth + "]" * depth + "}")
    code, out, err = run(capsys, "validate", str(deep))
    assert code == 2
    assert out == ""
    assert err == "error: document nested too deeply\n"


def test_non_utf8_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: not UTF-8 text: invalid start byte at byte 0\n"


def _nested(depth, leaf="1"):
    return '{"a": ' * depth + leaf + "}" * depth


@pytest.mark.parametrize("leaf", ["1", "1.5"], ids=["writer", "float"])
def test_deeply_nested_body_is_usage_error_when_printed(capsys, tmp_path,
                                                         leaf):
    # 600 levels pass the JSON parser, but the writer recurses twice per
    # dict, whatever the leaf
    deep = tmp_path / "deep.json"
    text = '{"format_version": "1", "kind": "trace", "body": %s}'
    deep.write_text(text % _nested(450, leaf))
    assert run(capsys, "validate", str(deep))[0] == 0
    deep.write_text(text % _nested(600, leaf))
    code, out, err = run(capsys, "validate", str(deep))
    assert code == 2
    assert out == ""
    assert err == "error: document nested too deeply\n"


def test_deep_unknown_field_of_a_lenient_graph_is_usage_error(capsys,
                                                              tmp_path):
    # `--lenient validate` echoes the unknown field it tolerated
    deep = tmp_path / "deep.json"
    deep.write_text('{"format_version": "1", "kind": "graph", "body": '
                    '{"vertices": [], "edges": {}, "extra": %s}}'
                    % _nested(600))
    code, out, err = run(capsys, "--lenient", "validate", str(deep))
    assert code == 2
    assert out == ""
    assert err == "error: document nested too deeply\n"


def test_overlong_integer_literal_is_usage_error(capsys, tmp_path):
    # Python refuses to convert an int string past its digit limit
    doc = tmp_path / "long.json"
    doc.write_text('{"format_version": "1", "kind": "trace", "body": '
                   + "9" * 5000 + "}")
    code, out, err = run(capsys, "validate", str(doc))
    assert code == 2
    assert out == ""
    assert err == ("error: integer literal longer than "
                   f"{sys.get_int_max_str_digits()} digits\n")


def test_non_finite_numbers_are_usage_errors(capsys, tmp_path):
    # strict JSON has no NaN or Infinity, and 1e400 overflows a float
    doc = tmp_path / "nan.json"
    doc.write_text('{"format_version": "1", "kind": "trace", '
                   '"body": [1e400, NaN]}')
    code, out, err = run(capsys, "validate", str(doc))
    assert code == 2
    assert out == ""
    assert err == "error: non-finite number 1e400\n"


@pytest.mark.parametrize("lenient", [(), ("--lenient",)],
                         ids=["strict", "lenient"])
@pytest.mark.parametrize("text,key", [
    ('{"format_version": "1", "kind": "graph", "body": {"vertices": '
     '["a", "b"], "edges": {"e": {"source": "a", "target": "b"}, '
     '"e": {"source": "b", "target": "a"}}}}', "e"),
    ('{"format_version": "1", "kind": "trace", "kind": "graph", '
     '"body": {"vertices": [], "edges": {}}}', "kind"),
], ids=["edge", "kind"])
def test_repeated_keys_are_usage_errors(capsys, tmp_path, text, key,
                                        lenient):
    # json.loads would keep the last of them without a word
    doc = tmp_path / "repeated.json"
    doc.write_text(text)
    code, out, err = run(capsys, *lenient, "validate", str(doc))
    assert code == 2
    assert out == ""
    assert err == f"error: repeated key {key!r}\n"


def test_finite_floats_print_as_json_dumps(capsys, tmp_path):
    payload = {"format_version": "1", "kind": "trace",
               "body": [0.1, -0.0, 1e+16, {"x": 2.5e-9}]}
    doc = tmp_path / "floats.json"
    doc.write_text(json.dumps(payload))
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, err) == (0, "")
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_non_utf8_stdin_is_usage_error(capsys, monkeypatch):
    # a strict stdin refuses the bytes as the file reader does
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(b"\xff\xfe{}"), encoding="utf-8", errors="strict"))
    code, out, err = run(capsys, "validate", "-")
    assert code == 2
    assert out == ""
    assert err == ("error: <stdin>: not UTF-8 text: invalid start byte "
                   "at byte 0\n")


@pytest.mark.parametrize("vertices", [[["a"]], "ab", [1, 2]],
                         ids=["nested-list", "string", "integers"])
def test_malformed_vertex_ids_are_usage_errors(capsys, tmp_path, vertices):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": "graph", "format_version": "1",
                               "body": {"vertices": vertices, "edges": {}}}))
    code, out, err = run(capsys, "validate", str(doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "vertices" in err


@pytest.mark.parametrize("vertices,circles,message", [
    (["a", "a", "b"], ["o", "o"], "graph.vertices: repeated id 'a'"),
    (["a", "b"], ["o", "p", "o"], "graph.circles: repeated id 'o'"),
], ids=["vertices-first", "circles"])
def test_repeated_ids_in_a_graph_are_refused(capsys, tmp_path, vertices,
                                             circles, message):
    # `graph` would collapse them, and the document would pass
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": "graph", "format_version": "1",
                               "body": {"vertices": vertices, "edges": {},
                                        "circles": circles}}))
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_genus_refuses_a_rotation_graph_that_lists_a_vertex_twice(
        capsys, tmp_path):
    payload = json.loads(
        (FIXTURES / "rotation_bouquet_single.json").read_text())
    payload["body"]["vertices"] = ["v", "v"]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(payload))
    code, out, err = run(capsys, "genus", str(doc))
    assert (code, out, err) == (
        1, "", "error: rotation_graph.vertices: repeated id 'v'\n")


@pytest.mark.parametrize("command,name,field,key,value", [
    ("classify-morphism", "morphism_loop_to_circle.json", "map", "vertices",
     "ab"),
    ("repairings", "boundary_embedding_three_pairs.json", "left_map", "arcs",
     ["x"]),
    ("classify-morphism", "morphism_loop_to_circle.json", "map", "arcs",
     {"a": 5}),
    ("classify-morphism", "morphism_loop_to_circle.json", "map", "vertices",
     {"a": ["a"]}),
], ids=["string-vertices", "list-arcs", "integer-arc-image",
        "list-vertex-image"])
def test_malformed_maps_are_usage_errors(capsys, tmp_path, command, name,
                                         field, key, value):
    payload = json.loads((FIXTURES / name).read_text())
    payload["body"][field][key] = value
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(payload))
    code, out, err = run(capsys, command, str(doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"{field}.{key}" in err


@pytest.mark.parametrize("command,name,path,value,field", [
    ("repairings", "boundary_embedding_three_pairs.json",
     ("boundary", "boundary_vertex"), ["x"], "boundary.boundary_vertex"),
    ("repairings", "boundary_embedding_three_pairs.json",
     ("boundary", "dual_boundary_vertex"), {"a": 1},
     "boundary.dual_boundary_vertex"),
    ("repairings", "boundary_embedding_three_pairs.json",
     ("boundary", "boundary_vertex"), 3, "boundary.boundary_vertex"),
    ("rewrite", "match_identity_loop.json", ("matches",), 5, "match.matches"),
    ("rewrite", "match_identity_loop.json", ("matches",), "ab",
     "match.matches"),
], ids=["list-boundary-vertex", "object-dual-boundary-vertex",
        "integer-boundary-vertex", "integer-matches", "string-matches"])
def test_malformed_boundary_vertices_and_matches_are_usage_errors(
        capsys, tmp_path, command, name, path, value, field):
    payload = json.loads((FIXTURES / name).read_text())
    target = payload["body"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(payload))
    code, out, err = run(capsys, command, str(doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("rule,message", [
    (5, "rule: expected an object"), ({}, "rule: missing field 'boundary'"),
], ids=["integer", "empty"])
def test_malformed_rule_in_a_match_document_is_an_error(capsys, tmp_path,
                                                        rule, message):
    payload = json.loads((FIXTURES / "match_identity_loop.json").read_text())
    payload["body"]["rule"] = rule
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(payload))
    code, out, err = run(capsys, "rewrite", str(doc))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


def test_vertex_image_outside_the_codomain_is_classified_invalid(
        capsys, tmp_path):
    payload = json.loads(
        (FIXTURES / "morphism_loop_to_circle.json").read_text())
    payload["body"]["map"]["vertices"] = {"v": "zz"}
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(payload))
    code, out, err = run(capsys, "classify-morphism", str(doc))
    assert code == 0 and err == ""
    body = json.loads(out)["body"]
    assert body["kind"] == "invalid"
    assert ["NotTotalOnArcs", "bad vertex entry v"] in body["violations"]


def test_unknown_field_strict_then_lenient(capsys, tmp_path):
    payload = json.loads((FIXTURES / "graph_circle.json").read_text())
    payload["body"]["note"] = "extra"
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps(payload))
    code, _, _ = run(capsys, "validate", str(loose))
    assert code == 2
    code, out, _ = run(capsys, "--lenient", "validate", str(loose))
    assert code == 0
    assert "note" in out


def test_wrong_kind_for_command(capsys):
    code, _, err = run(capsys, "pushout", fixture("graph_circle.json"))
    assert code == 1
    assert "expected a document of kind" in err


@pytest.mark.parametrize("name,expected_kind,expected_codes", [
    ("morphism_loop_to_circle.json", "embedding", []),
    ("morphism_not_flag_surjective.json", "invalid", ["NotFlagSurjective"]),
    ("morphism_circle_to_edge.json", "invalid", ["CircleToEdge"]),
])
def test_classify_morphism(capsys, name, expected_kind, expected_codes):
    code, out, _ = run(capsys, "classify-morphism", fixture(name))
    assert code == 0
    body = json.loads(out)["body"]
    assert body["kind"] == expected_kind
    assert [v[0] for v in body["violations"]] == expected_codes


def test_pushout_two_cycle(capsys):
    code, out, _ = run(capsys, "pushout", fixture("span_two_cycle.json"))
    assert code == 0
    body = json.loads(out)["body"]
    assert body["operation"] == "pushout"
    assert body["result"]["vertices"] == []
    assert len(body["result"]["circles"]) == 1


def test_pushout_two_region(capsys):
    code, out, _ = run(capsys, "pushout", fixture("span_two_region.json"))
    assert code == 0
    body = json.loads(out)["body"]
    assert len(body["result"]["vertices"]) == 2
    assert len(body["result"]["edges"]) == 2


def test_pushout_with_rotations(capsys):
    path = fixture("span_rotation_loop.json")
    code, out, err = run(capsys, "pushout", "--rotations", path)
    assert code == 0 and err == ""
    result = json.loads(out)["body"]["result"]
    assert len(result["circles"]) == 1
    assert result["rotations"] == {}
    _, out, _ = run(capsys, "pushout", path)
    assert "rotations" not in json.loads(out)["body"]["result"]


def test_complement_circle_host(capsys):
    code, out, _ = run(capsys, "complement",
                       fixture("boundary_embedding_circle_host.json"))
    assert code == 0
    body = json.loads(out)["body"]
    assert body["operation"] == "complement"
    assert body["context"]["vertices"] == [body["dual_boundary"]]
    assert len(body["context"]["edges"]) == 1


def test_complement_solution_out_of_range(capsys):
    code, _, err = run(capsys, "complement", "--solution", "9",
                       fixture("boundary_embedding_circle_host.json"))
    assert code == 1
    assert "solution index" in err


def test_repairings_counts(capsys):
    code, out, _ = run(capsys, "repairings",
                       fixture("boundary_embedding_three_pairs.json"))
    assert code == 0
    body = json.loads(out)["body"]
    assert len(body["solutions"]) == 2


def test_repairings_over_the_cap_is_refused(capsys, tmp_path):
    # ten loops on one circle have 9! = 362,880 solutions
    doc = tmp_path / "ten_loops.json"
    doc.write_text(print_document(span_shaped_doc(
        bouquet_embedding((10,)))))
    code, out, err = run(capsys, "repairings", str(doc))
    assert code == 1
    assert out == ""
    assert "more than 10000" in err


def test_repairings_classify_genus(capsys):
    code, out, _ = run(capsys, "repairings", "--classify-genus",
                       fixture("boundary_embedding_interleaving.json"))
    assert code == 0
    body = json.loads(out)["body"]
    assert len(body["solutions"]) == 1
    assert body["reports"][0]["max_genus"] >= 1
    assert body["reports"][0]["is_planar"] is False


def test_repairings_classify_genus_validates_each_rotation_once(
        capsys, monkeypatch):
    # the three rotations the document carries, as it is loaded, then
    # each of the six solutions' constructed rotation; the checks and
    # the host report read the loaded rotations' cached reports
    from dpoembed.rotation import validate_rotation
    calls = count_calls(monkeypatch, validate_rotation)
    code, out, _ = run(capsys, "repairings", "--classify-genus",
                       fixture("boundary_embedding_chord_bouquet.json"))
    assert code == 0
    assert len(json.loads(out)["body"]["reports"]) == 6
    assert calls == [3 + 6]


def test_repairings_planar_only_filters_everything(capsys):
    code, out, _ = run(capsys, "repairings", "--planar-only",
                       fixture("boundary_embedding_interleaving.json"))
    assert code == 0
    body = json.loads(out)["body"]
    assert body["solutions"] == []


def test_match_fills_matches(capsys):
    code, out, _ = run(capsys, "match", fixture("match_identity_loop.json"))
    assert code == 0
    body = json.loads(out)["body"]
    assert len(body["matches"]) == 4


def test_match_over_the_cap_is_refused(capsys, tmp_path):
    # the identity loop matches each host circle
    doc = json.loads((FIXTURES / "match_identity_loop.json").read_text())
    doc["body"]["host"] = graph_to_body(
        graph([], {}, [f"o{i:05d}" for i in range(MAX_MATCHES + 1)]))
    path = tmp_path / "circles.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "match", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: more than {MAX_MATCHES} matches\n"


def test_rewrite_identity_rule(capsys):
    code, out, _ = run(capsys, "rewrite", fixture("match_identity_loop.json"))
    assert code == 0
    body = json.loads(out)["body"]
    assert body["operation"] == "rewrite"
    host = json.loads(
        (FIXTURES / "match_identity_loop.json").read_text())["body"]["host"]
    assert len(body["result"]["vertices"]) == len(host["vertices"])
    assert (len(body["result"]["edges"]) + len(body["result"]["circles"])
            == len(host["edges"]) + len(host.get("circles", [])))


def test_rewrite_on_listed_matches_is_rewrite_on_searched_ones(capsys,
                                                             tmp_path):
    original = fixture("match_identity_loop.json")
    _, listed, _ = run(capsys, "match", original)
    path = tmp_path / "listed.json"
    path.write_text(listed)
    assert len(json.loads(listed)["body"]["matches"]) == 4
    for i in range(4):
        given = run(capsys, "rewrite", "--match", str(i), str(path))
        assert given[0] == 0
        assert given == run(capsys, "rewrite", "--match", str(i), original)


def test_rewrite_searches_only_when_the_document_lists_no_matches(
        capsys, monkeypatch, tmp_path):
    _, listed, _ = run(capsys, "match", fixture("match_identity_loop.json"))
    doc = json.loads(listed)
    given, empty = tmp_path / "given.json", tmp_path / "empty.json"
    given.write_text(listed)
    doc["body"]["matches"] = []
    empty.write_text(json.dumps(doc))
    searches = count_calls(monkeypatch, matcher.nth_match)
    results = {}
    for path in (given, empty):
        for i in ("3", "4", "-1"):
            results[path.stem, i] = run(capsys, "rewrite", "--match", i,
                                        str(path))
        # a listed match is used as listed; an empty list means search
        assert searches[0] == (0 if path == given else 3)
    for path in ("given", "empty"):
        assert results[path, "3"][0] == 0
        assert results[path, "4"] == (
            1, "", "error: match index 4 not in [0, 4)\n")
        assert results[path, "-1"] == (
            1, "", "error: match index -1 not in [0, 4)\n")
    assert results["given", "3"] == results["empty", "3"]


def test_rewrite_match_index_out_of_range(capsys):
    code, _, err = run(capsys, "rewrite", "--match", "99",
                       fixture("match_identity_loop.json"))
    assert code == 1
    assert "match index" in err


def test_rewrite_with_rotations_keeps_the_genus(capsys, tmp_path):
    code, out, err = run(capsys, "rewrite", "--rotations",
                         fixture("match_rotation_loop.json"))
    assert code == 0 and err == ""
    result = json.loads(out)["body"]["result"]
    assert "rotations" in result
    doc = tmp_path / "result.json"
    doc.write_text(json.dumps({"format_version": "1",
                               "kind": "rotation_graph", "body": result}))
    genera = []
    for path in (fixture("rotation_bouquet_interleaved.json"), str(doc)):
        code, out, _ = run(capsys, "genus", path)
        assert code == 0
        genera.append(json.loads(out)["body"]["max_genus"])
    assert genera == [1, 1]


def test_rewrite_with_rotations_solution_out_of_range(capsys):
    code, out, err = run(capsys, "rewrite", "--rotations", "--solution", "5",
                         fixture("match_rotation_loop.json"))
    assert code == 1
    assert out == ""
    assert "solution index" in err


@pytest.mark.parametrize("name,expected_faces,expected_genus", [
    ("rotation_bouquet_single.json", 2, 0),
    ("rotation_bouquet_interleaved.json", 1, 1),
    ("rotation_bouquet_nested.json", 3, 0),
])
def test_genus_on_bouquets(capsys, name, expected_faces, expected_genus):
    code, out, _ = run(capsys, "genus", fixture(name))
    assert code == 0
    body = json.loads(out)["body"]
    assert body["components"][0]["face_count"] == expected_faces
    assert body["components"][0]["genus"] == expected_genus
    assert body["max_genus"] == expected_genus


def test_lawcheck_single_law(capsys):
    code, out, _ = run(capsys, "lawcheck", "--law", "SelfLoopCreation",
                       "--budget", "2,2,1,2")
    assert code == 0
    body = json.loads(out)["body"]
    assert body["operation"] == "lawcheck"
    assert len(body["reports"]) == 1
    assert body["reports"][0]["law"] == "SelfLoopCreation"
    assert body["reports"][0]["instances"] > 0
    assert body["reports"][0]["counterexample"] is None


def test_lawcheck_unknown_law(capsys):
    code, _, err = run(capsys, "lawcheck", "--law", "Nope")
    assert code == 1
    assert "Nope" in err


def test_lawcheck_unknown_law_is_named(capsys):
    code, out, err = run(capsys, "lawcheck", "--law", "NoSuch")
    assert code == 1
    assert out == ""
    assert err == "error: unknown law 'NoSuch'\n"


@pytest.mark.parametrize("text", ["zap", "1,2", "2,-1,1", "-1,1,1", "2,1,-1",
                                  "2,1,1,-1"])
def test_lawcheck_bad_budget(capsys, text):
    # a negative field would reach the generators' random ranges; a
    # malformed option is a usage error, like a negative --random
    with pytest.raises(SystemExit) as err:
        main(["lawcheck", f"--budget={text}", "--random", "3"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --budget: " in captured.err
    if "-" in text:
        assert f"error: argument --budget: bad budget: {text!r}\n" \
            in captured.err


@pytest.mark.parametrize("argv", [["--random", "-5"], ["--random=-1"],
                                  ["--budget", "1,1,0", "--random", "-5"]],
                         ids=["space", "equals", "with-budget"])
def test_lawcheck_negative_random_is_a_usage_error(capsys, argv):
    # a negative count used to run no random instances and exit 0
    with pytest.raises(SystemExit) as err:
        main(["lawcheck", *argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    text = argv[-1].split("=")[-1]
    assert ("error: argument --random: expected a non-negative integer, "
            f"got {text!r}\n") in captured.err


@pytest.mark.parametrize("name", [
    "graph_host_mixed.json",
    "rotation_bouquet_nested.json",
    "span_two_region.json",
    "boundary_embedding_circle_host.json",
])
def test_export_dot_supported_kinds(capsys, name):
    code, out, _ = run(capsys, "export-dot", fixture(name))
    assert code == 0
    assert out.startswith(("digraph", "graph"))


def test_export_dot_unsupported_kind(capsys):
    code, _, err = run(capsys, "export-dot",
                       fixture("morphism_loop_to_circle.json"))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("name,kind", [
    ("morphism_loop_to_circle.json", "morphism"),
    ("rule_identity_loop.json", "rule"),
])
def test_export_dot_names_the_unsupported_kind(capsys, name, kind):
    code, out, err = run(capsys, "export-dot", fixture(name))
    assert code == 1
    assert out == ""
    assert err == f"error: cannot render a {kind} document as DOT\n"


def test_unsupported_format_version_is_named(capsys, tmp_path):
    payload = json.loads((FIXTURES / "graph_circle.json").read_text())
    payload["format_version"] = "2"
    doc = tmp_path / "v2.json"
    doc.write_text(json.dumps(payload))
    code, out, err = run(capsys, "validate", str(doc))
    assert code == 2
    assert out == ""
    assert err == ("error: unsupported format_version '2' "
                   "(expected '1')\n")


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_every_option_has_help_text():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    bare = [f"{name} {action.option_strings[-1]}"
            for name, p in [("dpoembed", parser), *sub.choices.items()]
            for action in p._actions
            if action.option_strings and not action.help]
    assert bare == []


def test_a_lenient_call_leaves_the_next_call_strict(capsys, tmp_path):
    payload = json.loads((FIXTURES / "graph_circle.json").read_text())
    payload["body"]["note"] = "extra"
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps(payload))
    strict = run(capsys, "validate", str(loose))
    assert strict[0] == 2
    assert run(capsys, "--lenient", "validate", str(loose))[0] == 0
    assert run(capsys, "validate", str(loose)) == strict


def test_a_match_index_does_not_carry_over_to_the_next_rewrite(capsys):
    path = fixture("match_identity_loop.json")
    first = run(capsys, "rewrite", "--match", "0", path)
    second = run(capsys, "rewrite", "--match", "1", path)
    assert first[0] == second[0] == 0
    assert first[1] != second[1]
    assert run(capsys, "rewrite", path) == first


def test_a_usage_error_leaves_the_parser_as_a_fresh_process_has_it(
        capsys):
    path = fixture("span_two_region.json")
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import sys; from dpoembed.cli import main; sys.exit(main())",
         "pushout", path],
        capture_output=True, text=True, check=True,
        env={**os.environ,
             "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))})
    with pytest.raises(SystemExit) as err:
        main(["pushout", "--no-such-flag", path])
    assert err.value.code == 2
    capsys.readouterr()
    assert run(capsys, "pushout", path) == (0, fresh.stdout, "")


def test_a_patched_command_takes_effect_after_the_first_call(
        capsys, monkeypatch):
    path = fixture("graph_circle.json")
    assert run(capsys, "validate", path)[0] == 0
    monkeypatch.setattr(cli, "cmd_validate", lambda args: 7)
    assert run(capsys, "validate", path) == (7, "", "")


def test_usage_error_without_command():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_every_output_document_is_json_dumps_text(capsys, path):
    # the document writer gives json.dumps(sort_keys=True, indent=2) bytes
    for argv in DOCUMENT_VARIANTS:
        code, out, _ = run(capsys, *argv, str(path))
        if code == 0:
            assert out == json.dumps(json.loads(out), sort_keys=True,
                                     indent=2) + "\n"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_no_object_is_checked_twice_in_one_call(monkeypatch, capsys, path):
    # each object computes its verdict on the first ask and keeps it, so
    # however many entries ask, one CLI call checks it once
    checked = [record_verdicts(monkeypatch, cls) for cls in VERDICT_CLASSES]
    for argv in (*DOCUMENT_VARIANTS, ("export-dot",)):
        for objs in checked:
            objs.clear()
        run(capsys, *argv, str(path))
        ids = [id(obj) for objs in checked for obj in objs]
        assert len(ids) == len(set(ids)), argv


def _two_loop_match_doc():
    """A rule whose interior vertex u carries two loops, on a host of the
    same shape.  Of the two plain matches, only the second in sorted
    order (x -> g, y -> f) preserves the rotations."""
    def edges(table):
        return {e: {"source": s, "target": t} for e, (s, t) in table.items()}

    left = {"vertices": ["bv", "u"], "circles": [],
            "edges": edges({"s": ("bv", "u"), "t": ("u", "bv"),
                            "x": ("u", "u"), "y": ("u", "u")}),
            "rotations": {"bv": ["s.src", "t.tgt"],
                          "u": ["s.tgt", "x.src", "x.tgt", "t.src", "y.src",
                                "y.tgt"]}}
    host = {"vertices": ["p", "q"], "circles": [],
            "edges": edges({"ps": ("p", "q"), "qt": ("q", "p"),
                            "f": ("q", "q"), "g": ("q", "q")}),
            "rotations": {"p": ["ps.src", "qt.tgt"],
                          "q": ["ps.tgt", "g.src", "g.tgt", "qt.src",
                                "f.src", "f.tgt"]}}
    boundary = {"vertices": ["bnd", "dbd"], "circles": [],
                "edges": edges({"e1": ("bnd", "dbd"), "e2": ("dbd", "bnd")}),
                "boundary_vertex": "bnd", "dual_boundary_vertex": "dbd",
                "rotations": {"bnd": ["e1.src", "e2.tgt"],
                              "dbd": ["e1.tgt", "e2.src"]}}
    leg = {"vertices": {"bnd": "bv"}, "arcs": {"e1": "s", "e2": "t"}}
    rule = {"boundary": boundary, "left": left, "right": left,
            "left_map": leg, "right_map": leg}
    return json.dumps({"format_version": "1", "kind": "match",
                       "body": {"rule": rule, "host": host}})


def test_rewrite_with_rotations_indexes_the_rotation_filtered_matches(
        capsys, tmp_path):
    path = tmp_path / "two_loops.json"
    path.write_text(_two_loop_match_doc())
    _, out, _ = run(capsys, "match", str(path))
    assert len(json.loads(out)["body"]["matches"]) == 2
    _, out, _ = run(capsys, "match", "--rotations", str(path))
    listed = json.loads(out)["body"]["matches"]
    assert [m["arcs"]["x"] for m in listed] == ["g"]
    for i, match in enumerate(listed):
        code, out, err = run(capsys, "rewrite", "--rotations", "--match",
                             str(i), str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["body"]["match"] == match
    code, out, err = run(capsys, "rewrite", "--rotations", "--match", "1",
                         str(path))
    assert (code, out) == (1, "")
    assert err == "error: match index 1 not in [0, 1)\n"
