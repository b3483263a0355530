"""The Document text format: versioned JSON for every domain object.

One self-describing format with a kind tag; printing is byte-stable
(sorted keys, fixed indentation) and parsing is strict by default:
unknown fields are rejected with a position, and every loaded object is
re-validated with the module validators.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional

from .graph import SRC, TGT, Flag, Graph, graph, validate_graph
from .morphism import GraphMorphism, morphism
from .boundary import (
    BoundaryEmbedding,
    BoundaryGraph,
    PairingGraph,
    PartitioningSpan,
    RewriteRule,
    validate_boundary_embedding,
    validate_boundary_graph,
    validate_rule,
    validate_span,
)
from .rotation import RotationSystem, SurfaceReport, rotation_system

FORMAT_VERSION = "1"


class DocumentError(Exception):
    pass


class DocumentSyntaxError(DocumentError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnknownField(DocumentError):
    pass


class VersionMismatch(DocumentError):
    pass


class ValidationFailed(DocumentError):
    pass


class FieldTypeError(DocumentError):
    pass


@dataclass(frozen=True)
class Document:
    kind: str
    body: Mapping[str, Any]


def _check_fields(obj: Mapping, required, optional, where: str,
                  lenient: bool) -> None:
    if not isinstance(obj, dict):
        raise ValidationFailed(f"{where}: expected an object")
    for key in obj:
        if key not in required and key not in optional and not lenient:
            raise UnknownField(f"{where}: unknown field {key!r}")
    for key in sorted(required):
        if key not in obj:
            raise ValidationFailed(f"{where}: missing field {key!r}")


# ---------------------------------------------------------------------------
# graphs and rotations

def _flag_from_token(token: str, where: str) -> Flag:
    edge, dot, end = token.rpartition(".")
    if not dot or end not in (SRC, TGT):
        raise ValidationFailed(f"{where}: bad flag token {token!r}")
    # as `Graph.incidence` builds flags, without the namedtuple's __new__
    return tuple.__new__(Flag, (edge, end))


def graph_to_body(g: Graph,
                  rotations: Optional[RotationSystem] = None) -> Dict[str, Any]:
    body: Dict[str, Any] = {
        "vertices": tuple(g.vertices),
        "edges": {e: {"source": s, "target": t}
                  for e, (s, t) in g.edges.items()},
        "circles": tuple(g.circles),
    }
    if rotations is not None:
        body["rotations"] = {
            v: [str(fl) for fl in rotations.rotation(v)]
            for v in g.vertices
        }
    return body


def _string_list(body: Mapping, key: str, where: str):
    # tuples are what graph_to_body writes; JSON text only yields lists
    ids = body.get(key, [])
    if (not isinstance(ids, (list, tuple))
            or not all(isinstance(i, str) for i in ids)):
        raise FieldTypeError(f"{where}.{key}: expected a list of strings")
    return ids


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise FieldTypeError(f"{where}: expected a string")
    return value


def _string_map(body: Mapping, key: str, where: str) -> Dict[str, str]:
    table = body[key]
    if (not isinstance(table, dict)
            or not all(isinstance(k, str) and isinstance(v, str)
                       for k, v in table.items())):
        raise FieldTypeError(
            f"{where}.{key}: expected an object from strings to strings")
    return table


_ENDS = frozenset(("source", "target"))  # the fields of an edge spec


def graph_from_body(body: Mapping, where: str = "graph",
                    lenient: bool = False):
    """Returns (Graph, Optional[RotationSystem])."""
    _check_fields(body, {"vertices", "edges"}, {"circles", "rotations"},
                  where, lenient)
    vertices = _string_list(body, "vertices", where)
    circles = _string_list(body, "circles", where)
    if not isinstance(body["edges"], dict):
        raise FieldTypeError(f"{where}.edges: expected an object")
    edges = {}
    for e, spec in body["edges"].items():
        # one test for the common well-formed spec; the checks below
        # name what is wrong with any other, or let a lenient one pass
        if (isinstance(spec, dict) and spec.keys() == _ENDS
                and isinstance(spec["source"], str)
                and isinstance(spec["target"], str)):
            edges[e] = (spec["source"], spec["target"])
            continue
        _check_fields(spec, _ENDS, (), f"{where}.edges.{e}", lenient)
        edges[e] = (_string(spec["source"], f"{where}.edges.{e}.source"),
                    _string(spec["target"], f"{where}.edges.{e}.target"))
    g = graph(vertices, edges, circles)
    for key, ids, kept in (("vertices", vertices, g.vertices),
                           ("circles", circles, g.circles)):
        if len(kept) != len(ids):  # `graph` collapsed a repeated id
            seen: set = set()
            for i in ids:
                if i in seen:
                    raise ValidationFailed(f"{where}.{key}: repeated id {i!r}")
                seen.add(i)
    report = validate_graph(g)
    if not report.ok:
        raise ValidationFailed(f"{where}: {report.errors}")
    rs = None
    if "rotations" in body:
        rotations = body["rotations"]
        if not isinstance(rotations, dict):
            raise FieldTypeError(f"{where}.rotations: expected an object")
        inc = {
            v: [_flag_from_token(t, f"{where}.rotations.{v}")
                for t in _string_list(rotations, v, f"{where}.rotations")]
            for v in rotations
        }
        rs = rotation_system(g, inc)
        rreport = rs.report
        if not rreport.ok:
            raise ValidationFailed(f"{where}: {rreport.errors}")
    return g, rs


def map_to_body(f: GraphMorphism) -> Dict[str, Any]:
    return {"vertices": dict(f.vmap), "arcs": dict(f.amap)}


def map_from_body(body: Mapping, dom: Graph, cod: Graph, where: str,
                  lenient: bool = False) -> GraphMorphism:
    _check_fields(body, {"vertices", "arcs"}, (), where, lenient)
    return morphism(dom, cod, _string_map(body, "vertices", where),
                    _string_map(body, "arcs", where))


def boundary_to_body(b: BoundaryGraph,
                     rotations: Optional[RotationSystem] = None):
    body = graph_to_body(b.graph, rotations)
    body["boundary_vertex"] = b.boundary
    body["dual_boundary_vertex"] = b.dual_boundary
    return body


def boundary_from_body(body: Mapping, where: str = "boundary",
                       lenient: bool = False):
    extra = {"boundary_vertex", "dual_boundary_vertex"}
    _check_fields(body, {"vertices", "edges"} | extra,
                  {"circles", "rotations"}, where, lenient)
    inner = {k: v for k, v in body.items() if k not in extra}
    g, rs = graph_from_body(inner, where, lenient)
    b = BoundaryGraph(
        g, _string(body["boundary_vertex"], f"{where}.boundary_vertex"),
        _string(body["dual_boundary_vertex"], f"{where}.dual_boundary_vertex"))
    errors = validate_boundary_graph(b)
    if errors:
        raise ValidationFailed(f"{where}: {errors}")
    return b, rs


def solution_to_body(p: PairingGraph) -> Dict[str, Any]:
    return {
        "nodes": {n: p.polarity[n] for n in p.nodes},
        "blue": [list(pair) for pair in sorted(p.blue)],
        "red": [list(pair) for pair in sorted(p.red)],
    }


# ---------------------------------------------------------------------------
# documents

def graph_doc(g: Graph, rotations: Optional[RotationSystem] = None) -> Document:
    kind = "rotation_graph" if rotations is not None else "graph"
    return Document(kind, graph_to_body(g, rotations))


def morphism_doc(f: GraphMorphism,
                 dom_rot: Optional[RotationSystem] = None,
                 cod_rot: Optional[RotationSystem] = None) -> Document:
    return Document("morphism", {
        "dom": graph_to_body(f.dom, dom_rot),
        "cod": graph_to_body(f.cod, cod_rot),
        "map": map_to_body(f),
    })


def span_shaped_doc(obj, rots: Optional[Mapping[str, RotationSystem]] = None
                    ) -> Document:
    """The document of a rule, span or boundary embedding; `rots` is
    keyed by role, as `load_document` returns it."""
    kind = next(k for k, entry in _SPAN_SHAPED.items()
                if isinstance(obj, entry[3]))
    other, other_map = _SPAN_SHAPED[kind][:2]
    b, left, g, l, f = (getattr(obj, fd.name) for fd in fields(obj))
    rots = rots or {}
    return Document(kind, {
        "boundary": boundary_to_body(b, rots.get("boundary")),
        "left": graph_to_body(left, rots.get("left")),
        other: graph_to_body(g, rots.get(other)),
        "left_map": map_to_body(l),
        other_map: map_to_body(f),
    })


def surface_report_doc(report: SurfaceReport) -> Document:
    return Document("surface_report", surface_report_bodies([report])[0])


def surface_report_bodies(reports) -> list:
    """The body of each surface report.  Each `ComponentReport` object
    gets one body, which every report holding that object shares, so
    `print_document` writes it once however many reports carry it."""
    bodies: Dict[int, Dict[str, Any]] = {}

    def component(c) -> Dict[str, Any]:
        body = bodies.get(id(c))
        if body is None:
            body = bodies[id(c)] = {
                "vertices": list(c.vertices),
                "arcs": list(c.arcs),
                "vertex_count": c.vertex_count,
                "edge_count": c.edge_count,
                "circle_count": c.circle_count,
                "face_count": c.face_count,
                "euler_characteristic": c.euler_characteristic,
                "genus": c.genus,
            }
        return body

    return [{
        "components": [component(c) for c in report.components],
        "max_genus": report.max_genus,
        "is_planar": report.is_planar,
        "embedding_underdetermined": report.embedding_underdetermined,
    } for report in reports]


def law_report_doc(law: str, instances: int,
                   counterexample: Optional[str]) -> Document:
    return Document("law_report", {
        "law": law,
        "instances": instances,
        "counterexample": counterexample,
    })


# kind -> (second graph, its map, whether that map starts at the left
# graph rather than at B, constructor, validator).  Each kind is B -l-> L
# and a second graph, with fields "boundary", "left", "left_map" and the
# two named here.
_SPAN_SHAPED = {
    "rule": ("right", "right_map", False, RewriteRule, validate_rule),
    "span": ("context", "context_map", False, PartitioningSpan,
             validate_span),
    "boundary_embedding": ("host", "match_map", True, BoundaryEmbedding,
                           validate_boundary_embedding),
}

# kind -> (required fields, optional fields); trace bodies are free-form
_BODY_FIELDS = {
    "graph": ({"vertices", "edges"}, {"circles"}),
    "rotation_graph": ({"vertices", "edges", "rotations"}, {"circles"}),
    "morphism": ({"dom", "cod", "map"}, ()),
    **{kind: ({"boundary", "left", other, "left_map", other_map}, ())
       for kind, (other, other_map, *_) in _SPAN_SHAPED.items()},
    "match": ({"rule", "host"}, {"matches"}),
    "trace": None,
    "classification": ({"kind", "violations"}, ()),
    "surface_report": (
        {"components", "max_genus", "is_planar", "embedding_underdetermined"},
        ()),
    "law_report": ({"law", "instances", "counterexample"}, ()),
}


def print_document(doc: Document) -> str:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": doc.kind,
        "body": doc.body,
    }
    out: list = []
    try:  # the writer recurses at every level
        _write(payload, "\n", out, {})
    except RecursionError:
        raise DocumentError("document nested too deeply") from None
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii
_is_str = str.__instancecheck__

# A container with at least this many values, all of them non-empty
# dicts of strings or all non-empty lists of strings, is encoded in one
# call to the stdlib's C encoder (`_encode_run`).  Measured crossover
# (Python 3.11): lists of two-string pairs break even at 6 pairs (4.9
# us either way) and gain from 8 on (6.3 -> 5.5 us); `edges` dicts gain
# from 4 on.  Below the minimum a run of lists is one join per list,
# which the 6-pair `blue`/`red` lists that `repairings --classify-genus`
# writes for each solution take, and a run of dicts is written value by
# value.
_RUN_MIN = 8


def _write(value, nl: str, out: list, seen: dict) -> None:
    """Append the text `json.dumps(value, sort_keys=True, indent=2)`
    gives for str, int, finite float, bool, None, lists, tuples and
    str-keyed dicts; anything else, a non-finite float or a non-str key
    included, raises TypeError.  `nl` is a newline plus the current
    indent.  A container of strings is one join, a short run of string
    lists one join per list, and a long run of flat containers one
    encoder call: the stdlib encoder is pure Python whenever it indents.

    A dict met again at the same indent is not written again.  `seen`
    maps (id, indent) to where its first text lies in `out`; the second
    sighting joins that span once and keeps the text for every later
    one, so a dict written once costs no join."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float) and math.isfinite(value):
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        texts = (map(_quote, value) if all(map(_is_str, value))
                 else _encode_run(value, inner))
        if texts is not None:
            out.append("[" + inner + ("," + inner).join(texts) + nl + "]")
            return
        sep = "[" + inner
        for x in value:
            out.append(sep)
            _write(x, inner, out, seen)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        key = (id(value), nl)
        known = seen.get(key)
        if known is None:
            start = len(out)
            _write_dict(value, nl, out, seen)
            seen[key] = (start, len(out))
            return
        if isinstance(known, tuple):
            known = seen[key] = "".join(out[known[0]:known[1]])
        out.append(known)
    else:
        raise TypeError(f"cannot write {value!r} as JSON")


def _write_dict(value: dict, nl: str, out: list, seen: dict) -> None:
    """`_write` of a non-empty dict."""
    inner = nl + "  "
    keys = sorted(value)
    values = list(map(value.__getitem__, keys))
    texts = (map(_quote, values) if all(map(_is_str, values))
             else _encode_run(values, inner))
    if texts is not None:
        out.append("{" + inner + ("," + inner).join(
            map(str.__add__, map(_quote, keys),
                map(": ".__add__, texts))) + nl + "}")
        return
    sep = "{" + inner
    for k, v in zip(keys, values):
        out.append(sep + _quote(k) + ": ")
        _write(v, inner, out, seen)
        sep = "," + inner
    out.append(nl + "}")


def _encode_run(values, nl: str):
    """The texts `_write` gives for each of `values` at indent `nl`, if
    they are all non-empty lists (or all tuples) of strings, or at least
    `_RUN_MIN` non-empty dicts from strings to strings; otherwise None.

    Fewer than `_RUN_MIN` lists are joined one by one.  A longer run is
    one call to the C encoder, with the separator the members of each
    value need, "," plus a newline and their indent.  The same separator
    then stands between the values, after a closing and before an
    opening bracket; inside a value it follows a string.  An encoded
    string holds no raw newline, so splitting there is exact.
    """
    if not all(values):
        return None
    short = len(values) < _RUN_MIN
    if not short and all(map(dict.__instancecheck__, values)):
        opening, closing = "{", "}"
        members = itertools.chain(
            itertools.chain.from_iterable(values),
            itertools.chain.from_iterable(map(dict.values, values)))
    elif (all(map(list.__instancecheck__, values))
          or all(map(tuple.__instancecheck__, values))):
        opening, closing = "[", "]"
        members = itertools.chain.from_iterable(values)
    else:
        return None
    if not all(map(_is_str, members)):
        return None
    inner = nl + "  "
    sep = "," + inner
    head, tail = opening + inner, nl + closing
    if short:
        return [head + sep.join(map(_quote, x)) + tail for x in values]
    # members are strings, so no value can hold itself
    text = json.JSONEncoder(sort_keys=True, separators=(sep, ": "),
                            check_circular=False).encode(values)
    # text is "[" + opening + ... + closing + "]"
    return [head + body + tail
            for body in text[2:-2].split(closing + sep + opening)]


def parse_document(text: str, lenient: bool = False) -> Document:
    """Parse and validate a document; see `read_document`."""
    return read_document(text, lenient)[0]


def read_document(text: str, lenient: bool = False):
    """Parse a document and load it, which is its validation pass.

    Returns (Document, the `load_document` result), so a caller that
    needs the domain object does not load it a second time.
    """
    try:
        payload = json.loads(text, parse_constant=_non_finite,
                             parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError:
        raise DocumentError("document nested too deeply") from None
    except ValueError:  # the one other refusal: Python's int-string limit
        raise DocumentError(f"integer literal longer than "
                            f"{sys.get_int_max_str_digits()} digits") from None
    _check_fields(payload, {"format_version", "kind", "body"}, (),
                  "document", lenient)
    if payload["format_version"] != FORMAT_VERSION:
        raise VersionMismatch(
            f"unsupported format_version {payload['format_version']!r} "
            f"(expected {FORMAT_VERSION!r})")
    doc = Document(payload["kind"], payload["body"])
    return doc, load_document(doc, lenient=lenient)


def _non_finite(literal: str):
    """Refuse `NaN`, `Infinity`, `-Infinity` and overflowing literals,
    which `json.loads` accepts by default but strict JSON does not."""
    raise DocumentError(f"non-finite number {literal}")


def _finite_float(literal: str) -> float:
    x = float(literal)
    if not math.isfinite(x):
        _non_finite(literal)
    return x


def load_document(doc: Document, lenient: bool = False):
    """Reconstruct the domain object a document describes.

    Returns per kind: graph -> (Graph, None); rotation_graph ->
    (Graph, RotationSystem); morphism -> (GraphMorphism, dom rotation,
    cod rotation); rule -> (RewriteRule, rots); span ->
    (PartitioningSpan, rots); boundary_embedding -> (BoundaryEmbedding,
    rots); match -> (RewriteRule, host, listed matches as
    BoundaryEmbeddings, rots); others -> body.
    """
    body = doc.body
    if not isinstance(doc.kind, str) or doc.kind not in _BODY_FIELDS:
        raise ValidationFailed(f"unknown document kind {doc.kind!r}")
    if _BODY_FIELDS[doc.kind] is not None:
        _check_fields(body, *_BODY_FIELDS[doc.kind], doc.kind, lenient)
    if doc.kind in ("graph", "rotation_graph"):
        g, rs = graph_from_body(body, doc.kind, lenient)
        if doc.kind == "rotation_graph" and rs is None:
            raise ValidationFailed("rotation_graph without rotations")
        return g, rs
    if doc.kind == "morphism":
        dom, dom_rot = graph_from_body(body["dom"], "dom", lenient)
        cod, cod_rot = graph_from_body(body["cod"], "cod", lenient)
        f = map_from_body(body["map"], dom, cod, "map", lenient)
        return f, dom_rot, cod_rot
    if doc.kind in _SPAN_SHAPED:
        # B -l-> L and a second graph reached from B (or from L)
        other, other_map, from_left, make, validate = _SPAN_SHAPED[doc.kind]
        b, b_rot = boundary_from_body(body["boundary"], "boundary", lenient)
        left, l_rot = graph_from_body(body["left"], "left", lenient)
        g, g_rot = graph_from_body(body[other], other, lenient)
        obj = make(
            b, left, g,
            map_from_body(body["left_map"], b.graph, left, "left_map", lenient),
            map_from_body(body[other_map], left if from_left else b.graph, g,
                          other_map, lenient),
        )
        errors = validate(obj)
        if errors:
            raise ValidationFailed(f"{doc.kind}: {errors}")
        return obj, {"boundary": b_rot, "left": l_rot, other: g_rot}
    if doc.kind == "match":
        rule, rots = load_document(Document("rule", body["rule"]), lenient)
        host, h_rot = graph_from_body(body["host"], "host", lenient)
        entries = body.get("matches", [])
        if not isinstance(entries, list):
            raise FieldTypeError("match.matches: expected a list")
        matches = [
            BoundaryEmbedding(rule.b, rule.left, host, rule.l, map_from_body(
                entry, rule.left, host, f"matches[{i}]", lenient))
            for i, entry in enumerate(entries)
        ]
        rots["host"] = h_rot
        return rule, host, matches, rots
    return body
