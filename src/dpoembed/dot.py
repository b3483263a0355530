"""Graphviz DOT export.  One-way only: DOT is a rendering, the
Document format is the source of truth."""

from __future__ import annotations

from typing import Optional

from .graph import Graph
from .boundary import PairingGraph, PartitioningSpan
from .rotation import RotationSystem


class DotError(Exception):
    pass


class UnsupportedKind(DotError):
    pass


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _vertex_line(v: str, rotations: Optional[RotationSystem]) -> str:
    if rotations is None:
        return f"  {_quote(v)};"
    order = " ".join(str(fl) for fl in rotations.rotation(v))
    return f"  {_quote(v)} [label={_quote(v + chr(10) + '(' + order + ')')}];"


def graph_to_dot(g: Graph, rotations: Optional[RotationSystem] = None) -> str:
    lines = ['digraph "G" {']
    for v in g.sorted_vertices():
        lines.append(_vertex_line(v, rotations))
    for e, (s, t) in g.edges.items():
        lines.append(f"  {_quote(s)} -> {_quote(t)} [label={_quote(e)}];")
    for o in g.sorted_circles():
        lines.append(f"  {_quote(o)} [shape=doublecircle, style=dashed,"
                     f" label={_quote(o)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def span_to_dot(span: PartitioningSpan) -> str:
    """The three graphs of a span as clustered subgraphs; leg maps are
    drawn as dashed inter-cluster arrows on the arcs."""
    lines = ["digraph span {", "  compound=true;"]

    def cluster(tag: str, g: Graph, boundary=()):
        lines.append(f"  subgraph cluster_{tag} {{")
        lines.append(f"    label={_quote(tag)};")
        for v in g.sorted_vertices():
            special = "doubleoctagon" if v in boundary else None
            attrs = f" [shape={special}]" if special else ""
            lines.append(f"    {_quote(tag + ':' + v)}{attrs};")
        for e, (s, t) in g.edges.items():
            lines.append(f"    {_quote(tag + ':' + s)} -> "
                         f"{_quote(tag + ':' + t)} [label={_quote(e)}];")
        for o in g.sorted_circles():
            lines.append(f"    {_quote(tag + ':' + o)} [shape=doublecircle,"
                         f" style=dashed, label={_quote(o)}];")
        lines.append("  }")

    cluster("B", span.b.graph, (span.b.boundary, span.b.dual_boundary))
    cluster("L", span.left)
    cluster("C", span.context)
    for v, w in span.l.vmap.items():
        lines.append(f"  {_quote('B:' + v)} -> {_quote('L:' + w)}"
                     " [style=dashed, color=gray, constraint=false];")
    for v, w in span.c.vmap.items():
        lines.append(f"  {_quote('B:' + v)} -> {_quote('C:' + w)}"
                     " [style=dashed, color=gray, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def pairing_to_dot(p: PairingGraph) -> str:
    """Nodes in one rank, blue pairs below, red pairs above."""
    lines = ["digraph pairing {", "  rankdir=LR;",
             "  {rank=same; "
             + " ".join(_quote(n) for n in p.nodes) + "}"]
    for n in p.nodes:
        lines.append(f"  {_quote(n)} [label={_quote(n + p.polarity[n])}];")
    for pos, neg in sorted(p.blue):
        lines.append(f"  {_quote(pos)} -> {_quote(neg)}"
                     " [color=blue, constraint=false];")
    for neg, pos in sorted(p.red):
        lines.append(f"  {_quote(neg)} -> {_quote(pos)}"
                     " [color=red, constraint=false, style=bold];")
    lines.append("}")
    return "\n".join(lines) + "\n"
