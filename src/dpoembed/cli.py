"""Command line interface.

Reads Documents from a file or stdin, writes Documents to stdout and
diagnostics to stderr.  Exit codes: 0 success, 1 domain failure
(invalid object, failed check, counterexample), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import dot, serialize
from .boundary import (
    BoundaryError,
    blue_half,
    enumerate_re_pairings,
    solve_re_pairing,
)
from .dpo import (
    DpoError,
    classify_re_pairings,
    pushout,
    pushout_complement,
    rewrite,
)
from .lawcheck import (
    DEFAULT_BUDGET,
    GenBudget,
    LAWS,
    UnknownLaw,
    run_all,
)
from .matcher import MatcherError, find_matches
from .morphism import classify
from .rotation import RotationError, genus_report
from .serialize import (
    Document,
    DocumentError,
    DocumentSyntaxError,
    ValidationFailed,
    print_document,
    read_document,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class CliFailure(Exception):
    """Domain-level failure: valid invocation, negative outcome."""


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliFailure(str(exc)) from exc


def _emit(doc: Document) -> None:
    sys.stdout.write(print_document(doc))


def _parse(path: str, lenient: bool, expect: Optional[tuple] = None):
    """(Document, loaded object): the document is loaded exactly once."""
    doc, loaded = read_document(_read(path), lenient=lenient)
    if expect is not None and doc.kind not in expect:
        raise CliFailure(
            f"expected a document of kind {' or '.join(expect)}, "
            f"got {doc.kind}")
    return doc, loaded


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args) -> int:
    doc, _ = _parse(args.file, args.lenient)
    _emit(doc)
    return EXIT_OK


def cmd_classify_morphism(args) -> int:
    _, (f, _, _) = _parse(args.file, args.lenient, ("morphism",))
    cls = classify(f)
    _emit(Document("classification", {
        "kind": cls.kind,
        "violations": [list(v) for v in cls.violations],
    }))
    return EXIT_OK


def cmd_pushout(args) -> int:
    _, (span, rots) = _parse(args.file, args.lenient, ("span",))
    po = pushout(span, rots if args.rotations else None)
    _emit(Document("trace", {
        "operation": "pushout",
        "result": serialize.graph_to_body(po.graph, po.rotation),
        "left_leg": serialize.map_to_body(po.m),
        "context_leg": serialize.map_to_body(po.g),
        "arc_classes": {a: list(es) for a, es in sorted(po.arc_classes.items())},
    }))
    return EXIT_OK


def cmd_complement(args) -> int:
    _, (be, rots) = _parse(args.file, args.lenient, ("boundary_embedding",))
    comp = pushout_complement(be, args.solution,
                              rots if args.rotations else None)
    _emit(Document("trace", {
        "operation": "complement",
        "context": serialize.graph_to_body(comp.context, comp.rotation),
        "dual_boundary": comp.dual_boundary,
        "context_leg": serialize.map_to_body(comp.c),
        "embedding": serialize.map_to_body(comp.g),
        "solution": serialize.solution_to_body(comp.solution),
    }))
    return EXIT_OK


def cmd_repairings(args) -> int:
    _, (be, rots) = _parse(args.file, args.lenient, ("boundary_embedding",))
    body = {"operation": "repairings",
            "blue_half": serialize.solution_to_body(blue_half(be))}
    if args.classify_genus or args.planar_only:
        classified = [(s, r) for s, r in classify_re_pairings(be, rots)
                      if not args.planar_only or r.is_planar]
        body["solutions"] = [serialize.solution_to_body(s)
                             for s, _ in classified]
        body["reports"] = [serialize.surface_report_doc(r).body
                           for _, r in classified]
    else:
        body["solutions"] = [serialize.solution_to_body(s)
                             for s in enumerate_re_pairings(be)]
    _emit(Document("trace", body))
    return EXIT_OK


def cmd_match(args) -> int:
    doc, (rule, host, _, rots) = _parse(args.file, args.lenient, ("match",))
    matches = find_matches(rule, host, rots if args.rotations else None)
    body = dict(doc.body)
    body["matches"] = [serialize.map_to_body(be.m) for be in matches]
    _emit(Document("match", body))
    return EXIT_OK


def cmd_rewrite(args) -> int:
    _, (rule, host, given, rots) = _parse(args.file, args.lenient,
                                          ("match",))
    rots = rots if args.rotations else None
    # the list `match` prints with the same --rotations flag
    candidates = given or find_matches(rule, host, rots)
    if not 0 <= args.match < len(candidates):
        raise CliFailure(
            f"match index {args.match} not in [0, {len(candidates)})")
    m = candidates[args.match].m
    _, trace = rewrite(rule, host, m, args.solution, rots)
    po = trace.result_pushout
    _emit(Document("trace", {
        "operation": "rewrite",
        "match": serialize.map_to_body(m),
        "solution": serialize.solution_to_body(trace.complement.solution),
        "context": serialize.graph_to_body(trace.complement.context),
        "result": serialize.graph_to_body(po.graph, po.rotation),
        "right_leg": serialize.map_to_body(po.m),
        "context_leg": serialize.map_to_body(po.g),
    }))
    return EXIT_OK


def cmd_genus(args) -> int:
    _, (_, rs) = _parse(args.file, args.lenient, ("rotation_graph",))
    _emit(serialize.surface_report_doc(genus_report(rs)))
    return EXIT_OK


def _parse_budget(text: str, seed: int) -> GenBudget:
    parts = text.split(",")
    if len(parts) not in (3, 4):
        raise CliFailure("budget must be V,E,O or V,E,O,B")
    try:
        nums = [int(p) for p in parts]
    except ValueError as exc:
        raise CliFailure(f"bad budget: {text!r}") from exc
    if len(nums) == 3:
        nums.append(DEFAULT_BUDGET.max_boundary_edges)
    return GenBudget(*nums, seed=seed)


def cmd_lawcheck(args) -> int:
    budget = (_parse_budget(args.budget, args.seed) if args.budget
              else GenBudget(seed=args.seed))
    names = [args.law] if args.law else sorted(LAWS)
    reports = run_all(budget, args.random, names)
    _emit(Document("trace", {
        "operation": "lawcheck",
        "reports": [serialize.law_report_doc(r.law, r.instances,
                                             r.counterexample).body
                    for r in reports],
    }))
    if any(not r.ok for r in reports):
        return EXIT_FAIL
    return EXIT_OK


def cmd_export_dot(args) -> int:
    doc, loaded = _parse(args.file, args.lenient)
    if doc.kind in ("graph", "rotation_graph"):
        g, rs = loaded
        sys.stdout.write(dot.graph_to_dot(g, rs))
        return EXIT_OK
    if doc.kind == "span":
        sys.stdout.write(dot.span_to_dot(loaded[0]))
        return EXIT_OK
    if doc.kind == "boundary_embedding":
        sys.stdout.write(dot.pairing_to_dot(solve_re_pairing(loaded[0])))
        return EXIT_OK
    raise dot.UnsupportedKind(f"cannot render a {doc.kind} document as DOT")


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpoembed",
        description="Double-pushout rewriting on graphs with circles.")
    parser.add_argument("--lenient", action="store_true",
                        help="tolerate unknown fields in input documents")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", nargs="?", default="-",
                       help="input document ('-' for stdin)")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate,
        help="parse, validate and reprint a document")
    add("classify-morphism", cmd_classify_morphism,
        help="classify morphism data as embedding, morphism or invalid")

    p = add("pushout", cmd_pushout, help="pushout of a partitioning span")
    p.add_argument("--rotations", action="store_true")

    p = add("complement", cmd_complement,
            help="pushout complement of a boundary embedding")
    p.add_argument("--solution", type=int, default=None, metavar="N")
    p.add_argument("--rotations", action="store_true")

    p = add("repairings", cmd_repairings,
            help="enumerate re-pairing solutions")
    p.add_argument("--classify-genus", action="store_true")
    p.add_argument("--planar-only", action="store_true")

    p = add("match", cmd_match, help="find matches of a rule in a host")
    p.add_argument("--rotations", action="store_true")

    p = add("rewrite", cmd_rewrite, help="one DPO rewrite step")
    p.add_argument("--match", type=int, default=0, metavar="N")
    p.add_argument("--solution", type=int, default=None, metavar="N")
    p.add_argument("--rotations", action="store_true")

    add("genus", cmd_genus, help="surface report of a rotation graph")

    p = sub.add_parser("lawcheck", help="run the law suite")
    p.add_argument("--law", default=None, metavar="NAME")
    p.add_argument("--budget", default=None, metavar="V,E,O[,B]")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--random", type=int, default=0, metavar="N",
                   help="extra seeded-random instances per law")
    p.set_defaults(fn=cmd_lawcheck)

    add("export-dot", cmd_export_dot, help="render a document as DOT")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DocumentSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CliFailure, BoundaryError, DpoError, MatcherError,
            RotationError, UnknownLaw, dot.DotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
