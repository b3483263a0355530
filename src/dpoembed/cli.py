"""Command line interface.

Reads Documents from a file or stdin, writes Documents to stdout and
diagnostics to stderr.  Exit codes: 0 success, 1 domain failure
(invalid object, failed check, counterexample), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Optional

from . import dot, serialize
from .boundary import (BoundaryError, blue_half, enumerate_re_pairings,
                       solve_re_pairing)
from .dpo import (
    DpoError,
    classify_re_pairings,
    pushout,
    pushout_complement,
    rewrite,
)
from .lawcheck import (
    GenBudget,
    UnknownLaw,
    run_all,
)
from .matcher import MatcherError, find_matches, nth_match
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
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliFailure(str(exc)) from exc
    except UnicodeDecodeError as exc:
        name = "<stdin>" if path == "-" else path
        raise DocumentError(
            f"{name}: not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


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
        "arc_classes": {a: list(es) for a, es in po.arc_classes.items()},
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
    classify_genus = args.classify_genus or args.planar_only
    solved = (classify_re_pairings(be, rots) if classify_genus
              else [(s, None) for s in enumerate_re_pairings(be)])
    kept = [(s, r) for s, r in solved if not args.planar_only or r.is_planar]
    body = {"operation": "repairings",
            "blue_half": serialize.solution_to_body(blue_half(be)),
            "solutions": [serialize.solution_to_body(s) for s, _ in kept]}
    if classify_genus:
        body["reports"] = serialize.surface_report_bodies(
            [r for _, r in kept])
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
    # the listed matches, or else the list `match` prints with the same
    # --rotations flag, of which only the chosen match is built
    if given:
        count = len(given)
        chosen = given[args.match] if 0 <= args.match < count else None
    else:
        count, chosen = nth_match(rule, host, args.match, rots)
    if chosen is None:
        raise CliFailure(f"match index {args.match} not in [0, {count})")
    m = chosen.m
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


def _budget(text: str) -> List[int]:
    """A V,E,O[,B] option of non-negative integers; anything else is a
    usage error."""
    parts = text.split(",")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError("budget must be V,E,O or V,E,O,B")
    try:
        return [_count(p) for p in parts]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"bad budget: {text!r}") from None


def _count(text: str) -> int:
    """A non-negative integer option; anything else is a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return n


def cmd_lawcheck(args) -> int:
    budget = GenBudget(*args.budget or (), seed=args.seed)
    reports = run_all(budget, args.random, [args.law] if args.law else None)
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

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared by
    every later one.  Parsing leaves it unchanged.  Each subcommand
    records the name of its `cmd_*` function, which `main` looks up
    when it runs, so a patched `cmd_*` still takes effect."""
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
        p.set_defaults(fn=fn.__name__)
        return p

    add("validate", cmd_validate,
        help="parse, validate and reprint a document")
    add("classify-morphism", cmd_classify_morphism,
        help="classify morphism data as embedding, morphism or invalid")

    rotations = "carry the document's rotation systems through the step"
    solution = "wire re-pairing solution N (default: the canonical one)"

    p = add("pushout", cmd_pushout, help="pushout of a partitioning span")
    p.add_argument("--rotations", action="store_true", help=rotations)

    p = add("complement", cmd_complement,
            help="pushout complement of a boundary embedding")
    p.add_argument("--solution", type=int, default=None, metavar="N",
                   help=solution)
    p.add_argument("--rotations", action="store_true", help=rotations)

    p = add("repairings", cmd_repairings,
            help="enumerate re-pairing solutions")
    p.add_argument("--classify-genus", action="store_true",
                   help="report the genus of each solution's complement")
    p.add_argument("--planar-only", action="store_true",
                   help="keep the solutions with a planar complement only")

    p = add("match", cmd_match, help="find matches of a rule in a host")
    p.add_argument("--rotations", action="store_true",
                   help="find only the rotation-preserving matches")

    p = add("rewrite", cmd_rewrite, help="one DPO rewrite step")
    p.add_argument("--match", type=int, default=0, metavar="N",
                   help="rewrite at match N of the document's matches, or "
                        "else of those found (default 0)")
    p.add_argument("--solution", type=int, default=None, metavar="N",
                   help=solution)
    p.add_argument("--rotations", action="store_true",
                   help="carry rotations through the step; --match counts "
                        "rotation-preserving matches")

    add("genus", cmd_genus, help="surface report of a rotation graph")

    p = sub.add_parser("lawcheck", help="run the law suite")
    p.add_argument("--law", default=None, metavar="NAME",
                   help="run only this law (default: every law)")
    p.add_argument("--budget", type=_budget, default=None,
                   metavar="V,E,O[,B]",
                   help="at most V vertices, E edges, O circles and B "
                        "boundary edges")
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="seed of the random instances (default 0)")
    p.add_argument("--random", type=_count, default=0, metavar="N",
                   help="extra seeded-random instances per law")
    p.set_defaults(fn=cmd_lawcheck.__name__)

    add("export-dot", cmd_export_dot, help="render a document as DOT")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.fn](args)
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
