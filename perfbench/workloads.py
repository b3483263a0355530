"""The four workloads: seeded input generators, the call that runs the
program on one input, and the reference check of its output.

Sizes sweep a log-uniform range, stratified: each *round* takes one
size from every equal-width bin of log(size), at an offset inside the
bins that follows a golden-ratio sequence from round to round.  The
sizes are therefore the same for every seed, and every run covers the
whole range in the same proportions; what the seed decides is the order
of the ops in a round, the graphs' structure, and the argument choices.
Run-to-run spread then comes from the machine, not from a lucky draw of
sizes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any

import reference

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    args: Any                 # what the program is given
    expect: Any               # what the reference check needs
    items: int                # work items, for items_per_s
    round_end: bool = False   # last op of a round
    meta: dict = field(default_factory=dict)


GOLDEN = (math.sqrt(5) - 1) / 2


def ladder(lo, hi, strata, round_no):
    """One size from each of `strata` equal log-width bins of [lo, hi]."""
    offset = (0.5 + round_no * GOLDEN) % 1.0
    span = math.log(hi / lo)
    return [round(lo * math.exp(span * (j + offset) / strata))
            for j in range(strata)]


def rounds(seed, workload):
    """Endless ops, round after round, marking each round's last op.
    workload.make_round(rng, sizes) builds one round's ops in seeded
    order."""
    rng = random.Random(seed)
    round_no = 0
    while True:
        sizes = ladder(workload.lo, workload.hi, workload.strata, round_no)
        batch = workload.make_round(rng, sizes)
        rng.shuffle(batch)
        for i, op in enumerate(batch):
            op.round_end = i == len(batch) - 1
            yield op
        round_no += 1


def run_cli(argv, text):
    """cli.main in-process with `text` on stdin; returns (exit code,
    stdout, stderr)."""
    from dpoembed import cli
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def cli_body(rc, out, err):
    """(body of the output document, []) or (None, errors)."""
    if rc != 0:
        return None, [f"exit code {rc}: {err.strip()[:200]}"]
    try:
        return json.loads(out)["body"], []
    except (ValueError, KeyError) as exc:
        return None, [f"unreadable output: {exc}"]


def _edges_body(edges):
    return {e: {"source": s, "target": t} for e, (s, t) in edges.items()}


def _boundary_body(k, rotations=None):
    """B with k positive edges p_j (bnd -> dbd) and k negative edges
    n_j (dbd -> bnd)."""
    edges = {}
    for j in range(k):
        edges[f"p{j}"] = ("bnd", "dbd")
        edges[f"n{j}"] = ("dbd", "bnd")
    body = {"vertices": ["bnd", "dbd"], "edges": _edges_body(edges),
            "circles": [], "boundary_vertex": "bnd",
            "dual_boundary_vertex": "dbd"}
    if rotations is not None:
        body["rotations"] = rotations
    return body


# ---------------------------------------------------------------------------
# rewrite: CLI rewrite with match search on cycles with chords

class Rewrite:
    """Subdivide an in-1/out-1 vertex: u->v->u  =>  u->p->q->u."""

    name = "rewrite"
    lo, hi, strata = 100, 800, 8

    RULE = {
        "boundary": _boundary_body(1),
        "left": {"vertices": ["u", "v"],
                 "edges": _edges_body({"a": ("u", "v"), "b": ("v", "u")}),
                 "circles": []},
        "right": {"vertices": ["p", "q", "u"],
                  "edges": _edges_body({"c": ("u", "p"), "d": ("p", "q"),
                                        "f": ("q", "u")}),
                  "circles": []},
        "left_map": {"vertices": {"bnd": "u"}, "arcs": {"p0": "a", "n0": "b"}},
        "right_map": {"vertices": {"bnd": "u"},
                      "arcs": {"p0": "c", "n0": "f"}},
    }

    def ops(self, seed):
        return rounds(seed, self)

    def make_round(self, rng, sizes):
        return [self._op(rng, n) for n in sizes]

    def _op(self, rng, n):
        vs = [f"n{i:04d}" for i in range(n)]
        edges = {f"c{i:04d}": (vs[i], vs[(i + 1) % n]) for i in range(n)}
        for j in range(n // 4):
            s, t = rng.sample(vs, 2)
            edges[f"h{j:04d}"] = (s, t)
        host = {"vertices": vs, "edges": edges, "circles": ["o"]}
        cands = reference.subdivision_candidates(vs, edges.values())
        index = rng.randrange(len(cands))
        doc = {"format_version": "1", "kind": "match",
               "body": {"rule": self.RULE,
                        "host": {"vertices": vs, "edges": _edges_body(edges),
                                 "circles": ["o"]}}}
        return Op((["rewrite", "--match", str(index), "-"], json.dumps(doc)),
                  (host, index), len(edges) + 1, meta={"n": n})

    def run(self, op):
        return run_cli(*op.args)

    def check(self, op, result):
        body, errors = cli_body(*result)
        if errors:
            return errors
        host, index = op.expect
        return reference.check_rewrite(host, index, body)


# ---------------------------------------------------------------------------
# genus: CLI repairings --classify-genus, k loops onto a circle beside a grid

class Genus:
    name = "genus"
    lo, hi, strata = 25, 100, 8
    ks = (4, 5, 6)

    def ops(self, seed):
        return rounds(seed, self)

    def make_round(self, rng, sizes):
        return [self._op(rng, k, n) for k in self.ks for n in sizes]

    def _op(self, rng, k, n):
        rows = max(2, round(math.sqrt(n)))
        cols = max(2, round(n / rows))
        if rng.random() < 0.5:
            rows, cols = cols, rows
        vid = lambda i, j: f"g{i:02d}_{j:02d}"
        edges, rot = {}, {}
        for i in range(rows):
            for j in range(cols):
                if j + 1 < cols:
                    edges[f"x{i:02d}_{j:02d}"] = (vid(i, j), vid(i, j + 1))
                if i + 1 < rows:
                    edges[f"y{i:02d}_{j:02d}"] = (vid(i, j), vid(i + 1, j))
        # Counterclockwise (right, up, left, down) at every vertex: a
        # planar embedding of the grid.
        for i in range(rows):
            for j in range(cols):
                fl = []
                if j + 1 < cols:
                    fl.append(f"x{i:02d}_{j:02d}.src")
                if i > 0:
                    fl.append(f"y{i - 1:02d}_{j:02d}.tgt")
                if j > 0:
                    fl.append(f"x{i:02d}_{j - 1:02d}.tgt")
                if i + 1 < rows:
                    fl.append(f"y{i:02d}_{j:02d}.src")
                rot[vid(i, j)] = fl
        grid_vs = sorted(rot)
        host = {"vertices": grid_vs, "edges": _edges_body(edges),
                "circles": ["o"], "rotations": rot}
        bnd_rot = [t for j in range(k) for t in (f"p{j}.src", f"n{j}.tgt")]
        dual_rot = [t for j in range(k) for t in (f"p{j}.tgt", f"n{j}.src")]
        rng.shuffle(dual_rot)
        left = {"vertices": ["v"],
                "edges": _edges_body({f"a{j}": ("v", "v") for j in range(k)}),
                "circles": [],
                "rotations": {"v": [t for j in range(k)
                                    for t in (f"a{j}.src", f"a{j}.tgt")]}}
        body = {
            "boundary": _boundary_body(k, {"bnd": bnd_rot, "dbd": dual_rot}),
            "left": left,
            "host": host,
            "left_map": {"vertices": {"bnd": "v"},
                         "arcs": {f"{s}{j}": f"a{j}"
                                  for j in range(k) for s in "pn"}},
            "match_map": {"vertices": {},
                          "arcs": {f"a{j}": "o" for j in range(k)}},
        }
        doc = {"format_version": "1", "kind": "boundary_embedding",
               "body": body}
        spec = {"k": k, "rows": rows, "cols": cols, "grid_vertices": grid_vs,
                "grid_edges": len(edges), "dual_rotation": dual_rot}
        return Op((["repairings", "--classify-genus", "-"], json.dumps(doc)),
                  spec, math.factorial(k - 1),
                  meta={"n": rows * cols, "k": k})

    def run(self, op):
        return run_cli(*op.args)

    def check(self, op, result):
        body, errors = cli_body(*result)
        return errors or reference.check_genus(op.expect, body)


# ---------------------------------------------------------------------------
# iso-roundtrip: library complement -> pushout -> iso_check

def _iso_host(rng, family, degree, n):
    """(vertex ids, edges) of one host family on about n vertices, with
    `degree` arcs per vertex on average."""
    if family == "torus":   # degree 4
        rows = max(3, round(math.sqrt(n)))
        cols = max(3, n // rows)
        n = rows * cols
        pairs = []
        for i in range(rows):
            for j in range(cols):
                here = i * cols + j
                pairs.append((here, i * cols + (j + 1) % cols))
                pairs.append((here, ((i + 1) % rows) * cols + j))
    elif family == "cycle":   # degree 2
        pairs = [(i, (i + 1) % n) for i in range(n)]
    elif family == "circulant":
        offsets = rng.sample(range(1, n), degree // 2)
        pairs = [(i, (i + s) % n) for s in offsets for i in range(n)]
    else:
        pairs = [tuple(rng.sample(range(n), 2))
                 for _ in range(n * degree // 2)]
    vs = [f"w{i:02d}" for i in range(n)]
    return vs, {f"e{i:03d}": (vs[s], vs[t]) for i, (s, t) in enumerate(pairs)}


class IsoRoundtrip:
    """Plant k loops on a host circle, then pushout(complement) and
    iso_check the result against the host."""

    name = "iso-roundtrip"
    lo, hi, strata = 16, 64, 4
    # Regular families (cycle, torus, circulant) give every vertex the
    # same degree signature, so only the backtracking separates them.
    families = (("cycle", 2), ("torus", 4), ("circulant", 4),
                ("circulant", 6), ("circulant", 8), ("random", 2),
                ("random", 4), ("random", 6), ("random", 8))

    def __init__(self):
        # the package re-exports `graph` the function over the module
        self.lib = tuple(importlib.import_module(f"dpoembed.{m}")
                         for m in ("boundary", "dpo", "graph", "morphism"))

    def ops(self, seed):
        return rounds(seed, self)

    def make_round(self, rng, sizes):
        return [self._op(rng, f, d, n)
                for f, d in self.families for n in sizes]

    def _op(self, rng, family, degree, n):
        boundary, _, graph, morphism = self.lib
        vs, edges = _iso_host(rng, family, degree, n)
        k = rng.randint(1, 3)
        host = graph.graph(vs, edges, ["o"])
        bedges = {}
        for j in range(k):
            bedges[f"p{j}"] = ("bnd", "dbd")
            bedges[f"n{j}"] = ("dbd", "bnd")
        b = boundary.BoundaryGraph(graph.graph(["bnd", "dbd"], bedges),
                                   "bnd", "dbd")
        left = graph.graph(["v"], {f"a{j}": ("v", "v") for j in range(k)})
        l = morphism.morphism(b.graph, left, {"bnd": "v"},
                              {e: f"a{e[1:]}" for e in bedges})
        m = morphism.morphism(left, host, {},
                              {f"a{j}": "o" for j in range(k)})
        be = boundary.BoundaryEmbedding(b, left, host, l, m)
        return Op(be, host, len(edges) + 1,
                  meta={"n": len(vs), "family": family, "degree": degree})

    def run(self, op):
        _, dpo, _, _ = self.lib
        be = op.args
        comp = dpo.pushout_complement(be)
        po = dpo.pushout(comp.span(be.l, be.b, be.left))
        return po.graph, dpo.iso_check(po.graph, be.host)

    def check(self, op, result):
        g, iso = result
        return reference.check_isomorphism(g, op.expect, iso)


# ---------------------------------------------------------------------------
# lawsuite: the CLI law suite in a fresh interpreter per operation

class Lawsuite:
    """One `dpoembed lawcheck` process per operation, one at a time.

    lawcheck caches hom sets in a process-global table, so a warm rerun
    in-process would measure a different program; CLI users start cold.
    """

    name = "lawsuite"
    argv = ["lawcheck", "--budget", "2,1,1,2", "--random", "100"]

    def __init__(self, root, env):
        self.root, self.env = root, env
        self.peak_rss_kb = 0
        self.traced = None   # directory for traced children's output
        self.traces = []     # their span aggregates

    def ops(self, seed):
        rng = random.Random(seed)
        while True:
            s = rng.randrange(2 ** 31)
            yield Op(self.argv + ["--seed", str(s)], None,
                     sum(reference.LAWSUITE_INSTANCES.values()),
                     round_end=True, meta={"seed": s})

    def run(self, op):
        if self.traced is None:
            cmd = [sys.executable, "-m", "dpoembed.cli", *op.args]
        else:
            os.makedirs(self.traced, exist_ok=True)
            out = os.path.join(self.traced, f"child-{op.meta['seed']}.json")
            cmd = [sys.executable, os.path.join(HERE, "child.py"), out,
                   *op.args]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        with proc:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if self.traced is None:
            return proc.returncode, stdout
        with open(out, encoding="utf-8") as fh:
            child = json.load(fh)
        self.traces.append(child["trace"])
        return child["rc"], child["stdout"]

    def check(self, op, result):
        rc, stdout = result
        try:
            body = json.loads(stdout)["body"]
        except (ValueError, KeyError) as exc:
            return [f"exit code {rc}, unreadable output: {exc}"]
        return reference.check_lawsuite(rc, body)
