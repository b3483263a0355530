"""Correctness references for the benchmark workloads.

Nothing here imports or calls dpoembed: each check recomputes what the
answer must be from the generated input alone, and returns a list of
human-readable errors (empty when the output is right).
"""

from __future__ import annotations

import math
from collections import Counter

SRC = "src"
TGT = "tgt"

# Per-law instance counts of `lawcheck --budget 2,1,1,2 --random 100`,
# recorded at the commit that introduced this benchmark.  They do not
# depend on the seed; a drop in any of them is a loss of coverage.
LAWSUITE_INSTANCES = {
    "AlmostVertexInjective": 500,
    "ComplementRoundTrip": 125,
    "ComplementUniqueness": 125,
    "DegreePreservation": 500,
    "EdgesAndCircles": 177,
    "FlagBijComposition": 9638,
    "ForgetfulFunctoriality": 9638,
    "MorphismComposition": 9638,
    "PairingPathsOrCycles": 177,
    "PathInB": 177,
    "PushoutLegsAreEmbeddings": 177,
    "RePairingExistence": 125,
    "RotPreservationImpliesFlagSurj": 274,
    "SelfLoopCreation": 177,
}


def degree_profile(edges):
    """(in-degree, out-degree) Counters by vertex, from an iterable of
    (source, target) pairs."""
    ins, outs = Counter(), Counter()
    for s, t in edges:
        outs[s] += 1
        ins[t] += 1
    return ins, outs


def subdivision_candidates(vertices, edges):
    """Vertices with in-degree 1 and out-degree 1, in id order."""
    ins, outs = degree_profile(edges)
    return sorted(v for v in vertices if ins[v] == 1 and outs[v] == 1)


def check_rewrite(host, index, body):
    """`rewrite --match index` subdividing an in-1/out-1 vertex.

    host: {"vertices": [...], "edges": {id: (s, t)}, "circles": [...]}.
    """
    errors = []
    cands = subdivision_candidates(host["vertices"], host["edges"].values())
    match = body.get("match", {})
    w = match.get("vertices", {}).get("v")
    if w not in cands:
        errors.append(f"match maps v to {w!r}, not an in-1/out-1 vertex")
    elif cands.index(w) != index:
        # matches are listed in id order, so index i picks the i-th
        # candidate; a missing or extra match shifts it
        errors.append(f"match {index} is {w!r}, expected {cands[index]!r}")
    arcs = match.get("arcs", {})
    a, b = arcs.get("a"), arcs.get("b")
    if host["edges"].get(a, (None, None))[1] != w:
        errors.append(f"match sends a to {a!r}, which does not end at {w!r}")
    if host["edges"].get(b, (None, None))[0] != w:
        errors.append(f"match sends b to {b!r}, which does not start at {w!r}")

    result = body.get("result", {})
    rv, re_, rc = (result.get("vertices", []), result.get("edges", {}),
                   result.get("circles", []))
    if len(rv) != len(host["vertices"]) + 1:
        errors.append(f"result has {len(rv)} vertices, expected "
                      f"{len(host['vertices']) + 1}")
    if len(re_) != len(host["edges"]) + 1:
        errors.append(f"result has {len(re_)} edges, expected "
                      f"{len(host['edges']) + 1}")
    if len(rc) != len(host["circles"]):
        errors.append(f"result has {len(rc)} circles, expected "
                      f"{len(host['circles'])}")
    # Subdividing w into p, q adds exactly one more in-1/out-1 vertex
    # and leaves every other vertex's degrees alone.
    hin, hout = degree_profile(host["edges"].values())
    rin, rout = degree_profile(
        (e["source"], e["target"]) for e in re_.values())
    want = Counter((hin[v], hout[v]) for v in host["vertices"])
    want[(1, 1)] += 1
    got = Counter((rin[v], rout[v]) for v in rv)
    if got != want:
        errors.append("result degree profile differs from the subdivided host")
    return errors


def bouquet_faces(dual_rotation, red):
    """Faces of the bouquet the dual boundary carries after re-pairing.

    dual_rotation: flag tokens ("p3.tgt", "n1.src") in cyclic order at
    the dual boundary vertex.  red: (neg, pos) pairs; each becomes one
    loop whose source flag is neg's and whose target flag is pos's.
    Counts the orbits of the next-dart permutation on the 2k darts.
    """
    loop_of = {}
    for j, (neg, pos) in enumerate(red):
        loop_of[f"{neg}.{SRC}"] = (j, SRC)
        loop_of[f"{pos}.{TGT}"] = (j, TGT)
    rot = [loop_of[tok] for tok in dual_rotation]
    pos_of = {fl: i for i, fl in enumerate(rot)}

    def step(dart):
        loop, forward = dart
        arrival = (loop, TGT if forward else SRC)
        nxt = rot[(pos_of[arrival] + 1) % len(rot)]
        return (nxt[0], nxt[1] == SRC)

    seen, faces = set(), 0
    for start in [(j, fwd) for j in range(len(red)) for fwd in (True, False)]:
        if start in seen:
            continue
        faces += 1
        d = start
        while d not in seen:
            seen.add(d)
            d = step(d)
    return faces


def check_genus(spec, body):
    """`repairings --classify-genus` on k loops matched onto a circle of
    an r x c grid host.

    spec: {"k", "rows", "cols", "grid_vertices", "grid_edges",
    "dual_rotation"}.
    """
    errors = []
    k, rows, cols = spec["k"], spec["rows"], spec["cols"]
    solutions = body.get("solutions", [])
    reports = body.get("reports", [])
    expected = math.factorial(k - 1)
    reds = [frozenset(tuple(p) for p in s.get("red", [])) for s in solutions]
    if len(solutions) != expected or len(set(reds)) != expected:
        errors.append(f"{len(set(reds))} distinct solutions of "
                      f"{len(solutions)}, expected {expected}")
    if len(reports) != len(solutions):
        errors.append(f"{len(reports)} reports for {len(solutions)} solutions")
    grid = set(spec["grid_vertices"])
    grid_faces = (rows - 1) * (cols - 1) + 1
    for i, (red, report) in enumerate(zip(reds, reports)):
        comps = report.get("components", [])
        if len(comps) != 2:
            errors.append(f"solution {i}: {len(comps)} components, expected 2")
            continue
        for comp in comps:
            if set(comp["vertices"]) == grid:
                if (comp["genus"] != 0 or comp["face_count"] != grid_faces
                        or comp["edge_count"] != spec["grid_edges"]):
                    errors.append(
                        f"solution {i}: grid component genus "
                        f"{comp['genus']} faces {comp['face_count']}, "
                        f"expected 0 and {grid_faces}")
                continue
            faces = bouquet_faces(spec["dual_rotation"], sorted(red))
            genus = (2 - (1 - k + faces)) // 2
            if (comp["vertex_count"] != 1 or comp["edge_count"] != k
                    or comp["face_count"] != faces or comp["genus"] != genus):
                errors.append(
                    f"solution {i}: bouquet faces {comp['face_count']} genus "
                    f"{comp['genus']}, expected {faces} and {genus}")
    return errors


def check_isomorphism(g1, g2, iso):
    """iso = (vmap, amap) must be a pair of bijections g1 -> g2 that
    send edges to edges, circles to circles, and preserve sources and
    targets.  Graphs are read through their vertices, edges and
    circles fields only."""
    if iso is None:
        return ["iso_check found no isomorphism between result and host"]
    vmap, amap = iso
    errors = []
    if (set(vmap) != set(g1.vertices) or set(vmap.values()) != set(g2.vertices)
            or len(set(vmap.values())) != len(vmap)):
        errors.append("vertex map is not a bijection")
    arcs1 = set(g1.edges) | set(g1.circles)
    arcs2 = set(g2.edges) | set(g2.circles)
    if (set(amap) != arcs1 or set(amap.values()) != arcs2
            or len(set(amap.values())) != len(amap)):
        errors.append("arc map is not a bijection")
        return errors
    for e, (s, t) in g1.edges.items():
        img = amap[e]
        if g2.edges.get(img) != (vmap.get(s), vmap.get(t)):
            errors.append(f"edge {e} -> {img} does not preserve endpoints")
            break
    if any(amap[o] not in g2.circles for o in g1.circles):
        errors.append("a circle maps to an edge")
    return errors


def check_lawsuite(returncode, body):
    """`lawcheck` must exit 0, find no counterexample, and check exactly
    the recorded number of instances of every law."""
    errors = []
    if returncode != 0:
        errors.append(f"lawcheck exited {returncode}")
    reports = {r.get("law"): r for r in body.get("reports", [])}
    for law, want in LAWSUITE_INSTANCES.items():
        r = reports.get(law)
        if r is None:
            errors.append(f"law {law} missing")
        elif r.get("counterexample") is not None:
            errors.append(f"law {law}: counterexample {r['counterexample']}")
        elif r.get("instances") != want:
            errors.append(f"law {law}: {r.get('instances')} instances, "
                          f"expected {want}")
    return errors
