"""Span tracing of dpoembed's public functions, installed from outside.

`Tracer.install` wraps every public, non-generator function defined in
the traced modules and rebinds the wrapper in every dpoembed module
namespace that holds the original: modules import names directly
(`from .morphism import classify`), so patching the defining module
alone would miss most calls.  Generator functions are left alone,
because their work runs lazily in the caller's frame.

Each call records a span (id, parent id, operation id, name, start,
end).  Aggregates -- calls, self time, per-size samples for slope fits,
and counts read off selected results -- are exact for every call; the
span list itself is kept up to SPAN_CAP entries and written out at the
end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("graph", "morphism", "boundary", "dpo", "rotation", "matcher",
          "lawcheck", "serialize", "cli")

SPAN_CAP = 20_000

# Functions whose per-call time is fitted against input size.
SLOPED = ("graph.flags_at", "morphism.classify", "matcher.find_matches",
          "rotation.genus_report", "dpo.iso_check")

# Counts read off a function's result: name -> (counter, size of result).
PROBES = {
    "matcher.find_matches": ("matcher.matches", len),
    "boundary.enumerate_re_pairings": ("boundary.re_pairing_solutions", len),
    "lawcheck.check_lemma": ("lawcheck.instances", lambda r: r.instances),
    "serialize.print_document": ("serialize.bytes_out", len),
}


def _graph_arcs(x):
    """Arc count of the largest graph an argument carries, or -1."""
    if hasattr(x, "edges") and hasattr(x, "circles"):
        return len(x.edges) + len(x.circles)
    best = -1
    for attr in ("dom", "cod", "host", "graph", "left", "right", "context"):
        sub = getattr(x, attr, None)
        if sub is not None and hasattr(sub, "edges"):
            best = max(best, len(sub.edges) + len(sub.circles))
    return best


def largest_arcs(args):
    return max((_graph_arcs(a) for a in args), default=-1)


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self._patched = []        # (module, attribute, original)
        self._stack = []          # [span id, start, time in children]
        self._next_id = 0
        self.spans = []
        self.dropped = 0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        # name -> arc count -> [calls, seconds]
        self.sizes = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))

    def _wrap(self, name, fn):
        sized = name in SLOPED
        probe = PROBES.get(name)
        stack, spans, calls, self_s = (self._stack, self.spans, self.calls,
                                       self.self_s)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                calls[name] += 1
                self_s[name] += dur - frame[2]
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, self.op, name, frame[1], end))
                else:
                    self.dropped += 1
            if sized:
                cell = self.sizes[name][largest_arcs(args)]
                cell[0] += 1
                cell[1] += dur
            if probe is not None:
                self.counts[probe[0]] += probe[1](result)
            return result

        return traced

    def install(self):
        """Wrap the traced modules' public functions everywhere they are
        bound."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"dpoembed.{layer}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "dpoembed" and not modname.startswith("dpoembed."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()

    def aggregate(self):
        """Plain-data summary, mergeable across processes."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "sizes": {name: dict(by_size)
                      for name, by_size in self.sizes.items()},
            "spans": len(self.spans),
            "dropped": self.dropped,
        }

    def write_spans(self, path):
        """One JSON array per line after a header naming the fields;
        frees the in-memory spans."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "op", "name", "start",
                                 "end"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans.clear()


def merge(aggs):
    out = {"calls": Counter(), "self_s": defaultdict(float),
           "counts": Counter(),
           "sizes": defaultdict(lambda: defaultdict(lambda: [0, 0.0])),
           "spans": 0, "dropped": 0}
    for agg in aggs:
        out["calls"].update(agg["calls"])
        for name, s in agg["self_s"].items():
            out["self_s"][name] += s
        out["counts"].update(agg["counts"])
        for name, by_size in agg["sizes"].items():
            for n, (c, s) in by_size.items():
                cell = out["sizes"][name][int(n)]
                cell[0] += c
                cell[1] += s
        out["spans"] += agg["spans"]
        out["dropped"] += agg["dropped"]
    return out


def loglog_slope(by_size):
    """Least-squares slope of log(mean seconds per call) against
    log(arc count), one point per distinct arc count >= 1.  0.0 when
    fewer than two sizes were seen."""
    pts = [(math.log(n), math.log(s / c))
           for n, (c, s) in by_size.items() if n >= 1 and c and s > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
