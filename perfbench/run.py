"""dpoembed benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S
                                --trace 0|1

Run from the root of a source checkout: the program is imported from
./src.  Each workload is a closed loop with one client: the next
operation starts when the previous one has returned and been checked
against a reference that does not use dpoembed.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
is a separate run with span wrappers installed on dpoembed's public
functions; it reports the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object; the lines before it are a
readable summary.  See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import tracing
import workloads

SETUP_LAUNCHES = 12
CHECK_ERRORS_SHOWN = 3


def percentile(values, q):
    """Linear-interpolated q-quantile of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class SetupTimer:
    """Wall time of a fresh interpreter importing dpoembed.cli and
    building its parser.  Launches are spread over the run, one per
    `every` seconds, so that the median does not rest on one moment of
    the machine's load."""

    CMD = [sys.executable, "-c", "import dpoembed.cli as c; c.build_parser()"]

    def __init__(self, root, env, every):
        self.root, self.env, self.every = root, env, every
        self.times = []
        # the first launch writes the bytecode cache, as an install would
        self._launch()
        self.next = time.monotonic()

    def _launch(self):
        t0 = time.perf_counter()
        subprocess.run(self.CMD, cwd=self.root, env=self.env, check=True)
        return time.perf_counter() - t0

    def tick(self):
        if time.monotonic() >= self.next:
            self.times.append(self._launch())
            self.next = time.monotonic() + self.every

    def median(self):
        while len(self.times) < SETUP_LAUNCHES:
            self.times.append(self._launch())
        return statistics.median(self.times)


class Loop:
    """Closed loop over a workload's ops; stops at the first round end
    after `seconds` of time inside the program.  `run(op_i, op)` runs
    one op; by default the workload's own run."""

    def __init__(self, workload, seconds, run=None, between=None):
        self.workload, self.seconds = workload, seconds
        self.run_op = run or (lambda op_i, op: workload.run(op))
        self.between = between
        self.latencies = []
        self.attempted = self.failed = self.items = 0

    def run(self, ops):
        busy = 0.0
        hard_stop = time.monotonic() + 3 * self.seconds + 30
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                result, error = self.run_op(i, op), None
            except Exception as exc:  # a failed operation, not a crash
                result, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            busy += dt
            self.attempted += 1
            self.latencies.append(dt)
            if error is None:
                try:
                    errors = self.workload.check(op, result)
                except (KeyError, TypeError, ValueError, AttributeError) as exc:
                    errors = [f"malformed output: {type(exc).__name__}: {exc}"]
            else:
                errors = [error]
            if errors:
                self.failed += 1
                if self.failed <= CHECK_ERRORS_SHOWN:
                    print(f"check failed on op {i} {op.meta}: "
                          + "; ".join(errors[:3]), file=sys.stderr)
            else:
                self.items += op.items
            if self.between:
                self.between()
            if ((busy >= self.seconds and op.round_end)
                    or time.monotonic() > hard_stop):
                break
        return busy


def end_to_end(wl, args, root, env):
    setup = SetupTimer(root, env, args.seconds / SETUP_LAUNCHES)
    loop = Loop(wl, args.seconds, between=setup.tick)
    busy = loop.run(wl.ops(args.seed))
    setup_s = setup.median()
    if isinstance(wl, workloads.Lawsuite):
        rss_kb = wl.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat_ms = [t * 1000 for t in loop.latencies]
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (percentile(lat_ms, 0.5), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 0.9), "ms"),
        "ops_per_s": (loop.attempted / busy, "1/s"),
        "items_per_s": (loop.items / busy, "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    notes = {
        "fail_ratio": (loop.failed / loop.attempted, "ratio"),
        "operations": (loop.attempted, "count"),
        "busy_s": (busy, "s"),
    }
    if isinstance(wl, workloads.Lawsuite):
        notes["law_instances_per_s"] = metrics["items_per_s"]
    if loop.attempted < 100:
        print(f"note: latency_p90_ms rests on {loop.attempted} samples "
              f"(fewer than 10 beyond it)")
    return loop, metrics, notes


PER_LAYER = (
    ("graph.flags_at", ("calls", "self_s", "slope")),
    ("graph.graph", ("calls",)),
    ("morphism.classify", ("calls", "self_s", "slope")),
    ("morphism.flag_map", ("self_s",)),
    ("matcher.find_matches", ("self_s", "slope")),
    ("matcher.check_match", ("calls",)),
    ("boundary.validate_boundary_embedding", ("calls",)),
    ("boundary.enumerate_re_pairings", ("self_s",)),
    ("rotation.validate_rotation", ("calls", "self_s")),
    ("rotation.trace_faces", ("self_s",)),
    ("rotation.genus_report", ("slope",)),
    ("dpo.iso_check", ("calls", "self_s", "slope")),
    ("dpo.pushout", ("self_s",)),
    ("dpo.pushout_complement", ("self_s",)),
    ("lawcheck.check_lemma", ("self_s",)),
    ("lawcheck.enumerate_morphisms", ("self_s",)),
    ("serialize.parse_document", ("self_s",)),
    ("serialize.load_document", ("calls",)),
    ("serialize.print_document", ("self_s",)),
    ("cli.main", ("self_s",)),
)
COUNTS = ("boundary.re_pairing_solutions", "lawcheck.instances",
          "serialize.bytes_out")
UNITS = {"calls": "count", "self_s": "s", "slope": "log-log"}


def per_layer(agg, ops):
    """Calls, self time and result counts are per operation."""
    metrics = {}
    for fn, stats in PER_LAYER:
        for stat in stats:
            if stat == "calls":
                value = agg["calls"].get(fn, 0) / ops
            elif stat == "self_s":
                value = agg["self_s"].get(fn, 0.0) / ops
            else:
                value = tracing.loglog_slope(agg["sizes"].get(fn, {}))
            metrics[f"{fn}.{stat}"] = (value, UNITS[stat])
    for name in COUNTS:
        unit = "bytes" if name.endswith("bytes_out") else "count"
        metrics[name] = (agg["counts"].get(name, 0) / ops, unit)
    checks = agg["calls"].get("matcher.check_match", 0)
    metrics["matcher.match_yield"] = (
        agg["counts"].get("matcher.matches", 0) / checks if checks else 0.0,
        "ratio")
    return metrics


def run_traced(wl, op, tracer, out_dir):
    """One op with tracing on, through `tracer` (installed) in-process
    or a traced child for lawsuite.  Returns (wall seconds, result)."""
    lawsuite = isinstance(wl, workloads.Lawsuite)
    if lawsuite:
        wl.traced = out_dir
    tracer.active = True
    try:
        t0 = time.perf_counter()
        result = wl.run(op)
        return time.perf_counter() - t0, result
    finally:
        tracer.active = False
        if lawsuite:
            wl.traced = None


def tracing_overhead(wl, seed, budget, out_dir):
    """Traced over untraced wall time of the run's leading ops, each run
    both ways back to back, in alternating order, so that the machine's
    drift cancels.  Returns (ratio, ops compared)."""
    scratch = tracing.Tracer()
    t_on = t_off = 0.0
    n = 0
    for op in wl.ops(seed):
        if n and t_on + t_off >= budget:
            break
        for traced_twin in ((True, False) if n % 2 == 0 else (False, True)):
            if traced_twin:
                scratch.install()
                try:
                    t_on += run_traced(wl, op, scratch, out_dir)[0]
                finally:
                    scratch.uninstall()
            else:
                t0 = time.perf_counter()
                wl.run(op)
                t_off += time.perf_counter() - t0
        n += 1
    return t_on / t_off, n


def traced(wl, args, root):
    out_dir = os.path.join(root, ".bench_out",
                           f"trace-{wl.name}-{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    tracer = tracing.Tracer()

    def run_op(op_i, op):
        tracer.op = op_i
        return run_traced(wl, op, tracer, out_dir)[1]

    loop = Loop(wl, args.seconds, run_op)
    tracer.install()
    try:
        loop.run(wl.ops(args.seed))
    finally:
        tracer.uninstall()
    if isinstance(wl, workloads.Lawsuite):
        agg = tracing.merge(wl.traces)
    else:
        agg = tracing.merge([tracer.aggregate()])
        tracer.write_spans(os.path.join(out_dir, "spans.jsonl"))
    overhead, pairs = tracing_overhead(
        wl, args.seed, args.seconds / 4, os.path.join(out_dir, "overhead"))
    metrics = per_layer(agg, loop.attempted)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    with open(os.path.join(out_dir, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"ops": loop.attempted, "aggregate": agg,
                   "metrics": metrics}, fh, indent=1)
    notes = {"fail_ratio": (loop.failed / loop.attempted, "ratio"),
             "operations": (loop.attempted, "count"),
             "spans_kept": (agg["spans"], "count"),
             "spans_dropped": (agg["dropped"], "count"),
             "overhead_pairs": (pairs, "count")}
    return loop, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("rewrite", "genus", "iso-roundtrip",
                                 "lawsuite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dpoembed", "cli.py")):
        print(f"error: no dpoembed sources under {src}; run from the root "
              f"of a dpoembed checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=src)
    import dpoembed.cli  # noqa: F401  (the in-process workloads call it)

    wl = {
        "rewrite": workloads.Rewrite,
        "genus": workloads.Genus,
        "iso-roundtrip": workloads.IsoRoundtrip,
        "lawsuite": lambda: workloads.Lawsuite(root, env),
    }[args.workload]()

    if args.trace:
        loop, metrics, notes = traced(wl, args, root)
    else:
        loop, metrics, notes = end_to_end(wl, args, root, env)

    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"{args.workload:14s} {name:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
