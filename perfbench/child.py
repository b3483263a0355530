"""Traced CLI run in a fresh interpreter, for the lawsuite workload.

usage: child.py OUT ARGV...

Installs the span tracer, runs dpoembed.cli.main(ARGV) with stdout
captured, and writes {"rc", "stdout", "trace"} as JSON to OUT and the
spans to OUT with ".spans.jsonl" appended.  dpoembed is found through
PYTHONPATH, which the parent sets.
"""

import contextlib
import io
import json
import sys

from tracing import Tracer


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    import dpoembed.cli
    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    tracer.active = True
    with contextlib.redirect_stdout(buf):
        rc = dpoembed.cli.main(argv)
    tracer.active = False
    trace = tracer.aggregate()
    tracer.write_spans(out + ".spans.jsonl")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "stdout": buf.getvalue(), "trace": trace}, fh)


if __name__ == "__main__":
    main()
