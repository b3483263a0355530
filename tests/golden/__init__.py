"""The committed behaviour baseline: the exit code, stdout and stderr of
every CLI variant on every fixture (`cli.json`), and of `lawcheck` on
four seeds (`lawcheck.json`).  `test_golden.py` replays both.

Every run is in process, from the fixtures directory with file names as
arguments and an 80-column terminal, so no output depends on the
checkout path or on the terminal width (argparse wraps its usage
message to it).  Regenerate, only for a change meant to alter visible
behaviour, from the repository root:

    PYTHONPATH=src python -m tests.golden --write
"""

import contextlib
import io
import json
import os
import pathlib

from dpoembed.cli import main

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE.parent / "fixtures"
CLI_FILE = HERE / "cli.json"
LAWCHECK_FILE = HERE / "lawcheck.json"

# every subcommand variant that prints a document
DOCUMENT_VARIANTS = (
    ("validate",), ("classify-morphism",), ("complement",),
    ("complement", "--solution", "0"), ("complement", "--solution", "3"),
    ("complement", "--rotations"), ("repairings",),
    ("repairings", "--classify-genus"), ("repairings", "--planar-only"),
    ("pushout",), ("pushout", "--rotations"), ("match",),
    ("match", "--rotations"), ("rewrite",), ("rewrite", "--rotations"),
    ("rewrite", "--solution", "1"), ("rewrite", "--match", "1"),
    ("genus",),
)
VARIANTS = DOCUMENT_VARIANTS + (("export-dot",),
                                ("validate", "--no-such-flag"))
LAWCHECK_SEEDS = (1, 2, 3, 7)
LAWCHECK_ARGV = ("lawcheck", "--budget", "2,1,1,2", "--random", "100")


@contextlib.contextmanager
def pinned():
    """Run from the fixtures directory with an 80-column terminal."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(FIXTURES)
    os.environ["COLUMNS"] = "80"
    try:
        yield
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def run(argv):
    """{"code", "stdout", "stderr"} of one in-process `main` call; a
    usage error's SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def cli_runs():
    """Every (fixture, variant) run, keyed "<fixture file> <argv>"."""
    with pinned():
        return {f"{path.name} {' '.join(argv)}": run([*argv, path.name])
                for path in sorted(FIXTURES.glob("*.json"))
                for argv in VARIANTS}


def lawcheck_runs():
    """The `lawcheck` run of each seed, keyed by the seed."""
    with pinned():
        return {str(seed): run([*LAWCHECK_ARGV, "--seed", str(seed)])
                for seed in LAWCHECK_SEEDS}


def load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def dump(runs, path):
    path.write_text(json.dumps(runs, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")
