"""Checks on the source tree itself."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "dpoembed"
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_no_assert_statements_in_the_library():
    # `python -O` strips asserts; invariants must raise typed errors
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found


def _cli(flags, argv):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, *flags, "-m", "dpoembed.cli",
                           *argv], capture_output=True, env=env)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("argv,code", [
    (["rewrite", "match_identity_loop.json"], 0),
    (["repairings", "--classify-genus",
      "boundary_embedding_interleaving.json"], 0),
    (["complement", "--rotations", "boundary_embedding_interleaving.json"], 0),
    (["repairings", "--classify-genus",
      "boundary_embedding_three_pairs.json"], 1),
], ids=["rewrite", "classify-genus", "rot-complement", "missing-rotations"])
def test_cli_output_is_the_same_under_optimize(argv, code):
    # the unchecked cores must not lean on anything `-O` strips
    argv = argv[:-1] + [str(FIXTURES / argv[-1])]
    plain = _cli([], argv)
    assert plain[0] == code
    assert _cli(["-O"], argv) == plain
