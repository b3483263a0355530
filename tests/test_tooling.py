"""Checks on the source tree itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "dpoembed"


def test_no_assert_statements_in_the_library():
    # `python -O` strips asserts; invariants must raise typed errors
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found
