"""Replay the committed behaviour baseline in `golden/`: every CLI
variant on every fixture, and `lawcheck` on four seeds, must print the
same bytes and exit with the same code as when the files were written."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from golden import CLI_FILE, LAWCHECK_FILE, cli_runs, lawcheck_runs, load

TESTS = pathlib.Path(__file__).parent


def _changed(expected, actual):
    assert sorted(actual) == sorted(expected)
    return [key for key in sorted(expected) if actual[key] != expected[key]]


def test_every_cli_run_is_as_in_the_golden_file():
    assert _changed(load(CLI_FILE), cli_runs()) == []


@pytest.mark.parametrize("seed", ["0", "1"])
def test_cli_runs_do_not_depend_on_the_hash_seed(seed):
    # the replay above sees only this process's hash seed, and a set of
    # ids iterates in an order that changes with it
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        (str(TESTS.parent / "src"), str(TESTS))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import golden, json; print(json.dumps(golden.cli_runs()))"],
        capture_output=True, env=env, check=True)
    assert _changed(load(CLI_FILE), json.loads(proc.stdout)) == []


def test_lawcheck_output_is_as_in_the_golden_file():
    assert _changed(load(LAWCHECK_FILE), lawcheck_runs()) == []
