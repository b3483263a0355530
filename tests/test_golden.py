"""Replay the committed behaviour baseline in `golden/`: every CLI
variant on every fixture, and `lawcheck` on four seeds, must print the
same bytes and exit with the same code as when the files were written."""

from golden import CLI_FILE, LAWCHECK_FILE, cli_runs, lawcheck_runs, load


def _changed(expected, actual):
    assert sorted(actual) == sorted(expected)
    return [key for key in sorted(expected) if actual[key] != expected[key]]


def test_every_cli_run_is_as_in_the_golden_file():
    assert _changed(load(CLI_FILE), cli_runs()) == []


def test_lawcheck_output_is_as_in_the_golden_file():
    assert _changed(load(LAWCHECK_FILE), lawcheck_runs()) == []
