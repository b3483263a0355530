"""Regenerate the golden files: `python -m tests.golden --write`."""

import argparse

from . import CLI_FILE, LAWCHECK_FILE, cli_runs, dump, lawcheck_runs

parser = argparse.ArgumentParser(prog="python -m tests.golden",
                                 description=__doc__)
parser.add_argument("--write", action="store_true", required=True,
                    help="overwrite cli.json and lawcheck.json")
parser.parse_args()
dump(cli_runs(), CLI_FILE)
dump(lawcheck_runs(), LAWCHECK_FILE)
