"""``python -m revdiff``: the command-line interface of ``revdiff.harness.cli``."""

import sys

from .harness import cli

if __name__ == "__main__":
    sys.exit(cli())
