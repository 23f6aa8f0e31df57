"""``python -m repro.experiments`` — the same as ``impact-inline tables``."""

import sys

from repro import cli

if __name__ == "__main__":
    sys.exit(cli.main(["tables", *sys.argv[1:]]))
