"""`minatt` CLI under span tracing, for the traced scenario-cli rounds.

    python3 perfbench/traced_cli.py SPANS.json run config.json --format json

Runs `minatt.cli.main` with the remaining arguments, records spans of the
scenario and library layers, writes them to SPANS.json and exits with the
CLI's exit code.  The import is not traced; set-up measures it.
"""

import sys

from minatt import cli

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return cli.main(argv)
    finally:
        tracer.active = False
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
