"""Run one ``blakley`` command in-process with the package traced.

    python3 bench/cli_child.py STATS_JSON ARG...

behaves like ``python -m blakley ARG...`` (same stdout, stderr and exit
code) and also writes the Tracer stats of the command to STATS_JSON.
With STATS_JSON ``-`` it runs the same way with tracing off, as the
base that the traced runs are compared with.
The package is found on PYTHONPATH, as for ``python -m blakley``.
"""

import json
import sys

from layertrace import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import blakley.cli

    if stats_path == "-":
        return blakley.cli.main(argv)
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = blakley.cli.main(argv)
    finally:
        tracer.active = False
        tracer.uninstall()
    with open(stats_path, "w") as fh:
        json.dump(tracer.stats(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
