"""Run one nullsl2 command line under the tracer and save what it recorded.

    python3 perfbench/traced_cli.py OUT.npz <nullsl2 arguments>

Exits with the command's exit code.  OUT.npz holds the span arrays of
``tracer.Tracer`` plus its counts as JSON.
"""

import json
import sys

import numpy as np

import nullsl2.cli
from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        return tracer.call("cli.main", lambda: nullsl2.cli.main(argv))
    finally:
        tracer.uninstall()
        np.savez(out, counts=json.dumps(tracer.counts), **tracer.arrays())


if __name__ == "__main__":
    sys.exit(main())
