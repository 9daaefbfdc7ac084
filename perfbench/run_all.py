#!/usr/bin/env python3
"""Run every workload of the nullsl2 benchmark once, one after another.

Usage (from the root of a checkout):

    python3 perfbench/run_all.py --seed 1 --seconds 15 --trace 0

Each workload runs as its own ``perfbench/run.py`` process, so each reports
its own set-up time and peak memory; their outputs are printed in turn.
Exits with 1 if any run fails or reports an incorrect result.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("construct", "ends", "spray", "cli")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    ok = True
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, run, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        ok = (ok and proc.returncode == 0 and bool(lines)
              and json.loads(lines[-1])["correct"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
