#!/usr/bin/env python3
"""Median time of one ends op, kind by kind, on one checkout.

The ops are the ``ends`` pool of ``perfbench/workloads.py`` for one seed,
imported unchanged from the checkout named by ``--tree`` together with its
``src/nullsl2``.  Every op runs once per pass, in pool order, and the
script prints the median wall time of each op kind (origin, sheared
origin, dyadic, sheared dyadic, float) over all passes, then the whole
pass.  Each op builds its own curve, so no op reads another's caches.

    python3 scripts/end_kind_times.py
    python3 scripts/end_kind_times.py --tree ../base-checkout --seed 7

It reports and checks nothing: a wrong op result raises, as in the
benchmark harness.
"""

import argparse
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("ends.origin", "ends.sheared.origin", "ends.dyadic",
         "ends.sheared.dyadic", "ends.float")


def kind_times(seed: int, passes: int) -> dict[str, float]:
    """Median seconds of one op of each kind, and of one whole pass."""
    from perfbench.workloads import ends_ops
    ops = ends_ops(seed)
    times: dict[str, list[float]] = {k: [] for k in KINDS + ("pass",)}
    for _ in range(passes):
        start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            result = op.run()
            times[op.kind].append(time.perf_counter() - t0)
            op.verify(result)
        times["pass"].append(time.perf_counter() - start)
    return {k: statistics.median(v) for k, v in times.items() if v}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", default=ROOT,
                    help="checkout whose perfbench and src/nullsl2 are run")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args(argv)
    tree = os.path.abspath(args.tree)
    sys.path[:0] = [os.path.join(tree, "src"), tree]
    medians = kind_times(args.seed, args.passes)
    for kind, seconds in medians.items():
        print(f"{kind:22} {seconds * 1e3:9.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
