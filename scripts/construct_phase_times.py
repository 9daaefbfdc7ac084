#!/usr/bin/env python3
"""Median time of each phase of a construct curve op, on one checkout.

The inputs are the ``construct`` pool of ``perfbench/workloads.py`` for
one seed, rebuilt with that file's generators (``_nullity_op``,
``scalar``, ``coeffs``), imported unchanged from the checkout named by
``--tree`` together with its ``src/nullsl2``.  A curve op's inputs are
drawn again in ``_curve_op``'s order, and the script stops if that
consumes other draws than ``_curve_op`` does.  Every op runs once per
pass, in pool order.  The script prints the median wall time of each
phase of a curve op (from_spinor, integrate_null, tee_curve, check,
shear, re-check), then of one nullity op and of the whole pass.  Each op
builds its own inputs, so no op reads another's caches.

    python3 scripts/construct_phase_times.py
    python3 scripts/construct_phase_times.py --tree ../base-checkout --seed 7

It reports and checks nothing beyond the ops' own checks: a wrong result
raises, as in the benchmark harness.
"""

import argparse
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PHASES = ("from_spinor", "integrate_null", "tee_curve", "check", "shear",
          "re-check")


def curve_inputs(rng, height: str, i: int):
    """(a, c, p, poly, lam, kind) as ``_curve_op`` draws them."""
    from perfbench.workloads import HEIGHTS, coeffs, scalar
    from nullsl2 import SHEAR_KINDS
    a = i % 3 - 1
    c = scalar(rng, height)
    p = scalar(rng, height)
    poly = coeffs(rng, height, 1 + 2 * (i // 3 % 2))
    lam = scalar(rng, height)
    kind = SHEAR_KINDS[(i + HEIGHTS.index(height)) % len(SHEAR_KINDS)]
    return a, c, p, poly, lam, kind


def construct_pool(seed: int):
    """[(nullity op, curve inputs)] in ``construct_ops`` order."""
    import numpy as np
    from perfbench.workloads import (CYCLES, HEIGHTS, ROUND, _curve_op,
                                     _nullity_op)
    rng = np.random.default_rng([seed, 1])
    pool = []
    for cycle in range(CYCLES["construct"]):
        i = cycle % ROUND["construct"]
        for height in HEIGHTS:
            nullity = _nullity_op(rng, height, i)
            mirror = np.random.default_rng()
            mirror.bit_generator.state = rng.bit_generator.state
            inputs = curve_inputs(mirror, height, i)
            _curve_op(rng, height, i)
            if mirror.bit_generator.state != rng.bit_generator.state:
                raise SystemExit("curve_inputs no longer draws what "
                                 "perfbench/workloads.py _curve_op draws")
            pool.append((nullity, inputs))
    return pool


def curve_phases(a, c, p, poly, lam, kind) -> list[float]:
    """The seconds of each of PHASES on one curve op's inputs."""
    import nullsl2 as nl
    from nullsl2 import MeroFunction, SpinorData
    lin = MeroFunction.from_poly([-p, 1])
    sq = lin * lin
    eta = {1: sq * c, 0: MeroFunction.constant(c), -1: c / sq}[a]
    f3 = MeroFunction.from_poly(poly)
    if a > 0:
        f3 = f3 * lin
    spinor = SpinorData(eta, f3)
    marks = [time.perf_counter()]
    field = nl.from_spinor(spinor)
    marks.append(time.perf_counter())
    X = nl.integrate_null(field, base_point=p + 1.0 if a < 0 else 0j)
    marks.append(time.perf_counter())
    F = nl.tee_curve(X)
    marks.append(time.perf_counter())
    before = nl.check_null_sl2(F, tol=0.0)
    marks.append(time.perf_counter())
    G = nl.shear(F, lam, kind)
    marks.append(time.perf_counter())
    after = nl.check_null_sl2(G, tol=0.0)
    marks.append(time.perf_counter())
    for rep in (before, after):
        if not (rep.unimodular and rep.null):
            raise SystemExit("a construct curve failed its exact check")
    return [t1 - t0 for t0, t1 in zip(marks, marks[1:])]


def phase_times(seed: int, passes: int) -> dict[str, float]:
    """Median seconds of each curve-op phase, of a nullity op and of a
    whole pass."""
    pool = construct_pool(seed)
    times: dict[str, list[float]] = {
        k: [] for k in PHASES + ("nullity", "pass")}
    for _ in range(passes):
        start = time.perf_counter()
        for nullity, inputs in pool:
            t0 = time.perf_counter()
            result = nullity.run()
            times["nullity"].append(time.perf_counter() - t0)
            nullity.verify(result)
            for name, seconds in zip(PHASES, curve_phases(*inputs)):
                times[name].append(seconds)
        times["pass"].append(time.perf_counter() - start)
    return {k: statistics.median(v) for k, v in times.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", default=ROOT,
                    help="checkout whose perfbench and src/nullsl2 are run")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args(argv)
    tree = os.path.abspath(args.tree)
    sys.path[:0] = [os.path.join(tree, "src"), tree]
    medians = phase_times(args.seed, args.passes)
    for name, seconds in medians.items():
        print(f"{name:16} {seconds * 1e3:9.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
