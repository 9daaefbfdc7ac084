#!/usr/bin/env python3
"""Print one SHA-256 of the verdicts on the construct, ends and spray benchmark pools.

For each seed given, the script builds the construct, ends and spray pools
of ``perfbench/workloads.py`` and runs every op.  Each curve an op hands to
``check_null_sl2`` is checked again at tol 0, 1e-12, 1e-8 and 1e-4, each
C^3 curve a construct op hands to ``tee_curve`` is checked by
``check_null_c3`` at the same four tols, and each ``classify_end`` report
is kept.  Each curve an ends op hands to ``classify_end`` is also read by
``classify_end``, ``end_multiplicity`` and ``maurer_cartan_min_ord`` at
the four tols; the record holds each value, or the name of the exception
class raised.  Each spray op's result is kept: the ``repr`` of a
``period`` value, a ``SolveResult.as_dict()`` and a window-nullity
verdict, or the name of the exception class raised; so is the
``poles()`` list, in ``repr``, of each integrand an op hands to
``period``.  All reports, as JSON with sorted keys, go into one SHA-256.
Two checkouts that print the same digest for the same seeds decide every
one of these verdicts alike, so a change meant to keep the verdicts can
be compared with the commit it starts from:

    python3 scripts/verdict_digest.py 1 7
    python3 scripts/verdict_digest.py --tree ../base-checkout 1 7

``--tree`` names the checkout whose ``src`` and ``perfbench`` are imported
(the one holding this script by default).  The pools are imported, not
changed.  It prints one line per seed with its record count, then the
digest.
"""

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOLS = (0.0, 1e-12, 1e-8, 1e-4)


def spray_record(value):
    """A spray op's result as a JSON value with every float bit kept."""
    if isinstance(value, complex):
        return repr(value)
    return value.as_dict() if hasattr(value, "as_dict") else value


def records(seed: int, nl, workloads) -> list:
    """Every report the construct and ends ops of one seed ask for, the
    ``check_null_c3`` reports of the curves they lift, the end readings
    at each tol of the curves they classify, and the result of each spray
    op with the pole list of each integrand it integrates."""
    out = []
    check, classify, tee = nl.check_null_sl2, nl.classify_end, nl.tee_curve
    period = nl.period

    def checked(F, tol=nl.ZERO_TOL):
        rep = check(F, tol)
        out.append(["check_null_sl2",
                    [check(F, t).as_dict() for t in TOLS]])
        return rep

    def lifted(X):
        out.append(["check_null_c3",
                    [nl.check_null_c3(X, t).as_dict() for t in TOLS]])
        return tee(X)

    def outcome(read, F, center, tol):
        try:
            value = read(F, center, tol)
        except nl.NullCurveError as exc:
            return type(exc).__name__
        return value.as_dict() if isinstance(value, nl.EndReport) else value

    def classified(F, center, *args, **kwargs):
        rep = classify(F, center, *args, **kwargs)
        out.append(["classify_end", rep.as_dict()])
        reads = (classify, nl.end_multiplicity, nl.maurer_cartan_min_ord)
        out.append(["end_readings", [[outcome(read, F, center, t)
                                      for read in reads] for t in TOLS]])
        return rep

    def integrated(f, *args, **kwargs):
        out.append(["period_poles", repr(f.poles())])
        return period(f, *args, **kwargs)

    nl.check_null_sl2, nl.classify_end, nl.tee_curve = (checked, classified,
                                                        lifted)
    nl.period = integrated
    try:
        for op in workloads.construct_ops(seed) + workloads.ends_ops(seed):
            op.run()
        for op in workloads.spray_ops(seed):
            try:
                value = spray_record(op.run())
            except nl.NullCurveError as exc:
                value = type(exc).__name__
            out.append(["spray", op.kind, value])
    finally:
        nl.check_null_sl2, nl.classify_end, nl.tee_curve = (check, classify,
                                                            tee)
        nl.period = period
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seeds", nargs="+", type=int)
    ap.add_argument("--tree", default=ROOT,
                    help="checkout whose src/ and perfbench/ are imported")
    args = ap.parse_args(argv)
    tree = os.path.abspath(args.tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import nullsl2 as nl
    import workloads

    digest = hashlib.sha256()
    for seed in args.seeds:
        recs = records(seed, nl, workloads)
        digest.update(json.dumps(recs, sort_keys=True).encode("ascii"))
        print(f"seed {seed}: {len(recs)} records")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
