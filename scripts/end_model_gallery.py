#!/usr/bin/env python3
"""Walk the standard end models and print their invariant table.

For each multiplicity m = 1..8 the script builds end_model(m), checks the
four check_null_sl2 verdicts exactly (unit determinant, null derivative,
immersion, nonflatness; it fails unless all hold), classifies the end at the
puncture, and prints one row of verdicts and exponents.  With --mesh it
also writes hyperbolic-ball OBJ meshes of the first two models for quick
inspection in any viewer.

Usage:
    python3 scripts/end_model_gallery.py [--mesh] [--out-dir DIR]
"""

import argparse
import os

from nullsl2 import (
    build_surface_mesh,
    check_null_sl2,
    classify_end,
    end_model,
    write_obj,
)


def table(max_m: int = 8) -> None:
    header = (f"{'m':>2} {'det==1':>7} {'null':>5} {'immersion':>9} "
              f"{'nonflat':>7} {'k':>4} {'l':>4} "
              f"{'ord w':>6} {'qhat(-2)':>9} {'min MC ord':>11} "
              f"{'smooth?':>8}")
    print(header)
    print("-" * len(header))
    for m in range(1, max_m + 1):
        F = end_model(m)
        rep = check_null_sl2(F, tol=0.0)
        er = classify_end(F, 0j)
        q2 = er.q_hat_minus2
        q2s = f"{q2.real:+.0f}" if q2.imag == 0 else str(q2)
        print(f"{m:>2} {str(rep.unimodular):>7} {str(rep.null):>5} "
              f"{str(rep.immersion):>9} {str(rep.nonflat):>7} "
              f"{er.k:>4} {er.l:>4} {er.ord_omega:>6} {q2s:>9} "
              f"{er.min_maurer_cartan_ord:>11} "
              f"{str(er.smooth_candidate):>8}")
        assert all(rep.as_dict().values()), f"m = {m}: {rep.as_dict()}"
        assert er.multiplicity == m
        assert (er.ord_omega + 1) ** 2 + 4 * q2.real == m * m


def meshes(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for m in (1, 2):
        mesh = build_surface_mesh(end_model(m), target="h3",
                                  grid=(24, 48), radii=(0.2, 1.0))
        path = os.path.join(out_dir, f"end_model_{m}_h3.obj")
        write_obj(mesh, path)
        radius = max(sum(c * c for c in v) for v in mesh.vertices) ** 0.5
        print(f"wrote {path}: {len(mesh.vertices)} vertices, "
              f"max ball radius {radius:.5f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mesh", action="store_true",
                    help="also write OBJ meshes for m = 1, 2")
    ap.add_argument("--out-dir", default="gallery_out",
                    help="directory for mesh output (default gallery_out)")
    args = ap.parse_args()
    table()
    if args.mesh:
        meshes(args.out_dir)


if __name__ == "__main__":
    main()
