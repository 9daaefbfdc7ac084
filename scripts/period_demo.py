#!/usr/bin/env python3
"""Close the periods of two small spray families and show the Newton tail.

The first family deforms eta = 1 + 0.3/z along the single direction 1/z;
the f1-period over the unit circle is 2*pi*i*(zeta + 0.3), so the solver
must land on zeta = -0.3 and the printed residual history should square at
every step (quadratic convergence).  The second family adds a regular part
0.05*z and a second direction 1/z^2, making the period function genuinely
nonlinear in zeta.

Exits 1 when the toy or the quadratic root misses its closed form by more
than 1e-9.

Usage:
    python3 scripts/period_demo.py
"""

import sys

from nullsl2 import Cycle, MeroFunction, SprayFamily, period_solve


def show(result, label: str) -> None:
    print(f"\n{label}")
    print(f"  converged : {result.converged} "
          f"in {result.iterations} iteration(s)")
    zs = ", ".join(f"{z.real:+.12f}{z.imag:+.12f}j" for z in result.zeta)
    print(f"  zeta      : [{zs}]")
    print(f"  residual  : {result.residual_norm:.3e}")
    print("  history   :",
          " -> ".join(f"{r:.2e}" for r in result.residual_history))


#: largest accepted distance from a closed-form root
ROOT_TOL = 1e-9


def toy() -> float:
    eta = MeroFunction.from_rational([0.3, 1], [0, 1])      # 1 + 0.3/z
    fam = SprayFamily(eta, MeroFunction.constant(1),
                      (MeroFunction.from_rational([1], [0, 1]),))
    result = period_solve(fam, [Cycle.circle(0j, 1.0)])
    show(result, "toy family: eta = 1 + 0.3/z, basis {1/z}")
    err = abs(result.zeta[0] - (-0.3))
    print(f"  |zeta - (-0.3)| = {err:.3e}   (closed-form root)")
    return err


def quadratic() -> float:
    # eta = 1 + 0.3/z + 0.05 z: the f1-period of the sprayed family is
    # pi*i*(0.025 zeta^2 + zeta + 0.3) along the 1/z direction, with root
    # 20*(sqrt(0.97) - 1)
    eta = MeroFunction.from_rational([0.3, 1, 0.05], [0, 1])
    fam = SprayFamily(eta, MeroFunction.zero(),
                      (MeroFunction.from_rational([1], [0, 1]),))
    result = period_solve(fam, [Cycle.circle(0j, 1.0)])
    show(result, "quadratic family: eta = 1 + 0.3/z + 0.05z, basis {1/z}")
    root = 20.0 * (0.97 ** 0.5 - 1.0)
    err = abs(result.zeta[0] - root)
    print(f"  |zeta - root|   = {err:.3e}   "
          f"(root = 20(sqrt(0.97)-1) = {root:.12f})")
    return err


def two_directions() -> None:
    eta = MeroFunction.from_rational([0.3, 1, 0.05], [0, 1])
    basis = (MeroFunction.from_rational([1], [0, 1]),
             MeroFunction.from_rational([1], [0, 0, 1]))
    fam = SprayFamily(eta, MeroFunction.constant(1), basis)
    result = period_solve(fam, [Cycle.circle(0j, 1.0)])
    show(result, "two-direction family: basis {1/z, 1/z^2}")


def main() -> int:
    errors = [toy(), quadratic()]
    two_directions()
    if max(errors) > ROOT_TOL:
        print(f"\nFAILED: a root misses its closed form by more than "
              f"{ROOT_TOL:.0e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
