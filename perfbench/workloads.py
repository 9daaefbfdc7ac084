"""Seeded inputs and checked operations for the four benchmark workloads.

Every workload is a list of ``Op``s built from ``--seed`` alone.  An op's
``run`` calls the public ``nullsl2`` API (or, for ``cli``, one ``python -m
nullsl2`` subprocess) and returns what it produced; ``verify`` checks that
result and raises ``CheckFailed`` when it is wrong.  An op that raises
counts as wrong too, unless the exception is its ``known_failure``: the
one known defect of the program that the inputs keep (see below).  Ops
call the API through the ``nullsl2`` namespace (``nl.period``), so that a
tracer patching that namespace sees the calls.  Inputs are plain numbers
and coefficient lists made here, so every op builds its own library
objects and no op reuses another's caches.

Op mixes (one *cycle*; a workload's pool is ``CYCLES[name]`` cycles):

construct  for each coefficient height (small Gaussian integer, dyadic,
           general float): random spinor data -> from_spinor -> exact
           f1^2+f2^2+f3^2 == 0; and integrable spinor data -> integrate_null
           -> tee_curve -> check_null_sl2(tol=0) -> shear -> re-check, with
           degrees 1..6 and every shear kind.
ends       end_model(m) for m = 1..8 at the origin, plain and sheared, and at
           a dyadic center; sheared ends at dyadic centers of two sizes for
           m = 1..4; and ends at general-float centers for m = 1..3.  Each op
           checks the exact verdicts and the three multiplicity formulas.

An ends round has 35 ops: an odd number, whose costliest tenth (3.5 ops)
ends inside one op's copies, so neither the median nor the 90th percentile
of a run sits on a jump between two ops' costs.  With 31 ops the 90th
percentile fell between the third and fourth costliest and moved by 10-15%
from run to run.
spray      24 ``period`` integrals (pole order 1..3 x on/off the origin x
           inside/outside x circle/polyline), six ``period_solve`` runs (two
           each of 1 + a/z, the quadratic family and a two-direction family)
           and two window-spinor nullity checks at 1e-12.
cli        endmodel -> validate -> classify -> mesh 16x32 -> mesh 128x256 ->
           solve, with the mesh target alternating between h3 and s31, m =
           1..3 at the origin and at dyadic centers, and the three solve
           families.

General-float centers stop at m = 3 on purpose: one end at m = 8 there costs
about 3.4 s, more than two whole rounds of the other ends.  Inputs that hit
the known defect (a period integral with a pole of order 3 off the origin,
inside the contour, raises CrossCheckFailed) stay in the mix, name it as
their ``known_failure`` and count as failed ops; any other exception, from
any op, makes the run incorrect.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import select
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import nullsl2 as nl
from nullsl2 import (SHEAR_KINDS, CrossCheckFailed, Cycle, MeroFunction,
                     Poly, SpinorData, SprayFamily)
from nullsl2.serialize import cycle_to_dict, save_json, spray_to_dict

#: cycles in one workload's input pool; a timed pass wraps around the pool.
CYCLES = {"construct": 96, "ends": 12, "spray": 40, "cli": 12}
#: cycles after which the op mix repeats.  A cycle's structure (degrees,
#: denominators, m, shapes) depends on its index alone, and a timed pass runs
#: whole rounds, so every run, whatever its seed, measures the same mix.
ROUND = {"construct": 6, "ends": 1, "spray": 1, "cli": 6}

#: the golden pipeline of tests/golden, run once per cli pass
GOLDEN_DIR = os.path.join("tests", "golden")
GOLDEN_FILES = ("end2_curve.json", "validate_report.json",
                "classify_report.json", "end2.obj", "end2.obj.json")

SOLVE_TOL = 1e-10
PERIOD_TOL = 1e-8
ROOT_TOL = 1e-8
CLI_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An operation returned a result that failed its correctness check."""


def check(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    verify: Callable[[object], None]
    #: exceptions that are the known defect this input hits
    known_failure: tuple[type[Exception], ...] = ()


# ---------------------------------------------------------------------------
# scalar generators
# ---------------------------------------------------------------------------

HEIGHTS = ("int", "dyadic", "float")


def _sign(rng) -> int:
    return 1 if rng.integers(0, 2) else -1


def _parts(rng, sizes) -> complex:
    """re + im i with two different entries of ``sizes`` as |re| and |im|,
    in random order and with random signs.  Different magnitudes keep the
    value off the diagonals: a multiple of 1 + i has sparse powers, and the
    exact layer does markedly less work on it."""
    i, j = rng.choice(len(sizes), size=2, replace=False)
    return complex(_sign(rng) * sizes[i], _sign(rng) * sizes[j])


def scalar(rng: np.random.Generator, height: str) -> complex:
    """A complex coefficient of the given height class, never zero in either
    part.  Within a class the bit size of the exact value is nearly fixed:
    integers 1..4, odd 4-bit multiples of 1/16, floats with binary exponent
    -1; so the seed moves values more than cost."""
    if height == "int":
        return _parts(rng, (1, 2, 3, 4))
    if height == "dyadic":
        return _parts(rng, (9, 11, 13, 15)) / 16
    return complex(_sign(rng) * rng.uniform(0.5, 1.0),
                   _sign(rng) * rng.uniform(0.5, 1.0))


def coeffs(rng, height: str, degree: int) -> list[complex]:
    """Ascending coefficients of exact degree ``degree``."""
    return [scalar(rng, height) for _ in range(degree + 1)]


def dyadic_point(rng, j: int) -> complex:
    """(a + b i) / 2^j with a, b odd of bit length j, and |a| != |b| where
    there are two such odd numbers (j >= 3): 5 and 7 for j = 3."""
    if j < 3:
        return complex(_sign(rng), _sign(rng)) * (2 ** j - 1) / 2 ** j
    return _parts(rng, (2 ** (j - 1) + 1, 2 ** j - 1)) / 2 ** j


def float_point(rng) -> complex:
    return scalar(rng, "float")


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def _nullity_op(rng, height: str, i: int) -> Op:
    eta_num = coeffs(rng, height, 1 + i % 6)
    eta_den = coeffs(rng, height, i % 3)
    f3_num = coeffs(rng, height, 1 + (i + 3) % 6)
    f3_den = coeffs(rng, height, (i + 1) % 3)
    chart = i % 2 == 1

    def run():
        s = SpinorData(MeroFunction.from_rational(eta_num, eta_den),
                       MeroFunction.from_rational(f3_num, f3_den),
                       conjugate_chart=chart)
        d = nl.from_spinor(s)
        square = d.f1 * d.f1 + d.f2 * d.f2 + d.f3 * d.f3
        return square.is_identically_zero(0.0)

    def verify(null):
        check(null is True, "f1^2 + f2^2 + f3^2 is not exactly zero")

    return Op(f"construct.nullity.{height}", run, verify)


def _curve_op(rng, height: str, i: int) -> Op:
    """eta = c (z-p)^(2a), f3 = (z-p)^max(a,0) P(z): the direction field has
    no residues, so it integrates exactly."""
    a = i % 3 - 1
    c = scalar(rng, height)
    p = scalar(rng, height)
    poly = coeffs(rng, height, 1 + 2 * (i // 3 % 2))
    lam = scalar(rng, height)
    kind = SHEAR_KINDS[(i + HEIGHTS.index(height)) % len(SHEAR_KINDS)]
    base = p + 1.0 if a < 0 else 0j   # the primitive has a pole at p

    def run():
        lin = MeroFunction.from_poly([-p, 1])
        sq = lin * lin
        eta = {1: sq * c, 0: MeroFunction.constant(c), -1: c / sq}[a]
        f3 = MeroFunction.from_poly(poly)
        if a > 0:
            f3 = f3 * lin
        X = nl.integrate_null(nl.from_spinor(SpinorData(eta, f3)),
                              base_point=base)
        F = nl.tee_curve(X)
        before = nl.check_null_sl2(F, tol=0.0)
        after = nl.check_null_sl2(nl.shear(F, lam, kind), tol=0.0)
        return before, after

    def verify(reports):
        for label, rep in zip(("curve", "sheared curve"), reports):
            check(rep.unimodular is True, f"{label}: det F != 1")
            check(rep.null is True, f"{label}: det F' != 0")

    return Op(f"construct.curve.{height}", run, verify)


def construct_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for cycle in range(CYCLES["construct"]):
        i = cycle % ROUND["construct"]      # structure by round position
        for height in HEIGHTS:
            ops.append(_nullity_op(rng, height, i))
            ops.append(_curve_op(rng, height, i))
    return ops


# ---------------------------------------------------------------------------
# ends
# ---------------------------------------------------------------------------

def _end_op(rng, m: int, center: complex, label: str, sheared: bool) -> Op:
    lam = kind = None
    if sheared:
        lam = dyadic_point(rng, 2)
        kind = SHEAR_KINDS[m % len(SHEAR_KINDS)]

    def run():
        F = nl.end_model(m, center)
        if sheared:
            F = nl.shear(F, lam, kind)
        return nl.check_null_sl2(F, tol=0.0), nl.classify_end(F, center)

    def verify(result):
        rep, er = result
        check(rep.unimodular is True and rep.null is True,
              "end model fails an exact verdict")
        check(er.multiplicity == m, f"multiplicity {er.multiplicity} != {m}")
        check(er.ord_omega == er.l + 2 * er.k, "ord omega != l + 2k")
        rhs = (er.ord_omega + 1) ** 2 + 4 * er.q_hat_minus2
        check(abs(m * m - rhs) <= 1e-6 * max(1.0, abs(rhs)),
              "m^2 != (ord omega + 1)^2 + 4 q_hat(-2)")

    tag = "sheared." if sheared else ""
    return Op(f"ends.{tag}{label}", run, verify)


def ends_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for _ in range(CYCLES["ends"]):
        for m in range(1, 9):
            ops.append(_end_op(rng, m, 0j, "origin", False))
            ops.append(_end_op(rng, m, 0j, "origin", True))
            ops.append(_end_op(rng, m, dyadic_point(rng, 1 + m % 3), "dyadic",
                               False))
        for m in range(1, 5):
            for j in (1 + m % 3, 1 + (m + 1) % 3):
                ops.append(_end_op(rng, m, dyadic_point(rng, j), "dyadic",
                                   True))
        for m in range(1, 4):
            ops.append(_end_op(rng, m, float_point(rng), "float", False))
    return ops


# ---------------------------------------------------------------------------
# spray: period integrals
# ---------------------------------------------------------------------------

def _polygon(center: complex, rng, radius_lo: float, radius_hi: float):
    angles = 2 * np.pi * (np.arange(6) + rng.uniform(-0.15, 0.15, 6)) / 6
    radii = rng.uniform(radius_lo, radius_hi, 6)
    return [center + r * cmath.exp(1j * t) for r, t in zip(radii, angles)]


def _period_op(rng, order: int, on_origin: bool, inside: bool,
               contour: str) -> Op:
    """f = sum_r c_r/(z-p)^r + P(z), built exactly; the period over the
    contour is 2 pi i c_1 times the winding number of p.  With order 3 off
    the origin and inside the contour, ``period`` raises CrossCheckFailed
    (a known defect)."""
    p = 0j if on_origin else 0.25 * rng.uniform(1, 2.4) * cmath.exp(
        2j * math.pi * rng.uniform())
    cs = [complex(rng.normal(), rng.normal()) for _ in range(order)]
    poly = [complex(rng.normal(), rng.normal()) for _ in range(3)]
    lin = Poly([-p, 1])
    den = Poly.one()
    for _ in range(order):
        den = den * lin
    num = Poly(poly) * den
    for r, c in enumerate(cs, start=1):      # c_r (z-p)^(order-r)
        term = Poly([c])
        for _ in range(order - r):
            term = term * lin
        num = num + term
    num, den = num.coeffs, den.coeffs    # each run builds its own Poly

    far = p + 1.7 * cmath.exp(2j * math.pi * rng.uniform())
    if contour == "circle":
        cycle = (Cycle.circle(0j, abs(p) + rng.uniform(0.35, 0.7)) if inside
                 else Cycle.circle(far, rng.uniform(0.6, 1.0)))
    else:
        cycle = Cycle.polyline(_polygon(p, rng, 0.6, 1.0) if inside
                               else _polygon(far, rng, 0.6, 1.0))
    want = 2j * math.pi * cs[0] * (1 if inside else 0)

    def run():
        return nl.period(MeroFunction.from_rational(num, den), cycle)

    def verify(value):
        check(abs(value - want) <= PERIOD_TOL * max(1.0, abs(want)),
              f"period {value} != residue sum {want}")

    where = "origin" if on_origin else "off"
    side = "in" if inside else "out"
    known = (CrossCheckFailed,) if (order, where, side) == (3, "off", "in") \
        else ()
    return Op(f"spray.period.o{order}.{where}.{side}.{contour}", run, verify,
              known)


# ---------------------------------------------------------------------------
# spray: solves and windows
# ---------------------------------------------------------------------------

def _small(rng, lo: float, hi: float) -> complex:
    return rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.uniform())


def family_spec(rng, shape: str) -> dict:
    """A spray family with known structure.

    toy        eta = 1 + a/z, f3 = 1, basis {1/z}: root -a.
    quadratic  eta = 1 + a/z + b z, f3 = 0, basis {1/z}: the f1 period is
               pi i (b z^2/2 + z + a), root (sqrt(1 - 2ab) - 1)/b.
    two        eta = 1 + a/z + b z, f3 = 1, basis {1/z, 1/z^2}: no closed
               form; checked by an independent quadrature.
    """
    a = _small(rng, 0.1, 0.4)      # eta's zero -a stays inside |z| < 0.5
    b = _small(rng, 0.03, 0.12)
    if shape == "toy":
        return {"shape": shape, "eta": ([a, 1], [0, 1]), "f3": 1,
                "basis": [([1], [0, 1])], "root": [-a]}
    root = (cmath.sqrt(1 - 2 * a * b) - 1) / b
    if shape == "quadratic":
        return {"shape": shape, "eta": ([a, 1, b], [0, 1]), "f3": 0,
                "basis": [([1], [0, 1])], "root": [root]}
    return {"shape": shape, "eta": ([a, 1, b], [0, 1]), "f3": 1,
            "basis": [([1], [0, 1]), ([1], [0, 0, 1])], "root": None}


def build_family(spec: dict) -> SprayFamily:
    return SprayFamily(MeroFunction.from_rational(*spec["eta"]),
                       MeroFunction.constant(spec["f3"]),
                       tuple(MeroFunction.from_rational(*h)
                             for h in spec["basis"]))


def _rat_values(num, den, zs):
    return np.polyval(num[::-1], zs) / np.polyval(den[::-1], zs)


def unit_circle_periods(spec: dict, zeta) -> np.ndarray:
    """f1 and f2 periods over |z| = 1 of the sprayed family, by a trapezoid
    rule written here, independent of the library's windows."""
    n = 512
    zs = np.exp(2j * np.pi * np.arange(n) / n)
    ws = 1j * zs * (2 * np.pi / n)
    expo = sum(complex(z) * _rat_values(*h, zs)
               for z, h in zip(zeta, spec["basis"]))
    eta = _rat_values(*spec["eta"], zs) * np.exp(expo)
    q = spec["f3"] ** 2 / eta
    f1 = (eta - q) / 2
    f2 = -0.5j * (eta + q)
    return np.array([np.sum(ws * f1), np.sum(ws * f2)])


def _solve_op(rng, shape: str) -> Op:
    spec = family_spec(rng, shape)

    def run():
        return nl.period_solve(build_family(spec), [Cycle.circle(0j, 1.0)],
                            tol=SOLVE_TOL)

    def verify(res):
        check(res.converged and res.residual_norm <= SOLVE_TOL,
              f"no convergence to {SOLVE_TOL}")
        if spec["root"] is not None:
            err = max(abs(z - r) for z, r in zip(res.zeta, spec["root"]))
            check(err <= ROOT_TOL, f"root off by {err:.3e}")
        resid = float(np.abs(unit_circle_periods(spec, res.zeta)).max())
        check(resid <= 1e-8, f"independent period residual {resid:.3e}")

    return Op(f"spray.solve.{shape}", run, verify)


def _window_op(rng) -> Op:
    spec = family_spec(rng, "two")
    zeta = [_small(rng, 0.0, 0.3), _small(rng, 0.0, 0.1)]

    def run():
        d = nl.from_spinor(nl.spray_apply(build_family(spec), zeta))
        square = d.f1 * d.f1 + d.f2 * d.f2 + d.f3 * d.f3
        return square.is_identically_zero(1e-12)

    def verify(null):
        check(null is True, "window spinor is not null at 1e-12")

    return Op("spray.window_nullity", run, verify)


def spray_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for _ in range(CYCLES["spray"]):
        for order in (1, 2, 3):
            for on_origin in (True, False):
                for inside in (True, False):
                    for contour in ("circle", "polyline"):
                        ops.append(_period_op(rng, order, on_origin, inside,
                                              contour))
        for shape in ("toy", "quadratic", "two", "toy", "quadratic", "two"):
            ops.append(_solve_op(rng, shape))
        ops.append(_window_op(rng))
        ops.append(_window_op(rng))
    return ops


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def cli_env(root: str) -> dict:
    """The subprocess environment: the package from ``src``, since the
    console script is not installed, and no seed override."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("NULLSL2_SEED", None)
    return env


def run_cli(argv: list[str], env: dict, cwd: str, scratch: str,
            launcher: list[str] | None = None):
    """Run one CLI subprocess to its end.

    Returns (CompletedProcess, the child's own peak RSS in KiB).  The child
    is reaped with ``os.wait4``, which gives its resource usage alone; its
    output goes through files in ``scratch``, so it cannot block on a full
    pipe while nobody reads."""
    cmd = (launcher or [sys.executable, "-m", "nullsl2"]) + argv
    out_path = os.path.join(scratch, "cli.stdout")
    err_path = os.path.join(scratch, "cli.stderr")
    with open(out_path, "w+") as out, open(err_path, "w+") as err:
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ended = select.select([pidfd], [], [], CLI_TIMEOUT_S)[0]
        finally:
            os.close(pidfd)
        if not ended:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not ended:
            raise subprocess.TimeoutExpired(cmd, CLI_TIMEOUT_S)
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(cmd, proc.returncode, out.read(),
                                           err.read())
    return done, usage.ru_maxrss


class CliOps:
    """Ops that run one ``python -m nullsl2`` subprocess each.

    ``launcher`` replaces ``python -m nullsl2`` (the traced pass runs the
    same argv under a tracing bootstrap).  ``peak_rss_kb`` is the largest
    peak RSS of one subprocess since it was last set to 0.
    """

    def __init__(self, seed: int, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.env = cli_env(root)
        self.launcher = None
        self.peak_rss_kb = 0
        self.rng = np.random.default_rng([seed, 4])

    def _op(self, sub: str, argv: list[str], verify) -> Op:
        def run():
            proc, rss = run_cli(argv, self.env, self.root, self.workdir,
                                self.launcher)
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            return proc

        def check_exit(proc):
            check(proc.returncode == 0,
                  f"{sub} exited {proc.returncode}: {proc.stderr[-300:]}")
            verify(proc)

        return Op(f"cli.{sub}", run, check_exit)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def golden(self) -> list[Op]:
        """The tests/golden pipeline; outputs are compared byte for byte."""
        cfg = os.path.join(self.root, GOLDEN_DIR, "config.json")
        out = {name: self._path("golden_" + name) for name in GOLDEN_FILES}
        steps = [
            ("endmodel", ["--multiplicity", "2", "--out",
                          out["end2_curve.json"]], ["end2_curve.json"]),
            ("validate", ["--curve", out["end2_curve.json"], "--json",
                          out["validate_report.json"]],
             ["validate_report.json"]),
            ("classify", ["--curve", out["end2_curve.json"], "--center",
                          "0,0", "--json", out["classify_report.json"]],
             ["classify_report.json"]),
            ("mesh", ["--curve", out["end2_curve.json"], "--out",
                      out["end2.obj"], "--sidecar", out["end2.obj.json"]],
             ["end2.obj", "end2.obj.json"]),
        ]
        ops = []
        for sub, args, names in steps:
            def verify(proc, names=names):
                for name in names:
                    with open(out[name], "rb") as fh:
                        got = fh.read()
                    with open(os.path.join(self.root, GOLDEN_DIR, name),
                              "rb") as fh:
                        check(got == fh.read(), f"golden mismatch: {name}")
            ops.append(self._op(sub, ["--config", cfg, sub] + args, verify))
        return ops

    def cycle(self, cycle: int, i: int) -> list[Op]:
        """One endmodel -> ... -> solve cycle; ``i``, its position in the
        round, sets its structure."""
        rng = self.rng
        m = 1 + i % 3
        center = 0j if i % 2 == 0 else dyadic_point(rng, 1)
        ctext = f"--center={center.real!r},{center.imag!r}"  # may start "-"
        curve = self._path(f"curve{cycle}.json")
        shape = ("toy", "quadratic", "two")[i % 3]
        spec = family_spec(rng, shape)
        fam = self._path(f"family{cycle}.json")
        cyc = self._path(f"cycles{cycle}.json")
        save_json(fam, spray_to_dict(build_family(spec)))
        save_json(cyc, {"cycles": [cycle_to_dict(Cycle.circle(0j, 1.0))]})
        targets = ("h3", "s31") if i % 2 == 0 else ("s31", "h3")

        def v_endmodel(proc):
            with open(curve) as fh:
                check(set(json.load(fh)) >= {"F1", "F2", "F3", "F4"},
                      "endmodel wrote no SL2 curve")

        def v_validate(proc):
            report = json.loads(proc.stdout[:proc.stdout.rindex("}") + 1])
            check(report["unimodular"] and report["null"] and report["valid"],
                  "validate: exact verdicts not all true")

        def v_classify(proc):
            report = json.loads(proc.stdout)
            check(report["multiplicity"] == m,
                  f"classify: multiplicity {report['multiplicity']} != {m}")
            check(report["ord_omega"] == report["l"] + 2 * report["k"],
                  "classify: ord omega != l + 2k")

        def v_mesh(grid):
            rings, sectors = grid

            def verify(proc):
                with open(self._path(f"mesh{cycle}_{rings}.obj.json")) as fh:
                    side = json.load(fh)
                check(side["vertex_count"] == rings * sectors,
                      "mesh: wrong vertex count")
                check(side["face_count"] == 2 * (rings - 1) * sectors,
                      "mesh: wrong face count")
            return verify

        def v_solve(proc):
            res = json.loads(proc.stdout[:proc.stdout.rindex("}") + 1])
            zeta = [complex(*z) for z in res["zeta"]]
            check(res["converged"] and res["residual_norm"] <= SOLVE_TOL,
                  "solve: no convergence")
            if spec["root"] is not None:
                err = max(abs(z - r) for z, r in zip(zeta, spec["root"]))
                check(err <= ROOT_TOL, f"solve: root off by {err:.3e}")

        ops = [
            self._op("endmodel", ["endmodel", "--multiplicity", str(m),
                                  ctext, "--out", curve],
                     v_endmodel),
            self._op("validate", ["validate", "--curve", curve], v_validate),
            self._op("classify", ["classify", "--curve", curve, ctext],
                     v_classify),
        ]
        for grid, target in zip(((16, 32), (128, 256)), targets):
            obj = self._path(f"mesh{cycle}_{grid[0]}.obj")
            ops.append(self._op("mesh", [
                "mesh", "--curve", curve, ctext, "--target",
                target, "--grid", f"{grid[0]}x{grid[1]}", "--out", obj],
                v_mesh(grid)))
        ops.append(self._op("solve", ["--tol", repr(SOLVE_TOL), "solve",
                                      "--family", fam, "--cycles", cyc],
                            v_solve))
        return ops

    def pool(self) -> list[Op]:
        ops = []
        for cycle in range(CYCLES["cli"]):
            ops.extend(self.cycle(cycle, cycle % ROUND["cli"]))
        return ops


IN_PROCESS = {"construct": construct_ops, "ends": ends_ops,
              "spray": spray_ops}
