"""Cycles, contour periods with residue cross-checks, spray families, and
the desk-scale period-closing Newton solver.

Frozen solver oracles (derived by hand from residue calculus):

  toy      eta = 1 + 0.3/z, f3 = 1, basis {1/z}:
           f1-period over a unit circle = 2*pi*i (zeta + 0.3), root -0.3.
  quad     eta = 1 + 0.3/z + 0.05 z, f3 = 0, basis {1/z}:
           f1-period = pi*i (0.025 zeta^2 + zeta + 0.3),
           root 20 (sqrt(0.97) - 1) = -0.302284396407790...
  square2  same eta, f3 = 1, basis {1/z, 1/z^2}: 2x2 system, root near
           (-0.30465, +0.046645) (frozen from a converged run).
"""

import cmath
import hashlib
import math
import runpy
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nullsl2 import (
    CrossCheckFailed,
    Cycle,
    MaxIterExceeded,
    MeroFunction,
    PoleOnContour,
    Poly,
    SingularJacobian,
    SprayFamily,
    annulus,
    from_spinor,
    period,
    period_map,
    period_solve,
    solver_residual,
    spray_apply,
    window_exp,
)
import nullsl2.periods
from nullsl2.exact import ExactComplex
from nullsl2.periods import PeriodReport, _spray_periods
from nullsl2.series import _unit_roots

TWO_PI_I = 2j * math.pi


def inv_z(k=1):
    return MeroFunction.from_rational((1,), (0,) * k + (1,))


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def test_circle_quadrature_integrates_simple_pole():
    c = Cycle.circle(0, 1.0)
    val = period(inv_z(), c)
    assert abs(val - TWO_PI_I) < 1e-12


def test_circle_winding_and_contains():
    c = Cycle.circle(1.0, 0.5)
    assert c.winding(1.0) == 1
    assert c.winding(0.0) == 0
    assert c.contains(1.2) and not c.contains(2.0)


def test_polyline_winding():
    square = Cycle.polyline([2 + 2j, -2 + 2j, -2 - 2j, 2 - 2j])
    assert square.winding(0) == 1
    assert square.winding(5) == 0


def test_polyline_requires_three_vertices():
    with pytest.raises(ValueError):
        Cycle.polyline([0, 1])


@pytest.mark.parametrize("points", [
    [1, 1, 1j, -1],                  # a repeated vertex
    [1, 1j, -1, 1, 1],               # the closing edge, after the repeat
    [1, 1j, 1j, -1],
], ids=["first", "closing", "middle"])
def test_polyline_rejects_zero_length_edge(points):
    with pytest.raises(ValueError, match="zero-length edge"):
        Cycle.polyline(points)
    with pytest.raises(ValueError, match="zero-length edge"):
        Cycle("polyline", points=tuple(complex(p) for p in points))


def test_min_distance():
    c = Cycle.circle(0, 1.0)
    assert abs(c.min_distance(0) - 1.0) < 1e-12
    square = Cycle.polyline([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
    assert abs(square.min_distance(0) - 1.0) < 1e-12


@pytest.mark.parametrize("make", [
    lambda: Cycle.circle(0, 1.0, nodes=0),
    lambda: Cycle.circle(0, 1.0, nodes=-3),
    lambda: Cycle.polyline([0, 1, 1j], per_segment=0),
    lambda: Cycle.polyline([0, 1, 1j], per_segment=-1),
    lambda: Cycle("circle", nodes=0),
], ids=["nodes0", "nodes-3", "per_segment0", "per_segment-1", "direct"])
def test_cycle_needs_a_quadrature_node(make):
    with pytest.raises(ValueError, match="quadrature node"):
        make()


@pytest.mark.parametrize("make, name", [
    (lambda: Cycle.circle(0, math.inf), "radius inf"),
    (lambda: Cycle.circle(0, math.nan), "radius nan"),
    (lambda: Cycle.circle(complex(math.nan, 0), 1.0), "center"),
    (lambda: Cycle.polyline([0, 1, math.nan]), "vertex"),
], ids=["inf_radius", "nan_radius", "nan_center", "nan_vertex"])
def test_cycle_refuses_non_finite_geometry(make, name):
    # before evaluation: an infinite radius used to warn in numpy and then
    # overflow, a NaN one fail in the exact evaluation, a NaN vertex read
    # as a pole of 1/z on the contour
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"cycle {name}.* not finite"):
            period(MeroFunction.from_rational([1], [0, 1]), make())


def test_cycle_as_dict_round_shape():
    d = Cycle.circle(1j, 2.0).as_dict()
    assert d["kind"] == "circle" and d["radius"] == 2.0


# ---------------------------------------------------------------------------
# periods and cross-checks
# ---------------------------------------------------------------------------


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def test_nodes_and_weights_match_the_rules_written_out():
    for nodes in (1, 64, 512, 4096):
        for center in (0j, 0.3 - 1.7j, 1e3 + 2e-3j):
            for radius in (1e-3, 0.7, 1.0, 12.5):
                zs, ws = Cycle.circle(center, radius, nodes).nodes_and_weights()
                theta = 2 * np.pi * np.arange(nodes) / nodes
                e = np.exp(1j * theta)
                assert _bits(zs) == _bits(center + radius * e)
                assert _bits(ws) == _bits((1j * radius * e)
                                          * (2 * np.pi / nodes))
    square = [1 + 1j, -1.5 + 1j, -1 - 0.25j, 1 - 1j]
    for per_segment in (1, 8, 32, 33):
        zs, ws = Cycle.polyline(square, per_segment).nodes_and_weights()
        x, w = np.polynomial.legendre.leggauss(per_segment)
        t, wt = (x + 1.0) / 2.0, w / 2.0
        closed = square + square[:1]
        pairs = list(zip(closed[:-1], closed[1:]))
        assert _bits(zs) == _bits(np.concatenate([a + t * (b - a)
                                                  for a, b in pairs]))
        assert _bits(ws) == _bits(np.concatenate([wt * (b - a)
                                                  for a, b in pairs]))


def test_gauss_legendre_rule_is_built_once_per_size(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    nullsl2.periods._unit_gauss_legendre.cache_clear()
    f = MeroFunction.from_rational((1, 2), (-0.1j, 1))
    for k in range(8):
        shift = 0.05 * k
        hexagon = [shift + cmath.exp(1j * math.pi * j / 3) for j in range(6)]
        val = period(f, Cycle.polyline(hexagon, per_segment=32 if k < 6
                                       else 16))
        assert abs(val - TWO_PI_I * (1 + 0.2j)) < 1e-10
    nullsl2.periods._unit_gauss_legendre.cache_clear()
    assert sorted(calls) == [16, 32]


def test_rule_tables_are_read_only():
    t, wt = nullsl2.periods._unit_gauss_legendre(8)
    for table in (t, wt, _unit_roots(16)):
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_period_cross_check_passes_on_rational():
    # 3/(z-0.2) + 1/(z+5): only the first pole is inside
    f = (3 * MeroFunction.from_rational((1,), (-0.2, 1))
         + MeroFunction.from_rational((1,), (5, 1)))
    val = period(f, Cycle.circle(0, 1.0))
    assert abs(val - 3 * TWO_PI_I) < 1e-10


def test_period_over_polyline_matches_circle():
    f = MeroFunction.from_rational((1, 1), (0.04j, 0.4j, 1))  # poles near -0.2j
    circ = period(f, Cycle.circle(0, 1.0))
    square = period(f, Cycle.polyline([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]))
    assert abs(circ - square) < 1e-8


def test_period_homotopy_invariance_across_radii():
    f = MeroFunction.from_rational((2, 1), (0.01, 0.2, 1))
    vals = [period(f, Cycle.circle(0, r)) for r in (0.6, 1.0, 1.7)]
    assert abs(vals[0] - vals[1]) < 1e-8
    assert abs(vals[1] - vals[2]) < 1e-8


def test_period_zero_when_no_pole_enclosed():
    f = MeroFunction.from_rational((1,), (-4, 1))  # pole at 4
    assert abs(period(f, Cycle.circle(0, 1.0))) < 1e-12


def test_period_pole_on_contour_raises():
    with pytest.raises(PoleOnContour):
        period(inv_z(), Cycle.circle(0.5, 0.5))


def test_period_cross_check_failure_on_aliased_quadrature():
    # 4-node trapezoid rule aliases z^3 onto z^-1, so the quadrature reads
    # a spurious full residue while the true period vanishes
    f = MeroFunction.from_poly((0, 0, 0, 1))
    bad = Cycle.circle(0, 1.0, nodes=4)
    with pytest.raises(CrossCheckFailed):
        period(f, bad)


def test_residue_near_shift_counts(monkeypatch):
    # 1/(z-p)^2 + 2/(z-p) at a dyadic p.  At p itself, an exact root of the
    # denominator: one Taylor shift each of numerator and denominator, and
    # the exact residue.  At a located pole off by 1e-13 (as root finders
    # return it): no Taylor shift at all, one exact root test on the
    # denominator, and the trapezoid circle gives the residue.
    p = 0.25 + 0.5j
    zp = MeroFunction.from_poly((-p, 1))
    f = 1 / (zp * zp) + 2 / zp
    shifts, root_tests = [], []
    real_shift, real_multiplicity = Poly.shift, Poly.multiplicity_at

    def counted(self, q):
        if q:
            shifts.append(self)
        return real_shift(self, q)

    def counted_multiplicity(self, q):
        root_tests.append(self)
        return real_multiplicity(self, q)

    monkeypatch.setattr(Poly, "shift", counted)
    monkeypatch.setattr(Poly, "multiplicity_at", counted_multiplicity)
    assert nullsl2.periods._residue_near(f, p, 1.0) == 2
    assert len(shifts) == 2
    assert {id(s) for s in shifts} == {id(f.rep.num), id(f.rep.den)}
    shifts.clear()
    root_tests.clear()
    r = nullsl2.periods._residue_near(f, p + 1e-13, 1.0)
    assert abs(r - 2) < 1e-9
    assert shifts == []
    assert len(root_tests) == 1 and root_tests[0] is f.rep.den


def test_period_window_residue():
    dom = annulus(0.5, 2.0)
    f = MeroFunction.from_laurent(-2, [0.7, 2.5, 1.0], domain=dom)
    val = period(f, Cycle.circle(0, 1.0))
    assert abs(val - 2.5 * TWO_PI_I) < 1e-10


def test_period_map_reports():
    funcs = [inv_z(), MeroFunction.from_poly((1,))]
    cycles = [Cycle.circle(0, 0.8), Cycle.circle(0, 1.5)]
    rep = period_map(funcs, cycles)
    assert isinstance(rep, PeriodReport)
    vals = np.array(rep.values)
    assert vals.shape == (2, 2)
    assert abs(vals[0, 0] - TWO_PI_I) < 1e-10
    assert abs(vals[1, 0]) < 1e-12
    assert rep.max_abs() == pytest.approx(2 * math.pi, rel=1e-9)
    assert rep.as_dict()["cross_checked"]


def test_higher_order_pole_has_zero_period():
    assert abs(period(inv_z(2), Cycle.circle(0, 1.0))) < 1e-12


def _power_of_linear(p, k) -> Poly:
    out, lin = Poly([1]), Poly([-p, 1])
    for _ in range(k):
        out = out * lin
    return out


def _counted_residues(monkeypatch) -> list:
    calls = []
    real = nullsl2.periods._residue_near

    def counted(f, p, clearance):
        calls.append(p)
        return real(f, p, clearance)

    monkeypatch.setattr(nullsl2.periods, "_residue_near", counted)
    return calls


def test_a_pole_of_order_six_off_the_origin_has_zero_period(monkeypatch):
    # (1 + z + z**2)/(z - p)**6 has no 1/(z - p) term; np.roots splits the
    # pole into six simple ones, whose residues of about 3e13 summed to
    # nothing near the quadrature, and the cross-check raised
    calls = _counted_residues(monkeypatch)
    p = 0.3 + 0.2j
    f = MeroFunction.from_rational([1, 1, 1], _power_of_linear(p, 6).coeffs)
    assert f.poles() == [(p, 6)]
    assert abs(period(f, Cycle.circle(0, 1))) < 1e-12
    assert calls == []


@pytest.mark.parametrize("contour", ["circle", "polyline"])
def test_an_order_three_pole_inside_gives_its_first_coefficient(contour):
    # the benchmark's spray input: sum of c_r/(z - p)**r plus a quadratic,
    # p off the origin and inside the contour
    p = 0.31 - 0.22j
    cs = [0.7 - 1.1j, -0.4 + 0.3j, 1.3 + 0.2j]
    den = _power_of_linear(p, 3)
    num = Poly([0.5, -1j, 0.25]) * den
    for r, c in enumerate(cs, start=1):
        num = num + _power_of_linear(p, 3 - r).scale(c)
    f = MeroFunction.from_rational(num.coeffs, den.coeffs)
    cycle = (Cycle.circle(0, abs(p) + 0.5) if contour == "circle" else
             Cycle.polyline([p + 0.8 * cmath.exp(1j * math.pi * k / 3)
                             for k in range(6)]))
    assert period(f, cycle) == pytest.approx(TWO_PI_I * cs[0], abs=1e-10)


def test_a_near_double_pole_inside_and_a_pole_outside(monkeypatch):
    # z**2 + 0.2 z + 0.01 stored from floats has two simple roots 1.9e-9
    # apart, each with a residue of about 1e9; their exact sum is read at
    # infinity, and only the pole at 3, outside, takes a residue of its own
    calls = _counted_residues(monkeypatch)
    den = Poly([0.01, 0.2, 1]) * Poly([-3, 1])
    f = MeroFunction.from_rational((2, 1), den.coeffs)
    assert [m for _, m in f.poles()] == [1, 1, 1]
    assert period(f, Cycle.circle(0, 1)) == pytest.approx(
        TWO_PI_I * -5 / 9.61, abs=1e-10)
    assert [round(p.real, 12) for p in calls] == [3]


def test_a_tie_of_winding_numbers_takes_the_smaller_one(monkeypatch):
    # two poles in, two out: the sum is read pole by pole over the two
    # inside, as it is with no pole inside
    calls = _counted_residues(monkeypatch)
    den = Poly([-0.25, 0, 1]) * Poly([-9, 0, 1])    # poles +-1/2, +-3
    f = MeroFunction.from_rational((1, 0, 0, 1), den.coeffs)
    want = TWO_PI_I * sum(f.residue(p) for p in (-0.5, 0.5))
    assert period(f, Cycle.circle(0, 1)) == pytest.approx(want, abs=1e-12)
    assert sorted(round(p.real, 12) for p in calls) == [-0.5, 0.5]


def _residue_sum_by_exact_complex(num, den):
    """The residue sum as one ExactComplex quotient, rounded once."""
    r = num.divmod(den)[1]
    return complex(r.coeff(den.degree - 1) / den.lc)


def test_integer_residue_sum_equals_the_exact_complex_quotient():
    # the same rational, rounded once part by part: equal bits, signed
    # zeros and infinities included
    rng = np.random.default_rng(34)

    def scalar():
        kind = int(rng.integers(4))
        if kind == 0:
            return complex(rng.normal(), rng.normal())
        if kind == 1:
            return int(rng.integers(-9, 10))
        if kind == 2:
            return ExactComplex(Fraction(int(rng.integers(-99, 100)),
                                         int(rng.integers(1, 100))),
                                Fraction(int(rng.integers(-99, 100)),
                                         int(rng.integers(1, 100))))
        return complex(rng.normal(), 0.0) * 10.0 ** rng.integers(-200, 200)

    pairs = []
    for _ in range(300):
        den = Poly([scalar() for _ in range(int(rng.integers(1, 6)))]
                   + [scalar() or 1])
        num = Poly([scalar() for _ in range(int(rng.integers(0, 9)))])
        pairs.append((num, den))
    big, tiny = Fraction(10 ** 400), Fraction(1, 10 ** 400)
    pairs += [
        (Poly([0, 1]) * Poly([1, 1]), Poly([1, 1])),    # remainder 0
        (Poly([1, 0, 2]), Poly([0, 0, 3])),              # r_(n-1) = 0
        (Poly([5, 0, 0]), Poly([1, 0, 7j])),             # r = 5, r_1 = 0
        (Poly([ExactComplex(0, big), 1]), Poly([3, tiny])),    # past range
        (Poly([ExactComplex(-big, big), 1]), Poly([0, ExactComplex(0, 1)])),
        (Poly([ExactComplex(tiny, -tiny), 2]), Poly([1, big])),   # underflow
        (Poly([-tiny, 0]), Poly([1, big])),
    ]
    parts = []
    for num, den in pairs:
        got = nullsl2.periods._residue_sum(num, den)
        assert repr(got) == repr(_residue_sum_by_exact_complex(num, den))
        parts += [got.real, got.imag]
    # the pool reaches both infinities and both signed zeros
    assert {math.inf, -math.inf} <= set(parts)
    assert {math.copysign(1.0, x) for x in parts if x == 0} == {1.0, -1.0}


# ---------------------------------------------------------------------------
# spray families
# ---------------------------------------------------------------------------


def base_family(basis, f3=1.0, eta_coeffs=((1,), (1,))):
    eta = MeroFunction.from_rational(*eta_coeffs)
    return SprayFamily(eta, MeroFunction.constant(f3), tuple(basis))


def toy_family():
    # eta = 1 + 0.3/z = (z + 0.3)/z
    eta = MeroFunction.from_rational((0.3, 1), (0, 1))
    return SprayFamily(eta, MeroFunction.constant(1), (inv_z(),))


def quad_family(f3=0.0):
    # eta = 1 + 0.3/z + 0.05 z = (0.3 + z + 0.05 z^2)/z
    eta = MeroFunction.from_rational((0.3, 1, 0.05), (0, 1))
    return SprayFamily(eta, MeroFunction.constant(f3), (inv_z(),))


def test_spray_family_requires_directions():
    with pytest.raises(ValueError):
        SprayFamily(MeroFunction.constant(1), MeroFunction.zero(), ())


def test_spray_apply_zero_is_base():
    fam = toy_family()
    s = spray_apply(fam, [0.0])
    assert (s.eta - fam.eta).is_identically_zero(0.0)
    assert (s.f3 - fam.f3).is_identically_zero(0.0)


def test_spray_apply_constant_direction_stays_rational():
    fam = base_family([MeroFunction.constant(1)])
    s = spray_apply(fam, [0.7 + 0.2j])
    assert s.eta.is_rational
    expected = cmath.exp(0.7 + 0.2j)
    assert abs(s.eta.evaluate(1.3) - expected) < 1e-12


def test_spray_apply_window_direction_values():
    fam = toy_family()
    zeta = 0.25 - 0.1j
    s = spray_apply(fam, [zeta])
    for z in (0.8, 1.4j, -1.1):
        want = (1 + 0.3 / z) * cmath.exp(zeta / z)
        assert abs(s.eta.evaluate(z) - want) < 1e-10


def test_spray_apply_zeta_length_checked():
    with pytest.raises(ValueError):
        spray_apply(toy_family(), [1.0, 2.0])


def test_window_exp_matches_pointwise():
    dom = annulus(0.5, 2.0)
    f = inv_z() * 0.4
    w = window_exp(f, dom)
    for z in (0.7, 1.0 + 0.5j, -1.8):
        assert abs(w.evaluate(z) - cmath.exp(0.4 / z)) < 1e-11


def test_window_exp_requires_annulus():
    from nullsl2 import disk
    with pytest.raises(ValueError):
        window_exp(inv_z(), disk())


# ---------------------------------------------------------------------------
# solver residual (hand-checked linear case)
# ---------------------------------------------------------------------------


def test_toy_residual_matches_closed_form():
    fam = toy_family()
    cycles = [Cycle.circle(0, 1.0)]
    for zeta in (0.0, 0.2, -0.1 + 0.05j):
        r = solver_residual(fam, cycles, [zeta])
        want_f1 = TWO_PI_I * (zeta + 0.3)
        assert abs(r[0] - want_f1) < 1e-9
        assert abs(r[1]) < 1e-9  # the f2 block cancels identically here


# ---------------------------------------------------------------------------
# period_solve
# ---------------------------------------------------------------------------


def test_solve_toy_linear_converges_fast():
    res = period_solve(toy_family(), [Cycle.circle(0, 1.0)])
    assert res.converged
    assert abs(res.zeta[0] - (-0.3)) < 1e-9
    assert res.residual_norm < 1e-10
    assert res.iterations <= 3


def test_solve_quadratic_scalar_root_and_tail():
    root = 20.0 * (math.sqrt(0.97) - 1.0)
    res = period_solve(quad_family(f3=0.0), [Cycle.circle(0, 1.0)])
    assert res.converged
    assert abs(res.zeta[0] - root) < 1e-10
    hist = res.residual_history
    assert len(hist) >= 3
    # quadratic tail: each residual is roughly the square of the previous
    tail = [h for h in hist if h > 0][-3:]
    for a, b in zip(tail, tail[1:]):
        assert b < 10 * a * a + 1e-14


def square2_family(conjugate_chart=False):
    eta = MeroFunction.from_rational((0.3, 1, 0.05), (0, 1))
    return SprayFamily(eta, MeroFunction.constant(1), (inv_z(), inv_z(2)),
                       conjugate_chart=conjugate_chart)


@pytest.mark.parametrize("conjugate_chart", [False, True])
def test_exact_jacobian_matches_central_difference(conjugate_chart):
    fam = square2_family(conjugate_chart)
    cycles = [Cycle.circle(0, 1.0), Cycle.circle(0.1, 0.8)]
    zeta = np.array([-0.2 + 0.05j, 0.03 - 0.02j])
    resid, jac = _spray_periods(fam, cycles)(zeta)
    assert np.allclose(resid, solver_residual(fam, cycles, zeta), atol=1e-14)
    # the window path (spray_apply -> from_spinor -> period) is independent
    d = from_spinor(spray_apply(fam, zeta))
    window = [period(g, c, cross_check=False)
              for g in (d.f1, d.f2) for c in cycles]
    assert np.abs(resid - window).max() < 1e-8
    h = 1e-6
    for j in range(2):
        e = np.zeros(2, dtype=complex)
        e[j] = h
        oracle = (solver_residual(fam, cycles, zeta + e)
                  - solver_residual(fam, cycles, zeta - e)) / (2 * h)
        assert np.abs(jac[:, j] - oracle).max() < 1e-7
    assert np.abs(jac).max() > 1.0


def test_solve_square_conjugate_chart_lands_on_frozen_root():
    res = period_solve(square2_family(conjugate_chart=True),
                       [Cycle.circle(0, 1.0)])
    assert res.converged and res.residual_norm < 1e-10
    assert abs(res.zeta[0] - (-0.30465257524)) < 1e-6
    assert abs(res.zeta[1] - 0.04664490905) < 1e-6


def test_solve_square_two_parameter_system():
    eta = MeroFunction.from_rational((0.3, 1, 0.05), (0, 1))
    fam = SprayFamily(eta, MeroFunction.constant(1), (inv_z(), inv_z(2)))
    res = period_solve(fam, [Cycle.circle(0, 1.0)])
    assert res.converged
    assert res.residual_norm < 1e-10
    assert abs(res.zeta[0] - (-0.30465257524)) < 1e-6
    assert abs(res.zeta[1] - 0.04664490905) < 1e-6
    final = solver_residual(fam, [Cycle.circle(0, 1.0)], list(res.zeta))
    assert np.abs(final).max() < 1e-10


@pytest.mark.parametrize("basis, message", [
    ((inv_z(), inv_z(2)), "condition number"),
    ((inv_z(2),), "numerically zero"),
], ids=["two_directions", "one_direction"])
def test_solve_detects_structurally_singular_direction(basis, message):
    # eta has only nonpositive powers, so the 1/z^2 direction cannot move
    # any period: its Jacobian column vanishes identically
    eta = MeroFunction.from_rational((0.1, 0.3, 1), (0, 0, 1))
    fam = SprayFamily(eta, MeroFunction.constant(1), basis)
    with pytest.raises(SingularJacobian, match=message):
        period_solve(fam, [Cycle.circle(0, 1.0)])


def test_solve_takes_singular_values_from_its_step(monkeypatch):
    # the least-squares step factors the Jacobian once; no separate SVD
    def forbidden(*args, **kwargs):
        raise AssertionError("period_solve must not call np.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    res = period_solve(toy_family(), [Cycle.circle(0, 1.0)])
    assert res.converged and abs(res.zeta[0] - (-0.3)) < 1e-9
    for basis, message in [((inv_z(), inv_z(2)), "condition number"),
                           ((inv_z(2),), "numerically zero")]:
        test_solve_detects_structurally_singular_direction(basis, message)


def test_solver_pole_on_contour_raises():
    # q = f3^2/eta_zeta has a pole at eta's zero -0.3, on this circle
    cycles = [Cycle.circle(0, 0.3)]
    with pytest.raises(PoleOnContour):
        solver_residual(toy_family(), cycles, [0.1])
    with pytest.raises(PoleOnContour):
        period_solve(toy_family(), cycles)


def test_a_zero_of_eta_that_f3_squared_cancels_is_regular():
    # eta = (z - 1/2)^2 (1 + 0.3/z), f3 = z - 1/2: q = f3^2/eta = z/(z + 0.3)
    # is regular at 1/2, so the circle of radius 1/2 through it is a valid
    # contour, and no singular point lies between it and radius 0.51.  The
    # residues at 0 and -0.3 give 2 pi i (0.1875, 0.1125 i)
    lin = MeroFunction.from_poly([-0.5, 1])
    eta = lin * lin * MeroFunction.from_rational([0.3, 1], [0, 1])
    fam = SprayFamily(eta, lin, (inv_z(),))
    want = TWO_PI_I * np.array([0.1875, 0.1125j])
    wider = solver_residual(fam, [Cycle.circle(0, 0.51)], [0.0])
    on_zero = solver_residual(fam, [Cycle.circle(0, 0.5)], [0.0])
    assert np.abs(wider - want).max() < 1e-10
    assert np.abs(on_zero - wider).max() < 1e-10
    # a zero of eta that f3^2 does not cancel stays singular: -0.3
    with pytest.raises(PoleOnContour):
        solver_residual(fam, [Cycle.circle(0, 0.3)], [0.0])


def test_solve_does_not_use_the_window_path(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the solver must not build Laurent windows")

    monkeypatch.setattr(nullsl2.periods, "spray_apply", forbidden)
    monkeypatch.setattr(nullsl2.periods, "window_exp", forbidden)
    res = period_solve(toy_family(), [Cycle.circle(0, 1.0)])
    assert res.converged
    assert abs(res.zeta[0] - (-0.3)) < 1e-9


def test_solve_budget_exhaustion_carries_best_iterate():
    with pytest.raises(MaxIterExceeded) as exc:
        period_solve(toy_family(), [Cycle.circle(0, 1.0)],
                     zeta0=[100.0], max_iter=2)
    err = exc.value
    assert err.report is not None and not err.report.converged
    assert len(err.residual_history) == 2
    assert err.zeta is not None


def _far_start_family():
    # eta = 1 + 0.3/z, f3 = 1, basis {1/z^2}: exp(zeta/z^2) on the unit
    # circle reaches exp(|zeta|)
    return SprayFamily(MeroFunction.from_rational([0.3, 1], [0, 1]),
                       MeroFunction.constant(1), (inv_z(2),))


def test_solve_from_far_away_fails_without_a_float_warning():
    # Newton steps from 20 overflow exp on some nodes: each such candidate
    # is a failed step, and the solve runs out of halvings, warning-free
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MaxIterExceeded) as exc:
            period_solve(_far_start_family(), [Cycle.circle(0, 1.0)],
                         zeta0=[20.0])
    assert exc.value.report is not None and not exc.value.report.converged


def test_solve_from_past_the_float_range_is_a_domain_failure():
    # exp(800) is inf: the residual at the start is not finite, which is
    # reported before the least-squares step could meet it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularJacobian, match="not finite"):
            period_solve(_far_start_family(), [Cycle.circle(0, 1.0)],
                         zeta0=[800.0])


def _counted_evaluations(monkeypatch) -> list:
    """One entry per evaluation of the solver's residual map."""
    calls, real = [], nullsl2.periods._spray_periods

    def spray_periods(family, cycles):
        evaluate = real(family, cycles)
        return lambda zeta: calls.append(zeta) or evaluate(zeta)

    monkeypatch.setattr(nullsl2.periods, "_spray_periods", spray_periods)
    return calls


def _damped_family():
    # eta = 1 + 0.3/z + 0.1 z, f3 = 0, basis {1/z}: from -8 the full
    # Newton step overshoots, and its half decreases the residual
    return SprayFamily(MeroFunction.from_rational([0.3, 1, 0.1], [0, 1]),
                       MeroFunction.constant(0), (inv_z(),))


def test_damped_newton_halves_one_step(monkeypatch):
    calls = _counted_evaluations(monkeypatch)
    res = period_solve(_damped_family(), [Cycle.circle(0, 1.0)],
                       zeta0=[-8.0])
    assert res.converged and res.residual_norm <= 1e-10
    assert res.iterations == 6
    # the start, five accepted steps and one rejected full step
    assert len(calls) == 1 + (res.iterations - 1) + 1


def test_damped_newton_without_halvings_fails_at_its_best_iterate():
    with pytest.raises(MaxIterExceeded,
                       match="no residual decrease along the damped Newton "
                             "direction") as exc:
        period_solve(_damped_family(), [Cycle.circle(0, 1.0)],
                     zeta0=[-8.0], max_halvings=0)
    report = exc.value.report
    assert not report.converged and report.iterations == 1
    assert report.zeta == (-8.0,)
    assert report.residual_norm == report.residual_history[0] > 1.0


def test_solve_validates_inputs():
    with pytest.raises(ValueError):
        period_solve(toy_family(), [])
    with pytest.raises(ValueError):
        period_solve(toy_family(), [Cycle.circle(0, 1.0)], zeta0=[1.0, 2.0])


def test_solve_result_serializes():
    res = period_solve(toy_family(), [Cycle.circle(0, 1.0)])
    d = res.as_dict()
    assert d["converged"] is True
    assert len(d["zeta"]) == 1 and len(d["zeta"][0]) == 2
    assert d["residual_history"][0] > d["residual_history"][-1]


def test_period_demo_checks_closed_form_roots():
    script = Path(__file__).resolve().parents[1] / "scripts" / "period_demo.py"
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# pinned float output of the spray path
# ---------------------------------------------------------------------------


#: sha256 of seeded circle and polyline periods (pole orders 1-2), solver
#: iterates and residual histories, and sprayed window coefficients
_SPRAY_DIGEST = \
    "8a3cb7da74ff6da2ac59147190d44ce6b27468aad27e83ee5f6e711b50bfd5d7"


def _spray_digest_records():
    rng = np.random.default_rng(911)

    def draw(scale=1.0):
        return complex(*(scale * rng.normal(size=2)).tolist())

    records = []
    for order in (1, 2):
        for on_origin in (True, False):
            p = 0j if on_origin else 0.3 * draw()
            lin = Poly([-p, 1])
            den = Poly.one()
            for _ in range(order):
                den = den * lin
            num = Poly([draw() for _ in range(order + 2)])
            f = MeroFunction.from_rational(num.coeffs, den.coeffs)
            square = [p + r * cmath.exp(1j * (t + k * math.pi / 2))
                      for k, (r, t) in enumerate(
                          zip(rng.uniform(0.6, 1.0, 4),
                              rng.uniform(-0.2, 0.2, 4)))]
            for cycle in (Cycle.circle(p + 0.1 * draw(), 0.9),
                          Cycle.circle(p, 0.7, nodes=64),
                          Cycle.polyline(square),
                          Cycle.polyline(square, per_segment=16)):
                records.append(repr(period(f, cycle)))
    for fam in (toy_family(), quad_family(), square2_family(),
                square2_family(conjugate_chart=True)):
        for cycles in ([Cycle.circle(0, 1.0)],
                       [Cycle.polyline([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])]):
            res = period_solve(fam, cycles)
            records.append(repr((res.zeta, res.residual_history)))
    fam = square2_family()
    for zeta in ([0.2 - 0.1j, 0.05j], [-0.1, 0.03 + 0.02j]):
        w = spray_apply(fam, zeta).eta.rep
        records.append(repr((w.min_exponent, w.truncation_order,
                             tuple(w.coeffs))))
    return records


def test_spray_digest_is_pinned():
    # recorded while every quadrature rule and root-of-unity table was
    # still rebuilt on each call: building them once per size must not
    # change a bit of any period, solver iterate or window coefficient
    text = "\n".join(_spray_digest_records())
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == \
        _SPRAY_DIGEST


def test_window_exp_refuses_an_overflowing_exponent_without_a_warning():
    # exp(800 z) passes the float range on the sampling circle: the inf
    # samples reach _fft_expand's ValueError, and np.exp's overflow is not
    # also reported as a RuntimeWarning
    f = MeroFunction.from_rational([0, 800], [1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            window_exp(f, annulus(0.5, 2.0))
