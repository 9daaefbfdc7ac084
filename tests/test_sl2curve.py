"""SL(2,C) null curves: the quadratic transform, shears, end models,
rotations, and norm pushing."""

import cmath
import dataclasses
import hashlib
import json
import runpy
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nullsl2.exact as exact
import nullsl2.invariants as invariants
import nullsl2.series as series
import nullsl2.sl2curve as sl2curve
import nullsl2.spinor as spinor
from nullsl2 import (
    C3NullCurve,
    FirstEntryZero,
    InvalidMultiplicity,
    MeroFunction,
    PoleOnContour,
    SHEAR_KINDS,
    SL2NullCurve,
    SearchFailed,
    SpinorData,
    ThirdCoordinateZero,
    annulus,
    aux_rotations,
    check_null_c3,
    check_null_sl2,
    classify_end,
    disk,
    end_model,
    from_spinor,
    integrate_null,
    min_sup_norm_on_circle,
    punctured_disk,
    push_norm,
    secondary_gauss,
    shear,
    shear_matrix,
    shear_operator_norm,
    tee,
    tee_curve,
    tee_inv,
    tee_inv_curve,
)
from nullsl2.exact import (_P, Poly, _coprime_mod_p,
                           _derivatives_coprime_mod_p, _derivatives_vary_mod_p,
                           _jet_mod_p)
from nullsl2.serialize import sl2_to_dict
from nullsl2.series import Rational, _common_denominator
from nullsl2.sl2curve import _SHEAR_RECIPES, _one_denominator
from nullsl2.spinor import _has_common_zero, _sorted_points, is_flat

from conftest import random_sl2_curve, random_c3_curve


def identity_curve() -> SL2NullCurve:
    one = MeroFunction.constant(1)
    zero = MeroFunction.zero()
    return SL2NullCurve(one, zero, zero, one)


# ---------------------------------------------------------------------------
# pointwise transform
# ---------------------------------------------------------------------------


def test_tee_pointwise_round_trip():
    x = (0.3 + 0.1j, -1.2j, 2.0 + 0.5j)
    a = tee(x)
    back = tee_inv(a)
    assert max(abs(u - v) for u, v in zip(back, x)) < 1e-14
    assert abs(np.linalg.det(a) - 1) < 1e-14


def test_tee_rejects_zero_third_coordinate():
    with pytest.raises(ThirdCoordinateZero):
        tee((1, 2, 0))


def test_tee_inv_rejects_zero_first_entry():
    with pytest.raises(FirstEntryZero):
        tee_inv(np.array([[0, 1], [-1, 0]], dtype=complex))


@settings(max_examples=100, deadline=None)
@given(st.complex_numbers(max_magnitude=5, allow_nan=False,
                          allow_infinity=False),
       st.complex_numbers(max_magnitude=5, allow_nan=False,
                          allow_infinity=False),
       st.complex_numbers(min_magnitude=0.01, max_magnitude=5,
                          allow_nan=False, allow_infinity=False))
def test_prop_tee_round_trip(z1, z2, z3):
    back = tee_inv(tee((z1, z2, z3)))
    scale = max(1.0, abs(z1), abs(z2), abs(z3), 1 / abs(z3))
    assert max(abs(u - v) for u, v in zip(back, (z1, z2, z3))) < 1e-10 * scale


# ---------------------------------------------------------------------------
# curve-level transform
# ---------------------------------------------------------------------------


def test_tee_curve_round_trip_exact(rng):
    for _ in range(10):
        X = random_c3_curve(rng)
        if X.X3.is_identically_zero():
            continue
        F = tee_curve(X)
        back = tee_inv_curve(F)
        for a, b in zip(back.components(), X.components()):
            assert (a - b).is_identically_zero(0.0)


def test_tee_curve_null_and_unimodular_exact(rng):
    for _ in range(10):
        F = random_sl2_curve(rng)
        rep = check_null_sl2(F, tol=0.0)
        assert rep.unimodular and rep.null


def test_tee_curve_pole_bookkeeping_superset(rng):
    for _ in range(20):
        X = random_c3_curve(rng)
        if X.X3.is_identically_zero():
            continue
        F = tee_curve(X)
        zero_pts = {complex(p) for p, _ in X.X3.zeros()}
        assert all(any(abs(p - q) < 1e-8 for q in F.pole_set)
                   for p in zero_pts)
        # and back: zeros of F1 land in the inverse image's pole set
        if F.F1.is_identically_zero():
            continue
        Y = tee_inv_curve(F)
        f1_zeros = {complex(p) for p, _ in F.F1.zeros()}
        assert all(any(abs(p - q) < 1e-8 for q in Y.pole_set)
                   for p in f1_zeros)


def test_tee_curve_rejects_zero_x3():
    one = MeroFunction.constant(1)
    X = C3NullCurve(one, one * 1j, MeroFunction.zero())
    with pytest.raises(ThirdCoordinateZero):
        tee_curve(X)


# ---------------------------------------------------------------------------
# the one-denominator form of tee_curve
# ---------------------------------------------------------------------------


def _tee_by_division(X):
    """The four slots as four divisions: the form windows keep."""
    X1, X2, X3 = X.components()
    return (1 / X3, (X1 + 1j * X2) / X3, (X1 - 1j * X2) / X3,
            (X1 * X1 + X2 * X2 + X3 * X3) / X3)


def _tee_inputs():
    rat = MeroFunction.from_rational
    return {
        # three distinct non-constant denominators, one with a root at 0,
        # and three base points and domains
        "distinct": C3NullCurve(
            rat([1, 2j], [3, -1], domain=disk()),
            rat([0.5, 0, 1], [1, 0, 4], base_point=0.25),
            rat([2, 1], [0, 1j, 0, 1], domain=punctured_disk())),
        # one denominator twice, and X3(0) = 0 over it
        "repeated": C3NullCurve(rat([1, 1], [-1, 1]), rat([0, 3j], [-1, 1]),
                                rat([0, 1, -0.5], [2, 1])),
        # constant denominators other than 1
        "constant": C3NullCurve(rat([1, 1j, 2], [3]), rat([0, -2], [0.5j]),
                                rat([1, 0, 1])),
        # a polynomial null curve through 0, so X3(0) = 0
        "through origin": random_c3_curve(np.random.default_rng(3)),
        # X1 - i X2 == 0
        "isotropic": C3NullCurve(rat([0, 1]), rat([0, -1j]), rat([1, 1], [2])),
    }


@pytest.mark.parametrize("name", sorted(_tee_inputs()))
def test_tee_curve_slots_times_x3_are_exact(name):
    X = _tee_inputs()[name]
    X1, X2, X3 = X.components()
    if name == "through origin":
        assert X3.evaluate(0) == 0 and X1.rep.den.degree == 0
    F = tee_curve(X)
    want = (1, X1 + 1j * X2, X1 - 1j * X2, X1 * X1 + X2 * X2 + X3 * X3)
    for slot, w in zip(F.slots(), want):
        assert (slot * X3 - w).is_identically_zero(0.0)
    for slot, old in zip(F.slots(), _tee_by_division(X)):
        assert (slot.base_point, slot.domain) == (old.base_point, old.domain)
        assert (slot - old).is_identically_zero(0.0)
    poles = set(X.pole_set) | {p for p, _ in X3.zeros()}
    assert F.pole_set == _sorted_points(poles)
    assert check_null_sl2(F, tol=0.0).unimodular


def test_tee_curve_on_windows_keeps_the_four_divisions():
    rng = np.random.default_rng(17)
    dom = annulus(0.5, 2.0)
    for mixed in (False, True, False, True):
        comps = [MeroFunction.from_laurent(
            int(rng.integers(-2, 2)),
            [complex(*rng.normal(size=2)) for _ in range(6)], domain=dom)
            for _ in range(3)]
        if mixed:
            comps[0] = MeroFunction.from_rational([1, 2j], [3, -1])
        X = C3NullCurve(*comps, pole_set=(0j,))
        F = tee_curve(X)
        for slot, old in zip(F.slots(), _tee_by_division(X)):
            assert slot.is_window and repr(slot.rep) == repr(old.rep)
            assert (slot.base_point, slot.domain) == (old.base_point,
                                                      old.domain)
        assert F.pole_set == (0j,)


def _pool_scalar(rng, height):
    """A Gaussian integer, a dyadic of 4 bits or a float, by height."""
    if height == "int":
        return complex(*(rng.integers(1, 5, size=2) * rng.choice((-1, 1), 2)))
    if height == "dyadic":
        return complex(*(rng.choice((9, 11, 13, 15), size=2)
                         * rng.choice((-1, 1), 2))) / 16
    return complex(*rng.uniform(-1.0, 1.0, size=2))


def _tee_pool_inputs(count=24, seed=20261019):
    """Seeded (X, lambda) pairs.  X integrates eta = c (z-p)^2a,
    f3 = (z-p)^max(a,0) P(z) with a = -1, 0, 1 in turn: from p + 1, with
    non-constant denominators (a = -1), or from 0, polynomial with
    X3(0) = 0.  Every fifth X1 moves by 1e-9 z^2 (null only at the larger
    tolerances) and every fifth other by X1 (z - 1) + 1 (not null); two
    curves have X' = 0 at 0 and one is flat."""
    rng = np.random.default_rng(seed)
    z = MeroFunction.from_poly([0, 1])
    out = []
    for i in range(count):
        a = i % 3 - 1
        height = ("int", "dyadic", "float")[i // 3 % 3]
        c, p, lam = (_pool_scalar(rng, height) for _ in range(3))
        poly = [_pool_scalar(rng, height) for _ in range(2 + i % 2)]
        lin = MeroFunction.from_poly([-p, 1])
        eta = {1: lin * lin * c, 0: MeroFunction.constant(c),
               -1: c / (lin * lin)}[a]
        f3 = MeroFunction.from_poly(poly) * (lin if a > 0 else 1)
        X = integrate_null(from_spinor(SpinorData(eta, f3)),
                           base_point=p + 1.0 if a < 0 else 0j)
        if i % 5 == 1:
            X = C3NullCurve(X.X1 + 1e-9 * z * z, X.X2, X.X3, X.pole_set)
        elif i % 5 == 3:
            X = C3NullCurve(X.X1 * z + 1, X.X2, X.X3, X.pole_set)
        out.append((X, lam))
    z2 = MeroFunction.from_poly([0, 0, 1])
    for P in ([1, 2j], [0.5, -0.25, 1j]):
        X = integrate_null(from_spinor(SpinorData(
            z2, z2 * MeroFunction.from_poly(P))), base_point=1)
        out.append((X, 0.5 - 0.75j))
    h = MeroFunction.from_poly([1, -2, 3j])
    X = integrate_null(from_spinor(SpinorData(h * 2, h * 1j)),
                       base_point=0.5, value=(0, 0, 1))
    out.append((X, 1.5j))
    return out


def _tee_pool():
    """Seeded (tee_curve(X), lambda) pairs over ``_tee_pool_inputs``."""
    return [(tee_curve(X), lam) for X, lam in _tee_pool_inputs()]


def test_tee_curve_slots_share_one_denominator():
    # one stored Poly Q for the four slots, and a shear keeps one: where
    # Q(0) != 0 it is Q and the slots are those of MeroFunction arithmetic
    # F_t + lambda F_s; where Q(0) = 0 a common power of z may leave Q and
    # the four numerators at once
    pool = _tee_pool()
    at_zero = 0
    for F, lam in pool:
        dens = {s.rep.den for s in F.slots()}
        assert len(dens) == 1
        (Q,) = dens
        lam_f = MeroFunction.constant(lam, F.F1.base_point)
        for kind in SHEAR_KINDS:
            G = shear(F, lam, kind)
            assert len({s.rep.den for s in G.slots()}) == 1
            if Q.low_order():
                continue
            assert G.F1.rep.den == Q
            slots = F.slots()
            expected = list(slots)
            for target, source in _SHEAR_RECIPES[kind]:
                expected[target] = slots[target] + lam_f * slots[source]
            assert G.slots() == tuple(expected)
        at_zero += bool(Q.low_order())
    assert 10 <= at_zero <= len(pool) - 10
    for X in _tee_inputs().values():
        assert len({s.rep.den for s in tee_curve(X).slots()}) == 1


def _construct_poles_inputs(seed=2501):
    """(X, lambda) pairs by the a = -1 recipe of the construct benchmark's
    curve ops (``perfbench/workloads.py::_curve_op``): eta = c/(z - p)^2,
    f3 = P(z) of degree 1 and 3, integrated from p + 1, at integer, dyadic
    and float heights.  X has the denominator z - p."""
    rng = np.random.default_rng(seed)
    out = []
    for height in ("int", "dyadic", "float"):
        for degree in (1, 3):
            c, p, lam = (_pool_scalar(rng, height) for _ in range(3))
            P = [_pool_scalar(rng, height) for _ in range(degree + 1)]
            lin = MeroFunction.from_poly([-p, 1])
            X = integrate_null(from_spinor(SpinorData(
                c / (lin * lin), MeroFunction.from_poly(P))),
                base_point=p + 1.0)
            out.append((X, lam))
    return out


def _unreduced_tee(X):
    """tee_curve's five products before the common factor D is dropped:
    Q = D N3 and D**2, D (N1 + i N2), D (N1 - i N2), N1**2 + N2**2 + N3**2,
    for X = (N1, N2, N3)/D; and D."""
    (N1, N2, N3), D = _common_denominator(X.components())
    iN2 = N2.scale(1j)
    return (D * N3, D * D, D * (N1 + iN2), D * (N1 - iN2),
            N1 * N1 + N2 * N2 + N3 * N3), D


def _reduced(inputs):
    """(X, lambda, D) for the inputs whose D is not constant and divides
    N1**2 + N2**2 + N3**2."""
    out = []
    for X, lam in inputs:
        (*_, top), D = _unreduced_tee(X)
        if D.degree > 0 and top.divmod(D)[1].is_zero():
            out.append((X, lam, D))
    return out


def test_tee_curve_drops_the_common_factor_of_its_slots():
    # the stored slots equal the five products over D N3 (cross-multiplied),
    # and where D divides N1**2 + N2**2 + N3**2 the stored numerators and Q
    # are coprime: a gcd modulo one prime certifies it
    construct = _construct_poles_inputs()
    inputs = construct + _tee_pool_inputs()
    reduced = {id(X) for X, _, _ in _reduced(inputs)}
    assert reduced >= {id(X) for X, _ in construct}
    assert len(construct) < len(reduced) < len(inputs)
    for X, _ in inputs:
        (Q, *nums) = _one_denominator(tee_curve(X).slots())
        (Q0, *nums0), _ = _unreduced_tee(X)
        for n, n0 in zip(nums, nums0):
            assert n * Q0 == n0 * Q
        if id(X) in reduced:
            assert Q.degree < Q0.degree
            assert _coprime_mod_p([Q, *nums])


def test_reduced_tee_curves_and_their_shears_find_no_root(monkeypatch):
    # with D gone the slot derivatives' numerators are coprime, so the
    # immersion test is decided by the modular certificate alone
    inputs = _reduced(_construct_poles_inputs() + _tee_pool_inputs())
    calls = []
    real = series._clustered_roots
    monkeypatch.setattr(series, "_clustered_roots",
                        lambda poly: calls.append(poly) or real(poly))
    for X, lam, _ in inputs:
        F = tee_curve(X)
        for G in (F, *(shear(F, lam, kind) for kind in SHEAR_KINDS)):
            rep = check_null_sl2(G, tol=0.0)
            assert rep.unimodular and rep.immersion
    assert calls == []


def test_reduced_tee_curve_has_no_common_factor_by_sympy():
    # sympy over Q(i): the five unreduced products have gcd D, the
    # stored numerators and Q have gcd 1
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")

    def to_sym(p):
        def part(v):
            return sp.Rational(v.numerator, v.denominator)
        return sp.Poly([part(c.re) + sp.I * part(c.im)
                        for c in reversed(p.coeffs)], x, domain=sp.QQ_I)

    def gcd(polys):
        g = to_sym(polys[0])
        for p in polys[1:]:
            g = sp.gcd(g, to_sym(p))
        return g.monic()

    picked = _reduced(_construct_poles_inputs() + _tee_pool_inputs())
    for X, _, D in (picked[0], picked[3], picked[-1]):
        unreduced, _ = _unreduced_tee(X)
        assert gcd(unreduced) == to_sym(D).monic()
        assert gcd(_one_denominator(tee_curve(X).slots())).degree() == 0


#: sha256 of the check_null_sl2 reports at four tolerances of the 27
#: curves of _tee_pool, plain and under each shear kind, recorded when
#: tee_curve stored each slot over its own denominator
_TEE_REPORTS_SHA = \
    "dc478cf5d51a5c1b222ac527638a93546dc7015d0d944ad7c9d5314c9d1e1df6"


def test_tee_reports_digest_is_pinned():
    lines = []
    for F, lam in _tee_pool():
        for kind in (None,) + SHEAR_KINDS:
            G = F if kind is None else shear(F, lam, kind)
            lines.append([check_null_sl2(G, tol=t).as_dict()
                          for t in (0.0, 1e-12, 1e-8, 1e-4)])
    text = json.dumps(lines, sort_keys=True)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == \
        _TEE_REPORTS_SHA


def _over_one_denominator(nums, Q):
    """The curve (N1, N2, N3, N4)/Q with every slot stored over Q."""
    return SL2NullCurve(*(MeroFunction(Rational(n, Q)) for n in nums))


def _one_denominator_curves():
    """Curves whose four slots share one stored denominator: every
    _tee_pool curve, plain and under each shear kind (Q(0) = 0 on some);
    each with one numerator scaled (not unimodular); and (1, z, z, 1 + z^2)
    Q/Q, unimodular with det F' = -1, over Q with Q(0) != 0, Q(0) = 0 and
    constant Q, with their shears."""
    curves = []
    for F, lam in _tee_pool():
        curves.append(F)
        curves.extend(shear(F, lam, kind) for kind in SHEAR_KINDS)
        Q, N1, *rest = _one_denominator(F.slots())
        curves.append(_over_one_denominator([N1.scale(1 + 1j), *rest], Q))
    for Q in (Poly([1, 2j, 3]), Poly([0, 1, 1 - 1j]), Poly([0.5 + 2j])):
        nums = [Poly([1]) * Q, Poly([0, 1]) * Q, Poly([0, 1]) * Q,
                Poly([1, 0, 1]) * Q]
        F = _over_one_denominator(nums, Q)
        curves.append(F)
        curves.extend(shear(F, 0.75 - 0.5j, kind) for kind in SHEAR_KINDS)
    return curves


def test_one_denominator_verdicts_equal_the_general_path():
    # over Q the exact decision reads the numerators: unimodular is
    # N1 N4 - N2 N3 == Q^2 and null N1' N4' - N2' N3' == Q'^2; det F - 1
    # and det F' over Q^4, built on a fresh copy, must give the same
    # verdicts at every tol, and F' must be the per-slot derivative
    outcomes, dens = set(), []
    for G in _one_denominator_curves():
        Q = _one_denominator(G.slots())[0]
        for tol in (0.0, 1e-12, 1e-8, 1e-4):
            rep = check_null_sl2(G, tol=tol)
            fresh = SL2NullCurve(*G.slots())
            assert rep.unimodular == \
                (fresh.det() - 1).is_identically_zero(tol)
            assert rep.null == fresh._det_derivative.is_identically_zero(tol)
            if tol == 0.0:
                outcomes.add((rep.unimodular, rep.null))
        assert G._derivative == tuple(s.differentiate() for s in G.slots())
        dens.append(Q)
    assert outcomes == {(True, True), (True, False), (False, False)}
    # constant Q, and non-constant Q with Q(0) = 0 and with Q(0) != 0
    assert {(Q.degree > 0, Q.low_order() > 0) for Q in dens} == \
        {(False, False), (True, True), (True, False)}


def _window_curve():
    """end_model(2) with each slot read as a window on an annulus."""
    return SL2NullCurve(*(s.to_laurent(terms=25, domain=annulus(0.5, 2.0))
                          for s in end_model(2).slots()))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
def test_one_denominator_check_rejects_a_non_finite_tol(tol):
    # over one denominator, on an end model (four denominators) and on
    # windows alike: NaN > 0 is False, so no verdict may read it as tol 0
    F, _ = _tee_pool()[0]
    for C in (F, end_model(2), _window_curve()):
        with pytest.raises(ValueError):
            check_null_sl2(C, tol)


def _unimodular_null_curves():
    """The _one_denominator_curves() that hold det F == 1 and det F' == 0,
    each fresh."""
    return [G for G in _one_denominator_curves()
            if SL2NullCurve(*G.slots())._det_identities == (True, True)]


def test_default_tol_check_builds_no_det_where_both_identities_hold():
    # an exactly zero numerator passes the zero test at every tol, so the
    # decision settles both verdicts and neither det F nor det F' is built
    curves = _unimodular_null_curves()
    assert len(curves) == 85
    for G in curves:
        rep = check_null_sl2(G)
        assert rep.unimodular and rep.null
        assert not {"_det", "_det_derivative"} & vars(G).keys()


@pytest.mark.parametrize("p", [0j, 0.5 - 0.25j])
def test_recentred_curve_takes_the_decision_and_builds_no_det_derivative(p):
    # after check_null_sl2(F, 0) the recentred curve G(w) = F(w + p)
    # carries F's decision, so secondary_gauss of G reads det F' == 0
    # from it and builds no det F'
    for F in _unimodular_null_curves():
        check_null_sl2(F, tol=0.0)
        G = invariants._recentred(F, p)
        assert vars(G)["_det_identities"] == (True, True)
        secondary_gauss(G)
        assert "_det_derivative" not in vars(G)


_HANDED_OVER = ("_det_identities", "_exact_report")


def _handover_curves():
    """(curve, lambda): every _tee_pool curve and end models m = 1..8 at 0
    and at a dyadic centre, each plain and under one shear; all
    unchecked."""
    out = []
    for i, (F, lam) in enumerate(_tee_pool()):
        out.append((F, lam))
        out.append((shear(F, 1 - 0.5j, SHEAR_KINDS[i % 4]), lam))
    for m in range(1, 9):
        for c in (0j, 0.5 - 0.25j):
            F = end_model(m, c)
            out.append((F, 1.5 + 0.5j))
            out.append((shear(F, 0.75j, SHEAR_KINDS[m % 4]), -1 + 0.25j))
    return out


def test_shear_hands_over_the_exact_decision_and_report():
    # G = S F and G' = S F' with det S = 1 keep det F, det F', the common
    # zeros of F' and whether F' spans a fixed direction: after
    # check_null_sl2(F, 0) every shear carries F's decision and tol-0
    # report, and its verdicts at each tol are those of a fresh copy of
    # G, which decides everything on its own slots; before it, a shear
    # takes nothing and checks its own arithmetic
    curves = _handover_curves()
    assert len(curves) == 27 * 2 + 16 * 2
    for F, lam in curves:
        unchecked = shear(F, lam, SHEAR_KINDS[0])
        assert not set(_HANDED_OVER) & vars(unchecked).keys()
        report = check_null_sl2(F, tol=0.0)
        assert vars(F)["_exact_report"] is report
        for kind in SHEAR_KINDS:
            G = shear(F, lam, kind)
            for name in _HANDED_OVER:
                assert vars(G)[name] is vars(F)[name]
            fresh = SL2NullCurve(*G.slots(), G.pole_set, G.singular_set)
            assert not set(_HANDED_OVER) & vars(fresh).keys()
            for tol in (0.0, 1e-12, 1e-8, 1e-4):
                assert check_null_sl2(G, tol) == check_null_sl2(fresh, tol)


def test_shear_of_a_window_curve_hands_nothing_over():
    F = _window_curve()
    check_null_sl2(F, tol=0.0)
    for kind in SHEAR_KINDS:
        assert not set(_HANDED_OVER) & vars(shear(F, 0.5, kind)).keys()


def _ratio_varies_at_x(c, ref) -> bool:
    """Whether the numerator of (c/ref)' has a nonzero image at ``_X``
    modulo ``_P``, for rational c = a/u and ref = b/v: N'D - ND' with
    N = a v and D = b u, from one jet of each of the four."""
    (a0, a1, _), (u0, u1, _), (b0, b1, _), (v0, v1, _) = (
        _jet_mod_p(f) for f in (c.rep.num, c.rep.den, ref.rep.num,
                                ref.rep.den))
    n0, n1 = a0 * v0, a1 * v0 + a0 * v1
    d0, d1 = b0 * u0, b1 * u0 + b0 * u1
    return (n1 * d0 - n0 * d1) % _P != 0


def _derivative_certificates_certify(G) -> bool:
    """Whether the two modular certificates read on F' certify, on a copy
    of G: ``_coprime_mod_p`` on the nonzero slot derivatives' numerators
    (immersion), and a nonzero image of the numerator of (c/ref)' at one
    residue for one of them against the reference of ``is_flat``
    (nonflatness)."""
    d = [f for f in SL2NullCurve(*G.slots())._derivative
         if not f.is_identically_zero(0.0)]
    ref, *rest = sorted(d, key=lambda f: f.rep.num.degree + f.rep.den.degree)
    return (_coprime_mod_p([f.rep.num for f in d])
            and any(_ratio_varies_at_x(c, ref) for c in rest))


def test_tee_curve_check_differentiates_no_slot_and_builds_no_det_derivative(
        monkeypatch):
    # the null verdict reads the numerators, so det F' is never built;
    # wherever the certificates on F' would certify, the residues of N_k
    # and Q certify too, and F' is not built, so no slot is differentiated.
    # is_flat differentiates a quotient only where the nonflat certificate
    # declines, which happens on the flat curve alone
    calls = []
    real_differentiate = MeroFunction.differentiate

    def counted(self):
        calls.append(self)
        return real_differentiate(self)

    monkeypatch.setattr(MeroFunction, "differentiate", counted)
    certified = 0
    for F, lam in _tee_pool():
        for G in (F, *(shear(F, lam, kind) for kind in SHEAR_KINDS)):
            certifies = _derivative_certificates_certify(G)
            calls.clear()
            rep = check_null_sl2(G, tol=0.0)
            assert "_det_derivative" not in vars(G)
            slot_calls = [f for f in calls if any(f is s for s in G.slots())]
            assert len(slot_calls) == len(calls) or not rep.nonflat
            if certifies:
                assert slot_calls == []
                assert "_derivative" not in vars(G)
            certified += certifies
    # every curve but pool inputs 3 and 18 (immersed, with a factor shared
    # by the numerators of F'), 24 and 25 (X' = 0 at 0) and 26 (flat),
    # each plain and under the four shears
    assert certified == 5 * 22


def test_residue_certificates_give_the_verdicts_of_the_derivative_path():
    # at tol 0 a curve over one denominator decides immersion and
    # nonflatness from residues of N_k and Q; F' decides them alike
    for G in _one_denominator_curves():
        rep = check_null_sl2(G, tol=0.0)
        d = G._derivative
        assert rep.immersion == (not _has_common_zero(d, G.singular_set, 0))
        assert rep.nonflat == (not is_flat(d, 0))
        slots = [(f.rep.num, f.rep.den) for f in G.slots()]
        if _derivatives_coprime_mod_p(slots):
            assert rep.immersion
        if _derivatives_vary_mod_p(slots):
            assert rep.nonflat


def test_derivative_numerators_with_a_common_factor_read_f_prime(
        monkeypatch):
    # pool inputs 3 and 18 (X1 z + 1) are immersed, but the numerators of
    # F' share a linear factor: the residue certificate declines, and F'
    # is built and goes straight to the exact gcd, with no second slot
    # certificate; inside the gcds, Euclid over Q(i) runs only on a pair
    # whose modular certificate declines
    gcds, slot_certs, divisions, euclids = [], [], [], []
    real = spinor._common_zero_poly
    monkeypatch.setattr(spinor, "_common_zero_poly",
                        lambda fns: gcds.append(fns) or real(fns))
    real_cert = spinor._derivatives_coprime_mod_p
    monkeypatch.setattr(spinor, "_derivatives_coprime_mod_p",
                        lambda slots: slot_certs.append(slots)
                        or real_cert(slots))
    real_divmod = Poly.divmod
    monkeypatch.setattr(Poly, "divmod", lambda a, b: divisions.append(1)
                        or real_divmod(a, b))

    def gcd(a, b):
        before = len(divisions)
        g = exact.poly_gcd(a, b)
        if len(divisions) > before:
            euclids.append(_coprime_mod_p([a, b]))
        return g

    for module in (spinor, series):
        monkeypatch.setattr(module, "poly_gcd", gcd)
    pool = _tee_pool()
    for F, lam in (pool[3], pool[18]):
        for G in (F, *(shear(F, lam, kind) for kind in SHEAR_KINDS)):
            slots = [(f.rep.num, f.rep.den) for f in G.slots()]
            assert not _derivatives_coprime_mod_p(slots)
            gcds.clear()
            slot_certs.clear()
            euclids.clear()
            rep = check_null_sl2(G, tol=0.0)
            assert rep.unimodular and rep.immersion and rep.nonflat
            assert "_derivative" in vars(G)
            assert len(gcds) == 1
            assert len(slot_certs) == 1
            assert euclids and not any(euclids)
            assert not _coprime_mod_p([d.rep.num for d in G._derivative])


def _construct_curves(monkeypatch):
    """The X curves that one round of construct curve ops (seed 7) pass
    to ``tee_curve``: a = -1, 0 and 1 at three heights, P of degree 1
    and 3."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import nullsl2
    import workloads
    monkeypatch.setitem(workloads.CYCLES, "construct",
                        workloads.ROUND["construct"])
    seen, real = [], nullsl2.tee_curve
    monkeypatch.setattr(nullsl2, "tee_curve",
                        lambda X: seen.append(X) or real(X))
    for op in workloads.construct_ops(7):
        op.run()
    monkeypatch.setattr(nullsl2, "tee_curve", real)
    return seen


def test_end_models_and_construct_curves_build_no_gcd_and_no_quotient(
        monkeypatch):
    # end models (a denominator per slot) at 0 and at a dyadic centre,
    # plain and sheared, and the construct X curves: at tol 0 the two
    # certificates on the stored slots decide immersion and nonflatness,
    # so no common-zero gcd and no is_flat quotient is built
    curves = _construct_curves(monkeypatch)
    assert len(curves) == 18
    calls = []
    monkeypatch.setattr(spinor, "_common_zero_poly",
                        lambda fns: calls.append(fns))
    for module in (spinor, sl2curve):
        monkeypatch.setattr(module, "is_flat",
                            lambda *args: calls.append(args))
    for X in curves:
        rep = check_null_c3(X, 0)
        assert rep.null and rep.immersion and not rep.flat
    for m in range(1, 9):
        for center in (0j, 0.5 + 0.25j):
            base = end_model(m, center)
            for kind in (None,) + SHEAR_KINDS:
                F = base if kind is None else shear(base, 0.75 - 0.5j, kind)
                assert _one_denominator(F.slots()) is None
                rep = check_null_sl2(F, 0)
                assert rep.unimodular and rep.null
                assert rep.immersion and rep.nonflat
    assert calls == []


def test_verdict_digest_script_records_every_check_and_classification(
        monkeypatch):
    # one construct cycle (three curve ops, each lifting a C^3 curve and
    # checking the lift and its shear), one ends cycle (35 ops, each one
    # check and one classification, whose curve is read again at four
    # tols) and one spray cycle (24 periods, each with the pole list of
    # its integrand, 6 solves and 2 window verdicts), with the pools'
    # namespace restored afterwards
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import nullsl2
    import workloads
    monkeypatch.setitem(workloads.CYCLES, "construct", 1)
    monkeypatch.setitem(workloads.CYCLES, "ends", 1)
    monkeypatch.setitem(workloads.CYCLES, "spray", 1)
    script = runpy.run_path(str(root / "scripts" / "verdict_digest.py"))
    patched = ("check_null_sl2", "classify_end", "tee_curve", "period")
    real = [getattr(nullsl2, name) for name in patched]
    recs = script["records"](5, nullsl2, workloads)
    assert [getattr(nullsl2, name) for name in patched] == real
    assert Counter(r[0] for r in recs) == {"check_null_sl2": 6 + 35,
                                          "check_null_c3": 3,
                                          "classify_end": 35,
                                          "end_readings": 35,
                                          "period_poles": 24,
                                          "spray": 24 + 6 + 2}
    spray = [r[1:] for r in recs if r[0] == "spray"]
    assert [kind.split(".")[1] for kind, _ in spray] == \
        ["period"] * 24 + ["solve"] * 6 + ["window_nullity"] * 2
    assert all(complex(v) == complex(v) for _, v in spray[:24])
    assert all(v["converged"] for _, v in spray[24:30])
    assert all(v is True for _, v in spray[30:])
    assert all(r[1].startswith("[(") for r in recs if r[0] == "period_poles")
    reports = [r[1] for r in recs if r[0] == "classify_end"]
    readings = [r[1] for r in recs if r[0] == "end_readings"]
    for rep, reads in zip(reports, readings):
        assert len(reads) == 4 and all(len(r) == 3 for r in reads)
        # every ends curve is an end at each tol, read as the op reads it
        for end, mult, mc in reads:
            assert end == rep
            assert mult == rep["multiplicity"]
            assert mc == rep["min_maurer_cartan_ord"]
    checks = [r[1] for r in recs if r[0] == "check_null_sl2"]
    assert all(len(reps) == 4 and reps[0]["unimodular"] and reps[0]["null"]
               for reps in checks)
    lifts = [r[1] for r in recs if r[0] == "check_null_c3"]
    assert all(len(reps) == 4 and reps[0]["null"] and reps[0]["immersion"]
               for reps in lifts)


# ---------------------------------------------------------------------------
# shears
# ---------------------------------------------------------------------------


def test_shear_matrix_matches_shear_action(rng):
    F = end_model(2)
    z = 0.7 - 0.4j
    for kind in SHEAR_KINDS:
        lam = complex(rng.normal(), rng.normal())
        S = shear_matrix(lam, kind)
        Fs = shear(F, lam, kind)
        v = np.array([s.evaluate(z) for s in F.slots()])
        w = np.array([s.evaluate(z) for s in Fs.slots()])
        assert np.abs(S @ v - w).max() < 1e-12 * max(1, np.abs(v).max())


def test_shear_preserves_structure_exactly():
    F = end_model(3)
    for kind in SHEAR_KINDS:
        Fs = shear(F, 2 - 1j, kind)
        rep = check_null_sl2(Fs, tol=0.0)
        assert rep.unimodular and rep.null
        assert Fs.pole_set == F.pole_set


def test_shear_inverse_round_trip():
    F = end_model(2)
    lam = 0.5 + 2j
    for kind in SHEAR_KINDS:
        back = shear(shear(F, lam, kind), -lam, kind)
        for a, b in zip(back.slots(), F.slots()):
            assert (a - b).is_identically_zero(0.0)


def test_shear_unknown_kind_rejected():
    with pytest.raises(ValueError):
        shear(end_model(1), 1.0, "row1+col2")


def test_shear_operator_norm_bounds_differences(rng):
    F = end_model(1)
    lam = 1.5 + 0.5j
    kind = "col1+col2"
    S = shear_matrix(lam, kind)
    ns = shear_operator_norm(lam, kind)
    ninv = float(np.linalg.svd(np.linalg.inv(S), compute_uv=False)[0])
    Fs = shear(F, lam, kind)
    for _ in range(200):
        p = 0.3 + rng.uniform(0.2, 1.5) * np.exp(2j * np.pi * rng.uniform())
        q = 0.3 + rng.uniform(0.2, 1.5) * np.exp(2j * np.pi * rng.uniform())
        v = np.array([s.evaluate(p) - s.evaluate(q) for s in F.slots()])
        w = np.array([s.evaluate(p) - s.evaluate(q) for s in Fs.slots()])
        nv, nw = np.linalg.norm(v), np.linalg.norm(w)
        assert nw <= ns * nv + 1e-9
        assert nv <= ninv * nw + 1e-9


# ---------------------------------------------------------------------------
# end models
# ---------------------------------------------------------------------------


def test_end_model_m2_matches_documented_slots():
    F = end_model(2)
    z = 0.83 - 0.29j
    expected = (1 / z, -z ** 3 / 4, -1 / (2 * z ** 3), 9 * z / 8)
    for s, e in zip(F.slots(), expected):
        assert abs(s.evaluate(z) - e) < 1e-14


def test_end_model_m1_first_slot_is_inverse_square():
    F = end_model(1)
    assert F.F1.ord(0) == -2
    assert abs(F.F1.evaluate(2.0) - 0.25) < 1e-15


def test_end_model_structure_exact():
    for m in range(1, 9):
        F = end_model(m)
        rep = check_null_sl2(F, tol=0.0)
        assert rep.unimodular and rep.null
        assert F.pole_set == (0j,)


def test_end_model_recentering():
    c = 1.5 - 0.5j
    F = end_model(2, center=c)
    G = end_model(2)
    for s, t in zip(F.slots(), G.slots()):
        assert abs(s.evaluate(c + 0.3) - t.evaluate(0.3)) < 1e-12
    assert F.pole_set == (c,)
    rep = check_null_sl2(F, tol=0.0)
    assert rep.unimodular and rep.null


#: sha256 of the check_null_sl2 reports at four tolerances and the
#: classify_end report of 120 end models (m = 1..8 at three centres, plain
#: and under each shear kind), recorded when sums and quotients were still
#: cross-multiplied over D**2: a shared denominator changes no verdict
_END_REPORTS_SHA = \
    "8204937d183e1ff56d606054bfe782ebc5b3fb655be19c2839b554f8f6551804"


def test_end_reports_digest_is_pinned():
    lines = []
    for m in range(1, 9):
        for center in (0j, 0.5 + 0.25j, 0.3137 + 0.2719j):
            base = end_model(m, center)
            for kind in (None,) + SHEAR_KINDS:
                F = base if kind is None else shear(base, 0.5 + 0.25j, kind)
                lines.append([check_null_sl2(F, tol=t).as_dict()
                              for t in (0.0, 1e-12, 1e-8, 1e-4)]
                             + [classify_end(F, center).as_dict()])
    text = json.dumps(lines, sort_keys=True)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == \
        _END_REPORTS_SHA


def test_end_model_invalid_multiplicity():
    for bad in (0, -1, 1.5, True):
        with pytest.raises(InvalidMultiplicity):
            end_model(bad)


# ---------------------------------------------------------------------------
# auxiliary rotations
# ---------------------------------------------------------------------------


def test_aux_rotations_structure_and_min_ord():
    F = end_model(1)
    rots = aux_rotations(F)
    assert len(rots) == 3
    min_ord = min(s.ord(0) for s in F.slots())
    for R in rots:
        rep = check_null_sl2(R, tol=0.0)
        assert rep.unimodular and rep.null
        assert min(s.ord(0) for s in R.slots()) == min_ord


def test_aux_rotation_brings_min_order_slot_front():
    F = end_model(2)   # slot orders: (-1, 3, -3, 1); min is F3's -3
    rots = aux_rotations(F)
    fronted = [R for R in rots if R.F1.ord(0) == -3]
    assert fronted, "some rotation must place the minimal-order slot first"


def test_derivative_memo_is_per_curve():
    F = end_model(3, 0.5 + 0.25j)
    before = json.dumps(sl2_to_dict(F), sort_keys=True)
    rep, key = repr(F), hash(F)
    check_null_sl2(F, tol=0.0)
    assert F._omega is F._omega   # computed once, then shared
    memo = {"_derivative", "_det_derivative", "_omega"}
    assert memo <= set(vars(F))
    same = SL2NullCurve(*F.slots(), F.pole_set, F.singular_set)
    others = [same, dataclasses.replace(F, singular_set=(1j,))]
    others += [shear(F, 0.5, kind) for kind in SHEAR_KINDS]
    others += aux_rotations(F)
    for G in others:
        assert not memo & set(vars(G))
    assert same == F and hash(same) == key and repr(F) == rep
    assert json.dumps(sl2_to_dict(F), sort_keys=True) == before


def test_rotations_of_identity_are_unimodular_constants():
    for R in aux_rotations(identity_curve()):
        rep = check_null_sl2(R, tol=0.0)
        assert rep.unimodular
        det = R.det()
        assert (det - 1).is_identically_zero(0.0)


def test_immersion_ignores_a_common_zero_in_the_singular_set_only():
    # F = tee(z^2, i z^2, 1) = (1, 0, 2z^2, 1): F' = (0, 0, 4z, 0) vanishes
    # at 0, a common zero unless the singular set lists it.  A pole set
    # that lists 0, where no slot has a pole, changes nothing: the
    # immersion test does not read it
    one = MeroFunction.constant(1)
    slots = (one, MeroFunction.zero(), MeroFunction.from_poly([0, 0, 2]), one)
    for sets in ((), ((0j,), ())):
        rep = check_null_sl2(SL2NullCurve(*slots, *sets), tol=0.0)
        assert rep.unimodular and rep.null and rep.immersion is False
    rep = check_null_sl2(SL2NullCurve(*slots, (), (0j,)), tol=0.0)
    assert rep.unimodular and rep.null and rep.immersion


def test_end_model_1_reparametrised_by_u_is_not_immersed():
    # u = z^2 - 2 in end_model(1), exact thirds: (1/u^2, -4u/3, 1/u,
    # -u^2/3).  Every slot derivative carries u' = 2z, so the numerators
    # share z, the modular certificate declines and the numeric path
    # finds the common zero at 0
    u = MeroFunction.from_poly([-2, 0, 1])
    one = MeroFunction.constant(1)
    a, b = (MeroFunction.constant(Fraction(k, 3)) for k in (-4, -1))
    G = SL2NullCurve(one / (u * u), a * u, one / u, b * u * u)
    assert not _coprime_mod_p([d.rep.num for d in G._derivative])
    rep = check_null_sl2(G, tol=0.0)
    assert rep.unimodular and rep.null and not rep.immersion


def test_validity_at_tol_zero_sees_a_perturbation_below_the_float_range():
    # F4 + 2**-1100 z: det F = 1 + 2**-1100 z F1 and det F' != 0, but
    # every numerator coefficient of det F - 1 rounds to 0.0 in floats
    F = end_model(2)
    tiny = MeroFunction.from_poly([0, Fraction(1, 2 ** 1100)])
    H = dataclasses.replace(F, F4=F.F4 + tiny)
    assert set((H.det() - 1).rep.num.float_coeffs()) == {0j}
    rep = check_null_sl2(H, 0)
    assert not rep.unimodular and not rep.null
    assert check_null_sl2(F, 0).unimodular and check_null_sl2(F, 0).null


# ---------------------------------------------------------------------------
# norm pushing
# ---------------------------------------------------------------------------


def _circle(radius, n=256):
    return [radius * cmath.exp(2j * cmath.pi * k / n) for k in range(n)]


def _verified_margin(curve, fixed_slot, samples):
    others = [j for j in range(4) if j != fixed_slot - 1]
    worst = float("inf")
    for p in samples:
        worst = min(worst,
                    max(abs(curve.slots()[j].evaluate(p)) for j in others))
    return worst


def test_push_norm_identity_delta_5():
    lam, Fhat = push_norm(identity_curve(), 1, 5.0, _circle(1.0, 16))
    assert (Fhat.F1 - 1).is_identically_zero(0.0)  # fixed slot untouched
    assert _verified_margin(Fhat, 1, _circle(1.0, 16)) > 5.0
    # lambda = 6 is a documented witness: check it directly
    direct = shear(identity_curve(), 6.0, "row2+row1")
    assert _verified_margin(direct, 1, _circle(1.0, 16)) == 6.0


def test_push_norm_identity_small_delta_first_draw():
    lam, Fhat = push_norm(identity_curve(), 1, 0.5, _circle(1.0, 16))
    # |F4| = 1 > 0.5 already, so the first unit-modulus draw is accepted
    assert abs(abs(lam) - 1.0) < 1e-12
    assert _verified_margin(Fhat, 1, _circle(1.0, 16)) > 0.5


def test_push_norm_end_model_on_half_circle():
    K = _circle(0.5, 256)
    lam, Fhat = push_norm(end_model(1), 1, 10.0, K)
    assert (Fhat.F1 - end_model(1).F1).is_identically_zero(0.0)
    assert _verified_margin(Fhat, 1, K) > 10.0
    # grid-search witness: lambda = 10 already clears the bar
    direct = shear(end_model(1), 10.0, "row2+row1")
    assert _verified_margin(direct, 1, K) > 10.0


def test_push_norm_all_fixed_slots(rng):
    K = _circle(0.5, 32)
    for slot in (1, 2, 3, 4):
        lam, Fhat = push_norm(end_model(1), slot, 2.0, K)
        orig = end_model(1).slots()[slot - 1]
        assert (Fhat.slots()[slot - 1] - orig).is_identically_zero(0.0)
        assert _verified_margin(Fhat, slot, K) > 2.0


def test_push_norm_budget_exhaustion_reports_best():
    # the zero target is unreachable: three constant-zero other slots
    zero = MeroFunction.zero()
    one = MeroFunction.constant(1)
    F = SL2NullCurve(one, zero, zero, one)
    with pytest.raises(SearchFailed) as exc:
        push_norm(F, 4, 1e6, [0.0], budget=4)
    assert exc.value.best_lambda is not None


# ---------------------------------------------------------------------------
# circle norms
# ---------------------------------------------------------------------------


def test_min_sup_norm_identity_is_one():
    assert abs(min_sup_norm_on_circle(identity_curve(), 1.0) - 1.0) < 1e-12
    assert abs(min_sup_norm_on_circle(identity_curve(), 0.1) - 1.0) < 1e-12


def test_min_sup_norm_end_model_half_radius():
    # |z^-2| = 4 dominates every other slot on |z| = 1/2
    val = min_sup_norm_on_circle(end_model(1), 0.5)
    assert abs(val - 4.0) < 1e-12


def test_min_sup_norm_increases_toward_pole():
    vals = [min_sup_norm_on_circle(end_model(1), 2.0 ** -k)
            for k in range(1, 9)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_min_sup_norm_pole_on_contour():
    F = end_model(1, center=0.5)
    with pytest.raises(PoleOnContour):
        min_sup_norm_on_circle(F, 0.5)


@pytest.mark.parametrize("n", [0, -3])
def test_min_sup_norm_rejects_empty_sampling(n):
    with pytest.raises(ValueError):
        min_sup_norm_on_circle(end_model(1), 0.5, n_samples=n)


class _UndeclaredPole:
    """Slots with a pole at 0.5 that no pole set declares."""

    pole_set = singular_set = ()

    def slots(self):
        return (MeroFunction.from_poly([1, 1j]),
                MeroFunction.from_rational([1], [-0.5, 1]))


def test_min_sup_norm_pole_on_sampled_point():
    # sample k = 0 of every circle is center + radius exactly
    with pytest.raises(PoleOnContour):
        min_sup_norm_on_circle(_UndeclaredPole(), 0.25, n_samples=5,
                               center=0.25)
    assert min_sup_norm_on_circle(_UndeclaredPole(), 0.25, n_samples=5,
                                  center=0.75j) > 0
