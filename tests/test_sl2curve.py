"""SL(2,C) null curves: the quadratic transform, shears, end models,
rotations, and norm pushing."""

import cmath
import dataclasses
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    check_null_sl2,
    classify_end,
    disk,
    end_model,
    from_spinor,
    integrate_null,
    min_sup_norm_on_circle,
    punctured_disk,
    push_norm,
    shear,
    shear_matrix,
    shear_operator_norm,
    tee,
    tee_curve,
    tee_inv,
    tee_inv_curve,
)
from nullsl2.exact import _coprime_mod_p
from nullsl2.serialize import sl2_to_dict
from nullsl2.spinor import _sorted_points

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


def _tee_pool(count=24, seed=20261019):
    """Seeded (tee_curve(X), lambda) pairs.  X integrates eta = c (z-p)^2a,
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
        out.append((tee_curve(X), lam))
    z2 = MeroFunction.from_poly([0, 0, 1])
    for P in ([1, 2j], [0.5, -0.25, 1j]):
        X = integrate_null(from_spinor(SpinorData(
            z2, z2 * MeroFunction.from_poly(P))), base_point=1)
        out.append((tee_curve(X), 0.5 - 0.75j))
    h = MeroFunction.from_poly([1, -2, 3j])
    X = integrate_null(from_spinor(SpinorData(h * 2, h * 1j)),
                       base_point=0.5, value=(0, 0, 1))
    out.append((tee_curve(X), 1.5j))
    return out


def test_tee_curve_slots_share_one_denominator():
    # one stored Poly Q for the four slots.  Where Q(0) != 0 a shear sums
    # over Q and keeps it; where Q(0) = 0 and a slot numerator vanishes at
    # 0 too, the product lambda * slot cancels that z on its own
    # (series._cancel_monomial) and the sheared slots are cross-multiplied
    kept = 0
    for F, lam in _tee_pool():
        dens = {s.rep.den for s in F.slots()}
        assert len(dens) == 1
        (Q,) = dens
        if Q.low_order():
            continue
        for kind in SHEAR_KINDS:
            assert {s.rep.den for s in shear(F, lam, kind).slots()} == {Q}
        kept += 1
    assert kept >= 10
    for X in _tee_inputs().values():
        assert len({s.rep.den for s in tee_curve(X).slots()}) == 1


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


def test_immersion_ignores_a_common_zero_in_the_pole_or_singular_set():
    # F = tee(z^2, i z^2, 1) = (1, 0, 2z^2, 1): F' = (0, 0, 4z, 0) vanishes
    # at 0, a common zero unless the pole set or the singular set lists
    # it; they are read after the candidate 0 has passed evaluation
    one = MeroFunction.constant(1)
    slots = (one, MeroFunction.zero(), MeroFunction.from_poly([0, 0, 2]), one)
    rep = check_null_sl2(SL2NullCurve(*slots), tol=0.0)
    assert rep.unimodular and rep.null and not rep.immersion
    for sets in (((0j,), ()), ((), (0j,))):
        rep = check_null_sl2(SL2NullCurve(*slots, *sets), tol=0.0)
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
