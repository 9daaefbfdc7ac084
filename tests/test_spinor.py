"""Spinor encoding of null direction fields and exact integration."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullsl2 import (
    SHEAR_KINDS,
    C3NullCurve,
    DegenerateEta,
    EtaIdenticallyZero,
    ExactComplex,
    MeroFunction,
    NonExactField,
    SL2NullCurve,
    SpinorData,
    check_null_c3,
    check_null_sl2,
    end_model,
    extract_spinor,
    from_spinor,
    integrate_null,
    is_flat,
    shear,
    spinor_common_zero_points,
)
from nullsl2.serialize import curve_from_dict, sl2_to_dict

from conftest import (
    random_integrable_spinor,
    random_spinor,
    random_window_spinor,
    st_spinor,
)


def _null_sum(field):
    f1, f2, f3 = field.components()
    return f1 * f1 + f2 * f2 + f3 * f3


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_eta_zero_rejected():
    with pytest.raises(EtaIdenticallyZero):
        SpinorData(MeroFunction.zero(), MeroFunction.constant(1))


def test_from_spinor_nullity_exact_hand_case():
    # eta = z, f3 = 1: q = 1/z, f1 = (z - 1/z)/2, f2 = -i(z + 1/z)/2
    s = SpinorData(MeroFunction.monomial(1), MeroFunction.constant(1))
    field = from_spinor(s)
    total = _null_sum(field)
    assert total.is_identically_zero(0.0)   # exact, not approximate
    z = 0.7 + 0.2j
    assert abs(field.f1.evaluate(z) - (z - 1 / z) / 2) < 1e-14


def test_from_spinor_conjugate_chart_flips_f2():
    s_plus = SpinorData(MeroFunction.monomial(1), MeroFunction.constant(1))
    s_minus = SpinorData(MeroFunction.monomial(1), MeroFunction.constant(1),
                         conjugate_chart=True)
    a = from_spinor(s_plus)
    b = from_spinor(s_minus)
    assert (a.f1 - b.f1).is_identically_zero(0.0)
    assert (a.f2 + b.f2).is_identically_zero(0.0)
    assert _null_sum(b).is_identically_zero(0.0)


def test_from_spinor_pole_bookkeeping_includes_eta_zeros():
    # eta = z vanishes at 0, so q = f3^2/eta may pole there
    s = SpinorData(MeroFunction.monomial(1), MeroFunction.constant(1))
    field = from_spinor(s)
    assert any(abs(p) < 1e-12 for p in field.pole_set)


@pytest.mark.parametrize("eta, f3", [
    ((0, 0, 1), (0, 0, 0, 1)),      # z^2, z^3: q = z^4
    ((0, 0, 1), (0, 0, 1)),         # z^2, z^2: q = z^2
])
def test_from_spinor_pole_set_omits_cancelled_eta_zeros(eta, f3):
    # a zero of eta that f3^2 cancels is no pole of the field: polynomial
    # data give an empty pole set, and the immersion verdict sees the
    # branch point, where f vanishes
    field = from_spinor(SpinorData(MeroFunction.from_poly(eta),
                                   MeroFunction.from_poly(f3)))
    assert field.pole_set == ()
    assert check_null_c3(integrate_null(field), tol=0).immersion is False


def test_from_spinor_pole_set_is_the_pole_of_q():
    # eta = (z - 1/2)(z + 1), f3 = z - 1/2: q = (z - 1/2)/(z + 1) is
    # regular at 1/2 and has its one pole at -1
    field = from_spinor(SpinorData(MeroFunction.from_poly([-0.5, 0.5, 1]),
                                   MeroFunction.from_poly([-0.5, 1])))
    assert len(field.pole_set) == 1
    assert abs(field.pole_set[0] + 1) < 1e-9


def test_extract_spinor_round_trip():
    s = SpinorData(
        MeroFunction.from_rational((1, 2), (1, 0, 1)),
        MeroFunction.from_rational((0, 1), (3,)))
    field = from_spinor(s)
    back = extract_spinor(field)
    assert (back.eta - s.eta).is_identically_zero(0.0)
    assert (back.f3 - s.f3).is_identically_zero(0.0)
    field2 = from_spinor(back)
    for f, g in zip(field.components(), field2.components()):
        assert (f - g).is_identically_zero(0.0)


def test_extract_spinor_alternate_chart():
    s = SpinorData(MeroFunction.constant(2), MeroFunction.constant(0),
                   conjugate_chart=True)
    field = from_spinor(s)
    # f1 + i f2 = q = 0 here, so the default chart degenerates
    with pytest.raises(DegenerateEta):
        extract_spinor(field)
    back = extract_spinor(field, alternate_chart=True)
    assert back.conjugate_chart
    assert (back.eta - 2).is_identically_zero(0.0)


def test_spinor_common_zero_points():
    # eta = z^2, f3 = z: q = 1, no common zero; eta = z^2, f3 = z^2: q = z^2
    s1 = SpinorData(MeroFunction.monomial(2), MeroFunction.monomial(1))
    assert spinor_common_zero_points(s1) == []
    s2 = SpinorData(MeroFunction.monomial(2), MeroFunction.monomial(2))
    pts = spinor_common_zero_points(s2)
    assert len(pts) == 1 and abs(pts[0]) < 1e-8


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def test_integrate_null_polynomial_field():
    rng = np.random.default_rng(7)
    s = random_integrable_spinor(rng)
    field = from_spinor(s)
    X = integrate_null(field, base_point=0.5, value=(1, 2, 3))
    assert X.evaluate(0.5) == (1 + 0j, 2 + 0j, 3 + 0j)
    for comp, f in zip(X.components(), field.components()):
        assert (comp.differentiate() - f).is_identically_zero(0.0)
    rep = check_null_c3(X)
    assert rep.null


def test_integrate_null_residue_obstruction_carries_cycle():
    # eta = 1/z, f3 = 1: f1 = (1/z - z)/2 has residue 1/2 at 0
    s = SpinorData(MeroFunction.from_rational((1,), (0, 1)),
                   MeroFunction.constant(1))
    field = from_spinor(s)
    with pytest.raises(NonExactField) as exc:
        integrate_null(field)
    err = exc.value
    assert abs(err.period - 1j * np.pi) < 1e-12        # 2*pi*i * (1/2)
    assert abs(err.pole) < 1e-12
    assert err.cycle is not None and err.cycle.winding(err.pole) == 1


def test_check_null_c3_on_non_null_curve():
    X_bad = integrate_null(
        (MeroFunction.constant(1), MeroFunction.constant(1),
         MeroFunction.constant(1)))
    rep = check_null_c3(X_bad)
    assert not rep.null


def test_immersion_detects_common_derivative_zero():
    # all derivatives vanish at 0: X' = (z, i z, 0) direction
    f1 = MeroFunction.monomial(1)
    f2 = f1 * 1j
    f3 = MeroFunction.zero()
    X = integrate_null((f1, f2, f3))
    rep = check_null_c3(X)
    assert rep.null          # z^2 + (iz)^2 + 0 = 0
    assert not rep.immersion
    assert rep.flat


def test_window_immersion_ignores_base_point_in_pole_set():
    # X = (z^2, i z^2, 0) as Laurent windows: X' vanishes at the base
    # point 0, which is a declared pole here and so not a common zero
    # (the same rule as check_null_sl2 and as the rational branch)
    X = C3NullCurve(MeroFunction.from_laurent(0, [0, 0, 1]),
                    MeroFunction.from_laurent(0, [0, 0, 1j]),
                    MeroFunction.from_laurent(0, [0]))
    assert not check_null_c3(X).immersion
    rep = check_null_c3(C3NullCurve(X.X1, X.X2, X.X3, pole_set=(0j,)))
    assert rep.null and rep.immersion
    slot = MeroFunction.from_laurent(0, [1])
    F = SL2NullCurve(slot, X.X1, MeroFunction.from_laurent(0, [0]), slot,
                     pole_set=(0j,))
    assert check_null_sl2(F).immersion


def test_rational_immersion_ignores_a_common_zero_in_the_pole_set():
    # X = (z^2, i z^2, 1): X' = (2z, 2iz, 0) vanishes at 0, which the
    # immersion test reads as a common zero unless the pole set lists it;
    # the pole set is read after the candidate 0 has passed evaluation
    X = C3NullCurve(MeroFunction.from_poly([0, 0, 1]),
                    MeroFunction.from_poly([0, 0, 1j]),
                    MeroFunction.constant(1))
    rep = check_null_c3(X, tol=0.0)
    assert rep.null and not rep.immersion
    rep = check_null_c3(C3NullCurve(*X.components(), pole_set=(0j,)),
                        tol=0.0)
    assert rep.null and rep.immersion


def test_immersion_keeps_a_tiny_nonzero_component_at_tol_zero():
    # X' = (1e-12, z, 0) never vanishes: at tol 0 the constant 1e-12 is
    # nonzero and has no zero to share with z
    X = C3NullCurve(MeroFunction.from_poly([0, 1e-12]),
                    MeroFunction.from_poly([0, 0, 0.5]), MeroFunction.zero())
    assert check_null_c3(X, tol=0.0).immersion is True


def test_window_immersion_reads_orders_at_the_window_base_point():
    # X' = (z, z, 0) with the second slot a window at base 1: the window
    # branch reads every order at 1, where z does not vanish, and never
    # asks the window for an order away from its base point
    X = C3NullCurve(MeroFunction.from_poly([0, 0, 0.5]),
                    MeroFunction.from_laurent(0, [0, 1, 0.5], base_point=1),
                    MeroFunction.zero())
    assert check_null_c3(X, tol=0.0).immersion is True


def test_is_flat_on_proportional_and_generic():
    f = MeroFunction.from_rational((1, 1), (2,))
    assert is_flat((f, f * 2, f * (1 + 1j)))
    g = MeroFunction.monomial(2)
    assert not is_flat((f, g, f))


#: coefficient parts of int, dyadic and general-float height
_part = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.builds(lambda n, k: Fraction(n, 2**k),
              st.integers(min_value=-99, max_value=99),
              st.integers(min_value=0, max_value=8)),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
_coeff = st.builds(ExactComplex, _part, _part)


def _nonzero_coeffs(size):
    return st.lists(_coeff, min_size=1, max_size=size).filter(
        lambda cs: any(not c.is_zero() for c in cs))


_rational = st.builds(MeroFunction.from_rational, _nonzero_coeffs(4),
                      _nonzero_coeffs(3))


@st.composite
def st_flat_or_not(draw):
    """k_i * f for three or four components, some k_i zero; optionally one
    component replaced by an independent rational."""
    f = draw(_rational)
    n = draw(st.integers(min_value=3, max_value=4))
    ks = draw(st.lists(st.one_of(st.just(0), _coeff), min_size=n, max_size=n))
    comps = [f * k for k in ks]
    if draw(st.booleans()):
        comps[draw(st.integers(min_value=0, max_value=n - 1))] = draw(_rational)
    return comps


def _sympy_flat(comps) -> bool:
    """(c/ref)' == 0 for every component c, ref the first nonzero one."""
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")

    def sym(poly):
        return sum(
            (sp.Rational(c.re.numerator, c.re.denominator)
             + sp.I * sp.Rational(c.im.numerator, c.im.denominator)) * x**k
            for k, c in enumerate(poly.coeffs))

    exprs = [sym(c.rep.num) / sym(c.rep.den) for c in comps]
    nonzero = [e for e in exprs if sp.cancel(e) != 0]
    if not nonzero:
        return True
    return all(sp.cancel(sp.diff(e / nonzero[0], x)) == 0 for e in nonzero)


@settings(max_examples=60, deadline=None)
@given(st_flat_or_not())
def test_prop_is_flat_matches_sympy(comps):
    assert is_flat(comps, 0.0) == _sympy_flat(comps)


def test_is_flat_at_tol_zero_sees_numerators_below_the_float_range():
    # a falsifying example of the property above: the quotients' numerators
    # read as 0.0 in floats, but they are not zero
    comps = [MeroFunction.from_rational([1.3654785986177085e-157j], [0j, 1j]),
             MeroFunction.from_rational([], [3.348466452943302e-279j]),
             MeroFunction.from_rational([-1 + 0j], [3.348466452943302e-279j])]
    assert not is_flat(comps, 0.0)
    assert is_flat(comps, 0.0) == _sympy_flat(comps)


def test_is_flat_differentiates_quotients_not_components(monkeypatch):
    seen = []
    differentiate = MeroFunction.differentiate

    def record(self):
        seen.append(self)
        return differentiate(self)

    monkeypatch.setattr(MeroFunction, "differentiate", record)
    z = [MeroFunction.monomial(k) for k in range(1, 5)]
    f = MeroFunction.from_rational((1, 2), (3, 0, 1))
    flat = [f * 2, f, f * (1 - 1j), f * 0.5]
    assert is_flat(flat, 0.0)
    assert len(seen) == 3
    assert not any(r is c for r in seen for c in flat)
    seen.clear()
    nonflat = z[::-1]   # z^4, z^3, z^2, z: the reference is z
    assert not is_flat(nonflat, 0.0)
    assert len(seen) == 1   # the first quotient, z^2 / z, already fails
    assert seen[0].rep == (z[1] / z[0]).rep
    assert not any(r is c for r in seen for c in nonflat)


_TOL_CENTER = 0.3137 + 0.2719j   # not dyadic: the round trip rounds


@pytest.mark.parametrize("kind", (None,) + SHEAR_KINDS)
@pytest.mark.parametrize("m", range(1, 9))
def test_round_tripped_end_reports_at_tolerance(m, kind):
    F = end_model(m, _TOL_CENTER)
    if kind is not None:
        F = shear(F, 0.5 - 0.25j, kind)
    F = curve_from_dict(sl2_to_dict(F))
    assert check_null_sl2(F, tol=1e-10).as_dict() == {
        "unimodular": True, "null": True, "immersion": True,
        "nonflat": True}


def test_round_tripped_flat_curve_report_at_tolerance():
    one, zero = MeroFunction.constant(1), MeroFunction.zero()
    F = SL2NullCurve(one, MeroFunction.monomial(1), zero, one)
    F = curve_from_dict(sl2_to_dict(F))
    assert check_null_sl2(F, tol=1e-10).as_dict() == {
        "unimodular": True, "null": True, "immersion": True,
        "nonflat": False}


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st_spinor())
def test_prop_spinor_nullity_exact(s):
    field = from_spinor(s)
    assert _null_sum(field).is_identically_zero(0.0)


@settings(max_examples=40, deadline=None)
@given(st_spinor())
def test_prop_extract_inverts_from_spinor(s):
    field = from_spinor(s)
    try:
        back = extract_spinor(field, alternate_chart=s.conjugate_chart)
    except DegenerateEta:
        # possible when f3^2 == -eta^2 makes the chosen chart vanish
        return
    regen = from_spinor(back)
    for f, g in zip(field.components(), regen.components()):
        assert (f - g).is_identically_zero(1e-12)


def test_window_spinor_nullity_residual(rng):
    for _ in range(20):
        s = random_window_spinor(rng)
        total = _null_sum(from_spinor(s))
        lo, hi = total.rep.min_exponent, total.rep.truncation_order
        if lo > hi:
            continue
        head = total.laurent_head(0, lo, hi)
        assert max(abs(v) for v in head.values()) < 1e-12
