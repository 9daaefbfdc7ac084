"""Exact polynomial layer: every Poly kernel against sympy over Q(i)."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nullsl2.exact import _P, _S, ExactComplex, Poly, _coprime_mod_p, poly_gcd

sp = pytest.importorskip("sympy")

X = sp.Symbol("x")
QQ_I = sp.QQ_I

# ---------------------------------------------------------------------------
# strategies: coefficients of int, dyadic, general-float and Fraction height
# ---------------------------------------------------------------------------

_EDGE = (0.1, -0.1, 5e-324, -5e-324, 1e308, -1e308, 0.0)

_real = st.one_of(
    st.integers(min_value=-10**12, max_value=10**12),
    st.builds(lambda n, k: Fraction(n, 2**k),
              st.integers(min_value=-999, max_value=999),
              st.integers(min_value=0, max_value=70)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(min_value=-10**6, max_value=10**6,
                 max_denominator=10**9),
    st.sampled_from(_EDGE),
)

_scalar = st.one_of(
    _real,
    st.builds(ExactComplex, _real, _real),
    st.builds(complex, st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from(_EDGE + (0.25, -3.0))),
)

#: points with a nonzero imaginary part, of moderate size so that shifts
#: and Horner stay cheap
_part = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.builds(lambda n, k: Fraction(n, 2**k),
              st.integers(min_value=-99, max_value=99),
              st.integers(min_value=0, max_value=8)),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.fractions(min_value=-3, max_value=3, max_denominator=50),
)
_point = st.builds(ExactComplex, _part,
                   _part.filter(lambda v: v != 0))

_poly = st.lists(_scalar, max_size=6).map(Poly)
_nonzero_poly = _poly.filter(lambda p: not p.is_zero())
_moderate_poly = st.lists(_point, max_size=5).map(Poly)


def sym(c):
    e = ExactComplex.of(c)
    return (sp.Rational(e.re.numerator, e.re.denominator)
            + sp.I * sp.Rational(e.im.numerator, e.im.denominator))


def to_sym(p: Poly):
    return sp.Poly([sym(c) for c in reversed(p.coeffs)] or [0], X,
                   domain=QQ_I)


def same(a, b) -> bool:
    return sp.expand(a - b) == 0


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

@settings(deadline=None)
@given(_poly, _poly)
def test_ring_ops_match_sympy(p, q):
    sp_p, sp_q = to_sym(p), to_sym(q)
    assert to_sym(p * q) == sp_p * sp_q
    assert to_sym(p + q) == sp_p + sp_q
    assert to_sym(p - q) == sp_p - sp_q
    assert to_sym(-p) == -sp_p


@settings(deadline=None)
@given(_poly, _scalar)
def test_scale_matches_sympy(p, c):
    assert to_sym(p.scale(c)) == to_sym(p) * sp.Poly(sym(c), X, domain=QQ_I)


@settings(deadline=None)
@given(_poly)
def test_derivative_matches_sympy(p):
    assert to_sym(p.derivative()) == to_sym(p).diff(X)


@settings(deadline=None)
@given(_poly)
def test_integral_matches_sympy(p):
    assert to_sym(p.integral()) == to_sym(p).integrate()
    assert p.integral().derivative() == p


# ---------------------------------------------------------------------------
# evaluation, shift, roots
# ---------------------------------------------------------------------------

@settings(deadline=None)
@given(_poly, _point)
def test_shift_matches_sympy(p, z):
    shifted = to_sym(p).compose(sp.Poly(X + sym(z), X, domain=QQ_I))
    assert to_sym(p.shift(z)) == shifted


@settings(deadline=None)
@given(_poly, _point)
def test_exact_call_matches_sympy(p, z):
    value = p(z)
    assert isinstance(value, ExactComplex)
    assert same(sym(value), to_sym(p).eval(sym(z)))


def _sympy_multiplicity(sp_p, z) -> int:
    lin = sp.Poly(X - sym(z), X, domain=QQ_I)
    count = 0
    while True:
        q, r = sp_p.div(lin)
        if not r.is_zero:
            return count
        sp_p, count = q, count + 1


@settings(deadline=None)
@given(_moderate_poly.filter(lambda p: not p.is_zero()), _point,
       st.integers(min_value=0, max_value=3))
def test_multiplicity_and_deflate_match_sympy(base, z, k):
    p = base
    for _ in range(k):
        p = p * Poly((-z, 1))
    m = p.multiplicity_at(z)
    assert m == _sympy_multiplicity(to_sym(p), z) >= k
    lin = sp.Poly(X - sym(z), X, domain=QQ_I)
    if m:
        assert to_sym(p.deflate(z)) == to_sym(p).quo(lin)
    else:
        with pytest.raises(ValueError):
            p.deflate(z)


@settings(deadline=None)
@given(_moderate_poly.filter(lambda p: not p.is_zero()),
       st.integers(min_value=0, max_value=3))
def test_multiplicity_at_origin_is_valuation(base, k):
    p = base * Poly.monomial(k)
    assert p.multiplicity_at(0) == _sympy_multiplicity(to_sym(p), 0)


def test_deflate_rejects_a_point_that_is_not_a_root():
    # 1 + 2z + 3z^2 = (z - 5)(3z + 17) + 86: the remainder must not be lost
    with pytest.raises(ValueError):
        Poly([1, 2, 3]).deflate(5)
    assert Poly([-15, 2, 1]).deflate(3) == Poly([5, 1])   # (z - 3)(z + 5)


@settings(deadline=None)
@given(_poly)
def test_reverse_matches_sympy(p):
    # z**deg p(1/z): low-order zeros of p lower the degree of the reversal
    flipped = sp.expand(X ** max(p.degree, 0)
                        * to_sym(p).as_expr().subs(X, 1 / X))
    assert to_sym(p.reverse()) == sp.Poly(flipped, X, domain=QQ_I)
    if not p.is_zero():
        assert p.reverse().degree == p.degree - p.low_order()
        assert p.reverse().reverse() == p.drop_low(p.low_order())


# ---------------------------------------------------------------------------
# division and gcd
# ---------------------------------------------------------------------------

@settings(deadline=None)
@given(_poly, _nonzero_poly)
def test_divmod_and_exact_div_match_sympy(p, q):
    quo, rem = p.divmod(q)
    sp_q, sp_r = to_sym(p).div(to_sym(q))
    assert (to_sym(quo), to_sym(rem)) == (sp_q, sp_r)
    assert (p * q).exact_div(q) == p
    if not rem.is_zero():
        with pytest.raises(ValueError):
            p.exact_div(q)


@settings(deadline=None, max_examples=30)   # sympy's gcd over Q(i) is slow
@given(_moderate_poly, _moderate_poly, _moderate_poly)
def test_poly_gcd_matches_sympy(a, b, c):
    assume(not c.is_zero() and not (a.is_zero() and b.is_zero()))
    g = poly_gcd(a * c, b * c)
    expected = sp.gcd(to_sym(a * c), to_sym(b * c))
    assert to_sym(g) == expected.monic()
    assert g.is_zero() or g.lc == ExactComplex(1)


# ---------------------------------------------------------------------------
# normal form and the views
# ---------------------------------------------------------------------------

def test_equal_values_from_different_inputs_are_equal_and_hash_equal():
    cases = [
        (Poly([0.5, 0.25j]), Poly([Fraction(1, 2), ExactComplex(0, 0.25)])),
        (Poly([1, 2, 0, 0.0, 0j]), Poly([1, 2])),
        (Poly([2, 4, 6]).scale(Fraction(1, 2)), Poly([1, 2, 3])),
        (Poly([Fraction(2, 6), Fraction(4, 6)]),
         Poly([Fraction(1, 3), Fraction(2, 3)])),
        (Poly([0, 0.0]), Poly.zero()),
        (Poly.monomial(2, 0.5), Poly([0, 0, Fraction(1, 2)])),
    ]
    for a, b in cases:
        assert a == b
        assert hash(a) == hash(b)


@settings(deadline=None)
@given(_poly, _poly)
def test_normal_form_is_structural(p, q):
    for same_value in (Poly(p.coeffs), Poly(list(p.coeffs) + [0, 0.0]),
                       (p + q) - q, p.scale(3).scale(Fraction(1, 3))):
        assert same_value == p
        assert hash(same_value) == hash(p)


_int = st.integers(min_value=-10**20, max_value=10**20)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=10**6) | st.just(1),
       st.lists(st.tuples(_int, _int), max_size=6),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=10**4) | st.just(1))
def test_make_keeps_the_normal_form(den, pairs, zeros, content):
    re = [content * r for r, _ in pairs] + [0] * zeros
    im = [content * m for _, m in pairs] + [0] * zeros
    p = Poly._make(content * den, re, im)
    assert p._den > 0
    assert math.gcd(p._den, *p._re, *p._im) == 1
    assert type(p._re) is tuple and type(p._im) is tuple
    assert all(type(c) is int for c in p._re + p._im)
    assert p.is_zero() or p._re[-1] or p._im[-1]
    public = Poly([ExactComplex(Fraction(r, content * den),
                                Fraction(m, content * den))
                   for r, m in zip(re, im)])
    assert p == public
    assert hash(p) == hash(public)


def test_zero_and_one_keep_their_stored_form():
    for p, stored in ((Poly.zero(), (1, (), ())), (Poly.one(), (1, (1,), (0,))),
                      (Poly([1, 2j]) * Poly.zero(), (1, (), ())),
                      (Poly.zero() * Poly([3]), (1, (), ()))):
        assert (p._den, p._re, p._im) == stored
    assert Poly.zero() == Poly(()) and Poly.one() == Poly((1,))


def test_poly_rejects_attribute_writes():
    p = Poly([1, 2j])
    for name in ("_den", "_re", "_im", "_coeffs", "_float_cache", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)
    assert p == Poly([1, 2j])


@settings(deadline=None)
@given(_poly)
def test_float_coeffs_are_the_rounded_exact_coefficients(p):
    def bits(cs):
        return [(c.real.hex(), c.imag.hex()) for c in cs]
    expected = tuple(complex(c) for c in reversed(p.coeffs))
    assert bits(p.float_coeffs()) == bits(expected)


def test_float_views_round_past_the_range_to_inf():
    # round to nearest: 2**1024 - 2**970 is the midpoint between the
    # largest float and 2**1024, and ties go to the even 2**1024 (inf)
    top, half = 2 ** 1024, 2 ** 970
    for n, expected in ((top - half - 1, 1.7976931348623157e308),
                        (top - half, math.inf), (-10 ** 400, -math.inf),
                        (Fraction(10 ** 400, 3), math.inf)):
        c = ExactComplex(n, -n)
        assert complex(c) == complex(expected, -expected)
        assert Poly([c]).float_coeffs() == (complex(c),)
    assert complex(ExactComplex(Fraction(1, 10 ** 400))) == 0j


# ---------------------------------------------------------------------------
# the modular coprimality certificate
# ---------------------------------------------------------------------------

_tuples = st.lists(_poly, min_size=1, max_size=3)


def test_the_certificate_prime_has_a_square_root_of_minus_one():
    assert sp.isprime(_P) and _P % 4 == 1 and _P < 2**30
    assert (_S * _S + 1) % _P == 0


@settings(deadline=None, max_examples=60)   # sympy's gcd over Q(i) is slow
@given(_tuples)
def test_a_certificate_means_a_sympy_gcd_of_one(polys):
    if _coprime_mod_p(polys):
        g = to_sym(polys[0])
        for p in polys[1:]:
            g = sp.gcd(g, to_sym(p))
        assert g.degree() == 0 and not g.is_zero


@settings(deadline=None)
@given(_tuples, _point)
def test_a_common_linear_factor_is_never_certified(polys, a):
    lin = Poly([-a, 1])
    assert not _coprime_mod_p([p * lin for p in polys])


def test_coprime_numerators_are_certified():
    assert _coprime_mod_p([Poly([1])])
    assert _coprime_mod_p([Poly([0, 1]), Poly([1, 1])])
    assert _coprime_mod_p([Poly([1j, 1]), Poly([-1j, 1])])   # z + i, z - i
    assert _coprime_mod_p([Poly([0.1, 3, 2.5j]), Poly([Fraction(1, 3), 1])])


def test_a_leading_coefficient_divisible_by_p_is_not_certified():
    # A = p z + 1 divides B = (p z + 1)(z + 2); mod p both leading
    # coefficients vanish and the images 1 and z + 2 are coprime
    a = Poly([1, _P])
    assert not _coprime_mod_p([a, a * Poly([2, 1])])
    assert _coprime_mod_p([a, Poly([2, 1])])


def test_a_constant_divisible_by_p_is_not_certified():
    assert not _coprime_mod_p([Poly([_P])])
    assert not _coprime_mod_p([Poly([3 * _P]), Poly([_P * 1j])])
    assert not _coprime_mod_p([])
