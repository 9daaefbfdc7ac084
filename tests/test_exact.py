"""Exact polynomial layer: every Poly kernel against sympy over Q(i)."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nullsl2 import C3NullCurve, MeroFunction, check_null_c3
from nullsl2 import exact
from nullsl2.exact import (_P, _S, _X, ExactComplex, Poly, _coprime_mod_p,
                           _derivatives_coprime_mod_p, _derivatives_vary_mod_p,
                           poly_gcd)
from nullsl2.series import Rational
from nullsl2.spinor import _common_zero_poly

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


def test_poly_gcd_of_a_certified_pair_runs_no_division(monkeypatch):
    # the modular certificate is poly_gcd's first step: a pair it proves
    # coprime gets 1, the value Euclid ends on, with no exact division
    divisions = []
    real = Poly.divmod
    monkeypatch.setattr(Poly, "divmod", lambda a, b: divisions.append(1)
                        or real(a, b))
    pairs = [(Poly([0, 1]), Poly([1, 1])),
             (Poly([1j, 1]), Poly([-1j, 1])),               # z + i, z - i
             (Poly([0.1, 3, 2.5j]), Poly([Fraction(1, 3), 1])),
             (Poly([-1, 0, 1]), Poly([0, 2])),              # z**2 - 1, 2 z
             (Poly.zero(), Poly([3 - 4j]))]
    for a, b in pairs:
        assert poly_gcd(a, b) == Poly.one() == poly_gcd(b, a)
    assert divisions == []


def test_poly_gcd_of_a_nonzero_constant_forms_no_residue(monkeypatch):
    # a nonzero constant argument gives 1 from the degrees alone, before
    # the certificate; p itself, whose image is 0, would leave it to Euclid
    certificates, divisions = [], []
    real_divmod = Poly.divmod
    monkeypatch.setattr(exact, "_coprime_mod_p",
                        lambda polys: certificates.append(1) or False)
    monkeypatch.setattr(Poly, "divmod", lambda a, b: divisions.append(1)
                        or real_divmod(a, b))
    pairs = [(Poly([3]), Poly([1, 2, 1])),
             (Poly([1, 1]), Poly([2j])),
             (Poly([_P]), Poly([0, _P])),
             (Poly([Fraction(1, 3)]), Poly.zero())]
    for a, b in pairs:
        assert poly_gcd(a, b) == Poly.one() == poly_gcd(b, a)
    assert certificates == [] and divisions == []
    # the zero polynomial is no constant here: gcd(0, b) is b's monic form
    assert poly_gcd(Poly.zero(), Poly([2, 2])) == Poly([1, 1])


def test_poly_gcd_matches_sympy_where_the_certificate_declines():
    def check(a, b):
        assert not _coprime_mod_p([a, b])
        g = poly_gcd(a, b)
        assert to_sym(g) == sp.gcd(to_sym(a), to_sym(b)).monic()
        return g

    # A = p z + 1 divides B = A (z + 2), and both leading coefficients
    # vanish modulo p
    a = Poly([1, _P])
    assert check(a, a * Poly([2, 1])) == a.monic()
    # a planted common factor of degree 2 with a non-real coefficient
    c = Poly([1 - 2j, Fraction(1, 3), 1])
    g = check(Poly([0.5, -1, 3j]) * c, Poly([2, 1j]) * c)
    assert g == c.monic()
    # a zero operand: the gcd with a constant the certificate cannot read
    # is 1, and the gcd of two zeros is zero
    assert check(Poly.zero(), Poly([_P])) == Poly.one()
    assert poly_gcd(Poly.zero(), Poly.zero()).is_zero()
    assert sp.gcd(to_sym(Poly.zero()), to_sym(Poly.zero())).is_zero


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


#: Gaussian-rational and dyadic-float coefficients of small height, so
#: that sympy's gcd over Q(i) stays quick
_gauss_dyadic = st.one_of(
    st.builds(lambda a, b, d: complex(Fraction(a, d), Fraction(b, d)),
              st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 6)),
    st.builds(lambda a, b, k: complex(a / 2**k, b / 2**k),
              st.integers(-99, 99), st.integers(-99, 99),
              st.integers(0, 8)),
)
_small_poly = st.lists(_gauss_dyadic, min_size=1, max_size=3).map(Poly)


@settings(deadline=None, max_examples=30)   # sympy's gcd over Q(i) is slow
@given(_small_poly, st.lists(st.tuples(_small_poly, _small_poly,
                                       _small_poly),
                             min_size=1, max_size=3))
def test_common_zero_poly_matches_sympy(c, parts):
    # f_k = (a_k c s_k) / (b_k s_k): a planted common factor c of the
    # numerators, and a factor s_k each numerator shares with its own
    # denominator; the oracle is the gcd of sympy's cancelled numerators
    assume(not c.is_zero())
    assume(all(not (a * b * s).is_zero() for a, b, s in parts))
    fns = [MeroFunction(Rational(a * c * s, b * s)) for a, b, s in parts]
    expected = None
    for f in fns:
        num, _ = to_sym(f.rep.num).cancel(to_sym(f.rep.den), include=True)
        expected = num if expected is None else sp.gcd(expected, num)
    assert to_sym(_common_zero_poly(fns)) == expected.monic()


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


# ---------------------------------------------------------------------------
# the residue certificates on the derivatives of the slots N_k / D_k
# ---------------------------------------------------------------------------

#: polynomials with a planted power of z, so that D_k(0) = 0 and
#: ord N_k = ord D_k come up
_low_poly = st.builds(lambda p, k: p * Poly.monomial(k), _poly,
                      st.integers(min_value=0, max_value=2))
_nonzero_scalar = _scalar.filter(lambda c: c != 0)
#: denominators: planted powers of z, and constants
_den = st.one_of(_low_poly.filter(lambda p: not p.is_zero()),
                 _nonzero_scalar.map(lambda c: Poly([c])))


def _of_degree(d):
    """Slots (N, d) with deg N = deg d."""
    return st.builds(lambda low, top: (Poly(low + [top]), d),
                     st.lists(_scalar, min_size=d.degree,
                              max_size=d.degree),
                     _nonzero_scalar)


#: lists of (N_k, D_k): a denominator per slot (deg N_k = deg D_k among
#: them), or one denominator shared by every slot
_quotients = st.one_of(
    st.lists(st.one_of(st.tuples(_low_poly, _den), _den.flatmap(_of_degree)),
             min_size=1, max_size=4),
    st.builds(lambda d, nums: [(n, d) for n in nums], _den,
              st.lists(_low_poly, min_size=1, max_size=4)))


def _over(q, *nums):
    """The slots N_k / Q over one denominator."""
    return [(n, q) for n in nums]


def _sym_ord(w) -> int:
    return next(k for k, c in enumerate(reversed(w.all_coeffs())) if c)


def _sym_derivative_numerators(slots):
    """The nonzero W_k = N_k' D_k - N_k D_k' in sympy, each divided by
    z**min(ord W_k, 2 ord D_k) as the numerator of (N_k/D_k)' over
    D_k**2 is."""
    out = []
    for n, d in slots:
        N, D = to_sym(n), to_sym(d)
        w = N.diff(X) * D - N * D.diff(X)
        if not w.is_zero:
            t = min(_sym_ord(w), 2 * _sym_ord(D))
            out.append(sp.Poly(w.all_coeffs()[:w.degree() + 1 - t], X,
                               domain=QQ_I))
    return out


def _sym_share_a_root(slots) -> bool:
    ws = _sym_derivative_numerators(slots)
    if not ws:
        return True
    g = ws[0]
    for w in ws[1:]:
        g = sp.gcd(g, w)
    return g.degree() > 0


@settings(deadline=None, max_examples=40)   # sympy's gcd over Q(i) is slow
@given(_quotients)
def test_a_derivative_certificate_means_a_sympy_gcd_of_one(slots):
    if _derivatives_coprime_mod_p(slots):
        assert not _sym_share_a_root(slots)


def _sym_pair_wronskians(slots):
    """E = D_c D_r (W_c' W_r - W_c W_r') + 2 W_c W_r (D_r' D_c - D_r D_c')
    for each pair c < r, in sympy, over the Gaussian-integer numerators:
    N_k and D_k times their ``_den``."""
    parts = []
    for n, d in slots:
        N, D = to_sym(n) * n._den, to_sym(d) * d._den
        parts.append((N.diff(X) * D - N * D.diff(X), D))
    return [dc * dr * (wc.diff(X) * wr - wc * wr.diff(X))
            + 2 * wc * wr * (dr.diff(X) * dc - dr * dc.diff(X))
            for k, (wc, dc) in enumerate(parts) for wr, dr in parts[k + 1:]]


def _image(w) -> int:
    """The image modulo _P (i -> _S) of the Gaussian integer w(_X)."""
    value = w.eval(_X)
    re, im = (int(sp.Integer(t)) for t in (sp.re(value), sp.im(value)))
    return (re + _S * im) % _P


def _sym_ratio_varies(c, r) -> bool:
    """Whether (N_c/D_c)' = W_c/D_c**2 and (N_r/D_r)' = W_r/D_r**2 are
    nonzero with a nonconstant ratio A/B, A = W_c D_r**2 and
    B = W_r D_c**2: A'B - AB' != 0, in sympy over Q(i)."""
    ws = []
    for n, d in (c, r):
        N, D = to_sym(n), to_sym(d)
        ws.append((N.diff(X) * D - N * D.diff(X), D))
    (wc, dc), (wr, dr) = ws
    a, b = wc * dr * dr, wr * dc * dc
    return not (a.is_zero or b.is_zero
                or (a.diff(X) * b - a * b.diff(X)).is_zero)


@settings(deadline=None, max_examples=40)
@given(_quotients)
def test_a_nonflat_certificate_means_a_nonconstant_sympy_ratio(slots):
    # certified: some pair's E != 0, so (W_c D_r**2 / (W_r D_c**2))' != 0;
    # and the certificate is exactly "some pair's E has a nonzero image at
    # _X"
    pairs = _sym_pair_wronskians(slots)
    if _derivatives_vary_mod_p(slots):
        assert any(not w.is_zero for w in pairs)
    assert _derivatives_vary_mod_p(slots) == any(_image(w) for w in pairs)


#: two slots (a, u) and (b, v), nonzero u and v
_two_slots = st.tuples(st.tuples(_poly, _nonzero_poly),
                       st.tuples(_poly, _nonzero_poly))


@settings(deadline=None, max_examples=40)
@given(_two_slots)
def test_a_ratio_certificate_means_a_nonzero_sympy_derivative(slots):
    # the independent oracle: sympy's Wronskian of (a/u)' and (b/v)'; and
    # the certificate reads the exact image of the one pair's E at _X
    slots = list(slots)
    if _derivatives_vary_mod_p(slots):
        assert _sym_ratio_varies(*slots)
    (w,) = _sym_pair_wronskians(slots)
    assert _derivatives_vary_mod_p(slots) == (_image(w) != 0)


@settings(deadline=None, max_examples=60)
@given(_nonzero_poly, _poly, _nonzero_poly, _scalar, _scalar)
def test_a_constant_ratio_is_never_certified(v, b, w, k, m):
    # N_c/D_c = k b/v + m, written over a common factor w: its derivative
    # is k (b/v)'
    c = ((b.scale(k) + v.scale(m)) * w, v * w)
    assert not _derivatives_vary_mod_p([c, (b, v)])
    assert not _derivatives_vary_mod_p([(b, v), c, (b.scale(m), v)])


_moderate_nonzero = _moderate_poly.filter(lambda p: not p.is_zero())


@settings(deadline=None, max_examples=30)
@given(_moderate_nonzero, _moderate_nonzero,
       st.tuples(_moderate_poly, _moderate_nonzero))
def test_a_ratio_vanishing_at_the_point_falls_through_to_the_exact_test(
        g, u, r):
    # N_c/D_c = (z - _X)**3 g/u: W_c has the factor (z - _X)**2, so every
    # pair's E vanishes at _X; a zero third slot pairs to E = 0, and the
    # verdict is the exact is_flat
    h = Poly([-_X, 1])
    c = (h * h * h * g, u)
    assert not _derivatives_vary_mod_p([c, r, (Poly.zero(), Poly.one())])
    curve = C3NullCurve(MeroFunction.from_rational(*c),
                        MeroFunction.from_rational(*r), MeroFunction.zero())
    assert check_null_c3(curve, 0).flat == (not _sym_ratio_varies(c, r))


def test_a_linear_factor_at_the_point_is_decided_exactly():
    # c = z**3 - 3 _X z**2 against z: (c'/1)' = 6 (z - _X) vanishes at _X
    # mod p, and the exact is_flat finds the curve nonflat
    z, c, one = Poly([0, 1]), Poly([0, 0, -3 * _X, 1]), Poly.one()
    assert not _derivatives_vary_mod_p([(z, one), (c, one)])
    curve = C3NullCurve(MeroFunction.from_poly([0, 1]),
                        MeroFunction.from_rational(c), MeroFunction.zero())
    assert not check_null_c3(curve, 0).flat
    assert _derivatives_vary_mod_p([(z, one), (Poly([0, 0, 1]), one)])


@settings(deadline=None, max_examples=60)
@given(_nonzero_poly, _poly, st.lists(st.tuples(_scalar, _scalar),
                                      min_size=1, max_size=4))
def test_a_flat_curve_is_never_certified_nonflat(q, n, coefs):
    # N_k = a_k N + b_k Q: every (N_k/Q)' is a_k (N/Q)'
    nums = [n.scale(a) + q.scale(b) for a, b in coefs]
    assert not _derivatives_vary_mod_p(_over(q, *nums))


def test_the_power_of_z_comes_from_exact_orders():
    z = Poly([0, 1])
    # Q(0) = 0 and ord N_1 = ord Q = 1: W_1 = z**2 (z**2 + 2z - 2), and
    # s_1 = 2 q = 2; W_2 = -Q' = -(1 + 2z)
    q = Poly([0, 1, 1])
    slots = _over(q, Poly([0, 2, 0, 1]), Poly([1]))
    assert _derivatives_coprime_mod_p(slots)
    assert not _sym_share_a_root(slots)
    # Q = z and N_k = c_k z + d_k z**3: W_k = 2 d_k z**3, and the
    # numerators of (N_k/Q)' are 2 d_k z, which share the root 0
    slots = _over(z, Poly([0, 1, 0, 2]), Poly([0, 3, 0, -1j]))
    assert _sym_share_a_root(slots)
    assert not _derivatives_coprime_mod_p(slots)
    # Q = z and N_k = c_k z + (z + p)**2 R_k: every (N_k/Q)' vanishes at
    # -p, and W_k(0) = -p**2 R_k(0) != 0, so s_k = 0 although the images
    # of the W_k start at z**2
    h = Poly([_P, 1])
    slots = _over(z, *(z.scale(c) + h * h * r
                       for c, r in ((1, Poly([1])), (2j, Poly([2, 1])),
                                    (-3, Poly([1j, 0, 1])))))
    assert _sym_share_a_root(slots)
    assert not _derivatives_coprime_mod_p(slots)
    # a denominator per slot: 1/z**2 and z (D = 1) have derivatives
    # -2/z**3 and 1, which share no zero; z/(z**2 + z) = 1/(z + 1) and
    # z**2/z have W = -z**2 and z**2 over z**2 (s = 2 q = 2): -1/(z + 1)**2
    # and 1 share no zero either
    slots = [(Poly.one(), Poly([0, 0, 1])), (z, Poly.one())]
    assert _derivatives_coprime_mod_p(slots)
    slots = [(z, Poly([0, 1, 1])), (Poly([0, 0, 1]), z)]
    assert _derivatives_coprime_mod_p(slots)
    assert not _sym_share_a_root(slots)


def test_a_slot_of_the_degree_of_q_gives_no_leading_guard():
    # N = 2 + 3z over Q = 1 + z: W = 1, below its nominal degree 1
    q = Poly([1, 1])
    assert not _derivatives_coprime_mod_p(_over(q, Poly([2, 3])))
    assert not _sym_share_a_root(_over(q, Poly([2, 3])))
    # z**2 over Q: W = z (2 + z) keeps its degree and gives the guard
    assert _derivatives_coprime_mod_p(_over(q, Poly([2, 3]), Poly([0, 0, 1])))
    # the same over a denominator per slot: (2 + 3z)/(1 + z) and
    # 1/(1 + z), both of the degree of theirs or below it ...
    slots = [(Poly([2, 3]), q), (Poly([0, 1]), Poly([5, 1]))]
    assert not _derivatives_coprime_mod_p(slots)
    # ... and z**2/(z - 3), which gives the guard
    assert _derivatives_coprime_mod_p(slots + [(Poly([0, 0, 1]),
                                                Poly([-3, 1]))])


def test_a_leading_coefficient_divisible_by_p_gives_no_guard():
    # N_k = c_k Q + h**2 M_k with h = p z + 1: every (N_k/Q)' vanishes at
    # -1/p, but h's image is 1 and the images of the W_k are constants
    q, h = Poly([1, 1]), Poly([1, _P])
    slots = _over(q, *(q.scale(c) + (h * h).scale(m)
                       for c, m in ((1, 1), (2j, -1), (0.5, 3))))
    assert _sym_share_a_root(slots)
    assert not _derivatives_coprime_mod_p(slots)
    # lc Q divisible by p: no slot gives the guard, though W = 1 here
    assert not _derivatives_coprime_mod_p([(Poly([0, 1]), Poly([1, _P]))])


def test_a_slot_whose_image_is_zero_is_left_out():
    q = Poly([1, 1])
    zero_image = Poly([_P, 2 * _P, -_P * 1j])
    assert not _derivatives_coprime_mod_p(_over(q, zero_image))
    slots = _over(q, zero_image, Poly([0, 0, 1]), Poly([1]))
    assert _derivatives_coprime_mod_p(slots)
    assert not _sym_share_a_root(slots)
    # a zero N_k and N_k = 2 Q have W_k = 0: left out, like a zero image
    assert _derivatives_coprime_mod_p(
        _over(q, Poly.zero(), q.scale(2), Poly([3])))
    assert not _derivatives_coprime_mod_p(_over(q, Poly.zero(), q.scale(2)))
    assert not _derivatives_coprime_mod_p([])
    assert not _derivatives_vary_mod_p([])


def test_a_shared_denominator_is_read_once(monkeypatch):
    # four slots over one Q: Q's images and jet are formed once, each
    # N_k's once
    q = Poly([1, 2j, 3])
    slots = _over(q, q, Poly([0, 1]), Poly([0, 1]), Poly([1, 0, 0, 1]))
    for name in ("_residues", "_jet_mod_p"):
        seen = []
        real = getattr(exact, name)
        monkeypatch.setattr(exact, name, lambda f: seen.append(f) or real(f))
        kernel = {"_residues": _derivatives_coprime_mod_p,
                  "_jet_mod_p": _derivatives_vary_mod_p}[name]
        assert kernel(slots)
        assert sum(f is q for f in seen) == 1 + 1    # as Q, and as N_1
        assert len(seen) == 1 + 4
