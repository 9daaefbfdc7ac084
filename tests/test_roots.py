"""The one root kernel, ``series._clustered_roots``, and the pole and zero
lists of a Rational against sympy over Q(i).

Inputs plant repeated and shared factors at Gaussian-integer, dyadic and
general-float heights.  Planted roots are kept at least 0.01 apart, so
that ``np.roots`` on each squarefree part locates them well; the
multiplicities are compared exactly and the locations to 1e-8 relative.
"""

import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nullsl2 import MeroFunction
from nullsl2.exact import ExactComplex, Poly, poly_gcd
from nullsl2.series import Rational, _clustered_roots

from test_series import _antiderivative_pool

sp = pytest.importorskip("sympy")

X = sp.Symbol("x")


def to_sym(p: Poly):
    coeffs = [sp.Rational(c.re.numerator, c.re.denominator)
              + sp.I * sp.Rational(c.im.numerator, c.im.denominator)
              for c in reversed(p.coeffs)]
    return sp.Poly(coeffs or [0], X, domain=sp.QQ_I)


def sympy_roots(sym_poly) -> list[tuple[complex, int]]:
    """The roots of a sympy polynomial with their multiplicities, from
    ``sqf_list`` over QQ_I and 30-digit ``nroots`` of each part."""
    out = []
    for part, k in sym_poly.sqf_list()[1]:
        out += [(complex(r), k) for r in part.nroots(n=30)]
    return out


def same_roots(got, want) -> bool:
    """Equal multisets of (root, multiplicity), roots to 1e-8 relative."""
    if len(got) != len(want):
        return False
    left = list(got)
    for q, k in want:
        near = [e for e in left
                if e[1] == k and abs(e[0] - q) <= 1e-8 * max(1.0, abs(q))]
        if not near:
            return False
        left.remove(near[0])
    return True


# ---------------------------------------------------------------------------
# planted factors
# ---------------------------------------------------------------------------

_height = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-64, max_value=64).map(lambda n: Fraction(n, 16)),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
_point = st.builds(ExactComplex, _height, _height)
#: a factor z - p, or z**2 - r (roots +-sqrt(r)), with its multiplicity
_factor = st.tuples(st.booleans(), _point, st.integers(1, 3))


def _planted(factors, lead=ExactComplex(1)):
    """lead times the product of the planted factors, each to its
    multiplicity; None if two distinct roots lie within 0.01.  A point
    planted twice, or z**2 - 0, stacks multiplicities."""
    poly, roots = Poly([lead]), []
    for square, p, k in factors:
        f = Poly([-p, 0, 1]) if square else Poly([-p, 1])
        z = complex(p) ** 0.5 if square else complex(p)
        roots += [z, -z] if square else [z]
        for _ in range(k):
            poly = poly * f
    if any(0 < abs(a - b) < 0.01 for i, a in enumerate(roots)
           for b in roots[i + 1:]):
        return None
    return poly


_lead = _point.filter(lambda c: c != 0)


@settings(deadline=None, max_examples=40)   # sympy's sqf_list is slow
@given(st.lists(_factor, min_size=1, max_size=3), _lead)
def test_kernel_parts_and_multiplicities_match_sympy(factors, lead):
    poly = _planted(factors, lead)
    assume(poly is not None)
    got = _clustered_roots(poly)
    assert got == sorted(got, key=lambda pm: (pm[0].real, pm[0].imag))
    assert sum(m for _, m in got) == poly.degree
    assert same_roots(got, sympy_roots(to_sym(poly)))


@settings(deadline=None, max_examples=30)   # sympy's gcd over Q(i) is slow
@given(st.lists(_factor, max_size=2), st.lists(_factor, max_size=2),
       st.lists(_factor, min_size=1, max_size=2), _lead)
def test_poles_and_zeros_match_sympy_on_the_reduced_quotient(
        top, bottom, shared, lead):
    # num = A S and den = B S share S, which also repeats roots of A or B
    # whenever a planted point recurs; stored as given, with no cancel
    num, den = _planted(top + shared, lead), _planted(bottom + shared)
    assume(num is not None and den is not None)
    f = MeroFunction(Rational(num, den))
    N, D = to_sym(num), to_sym(den)
    g = N.gcd(D)
    assert same_roots(f.poles(), sympy_roots(D.exquo(g)))
    assert same_roots(f.zeros(), sympy_roots(N.exquo(g)))


def test_the_antiderivative_pool_lists_each_pole_once_with_its_order():
    # fields 5, 11, 16, 23, 27, 29, 35 and 39 of this pool (seed 2024)
    # listed a pole of order 3 to 5 as that many simple poles about 5e-4
    # apart when the kernel clustered np.roots output at 1e-6
    for f in _antiderivative_pool(60, 2024):
        num, den = to_sym(f.rep.num), to_sym(f.rep.den)
        want = sympy_roots(den.exquo(num.gcd(den)))
        assert len({p for p, _ in f.poles()}) == len(want)
        assert same_roots(f.poles(), want)


# ---------------------------------------------------------------------------
# Yun's loop stops at a linear part
# ---------------------------------------------------------------------------

def _full_yun(poly: Poly) -> list[tuple[complex, int]]:
    """Yun's loop run to b = 1, every part (constants too) to np.roots:
    the kernel with no early stop, as a reference for its bits."""
    d = poly.derivative()
    g = poly_gcd(poly, d)
    if g.degree == 0:
        parts = [poly]
    else:
        b, c = poly.exact_div(g), d.exact_div(g)
        parts = []
        while b.degree > 0:
            c = c - b.derivative()
            s = poly_gcd(b, c)
            b, c = b.exact_div(s), c.exact_div(s)
            parts.append(s)
    out = []
    for i, s in enumerate(parts, 1):
        coeffs = s.float_coeffs()
        if not all(map(cmath.isfinite, coeffs)):
            coeffs = s.monic().float_coeffs()
        out += [(complex(r), i) for r in np.roots(coeffs)]
    return sorted(out, key=lambda pm: (pm[0].real, pm[0].imag))


def _power(*factors) -> Poly:
    """The product of (z - p)**k over the (p, k) given, lead 3 - 2i."""
    poly = Poly([ExactComplex(3, -2)])
    for p, k in factors:
        for _ in range(k):
            poly = poly * Poly([-p, 1])
    return poly


_ONE_ROOT = [ExactComplex(0.3137, -1.7), ExactComplex(Fraction(3, 4),
                                                      Fraction(-5, 2))]


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("p", _ONE_ROOT, ids=["float", "gaussian"])
def test_kernel_reads_one_root_of_any_multiplicity(p, k):
    poly = _power((p, k))
    got = _clustered_roots(poly)
    assert [m for _, m in got] == [k]
    assert same_roots(got, sympy_roots(to_sym(poly)))
    assert repr(got) == repr(_full_yun(poly))


@pytest.mark.parametrize("factors", [
    [(1, 2), (-2, 3)],                      # b = (z - 1)(z + 2): s_1 = 1
    [(ExactComplex(0, 1), 4), (-1, 1)],
    [(Fraction(1, 2), 1), (3, 2), (ExactComplex(0, -2), 5)],
    [(0.25, 3), (-0.75, 3), (ExactComplex(1, 1), 1)],
    [(2, 6), (-2, 1), (ExactComplex(Fraction(1, 3), 1), 2)],
], ids=["1^2,-2^3", "i^4,-1", "1/2,3^2,-2i^5", "two-cubes", "2^6,-2,g^2"])
def test_kernel_leaves_yun_on_a_linear_part_with_the_same_bits(factors):
    poly = _power(*factors)
    got = _clustered_roots(poly)
    assert sum(m for _, m in got) == poly.degree
    assert same_roots(got, sympy_roots(to_sym(poly)))
    assert repr(got) == repr(_full_yun(poly))
