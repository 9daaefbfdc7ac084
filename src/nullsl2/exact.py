"""Exact complex-rational arithmetic: scalars and dense polynomials.

This layer is what turns identity checks (det == 1, sums of squares == 0,
vanishing Wronskians) into genuine yes/no answers instead of "small residual".
Scalars are Gaussian rationals -- real and imaginary parts are
:class:`fractions.Fraction` -- and Python floats convert *exactly* (every
float is dyadic), so data that round-trips through JSON floats stays exact.

A :class:`Poly` stores one positive integer denominator and two lists of
Python ints, the real and imaginary numerators: its coefficients are
Gaussian integers over one common denominator.  Every polynomial kernel is
an integer loop: product, sum, derivative, integral, Taylor shift, Horner
evaluation, synthetic division (root multiplicity, deflation), Euclidean
pseudo-division (gcd), the coefficient-size test behind the zero test
(``_peak_within``) and a coprimality certificate by Euclid modulo one
prime (``_coprime_mod_p``).  A point p = P/d enters as the Gaussian
integer P acting on d**deg * f(x/d).  The :class:`ExactComplex` view of
the coefficients is built only on request.

Only what the package needs is implemented.  The exact calculus of
:mod:`nullsl2.series` (series quotients, Hermite reduction of rational
antiderivatives) runs on these kernels: the ring operations, ``divmod``,
``exact_div``, ``reverse`` and :func:`poly_gcd`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from typing import Iterable, Sequence


def _ratio(n: int, d: int) -> float:
    """n / d for d > 0, correctly rounded; past the float range it is
    +-inf, as IEEE round-to-nearest gives (Python raises OverflowError)."""
    try:
        return n / d
    except OverflowError:
        return inf if n > 0 else -inf


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact: floats are dyadic rationals
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


class ExactComplex:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    # -- construction ------------------------------------------------------

    @staticmethod
    def of(value) -> "ExactComplex":
        """Coerce ints, floats, Fractions, complex and ExactComplex."""
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, complex):
            return ExactComplex(value.real, value.imag)
        return ExactComplex(value)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = ExactComplex.of(other)
        return ExactComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = ExactComplex.of(other)
        return ExactComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return ExactComplex.of(other).__sub__(self)

    def __mul__(self, other):
        o = ExactComplex.of(other)
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = ExactComplex.of(other)
        d = o.re * o.re + o.im * o.im
        if not d:
            raise ZeroDivisionError("exact complex division by zero")
        return ExactComplex((self.re * o.re + self.im * o.im) / d,
                            (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        return ExactComplex.of(other).__truediv__(self)

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        try:
            o = ExactComplex.of(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- conversion ---------------------------------------------------------

    def __complex__(self) -> complex:
        re, im = self.re, self.im
        return complex(_ratio(re.numerator, re.denominator),
                       _ratio(im.numerator, im.denominator))

    def __repr__(self) -> str:
        return f"ExactComplex({self.re!r}, {self.im!r})"


EC_ZERO = ExactComplex(0)
EC_ONE = ExactComplex(1)


def _split(c) -> tuple[int, int, int, int]:
    """Exact (re numerator, re denominator, im numerator, im denominator)
    of an int, float, Fraction, complex or ExactComplex."""
    if isinstance(c, ExactComplex):
        re, im = c.re, c.im
        return re.numerator, re.denominator, im.numerator, im.denominator
    if isinstance(c, complex):
        return c.real.as_integer_ratio() + c.imag.as_integer_ratio()
    if isinstance(c, float):
        return c.as_integer_ratio() + (0, 1)
    if isinstance(c, (int, Fraction)):
        return c.numerator, c.denominator, 0, 1
    raise TypeError(f"cannot build an exact rational from {type(c).__name__}")


def _gauss(c) -> tuple[int, int, int]:
    """(r, m, d) with c == (r + i*m)/d and d > 0."""
    rn, rd, mn, md = _split(c)
    d = lcm(rd, md)
    return rn * (d // rd), mn * (d // md), d


# -- integer kernels on Gaussian-integer coefficient lists (re, im) ----------

def _conv(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two nonempty ascending integer coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a, j):
                out[i] += x * y
    return out


def _gmul(re, im, cr: int, ci: int) -> tuple[list[int], list[int]]:
    """Every coefficient times the Gaussian integer cr + i*ci."""
    return ([r * cr - m * ci for r, m in zip(re, im)],
            [r * ci + m * cr for r, m in zip(re, im)])


def _powers(d: int, n: int) -> list[int]:
    """[1, d, d**2, ..., d**(n - 1)]."""
    out = [1]
    for _ in range(n - 1):
        out.append(out[-1] * d)
    return out


def _times(re, im, w: Sequence[int]) -> tuple[list[int], list[int]]:
    """Coefficient k times the integer w[k]."""
    return ([r * x for r, x in zip(re, w)], [m * x for m, x in zip(im, w)])


def _synthetic(re, im, pr: int, pi: int):
    """Synthetic division of sum (re[k] + i*im[k]) x^k by x - (pr + i*pi)
    over Z[i]: (quotient re, quotient im, remainder re, remainder im)."""
    n = len(re) - 1
    q_re, q_im = [0] * n, [0] * n
    r = m = 0
    for k in range(n, 0, -1):
        r, m = r * pr - m * pi + re[k], r * pi + m * pr + im[k]
        q_re[k - 1], q_im[k - 1] = r, m
    return q_re, q_im, r * pr - m * pi + re[0], r * pi + m * pr + im[0]


def _taylor_shift(re: list[int], im: list[int], pr: int, pi: int) -> None:
    """In place: the coefficients of g(x + P), P = pr + i*pi, by the
    n(n-1)/2 Horner steps of repeated synthetic division."""
    n = len(re)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            r, m = re[j + 1], im[j + 1]
            re[j] += r * pr - m * pi
            im[j] += r * pi + m * pr


class Poly:
    """Dense univariate polynomial with exact Gaussian-rational coefficients.

    Coefficient k is ``(re[k] + i*im[k]) / den`` with integers ``re[k]``,
    ``im[k]`` and one positive integer ``den``.  Every constructor ends in
    ``_init``, which keeps the normal form: trailing zero coefficients are
    trimmed and ``gcd(den, re..., im...)`` is divided out (no gcd is taken
    when ``den == 1``, where it is 1), so ``degree`` is well defined and
    equal polynomials are stored alike, as tuples.  The zero polynomial
    has empty tuples and ``den == 1``.

    Immutability is the ``__setattr__`` guard: ``_init`` and the two
    cached views write the slots through the slot descriptors, bound once
    below the class.
    """

    __slots__ = ("_den", "_re", "_im", "_coeffs", "_float_cache")

    def __init__(self, coeffs: Iterable = ()):
        parts = [_split(c) for c in coeffs]
        den = lcm(*(p[1] for p in parts), *(p[3] for p in parts))
        self._init(den, [p[0] * (den // p[1]) for p in parts],
                   [p[2] * (den // p[3]) for p in parts])

    def _init(self, den: int, re: Sequence[int], im: Sequence[int]) -> None:
        n = len(re)
        while n and not (re[n - 1] or im[n - 1]):
            n -= 1
        if n < len(re):
            re, im = re[:n], im[:n]
        if den != 1:
            g = gcd(den, *re, *im) if n else den
            if g != 1:
                # lists, not generators: tuple(generator) grows by
                # reallocation, and that fragmented the heap of long runs
                # (peak RSS +8%)
                re, im = [r // g for r in re], [m // g for m in im]
                den //= g
        _set_den(self, den)
        _set_re(self, tuple(re))
        _set_im(self, tuple(im))
        _set_coeffs(self, None)
        _set_float_cache(self, None)

    @staticmethod
    def _make(den: int, re: Sequence[int], im: Sequence[int]) -> "Poly":
        """The polynomial with coefficients (re[k] + i*im[k]) / den."""
        p = object.__new__(Poly)
        p._init(den, re, im)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through _init; the two cached
        # views are left behind
        return Poly._make, (self._den, self._re, self._im)

    @property
    def coeffs(self) -> tuple[ExactComplex, ...]:
        """Ascending exact coefficients, built on first use and cached."""
        cs = self._coeffs
        if cs is None:
            d = self._den
            cs = tuple([ExactComplex(Fraction(r, d), Fraction(m, d))
                        for r, m in zip(self._re, self._im)])
            _set_coeffs(self, cs)
        return cs

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly._make(1, (), ())

    @staticmethod
    def one() -> "Poly":
        return Poly._make(1, (1,), (0,))

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        r, m, d = _gauss(c)
        return Poly._make(d, [0] * k + [r], [0] * k + [m])

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._re) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self._re

    @property
    def lc(self) -> ExactComplex:
        if not self._re:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(self.degree)

    def coeff(self, k: int) -> ExactComplex:
        if 0 <= k < len(self._re):
            d = self._den
            return ExactComplex(Fraction(self._re[k], d),
                                Fraction(self._im[k], d))
        return EC_ZERO

    def drop_low(self, t: int) -> "Poly":
        """The polynomial of coefficients t, t+1, ...: self // z**t."""
        return Poly._make(self._den, self._re[t:], self._im[t:])

    def reverse(self) -> "Poly":
        """z**degree * self(1/z): the coefficients in reverse order."""
        return Poly._make(self._den, self._re[::-1], self._im[::-1])

    # -- ring operations ------------------------------------------------------

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign*other over the lcm of the two denominators."""
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        n = max(len(self._re), len(other._re))
        re, im = [0] * n, [0] * n
        for f, p in ((fa, self), (fb, other)):
            for k, (r, m) in enumerate(zip(p._re, p._im)):
                re[k] += f * r
                im[k] += f * m
        return Poly._make(den, re, im)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return Poly._make(self._den, [-r for r in self._re],
                          [-m for m in self._im])

    def __mul__(self, other: "Poly") -> "Poly":
        a_re, a_im, b_re, b_im = self._re, self._im, other._re, other._im
        if not a_re or not b_re:
            return Poly._make(1, (), ())
        re = _conv(a_re, b_re)
        a_cx, b_cx = any(a_im), any(b_im)
        if a_cx and b_cx:     # Gauss: three real products, not four
            ii = _conv(a_im, b_im)
            mix = _conv([r + m for r, m in zip(a_re, a_im)],
                        [r + m for r, m in zip(b_re, b_im)])
            im = [s - x - y for s, x, y in zip(mix, re, ii)]
            re = [x - y for x, y in zip(re, ii)]
        elif a_cx:
            im = _conv(a_im, b_re)
        elif b_cx:
            im = _conv(a_re, b_im)
        else:
            im = [0] * len(re)
        return Poly._make(self._den * other._den, re, im)

    def scale(self, c) -> "Poly":
        cr, ci, cd = _gauss(c)
        return Poly._make(self._den * cd, *_gmul(self._re, self._im, cr, ci))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self._den == other._den
                and self._re == other._re and self._im == other._im)

    def __hash__(self):
        return hash((self._den, self._re, self._im))

    def __repr__(self) -> str:
        return f"Poly({list(reversed(self.float_coeffs()))})"

    # -- evaluation ------------------------------------------------------------

    def _scaled(self, pd: int) -> tuple[list[int], list[int]]:
        """Numerators of pd**degree * self(x / pd): coefficient k times
        pd**(degree - k)."""
        return _times(self._re, self._im, _powers(pd, len(self._re))[::-1])

    def __call__(self, z):
        """Horner evaluation; exact for ExactComplex input, float otherwise."""
        if isinstance(z, ExactComplex):
            if not self._re:
                return EC_ZERO
            pr, pi, pd = _gauss(z)
            _, _, r, m = _synthetic(*self._scaled(pd), pr, pi)
            d = self._den * pd ** self.degree
            return ExactComplex(Fraction(r, d), Fraction(m, d))
        zc = complex(z)
        acc = 0j
        for c in self.float_coeffs():
            acc = acc * zc + c
        return acc

    def float_coeffs(self) -> tuple[complex, ...]:
        """Descending float coefficients (numpy/Horner order), cached:
        each part correctly rounded, as ``complex(ExactComplex)`` is, and
        +-inf past the float range."""
        cached = self._float_cache
        if cached is None:
            d = self._den
            cached = tuple([complex(_ratio(r, d), _ratio(m, d)) for r, m in
                            zip(reversed(self._re), reversed(self._im))])
            _set_float_cache(self, cached)
        return cached

    # -- calculus ---------------------------------------------------------------

    def derivative(self) -> "Poly":
        return Poly._make(self._den,
                          [k * r for k, r in enumerate(self._re)][1:],
                          [k * m for k, m in enumerate(self._im)][1:])

    def integral(self) -> "Poly":
        """The antiderivative with zero constant term: over den * L,
        L = lcm(1, ..., degree + 1), numerator k moves to k + 1 times
        L/(k + 1)."""
        n = len(self._re)
        scale = lcm(*range(1, n + 1))
        re, im = _times(self._re, self._im,
                        [scale // (k + 1) for k in range(n)])
        return Poly._make(self._den * scale, [0] + re, [0] + im)

    # -- shifts, roots, division --------------------------------------------------

    def shift(self, p) -> "Poly":
        """Coefficients of self(w + p) in w (exact Taylor shift).

        With p = P/pd: the Taylor shift by the Gaussian integer P of
        g(x) = pd**n * self(x/pd), n = degree, gives self(w + p) =
        g(pd*w + P) / pd**n.
        """
        pr, pi, pd = _gauss(p)
        if not (pr or pi) or not self._re:
            return self
        re, im = self._scaled(pd)
        _taylor_shift(re, im, pr, pi)
        re, im = _times(re, im, _powers(pd, len(re)))
        return Poly._make(self._den * pd ** self.degree, re, im)

    def low_order(self) -> int:
        """Index of the first nonzero coefficient (valuation at 0)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no valuation")
        for k, (r, m) in enumerate(zip(self._re, self._im)):
            if r or m:
                return k
        raise AssertionError("unreachable: trailing zeros are trimmed")

    def multiplicity_at(self, p) -> int:
        """Multiplicity of p as a root (0 when p is not a root). Exact."""
        if self.is_zero():
            raise ValueError("every point is a root of the zero polynomial")
        pr, pi, pd = _gauss(p)
        if not (pr or pi):
            return self.low_order()
        re, im = self._scaled(pd)
        count = 0
        while True:
            re, im, r, m = _synthetic(re, im, pr, pi)
            if r or m:
                return count
            count += 1

    def deflate(self, p) -> "Poly":
        """Exact synthetic division by (z - p); ValueError unless
        self(p) == 0."""
        if self.is_zero():
            return self
        pr, pi, pd = _gauss(p)
        re, im, r, m = _synthetic(*self._scaled(pd), pr, pi)
        if r or m:
            raise ValueError("deflate: the point is not a root")
        re, im = _times(re, im, _powers(pd, len(re)))
        return Poly._make(self._den * pd ** (self.degree - 1), re, im)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact Euclidean division: self = q*other + r, deg r < deg other.

        Pseudo-division over Z[i] by B = conj(lc)*other, whose leading
        numerator is the positive integer N = |lc|**2: each step with a
        nonzero quotient term multiplies the remainder and the quotient by
        N, and the final content reduction removes what is common.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        m = len(other._re)
        dq = len(self._re) - m
        if dq < 0:
            return Poly.zero(), self
        lr, li = other._re[-1], other._im[-1]
        norm = lr * lr + li * li
        b_re, b_im = _gmul(other._re, other._im, lr, -li)
        r_re, r_im = list(self._re), list(self._im)
        q_re, q_im = [0] * (dq + 1), [0] * (dq + 1)
        scale = 1
        for k in range(dq, -1, -1):
            top = k + m - 1
            tr, ti = r_re[top], r_im[top]
            if not (tr or ti):
                continue
            if norm != 1:
                scale *= norm
                for j in range(top):
                    r_re[j] *= norm
                    r_im[j] *= norm
                for j in range(k + 1, dq + 1):
                    q_re[j] *= norm
                    q_im[j] *= norm
            q_re[k], q_im[k] = tr, ti
            for j in range(m - 1):
                x, y = b_re[j], b_im[j]
                r_re[k + j] -= tr * x - ti * y
                r_im[k + j] -= tr * y + ti * x
        # self * N**s == Q*B + R with B = conj(lc) * other._den * other
        den = self._den * scale
        q_re, q_im = _gmul(q_re, q_im, lr * other._den, -li * other._den)
        return (Poly._make(den, q_re, q_im),
                Poly._make(den, r_re[:m - 1], r_im[:m - 1]))

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("polynomial division is not exact")
        return q

    def monic(self) -> "Poly":
        """self / lc: the numerators times conj(lc) over |lc|**2."""
        if self.is_zero():
            return self
        lr, li = self._re[-1], self._im[-1]
        return Poly._make(lr * lr + li * li,
                          *_gmul(self._re, self._im, lr, -li))


# the slot writers behind the immutable Poly: each is a slot descriptor's
# __set__, which bypasses Poly.__setattr__
_set_den = Poly._den.__set__
_set_re = Poly._re.__set__
_set_im = Poly._im.__set__
_set_coeffs = Poly._coeffs.__set__
_set_float_cache = Poly._float_cache.__set__


def _peak_within(num: Poly, den: Poly, tol) -> bool:
    """max|num coeff| <= tol * max(1, max|den coeff|), exactly: squared
    integer moduli against the dyadic value of float(tol), which must be
    finite.  A tol <= 0 admits only the zero polynomial."""
    if not num._re:
        return True
    if tol <= 0:
        return False
    a, b = float(tol).as_integer_ratio()
    dn, dd = num._den, den._den
    n2 = max([r * r + m * m for r, m in zip(num._re, num._im)])
    d2 = max([r * r + m * m for r, m in zip(den._re, den._im)])
    # n2 / dn**2 <= (a / b)**2 * max(1, d2 / dd**2)
    return n2 * (b * dd) ** 2 <= (a * dn) ** 2 * max(dd * dd, d2)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the exact complex-rational field (Euclid)."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


#: one prime p = 1 (mod 4) below 2**30 and a square root of -1 modulo it:
#: i -> _S maps Z[i] onto Z/p, and every residue is a one-digit CPython int
_P = 1073741789
_S = 933053945


def _gcd_mod_p(a: list[int], b: list[int]) -> list[int]:
    """A gcd modulo ``_P`` of two descending residue lists without
    leading zeros (Euclid); ``[]`` when both are zero."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        inv = pow(b[0], -1, _P)
        b = [x * inv % _P for x in b]
        n, a = len(b), list(a)
        tail = b[1:]
        for k in range(len(a) - n + 1):
            c = a[k]
            if c:
                a[k + 1:k + n] = [(x - c * y) % _P
                                  for x, y in zip(a[k + 1:k + n], tail)]
        r = a[len(a) - n + 1:]
        while r and not r[0]:
            del r[0]
        a, b = b, r
    return a


def _coprime_mod_p(polys: Iterable[Poly]) -> bool:
    """A certificate that the numerators of ``polys`` share no root.

    Each Gaussian-integer numerator (``_re``, ``_im``) is mapped into
    Z/p, p = ``_P``, by i -> ``_S``; ``_den`` is a unit and is ignored.
    True only when the gcd of the images (Euclid mod p) is a nonzero
    constant and at least one numerator's leading coefficient is nonzero
    mod p.  That is sound: a common factor over Q(i) divides every
    numerator over Z[i] (Gauss's lemma), and its image keeps its degree
    in a numerator whose leading coefficient survives, so it divides the
    modular gcd (Brown, J. ACM 18, 1971).  Without the leading-coefficient
    guard a common factor whose own leading coefficient is divisible by p
    would drop out of the images.  False means only "not certified": a
    real common factor, or an unlucky prime.
    """
    g: list[int] = []
    lead = False
    for f in polys:
        re, im = f._re, f._im
        if re and (re[-1] + _S * im[-1]) % _P:
            lead = True
        if len(g) != 1:
            a = [(r + _S * m) % _P for r, m in zip(reversed(re), reversed(im))]
            while a and not a[0]:
                del a[0]
            g = _gcd_mod_p(g, a)
        if lead and len(g) == 1:
            return True
    return False
