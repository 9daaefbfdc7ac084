"""Meromorphic functions of one complex variable, in two representations.

``Rational``
    An exact quotient of polynomials with complex-rational coefficients
    (see :mod:`nullsl2.exact`).  Identity checks on this representation are
    genuine algebraic facts: ``det F - 1 == 0`` means *equal*, not "small".
    The zero test compares integer numerators, exact at every magnitude;
    residues and values at a point are read from the translate to it.

One coordinate convention for both: a function stores its coefficients in
powers of the local variable w = z - base_point, and every read at a point
p works at the offset p - base_point.  Float reads take the float offset,
as a window always has; exact reads (orders, Laurent heads, residues, the
pole test of ``evaluate``) take it exactly, as an ``ExactComplex``
difference, and shift nothing where p is the base point.  Arithmetic on
two Rationals at different base points first shifts the right operand
exactly to the left one's base point, which the result takes.  The
public constructors ``from_rational`` and ``from_poly`` take coefficients
in z and shift them once to the base point; ``monomial`` and ``constant``
are local already.  At base point 0 the two variables coincide.

``LaurentWindow``
    A finite floating window of Laurent coefficients around ``base_point``:
    exponents run from ``min_exponent`` to ``truncation_order``.  Coefficients
    below ``min_exponent`` are known to vanish; coefficients above
    ``truncation_order`` are unknown.  Arithmetic tracks the certified range
    (sum: min of tops; product: ``min(T1+n2, T2+n1)``; etc.), so a window
    never claims digits it cannot certify.  Window kernels read it through
    one accessor, ``_window_slice(w, lo, hi)``: an array zero-padded on
    both sides, so a kernel that must not read past the certified top
    checks that itself.  Magnitudes are ``np.hypot(re, im)``, which equals
    Python's complex ``abs`` bit for bit (``np.abs`` does not), so strip
    decisions match a scalar loop's.

One tolerance per verdict: a zero test (``is_identically_zero``) takes the
caller's ``tol``, the only tolerance on stored coefficients.  Orders,
poles, residues and division guards read the stored coefficients exactly,
on both representations.  Computed values keep their noise floors.

Every function carries a ``base_point`` and a ``DomainTag``.  Annulus-tagged
windows are genuine two-sided Laurent series: their division (and the
rational-to-window conversion) goes through FFT re-expansion on the
geometric-mean circle, because a germ expansion would produce the wrong
Laurent branch there.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from math import isfinite
from typing import Iterable

from ._lazy import np
from .errors import (
    DivisionByZeroFunction,
    EvaluationAtPole,
    IdenticallyZero,
    NonExactField,
    TruncationTooShort,
)
from .exact import EC_ONE, ExactComplex, Poly, _peak_within, poly_gcd

#: default ``tol`` of the zero tests, and the floor below which a window's
#: computed value away from its base point counts as zero (stored
#: coefficients are read exactly; see the module docstring)
ZERO_TOL = 1e-10
#: default number of certified window terms (leading exponent + 24 more)
DEFAULT_TERMS = 25
#: relative threshold below which computed leading coefficients are stripped
_STRIP_REL = 1e-13

#: a float quotient is trusted only while both parts of its denominator
#: stay below this: Smith's division, as Python and numpy run it, scales by
#: a sum of the two parts, which overflows past it even when the quotient
#: itself is finite (and then comes out as a signed zero)
_SMITH_LIMIT = 2.0 ** 1022


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainTag:
    """Where a function is considered to live: disk, punctured disk,
    annulus(r_inner, r_outer) or the full plane.

    Tags are frozen and compare by value.  The named kinds are shared
    values: ``disk()``, ``punctured_disk()`` and ``plane()`` each return
    one module-level tag, so building a function builds no tag.
    """

    kind: str
    r_inner: float | None = None
    r_outer: float | None = None

    def __post_init__(self):
        if self.kind not in ("disk", "punctured_disk", "annulus", "plane"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "annulus":
            if not (self.r_inner is not None and self.r_outer is not None
                    and 0 < self.r_inner < self.r_outer):
                raise ValueError("annulus needs 0 < r_inner < r_outer")

    @property
    def is_annulus(self) -> bool:
        return self.kind == "annulus"


_DISK = DomainTag("disk")
_PUNCTURED_DISK = DomainTag("punctured_disk")
_PLANE = DomainTag("plane")

#: the narrower of two named kinds wins a merge
_KIND_ORDER = {"punctured_disk": 0, "disk": 1, "plane": 2}


def disk() -> DomainTag:
    """The shared disk tag."""
    return _DISK


def punctured_disk() -> DomainTag:
    """The shared punctured-disk tag."""
    return _PUNCTURED_DISK


def annulus(r_inner: float, r_outer: float) -> DomainTag:
    return DomainTag("annulus", float(r_inner), float(r_outer))


def plane() -> DomainTag:
    """The shared plane tag (named kinds are shared values; see
    ``DomainTag``)."""
    return _PLANE


def _merge_domain(a: DomainTag, b: DomainTag) -> DomainTag:
    if a is b:
        return a
    if a.is_annulus and b.is_annulus:
        ri, ro = max(a.r_inner, b.r_inner), min(a.r_outer, b.r_outer)
        if not ri < ro:
            raise ValueError("annulus domains do not overlap")
        return annulus(ri, ro)
    if a.is_annulus:
        return a
    if b.is_annulus:
        return b
    return a if _KIND_ORDER[a.kind] <= _KIND_ORDER[b.kind] else b


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rational:
    """Exact quotient num/den of polynomials; den is not the zero polynomial."""

    num: Poly
    den: Poly

    def __post_init__(self):
        if self.den.is_zero():
            raise DivisionByZeroFunction("rational function with zero denominator")


@dataclass(frozen=True)
class LaurentWindow:
    """Floating Laurent coefficients for exponents
    ``min_exponent .. truncation_order`` (ascending).

    The leading coefficient is nonzero unless the window is identically zero
    over its certified range.
    """

    min_exponent: int
    coeffs: tuple[complex, ...]
    truncation_order: int

    def __post_init__(self):
        if self.truncation_order != self.min_exponent + len(self.coeffs) - 1:
            raise ValueError("truncation_order inconsistent with coefficient count")


def _normalized_window(min_exp: int, coeffs,
                       strip_rel: float = 0.0) -> LaurentWindow:
    """A window starting at the first entry above strip_rel * peak (at 0
    if none is: an identically zero window).  With strip_rel > 0 every
    entry at or below it becomes 0j, not only at the front: round-off junk
    sits at any exponent (``_fft_expand`` strips FFT modes this way)."""
    cs = np.asarray(coeffs, dtype=complex)
    mags = np.hypot(cs.real, cs.imag)
    thr = strip_rel * mags.max(initial=0.0)
    tiny = mags <= thr
    if thr > 0:
        cs = np.where(tiny, 0j, cs)
    lead = 0 if tiny.all() else int(tiny.argmin())
    return LaurentWindow(min_exp + lead, tuple(cs[lead:].tolist()),
                         min_exp + len(cs) - 1)


# ---------------------------------------------------------------------------
# the public function type
# ---------------------------------------------------------------------------

class MeroFunction:
    """A meromorphic function in either exact-rational or window form.

    Equality and hashing are structural over ``(rep, base_point,
    domain)``, as ``Poly``'s are over its stored form: x/x and 1 are
    different values.  So a copy or a pickle round trip compares equal,
    and so do the curve dataclasses holding such slots; comparing two
    curves reads their pole sets.
    """

    __slots__ = {"rep": "Rational or window, in powers of z - base_point",
                 "base_point": None, "domain": None}

    def __init__(self, rep, base_point: complex = 0j,
                 domain: DomainTag | None = None):
        if not isinstance(rep, (Rational, LaurentWindow)):
            raise TypeError("rep must be Rational or LaurentWindow")
        _set_rep(self, rep)
        _set_base_point(self, complex(base_point))
        if domain is None:
            if isinstance(rep, Rational):
                domain = _PLANE
            else:
                domain = _PUNCTURED_DISK if rep.min_exponent < 0 else _DISK
        _set_domain(self, domain)

    def __setattr__(self, name, value):
        raise AttributeError("MeroFunction is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor
        return MeroFunction, (self.rep, self.base_point, self.domain)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeroFunction):
            return NotImplemented
        return (self.rep == other.rep and self.base_point == other.base_point
                and self.domain == other.domain)

    def __hash__(self):
        return hash((self.rep, self.base_point, self.domain))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rational(num: Iterable, den: Iterable = (1,),
                      base_point: complex = 0j,
                      domain: DomainTag | None = None) -> "MeroFunction":
        """Build from ascending coefficient lists in powers of z (exact;
        floats stay exact).  Off base point 0 they are Taylor-shifted
        once, exactly, to the stored powers of w = z - base_point; a
        common power of w is then cancelled."""
        n = num if isinstance(num, Poly) else Poly(num)
        d = den if isinstance(den, Poly) else Poly(den)
        if base_point:
            n, d = n.shift(base_point), d.shift(base_point)
        d, n = _cancel_monomial(d, n)
        return MeroFunction(Rational(n, d), base_point, domain)

    @staticmethod
    def from_poly(coeffs: Iterable, base_point: complex = 0j,
                  domain: DomainTag | None = None) -> "MeroFunction":
        return MeroFunction.from_rational(coeffs, (1,), base_point, domain)

    @staticmethod
    def from_laurent(min_exponent: int, coeffs: Iterable,
                     base_point: complex = 0j,
                     domain: DomainTag | None = None) -> "MeroFunction":
        win = _normalized_window(int(min_exponent), list(coeffs))
        return MeroFunction(win, base_point, domain)

    @staticmethod
    def constant(c, base_point: complex = 0j,
                 domain: DomainTag | None = None) -> "MeroFunction":
        """c, the same in every coordinate, so it is stored as given."""
        return MeroFunction(Rational(Poly((c,)), Poly.one()), base_point,
                            domain)

    @staticmethod
    def zero(base_point: complex = 0j) -> "MeroFunction":
        return MeroFunction.constant(0, base_point)

    @staticmethod
    def monomial(exponent: int, c=1, base_point: complex = 0j,
                 domain: DomainTag | None = None) -> "MeroFunction":
        """c * (z - base_point)**exponent = c * w**exponent, exact for any
        integer exponent, and stored as that monomial in w."""
        if exponent >= 0:
            num, den = Poly.monomial(exponent, c), Poly.one()
        else:
            num, den = Poly((c,)), Poly.monomial(-exponent)
        return MeroFunction(Rational(num, den), base_point, domain)

    # -- representation queries -----------------------------------------------

    @property
    def is_rational(self) -> bool:
        return isinstance(self.rep, Rational)

    @property
    def is_window(self) -> bool:
        return isinstance(self.rep, LaurentWindow)

    def with_domain(self, domain: DomainTag) -> "MeroFunction":
        return MeroFunction(self.rep, self.base_point, domain)

    def is_identically_zero(self, tol: float = ZERO_TOL) -> bool:
        """max|num coeff| <= tol * max(1, max|den coeff|), so round-tripped
        coefficients keep their verdicts; a window compares each coefficient
        with tol.  For a Rational it is decided exactly on the integer
        numerators (``exact._peak_within``).  On both, tol <= 0 means
        exactly zero.  A NaN or infinite tol raises ValueError.  The
        scale is the stored denominator, not a reduced form: a sum or
        difference over a shared D keeps D (see ``_binary_rational``)."""
        if not isfinite(tol):
            raise ValueError(f"tol must be finite, got {tol}")
        if self.is_rational:
            return _peak_within(self.rep.num, self.rep.den, tol)
        return all(abs(c) <= tol or not c for c in self.rep.coeffs)

    def __repr__(self) -> str:
        """A Rational shows its stored coefficients, ascending, in powers
        of w = z - base_point, and the base point where it is not 0."""
        if self.is_rational:
            num, den = self.rep.num.float_coeffs(), self.rep.den.float_coeffs()
            at = f", base_point={self.base_point}" if self.base_point else ""
            return (f"MeroFunction(num={list(reversed(num))}, "
                    f"den={list(reversed(den))}{at})")
        w = self.rep
        return (f"MeroFunction(window [{w.min_exponent}..{w.truncation_order}] "
                f"at {self.base_point})")

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other) -> "MeroFunction":
        if isinstance(other, MeroFunction):
            return other
        return MeroFunction.constant(other, self.base_point, self.domain)

    def __add__(self, other):
        return _binary("add", self, self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _binary("sub", self, self._coerce(other))

    def __rsub__(self, other):
        return _binary("sub", self._coerce(other), self)

    def __mul__(self, other):
        return _binary("mul", self, self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary("div", self, self._coerce(other))

    def __rtruediv__(self, other):
        return _binary("div", self._coerce(other), self)

    def __neg__(self):
        if self.is_rational:
            return MeroFunction(Rational(-self.rep.num, self.rep.den),
                                self.base_point, self.domain)
        w = self.rep
        return MeroFunction(LaurentWindow(w.min_exponent,
                                          tuple(-c for c in w.coeffs),
                                          w.truncation_order),
                            self.base_point, self.domain)

    # -- calculus ----------------------------------------------------------------

    def differentiate(self) -> "MeroFunction":
        if self.is_rational:
            n, d = self.rep.num, self.rep.den
            if d.degree == 0:
                return MeroFunction(Rational(n.derivative(), d),
                                    self.base_point, self.domain)
            num = n.derivative() * d - n * d.derivative()
            den, num = _cancel_monomial(d * d, num)
            return MeroFunction(Rational(num, den), self.base_point, self.domain)
        w = self.rep
        ks = np.arange(w.min_exponent, w.truncation_order + 1)
        win = _normalized_window(w.min_exponent - 1, ks * np.asarray(w.coeffs))
        return MeroFunction(win, self.base_point, self.domain)

    def antiderivative(self) -> "MeroFunction":
        """Termwise/exact antiderivative with zero integration constant.

        Raises NonExactField when the function has a nonzero residue, i.e.
        when no single-valued antiderivative exists; the error carries the
        offending pole (``.pole``) and the cycle period (``.period``).
        """
        if self.is_rational:
            num, den = _rational_antiderivative(self.rep.num, self.rep.den,
                                                self.base_point)
            return MeroFunction(Rational(num, den), self.base_point, self.domain)
        w = self.rep
        res = _window_slice(w, -1, -1)[0].item()
        if res:
            err = NonExactField(
                "window has a nonzero z^-1 coefficient; periods do not vanish",
                period=2j * cmath.pi * res)
            err.pole = self.base_point
            raise err
        # Python's complex / int: numpy's multiplies by 1/j, rounding apart
        lo, hi = w.min_exponent, w.truncation_order
        coeffs = [c / j if j else 0j for j, c in
                  enumerate(_window_slice(w, lo, hi).tolist(), lo + 1)]
        return MeroFunction(_normalized_window(lo + 1, coeffs),
                            self.base_point, self.domain)

    # -- order / residue / evaluation ----------------------------------------------

    def ord(self, p: complex) -> int:
        """Vanishing order at p: the unique n with (z-p)^-n * f regular and
        nonzero at p. Exact for Rational, at the exact offset from the base
        point; certified-by-window otherwise."""
        if self.is_rational:
            num, den = self.rep.num, self.rep.den
            if num.is_zero():
                raise IdenticallyZero("ord of the zero function is undefined")
            p = _offset(complex(p), self.base_point)
            return num.multiplicity_at(p) - den.multiplicity_at(p)
        w = self.rep
        if not w.coeffs:
            raise TruncationTooShort(
                "empty window cannot certify a vanishing order")
        if abs(complex(p) - self.base_point) <= 1e-12:
            for i, c in enumerate(w.coeffs):
                if c:
                    return w.min_exponent + i
            raise TruncationTooShort(
                "every window coefficient is zero; "
                "the order (if any) exceeds the truncation order")
        val = self.evaluate(p)
        if abs(val) > ZERO_TOL:
            return 0
        raise TruncationTooShort(
            "a window certifies orders only at its base point")

    def residue(self, p: complex) -> complex:
        """Coefficient of (z-p)^-1: ``laurent_head(p, -1, -1)[-1]``, exact
        (then floated) for Rational.  A window is regular away from its
        base point, so its residue there is 0j."""
        if self.is_window and abs(complex(p) - self.base_point) > 1e-12:
            return 0j
        return self.laurent_head(p, -1, -1)[-1]

    def evaluate(self, z: complex) -> complex:
        """Pointwise value; removable singularities of Rational are filled
        exactly, genuine poles raise EvaluationAtPole."""
        if self.is_rational:
            return _evaluate_rational(self, complex(z))
        w = self.rep
        dz = complex(z) - self.base_point
        if not w.coeffs:
            return 0j
        if dz == 0:
            if any(w.coeffs[:max(0, -w.min_exponent)]):
                raise EvaluationAtPole("window has a pole at its base point")
            return _window_slice(w, 0, 0)[0].item()
        acc = 0j
        for c in reversed(w.coeffs):
            acc = acc * dz + c
        return acc * dz ** w.min_exponent

    __call__ = evaluate

    def evaluate_many(self, zs) -> np.ndarray:
        """Vectorized evaluation on an array of sample points."""
        zs = np.asarray(zs, dtype=complex)
        if self.is_rational:
            ws = zs - self.base_point if self.base_point else zs
            out = np.empty_like(zs)
            # a zero denominator or a value past the float range gives a
            # non-finite quotient, and a denominator part at or past
            # _SMITH_LIMIT an unreliable one: the scalar path redoes both
            with np.errstate(all="ignore"):
                dv = np.polyval(self.rep.den.float_coeffs(), ws)
                np.divide(np.polyval(self.rep.num.float_coeffs() or (0j,), ws),
                          dv, out=out)
            bad = ~np.isfinite(out)
            parts = np.abs(dv.ravel("K").view(np.float64))
            if not parts.max(initial=0.0) < _SMITH_LIMIT:   # NaN trips too
                bad |= ~(np.maximum(abs(dv.real), abs(dv.imag)) < _SMITH_LIMIT)
            if bad.any():
                out[bad] = [self.evaluate(z) for z in zs[bad]]
            return out
        w = self.rep
        if not w.coeffs:
            return np.zeros_like(zs)
        dz = zs - self.base_point
        vals = np.polyval(tuple(reversed(w.coeffs)), dz)
        if w.min_exponent != 0:
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = vals * dz ** float(w.min_exponent)
        zero = dz == 0
        if zero.any():
            vals[zero] = [self.evaluate(z) for z in zs[zero]]
        return vals

    # -- conversions -----------------------------------------------------------------

    def exact_laurent(self, p: complex, count: int) -> tuple[int, list[ExactComplex]]:
        """Exact Laurent coefficients at p (Rational only): returns
        (min_exponent, first `count` coefficients from that exponent)."""
        if not self.is_rational:
            raise TypeError("exact_laurent requires the Rational representation")
        if self.rep.num.is_zero():
            raise IdenticallyZero("the zero function has no Laurent expansion")
        t = _local_rep(self, complex(p))
        n, q = _exact_series_quotient(t.num, t.den, count)
        return n, list(q.coeffs[::-1][:max(count, 1)])

    def to_laurent(self, base_point: complex | None = None,
                   terms: int = DEFAULT_TERMS,
                   domain: DomainTag | None = None) -> "MeroFunction":
        """Convert to a LaurentWindow (exact germ expansion, or FFT
        re-expansion on annulus domains).

        On an annulus the coefficients of exponents -(terms - 1) ..
        terms - 1 are read on the circle of radius r = sqrt(r_inner *
        r_outer), so a window's annulus is bounded by the float range of
        r**k: where some r**k is not a finite nonzero float it raises
        ValueError, e.g. ``to_laurent(domain=annulus(1e5, 1e7),
        terms=60)`` (r = 1e6 and r**59 = 1e354).  A nonzero constant is
        its own window, (c, 0j, ..., 0j) from exponent 0, with c its exact
        quotient rounded once, on every annulus, since no r**k is formed.
        Over den = 1 the FFT gives the same bits; over another den its
        float quotient can be an ulp away, or carry -0.0 (den < 0).
        """
        base = self.base_point if base_point is None else complex(base_point)
        dom = domain or self.domain
        if self.is_window:
            if abs(base - self.base_point) > 1e-12:
                raise ValueError("cannot move the base point of a window")
            return self.with_domain(dom)
        if dom.is_annulus:
            half = terms - 1
            num, den = self.rep.num, self.rep.den
            if num.degree == 0 and den.degree == 0:
                c = complex(num.coeff(0) / den.coeff(0))
                return MeroFunction(LaurentWindow(0, (c,) + (0j,) * half,
                                                  half), base, dom)
            win = _fft_expand(lambda zs: self.evaluate_many(zs), base, dom,
                              -half, half)
            return MeroFunction(win, base, dom)
        if self.rep.num.is_zero():
            return MeroFunction(_normalized_window(0, [0j] * terms), base, dom)
        lo, coeffs = self.exact_laurent(base, terms)
        win = _normalized_window(lo, [complex(c) for c in coeffs])
        if win.min_exponent < 0 and dom.kind == "disk":
            dom = punctured_disk()
        return MeroFunction(win, base, dom)

    def laurent_head(self, p: complex, lo: int, hi: int) -> dict[int, complex]:
        """Coefficients for exponents lo..hi at p (zero-filled below the
        window; TruncationTooShort beyond a window's certified top)."""
        if self.is_rational:
            n, cs = 0, ()
            if not self.rep.num.is_zero():
                t = _local_rep(self, complex(p))
                n = t.num.low_order() - t.den.low_order()
                if hi >= n:   # else every requested exponent is below ord
                    cs = _exact_series_quotient(t.num, t.den,
                                                hi - n + 1)[1].float_coeffs()
            return {k: cs[k - n] if 0 <= k - n < len(cs) else 0j
                    for k in range(lo, hi + 1)}
        w = self.rep
        if abs(complex(p) - self.base_point) > 1e-12:
            raise ValueError("window coefficients exist only at the base point")
        if hi > w.truncation_order and w.coeffs:
            raise TruncationTooShort(
                f"window certified through {w.truncation_order}, need {hi}")
        return dict(zip(range(lo, hi + 1), _window_slice(w, lo, hi).tolist()))

    # -- pole / zero bookkeeping --------------------------------------------------------

    def poles(self) -> list[tuple[complex, int]]:
        """Pole list [(location, order)], sorted by (real, imag).

        On a Rational the orders are exact: they are the multiplicities of
        the roots of den / gcd(num, den) (``_excess_roots``), and only the
        locations are floats, from ``np.roots`` on each squarefree part.
        A window lists its base point only.  Roots are found in the
        stored variable w and then moved by the base point."""
        if self.is_window:
            w = self.rep
            if w.min_exponent < 0 and any(w.coeffs):
                k = self.ord(self.base_point)
                return [(self.base_point, -k)] if k < 0 else []
            return []
        num = self.rep.num
        if num.is_zero():
            return []
        return _placed(_excess_roots(self.rep.den, num), self.base_point)

    def zeros(self) -> list[tuple[complex, int]]:
        """Zero list [(location, order)] of a Rational, as ``poles`` reads
        num / gcd(num, den); a window has none and gives []."""
        if self.is_window:
            return []
        return _placed(_excess_roots(self.rep.num, self.rep.den),
                       self.base_point)


# the slot writers behind the immutable MeroFunction, as for exact.Poly
_set_rep = MeroFunction.rep.__set__
_set_base_point = MeroFunction.base_point.__set__
_set_domain = MeroFunction.domain.__set__


# ---------------------------------------------------------------------------
# the arith dispatcher (spec-facing entry point)
# ---------------------------------------------------------------------------

def arith(op: str, f: MeroFunction, g: MeroFunction) -> MeroFunction:
    """Pointwise arithmetic: op in {'add','sub','mul','div'}."""
    if op not in ("add", "sub", "mul", "div"):
        raise ValueError(f"unknown arithmetic op {op!r}")
    return _binary(op, f, g)


def differentiate(f: MeroFunction) -> MeroFunction:
    return f.differentiate()


def ord_at(f: MeroFunction, p: complex) -> int:
    return f.ord(p)


def residue(f: MeroFunction, p: complex) -> complex:
    return f.residue(p)


def evaluate(f: MeroFunction, z: complex) -> complex:
    return f.evaluate(z)


# ---------------------------------------------------------------------------
# rational helpers
# ---------------------------------------------------------------------------

def _cancel_monomial(den: Poly, *nums: Poly) -> tuple[Poly, ...]:
    """(den, *nums) over w^t, w the stored variable z - base_point and t
    the least valuation of den and the nonzero nums (a cheap exact
    reduction that keeps monomial-denominator chains, such as the poles of
    an end at its own base point, from growing); the inputs themselves
    where t = 0 or every num is 0, with no num scanned where den(0) != 0."""
    t = 0 if den.is_zero() else den.low_order()
    if t:
        ts = [n.low_order() for n in nums if not n.is_zero()]
        t = min(t, *ts) if ts else 0
    if t == 0:
        return (den,) + nums
    return (den.drop_low(t),) + tuple(n.drop_low(t) for n in nums)


def _common_denominator(fs) -> tuple[list[Poly], Poly]:
    """(nums, D) with f == nums[k] / D for each Rational f in fs, exactly,
    in powers of z - b for b the first one's base point (the others are
    shifted there where theirs differs).

    D is the product of the distinct (by ``Poly`` equality) non-constant
    stored denominators, not their lcm: no gcd is taken.  Each numerator is
    num * (D / den): num times the other distinct factors, divided by den's
    value where den is a constant.
    """
    reps = [_local_rep(f, fs[0].base_point) for f in fs]
    dens: list[Poly] = []
    for r in reps:
        d = r.den
        if d.degree > 0 and d not in dens:
            dens.append(d)
    D = Poly.one()
    for d in dens:
        D = D * d
    nums = []
    for r in reps:
        num, den = r.num, r.den
        for d in dens:
            if d != den:
                num = num * d
        if den.degree == 0 and den.lc != EC_ONE:
            num = num.scale(EC_ONE / den.lc)
        nums.append(num)
    return nums, D


def _offset(p: complex, base: complex):
    """p - base, exactly: p itself where base is 0, else an
    ``ExactComplex`` difference (a float one could round)."""
    return ExactComplex.of(p) - ExactComplex.of(base) if base else p


def _local_rep(f: MeroFunction, p: complex) -> Rational:
    """The Rational f in powers of z - p: the stored one where p is f's
    base point, else its numerator and denominator Taylor-shifted exactly
    by the offset p - base_point (every float is Gaussian-rational)."""
    if p == f.base_point:
        return f.rep
    off = _offset(p, f.base_point)
    return Rational(f.rep.num.shift(off), f.rep.den.shift(off))


def _placed(roots: list[tuple[complex, int]], base: complex):
    """Roots found in w = z - base moved to z, sorted by (real, imag)."""
    moved = [(p + base, k) for p, k in roots] if base else roots
    return sorted(moved, key=lambda pm: (pm[0].real, pm[0].imag))


def _translated(f: MeroFunction, p: complex) -> MeroFunction:
    """w -> f(w + p), exactly.  Where p is f's base point this only
    relabels the base point to 0: the stored coefficients, in powers of
    z - p, are the translate's in powers of w.  A window always keeps its
    coefficients, and its base point moves by -p.  A Rational at another
    base point is re-expressed around p (``_local_rep``, one exact shift)
    and gets base point 0."""
    p = complex(p)
    if f.is_window:
        return MeroFunction(f.rep, f.base_point - p, f.domain)
    return MeroFunction(_local_rep(f, p), 0j, f.domain)


def _evaluate_rational(f: MeroFunction, z: complex) -> complex:
    """num(w)/den(w) in floats at w = z - base while trusted; else exactly
    from the translates to the exact offset: a pole, or their ratio at
    d0 = ord den (a removable point filled; past the float range, +-inf
    part by part)."""
    rep, base = f.rep, f.base_point
    if rep.num.is_zero():
        return 0j
    w = z - base if base else z
    dv = rep.den(w)
    if (abs(dv.real) < _SMITH_LIMIT and abs(dv.imag) < _SMITH_LIMIT
            and abs(dv) > 1e-150):
        v = rep.num(w) / dv
        if cmath.isfinite(v):
            return v
    t = _local_rep(f, z)
    n0, d0 = t.num.low_order(), t.den.low_order()
    if n0 < d0:
        raise EvaluationAtPole(f"pole of order {d0 - n0} at {z}")
    return complex(t.num.coeff(d0) / t.den.coeff(d0))


def _exact_series_quotient(ns: Poly, ds: Poly, count: int
                           ) -> tuple[int, Poly]:
    """Laurent expansion of ns/ds around 0, both polynomials already
    shifted to the point: (min_exponent, q), where the coefficient of
    w**(min_exponent + i) is q's coefficient at degree q.degree - i for
    i < max(count, 1), so ``q.float_coeffs()`` lists them in order.

    With ns = w**a n0 and ds = w**b d0, the reversals N(z) = z**deg n0 *
    n0(1/z) and D likewise give N z**pad / D = sum_i c_i z**(deg q - i)
    at infinity, c_i the series coefficients of n0/d0; its polynomial part
    is the quotient of one Euclidean division, and pad makes deg q reach
    count - 1.
    """
    a, b = ns.low_order(), ds.low_order()
    pad = max(0, max(count, 1) - 1 - (ns.degree - a) + (ds.degree - b))
    q = (ns.reverse() * Poly.monomial(pad)).divmod(ds.reverse())[0]
    return a - b, q


def _diophantine(a: Poly, b: Poly, c: Poly) -> tuple[Poly, Poly]:
    """(s, t) with s*a + t*b = c and deg s < deg b, for coprime a and b
    (half-extended Euclid, Bronstein, Symbolic Integration I, 1.3)."""
    r0, r1, s0, s1 = a, b, Poly.one(), Poly.zero()
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
    if r0.degree != 0:
        raise AssertionError("Hermite reduction met a non-coprime pair")
    s = (s0 * c).divmod(b)[1].exact_div(r0)
    return s, (c - s * a).exact_div(b)


def _rational_antiderivative(num: Poly, den: Poly, base: complex = 0j
                             ) -> tuple[Poly, Poly]:
    """Exact antiderivative of num/den as (num, den), or NonExactField,
    whose pole is moved from w to z by ``base``.

    Hermite reduction, quadratic form (Bronstein, Symbolic Integration I,
    2.2), with no factorization: the proper part r/D, D monic, becomes
    (R/V)' + W/U with V = gcd(D, D'), U = D/V and deg R < deg V; a
    single-valued antiderivative exists iff the simple-pole part W
    vanishes.  Each step takes D- (first V) to D-2 = gcd(D-, D-') with
    D-* = D-/D-2, solves B*(-U D-'/D-) + C*D-* = A for deg B < deg D-*,
    and moves B/D- into R/V and C - B' U/D-* into A, which ends as W.
    """
    q, r = num.divmod(den)
    q_int = q.integral()
    if r.is_zero():
        return q_int, Poly.one()
    dmonic = den.monic()
    r = r.scale(EC_ONE / den.lc)  # now integrating q_int + r/dmonic
    V = poly_gcd(dmonic, dmonic.derivative())
    U = dmonic.exact_div(V)
    R, A, dm = Poly.zero(), r, V
    while dm.degree > 0:
        dm2 = poly_gcd(dm, dm.derivative())
        dms = dm.exact_div(dm2)
        B, C = _diophantine(-(U * dm.derivative()).exact_div(dm), dms, A)
        A = C - B.derivative() * U.exact_div(dms)
        R = R + B * V.exact_div(dm)
        dm = dm2
    if not A.is_zero():
        _raise_non_exact(A, U, base)
    # antiderivative = q_int + R/V  ->  (q_int*V + R)/V
    return q_int * V + R, V


def _raise_non_exact(W: Poly, U: Poly, base: complex):
    """Report the worst simple pole of W/U, in w = z - base, as a
    NonExactField error located in z."""
    roots = _clustered_roots(U)
    du = U.derivative()
    best = None
    for p, _m in roots:
        res = W(p) / du(p)
        if best is None or abs(res) > abs(best[1]):
            best = (p, res)
    if best is None:  # degenerate: U = D/gcd(D, D') has degree >= 1
        raise AssertionError("non-exact part without poles")
    p, res = best
    p = p + base if base else p
    err = NonExactField(
        f"nonvanishing residue {res} at pole {p}; "
        "the field has no single-valued antiderivative",
        period=2j * cmath.pi * res)
    err.pole = p
    raise err


def _clustered_roots(poly: Poly) -> list[tuple[complex, int]]:
    """The roots of poly with their exact multiplicities, sorted by
    (real, imag): the one root kernel of the package.

    Yun's squarefree decomposition (SYMSAC '76) on ``poly_gcd`` writes
    poly = lc * s_1 * s_2**2 * s_3**3 ..., with each s_i squarefree and
    the s_i pairwise coprime, and ``np.roots`` locates the roots of each
    s_i of degree >= 1 only, each with multiplicity i.  Where
    gcd(poly, poly') is 1, which the modular certificate at the start of
    ``poly_gcd`` proves with no exact division, poly is squarefree and is
    the only part, kept as given so that ``np.roots`` reads its own
    coefficients.  Otherwise b = poly / gcd is the product of the s_i
    still to find; Yun's loop stops once b is linear, since the one
    root left has multiplicity deg poly - sum of i * deg s_i over the
    parts found, and b.monic() is the gcd Yun's later steps would reach.
    A step divides by s only where s has degree >= 1.  No root is
    clustered or matched by distance.  A part with a coefficient past
    the float range goes to ``np.roots`` monic.  The name stays:
    ``perfbench/tracer.py`` patches it by name.
    """
    if poly.degree < 1:
        return []
    d = poly.derivative()
    g = poly_gcd(poly, d)
    if g.degree == 0:
        parts = [(poly, 1)]
    else:
        b = poly.exact_div(g)
        c = d.exact_div(g) if b.degree > 1 else None
        parts, found, i = [], 0, 0
        while b.degree > 1:
            i += 1
            c = c - b.derivative()
            s = poly_gcd(b, c)
            if s.degree:
                b, c = b.exact_div(s), c.exact_div(s)
                parts.append((s, i))
                found += i * s.degree
        if b.degree == 1:
            parts.append((b.monic(), poly.degree - found))
    out = []
    for s, i in parts:
        coeffs = s.float_coeffs()
        if not all(map(cmath.isfinite, coeffs)):
            # np.roots refuses inf; the monic companion entries are the
            # exact ratios it would form
            coeffs = s.monic().float_coeffs()
        out += [(complex(r), i) for r in np.roots(coeffs)]
    return sorted(out, key=lambda pm: (pm[0].real, pm[0].imag))


def _excess_roots(a: Poly, b: Poly) -> list[tuple[complex, int]]:
    """The roots of a with their multiplicity in excess of b's, where it
    exceeds it: the poles (a = den) or zeros (a = num), exactly.

    The root at 0 is read from ``low_order`` of both.  The rest are the
    roots of a / z**ord, divided by its gcd with b only where that gcd is
    not 1, through ``_clustered_roots``; ``poly_gcd`` returns 1 at once
    on a pair its modular certificate proves coprime.  The origin keeps
    its place in the sorted list.
    """
    if a.degree < 1:
        return []
    a0, b0 = a.low_order(), b.low_order()
    a = a.drop_low(a0)
    g = poly_gcd(a, b)
    out = _clustered_roots(a.exact_div(g) if g.degree else a)
    if a0 > b0:
        at = sum((p.real, p.imag) < (0, 0) for p, _ in out)
        out.insert(at, (0j, a0 - b0))
    return out


# ---------------------------------------------------------------------------
# window helpers
# ---------------------------------------------------------------------------

def _window_slice(w: LaurentWindow, lo: int, hi: int) -> np.ndarray:
    """The coefficients of w for exponents lo..hi as a new complex array,
    zero below ``min_exponent`` and above ``truncation_order``; callers
    that must not read past the certified top check it themselves.  A
    stored zero comes out as 0j, whatever the signs of its parts, as the
    scalar ``c or 0j`` readers had it: sums keep their bits."""
    out = np.zeros(max(0, hi - lo + 1), dtype=complex)
    a, b = max(lo, w.min_exponent), min(hi, w.truncation_order)
    if a <= b:
        out[a - lo:b - lo + 1] = w.coeffs[a - w.min_exponent:
                                          b - w.min_exponent + 1]
        out[out == 0] = 0
    return out


def _as_window(f: MeroFunction, like: MeroFunction) -> LaurentWindow:
    """f's window, or f re-expanded at the base point of the window like."""
    if f.is_window:
        return f.rep
    terms = max(DEFAULT_TERMS, len(like.rep.coeffs))
    dom = _merge_domain(f.domain, like.domain)
    return f.to_laurent(like.base_point, terms, dom).rep


def _binary(op: str, f: MeroFunction, g: MeroFunction) -> MeroFunction:
    if f.is_rational and g.is_rational:
        return _binary_rational(op, f, g)
    # mixed or window/window
    base = f.base_point if f.is_window else g.base_point
    if f.is_window and g.is_window and \
            abs(f.base_point - g.base_point) > 1e-12:
        raise ValueError("window arithmetic needs matching base points")
    dom = _merge_domain(f.domain, g.domain)
    wf, wg = _as_window(f, g), _as_window(g, f)
    if op == "add":
        win = _window_add(wf, wg, 1)
    elif op == "sub":
        win = _window_add(wf, wg, -1)
    elif op == "mul":
        win = _window_mul(wf, wg)
    else:
        win = _window_div(wf, wg, base, dom)
    return MeroFunction(win, base, dom)


def _binary_rational(op: str, f: MeroFunction, g: MeroFunction) -> MeroFunction:
    """f op g on the exact pairs, with a common w**t cancelled, at f's base
    point: g is shifted there exactly first where its own differs.

    Over a shared denominator D (equal stored ``Poly``; a tuple compare)
    the sum and difference stay over D and the quotient is a.num/b.num,
    with no cross products (the gcd-free case of Henrici's rule, J. ACM 3,
    1956); otherwise the pairs are cross-multiplied.  So the terms of
    det F' or f1**2 + f2**2 + f3**2, where their denominators agree, sum
    over D, not D**2, and D is the scale ``is_identically_zero`` weighs
    at tol > 0.  ``sl2curve.tee_curve`` stores its four slots over one Q
    for this rule, so det F and det F' sum over Q**2 and Q**4.  The z**t
    cancelled here is each result's own, so ``sl2curve.shear`` sums its
    numerators over Q itself and cancels one z**t from Q and all four at
    once, which keeps Q shared where Q(0) = 0.
    """
    a, b = f.rep, _local_rep(g, f.base_point)
    dom = _merge_domain(f.domain, g.domain)
    if op == "div" and b.num.is_zero():
        raise DivisionByZeroFunction("division by the zero function")
    if op == "mul":
        num, den = a.num * b.num, a.den * b.den
    elif op == "div":
        num, den = ((a.num, b.num) if a.den == b.den
                    else (a.num * b.den, a.den * b.num))
    else:
        lhs, rhs, den = _over_one_den(a, b)
        num = lhs + rhs if op == "add" else lhs - rhs
    den, num = _cancel_monomial(den, num)
    return MeroFunction(Rational(num, den), f.base_point, dom)


def _over_one_den(a: Rational, b: Rational) -> tuple[Poly, Poly, Poly]:
    """(A, B, D) with a = A/D and b = B/D: the stored numerators over a
    shared denominator (equal ``Poly``), else the cross products, so that
    a +- b is (A +- B)/D."""
    if a.den == b.den:
        return a.num, b.num, a.den
    return a.num * b.den, b.num * a.den, a.den * b.den


def _window_add(a: LaurentWindow, b: LaurentWindow, sign: int) -> LaurentWindow:
    # an empty window only arises from degenerate constructions; treat as zero
    if not a.coeffs and not b.coeffs:
        lo = min(a.min_exponent, b.min_exponent)
        return LaurentWindow(lo, (), lo - 1)
    if not a.coeffs:
        return _normalized_window(b.min_exponent,
                                  [sign * c for c in b.coeffs], _STRIP_REL)
    if not b.coeffs:
        return a
    lo = min(a.min_exponent, b.min_exponent)
    hi = min(a.truncation_order, b.truncation_order)
    return _normalized_window(
        lo, _window_slice(a, lo, hi) + sign * _window_slice(b, lo, hi),
        _STRIP_REL)


def _window_mul(a: LaurentWindow, b: LaurentWindow) -> LaurentWindow:
    lo = a.min_exponent + b.min_exponent
    if not a.coeffs or not b.coeffs:
        return LaurentWindow(lo, (), lo - 1)
    hi = min(a.truncation_order + b.min_exponent,
             b.truncation_order + a.min_exponent)
    full = np.convolve(np.asarray(a.coeffs), np.asarray(b.coeffs))
    return _normalized_window(lo, full[:hi - lo + 1], _STRIP_REL)


def _window_reciprocal(a: LaurentWindow) -> LaurentWindow:
    """1/a, read from a's first nonzero stored coefficient (a window built
    directly may lead with stored zeros; ``ord`` skips them too).  The
    caller has checked that one is nonzero."""
    lead = next(i for i, x in enumerate(a.coeffs) if x)
    c = list(a.coeffs[lead:])
    L = len(c)
    inv = [1.0 / c[0]]
    for k in range(1, L):
        s = 0j
        for j in range(1, min(k, L - 1) + 1):
            s += c[j] * inv[k - j]
        inv.append(-s / c[0])
    return _normalized_window(-a.min_exponent - lead, inv, _STRIP_REL)


def _window_div(a: LaurentWindow, b: LaurentWindow, base: complex,
                dom: DomainTag) -> LaurentWindow:
    if not any(b.coeffs):
        raise DivisionByZeroFunction("division by a zero window")
    if dom.is_annulus:
        fa = MeroFunction(a, base, dom)
        fb = MeroFunction(b, base, dom)
        # the quotient's expansion may have an infinite (geometrically
        # decaying) tail on both sides of the algebraic band, so pad the
        # band by the global truncation budget; tiny coefficients are
        # stripped on normalization
        lo = a.min_exponent - b.truncation_order - DEFAULT_TERMS
        hi = a.truncation_order - b.min_exponent + DEFAULT_TERMS

        def quot(zs):
            va = fa.evaluate_many(zs)
            vb = fb.evaluate_many(zs)
            small = np.abs(vb) < 1e-12 * max(1.0, float(np.abs(vb).max()))
            if small.any():
                raise DivisionByZeroFunction(
                    "denominator vanishes on the annulus sampling circle")
            return va / vb

        return _fft_expand(quot, base, dom, lo, hi)
    return _window_mul(a, _window_reciprocal(b))


@functools.lru_cache(maxsize=8)
def _unit_roots(n: int) -> np.ndarray:
    """exp(2 pi i k / n) for k = 0 .. n-1, built once per n and read-only."""
    e = np.exp(1j * (2 * np.pi * np.arange(n) / n))
    e.flags.writeable = False
    return e


def _fft_expand(evaluate_many, base: complex, dom: DomainTag,
                lo: int, hi: int) -> LaurentWindow:
    """Laurent coefficients on an annulus by FFT on the geometric-mean
    circle, sampled at the n-th roots of unity of `_unit_roots`."""
    r = float(np.sqrt(dom.r_inner * dom.r_outer))
    # Python's pow, not np.power: numpy's SIMD loop rounds apart on ~9% of
    # these values (|k| <= 60, AVX-512 build); it raises on an overflow and
    # gives 0.0 on an underflow
    try:
        rk = np.array([r ** k for k in range(lo, hi + 1)], dtype=float)
        representable = rk.all()
    except OverflowError:
        representable = False
    if not representable:
        raise ValueError(
            f"cannot read a window on the circle of radius {r!r}: some r**k "
            f"for k in [{lo}, {hi}] is not a finite nonzero float")
    n = 1024
    while n < 4 * (hi - lo + 1):
        n *= 2
    zs = base + r * _unit_roots(n)
    vals = np.asarray(evaluate_many(zs), dtype=complex)
    # past about 1.7e305 the FFT's sums overflow to inf and NaN, which
    # would strip to an all-zero window: refuse them by name instead
    with np.errstate(over="ignore", invalid="ignore"):
        hat = np.fft.fft(vals)[np.arange(lo, hi + 1) % n] / n
    if not (np.isfinite(vals).all() and np.isfinite(hat).all()):
        raise ValueError("cannot read a window on the circle of radius "
                         f"{r!r}: a sample or a mode is not a finite float")
    # strip the round-off in mode space, where it is absolute: divided by
    # r**k first, it could outgrow the true coefficients
    modes = _normalized_window(lo, hat, _STRIP_REL)
    k = modes.min_exponent
    return _normalized_window(k, modes.coeffs / rk[k - lo:])
