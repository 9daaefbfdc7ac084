"""Spinor (Weierstrass-type) data for null curves in C^3.

A direction field f = (f1, f2, f3) with f1^2 + f2^2 + f3^2 == 0 is encoded by
the pair (eta, f3) with eta = f1 + i*f2.  Writing q = f3^2/eta, the inverse
map

    f1 = (eta - q)/2,      f2 = -i*(eta + q)/2

is null *by construction*: f1^2 + f2^2 = -eta*q = -f3^2 identically, so the
round trip costs one division rather than a square root.  When eta vanishes
identically but the field does not, the conjugate chart eta' = f1 - i*f2
works instead; the chart in use is an explicit flag, never a silent swap.

Pole sets are bookkeeping that no nullity or unimodularity verdict reads.
The curve builders (``from_spinor``, ``integrate_null`` and, in
``sl2curve``, ``tee_curve``, ``tee_inv_curve`` and ``shear``) store a
deferred marker in ``pole_set``, and its roots are found on first read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateEta, EtaIdenticallyZero, NonExactField
from ._lazy import np
from .exact import (Poly, _derivatives_coprime_mod_p, _derivatives_vary_mod_p,
                    poly_gcd)
from .series import (MeroFunction, Rational, ZERO_TOL, _cancel_monomial,
                     _clustered_roots, _local_rep, _merge_domain,
                     _over_one_den, _placed, _window_slice)

_I = 1j


@dataclass(frozen=True)
class SpinorData:
    """The pair (eta, f3); ``conjugate_chart`` marks eta = f1 - i*f2."""

    eta: MeroFunction
    f3: MeroFunction
    conjugate_chart: bool = False

    def __post_init__(self):
        if self.eta.is_identically_zero():
            raise EtaIdenticallyZero("spinor data requires eta != 0")


class _Deferred:
    """A pole set not computed yet: ``fn(*args)``, run on first read.

    ``fn`` is a module-level function, so a curve holding the marker
    pickles.  After the first read the marker keeps only the tuple and
    drops ``fn`` and ``args``, with the sources they referenced.  Curves
    that pass a pole set on unchanged (``integrate_null``, a shear) share
    one marker, so its roots are found once for all of them.
    """

    __slots__ = ("fn", "args", "value")

    def __init__(self, fn, *args):
        self.fn, self.args, self.value = fn, args, None

    def resolve(self) -> tuple[complex, ...]:
        if self.fn is not None:
            self.value = self.fn(*self.args)
            self.fn = self.args = None
        return self.value

    def __reduce__(self):
        if self.fn is None:
            return tuple, (self.value,)
        return _Deferred, (self.fn, *self.args)


class _PoleSetField:
    """The ``pole_set`` field of the curve types: a tuple, kept as given,
    or a ``_Deferred`` marker, replaced by its tuple on first read.

    A frozen dataclass's ``__init__`` stores the field through ``__set__``;
    equality, hashing, repr and ``dataclasses.replace`` read it through
    ``__get__``.  The value lives in the instance ``__dict__`` under
    ``_pole_set``, so copies and pickles carry it, resolved or not.
    """

    def __get__(self, obj, objtype=None):
        if obj is None:
            return ()  # the field's default
        value = obj.__dict__["_pole_set"]
        if type(value) is _Deferred:
            value = obj.__dict__["_pole_set"] = value.resolve()
        return value

    def __set__(self, obj, value):
        obj.__dict__["_pole_set"] = value


def _pole_source(obj):
    """The pole set stored in obj, unread: its marker when it has one not
    yet resolved, else ``tuple(obj.pole_set)`` (``()`` without one)."""
    value = getattr(obj, "__dict__", {}).get("_pole_set")
    if type(value) is _Deferred:
        return value
    return tuple(getattr(obj, "pole_set", ()))


@dataclass(frozen=True)
class DirectionField:
    """A null direction field (the derivative data of a curve in C^3).

    ``pole_set`` is computed on first read when a builder deferred it
    (``from_spinor``); a tuple passed to the constructor is kept as given.
    """

    f1: MeroFunction
    f2: MeroFunction
    f3: MeroFunction
    pole_set: tuple[complex, ...] = _PoleSetField()

    def components(self) -> tuple[MeroFunction, MeroFunction, MeroFunction]:
        return (self.f1, self.f2, self.f3)


@dataclass(frozen=True)
class C3NullCurve:
    """A null curve X: M -> C^3 with its bookkeeping pole set E.

    ``pole_set`` is computed on first read when a builder deferred it
    (``integrate_null``, ``tee_inv_curve``); a tuple passed to the
    constructor is kept as given.
    """

    X1: MeroFunction
    X2: MeroFunction
    X3: MeroFunction
    pole_set: tuple[complex, ...] = _PoleSetField()

    def components(self) -> tuple[MeroFunction, MeroFunction, MeroFunction]:
        return (self.X1, self.X2, self.X3)

    def evaluate(self, z: complex) -> tuple[complex, complex, complex]:
        return (self.X1.evaluate(z), self.X2.evaluate(z), self.X3.evaluate(z))


@dataclass(frozen=True)
class C3Report:
    """check_null_c3 verdicts; `flat` is reported, never required."""

    null: bool
    immersion: bool
    flat: bool

    def as_dict(self) -> dict:
        return {"null": self.null, "immersion": self.immersion,
                "flat": self.flat}


def from_spinor(s: SpinorData) -> DirectionField:
    """Rebuild the null direction field from (eta, f3); its pole set is
    that of eta, f3 and q = f3^2/eta, as f1 +- i*f2 are eta and -q.  The
    pole set is computed on first read of ``pole_set``.

    On rational eta and q at one base point, eta = a/u and q = b/v, the
    two slots share one set of products (``series._over_one_den``):
    f1 = (a v - b u)/(2 u v) and f2 = +-(i/2)(a v + b u)/(u v), or the
    numerators alone over u where u == v, each with its own common power
    of z cancelled.  Every stored
    Rational is the one (eta - q) * 0.5 and (eta + q) * (+-0.5i) store,
    from three polynomial products where those form ten (none where they
    form four, over u == v).  Windows take that arithmetic."""
    eta = s.eta
    q = (s.f3 * s.f3) / eta
    half = 0.5j if s.conjugate_chart else -0.5j
    if eta.is_rational and q.is_rational and q.base_point == eta.base_point:
        lhs, rhs, den = _over_one_den(eta.rep, q.rep)
        dom = _merge_domain(eta.domain, q.domain)

        def over_den(num):
            d, n = _cancel_monomial(den, num)
            return MeroFunction(Rational(n, d), eta.base_point, dom)

        f1 = over_den((lhs - rhs).scale(0.5))
        f2 = over_den((lhs + rhs).scale(half))
    else:
        f1 = (eta - q) * 0.5
        f2 = (eta + q) * half
    return DirectionField(f1, f2, s.f3,
                          _Deferred(_pole_points, eta, s.f3, q))


def extract_spinor(f, alternate_chart: bool = False) -> SpinorData:
    """Encode a direction field as (eta, f3).

    With ``alternate_chart`` the conjugate chart eta = f1 - i*f2 is used;
    DegenerateEta reports which chart failed.
    """
    f1, f2, f3 = _components(f)
    eta = f1 - _I * f2 if alternate_chart else f1 + _I * f2
    if eta.is_identically_zero():
        which = "f1 - i*f2" if alternate_chart else "f1 + i*f2"
        raise DegenerateEta(
            f"{which} vanishes identically; try the other chart")
    return SpinorData(eta, f3, conjugate_chart=alternate_chart)


def check_null_c3(X: C3NullCurve, tol: float = ZERO_TOL) -> C3Report:
    """Report nullity, immersion and flatness of a C^3 curve.

    Nullity and flatness are exact verdicts on rational representations
    at ``tol <= 0`` and coefficient tests at `tol` on windows.  On
    rational components X_k = N_k/D_k, immersion and (at ``tol <= 0``)
    nonflatness are first offered to one modular certificate each, read
    from the stored (N_k, D_k) (``_certified``):
    ``exact._derivatives_coprime_mod_p`` and
    ``exact._derivatives_vary_mod_p``.  Where one declines, its verdict
    goes straight to the exact test on X': immersion is the exact gcd of
    the reduced derivative numerators (``_has_common_zero``), and flatness
    is ``is_flat`` of X', (c/ref)' == 0 for each nonzero component c
    against the smallest one, ref.  At ``tol > 0`` each quotient
    derivative's numerator is compared against its own denominator's
    scale, which no certificate decides.  A C^3 curve has no singular
    set, so no point is excluded; the pole set is not read.
    """
    derivs = [c.differentiate() for c in X.components()]
    s = derivs[0] * derivs[0] + derivs[1] * derivs[1] + derivs[2] * derivs[2]
    null = s.is_identically_zero(tol)
    immersed, nonflat = _certified(X.components(), lambda: derivs, tol)
    immersion = immersed or not _has_common_zero(derivs, (), tol)
    flat = not nonflat and is_flat(derivs, tol)
    return C3Report(null=null, immersion=immersion, flat=flat)


def integrate_null(f, base_point: complex = 0j,
                   value: tuple[complex, complex, complex] = (0j, 0j, 0j)
                   ) -> C3NullCurve:
    """Primitive of a direction field with X(base_point) = value.

    The exactness precondition (all periods of f dz vanish) is decided by
    the exact residue reduction in the series layer; a violation raises
    NonExactField carrying the offending cycle and its period.  The
    curve's pole set is that of f, read when the curve's is.
    """
    f1, f2, f3 = _components(f)
    prims = []
    for comp, val in zip((f1, f2, f3), value):
        try:
            prim = comp.antiderivative()
        except NonExactField as err:
            raise _with_cycle(err) from None
        shiftv = complex(val) - prim.evaluate(base_point)
        prims.append(prim + shiftv)
    return C3NullCurve(prims[0], prims[1], prims[2], _pole_source(f))


def is_flat(components, tol: float = ZERO_TOL) -> bool:
    """True when the (derivative) components span a fixed direction.

    Rational components: the reference ``ref`` is the nonzero component
    of smallest ``num.degree + den.degree`` (the first one on a tie), and
    the field is flat exactly when ``(c / ref)' == 0`` for every other
    nonzero component c, taken in order of that size; the test stops at
    the first c that fails.  For meromorphic functions this is the
    Wronskian test c'*ref - c*ref' == 0 on smaller polynomials.  At
    ``tol <= 0`` the verdict is exact.  At ``tol > 0`` the numerator of
    each (c/ref)' is compared against its own denominator's scale, as
    ``MeroFunction.is_identically_zero`` does, and components zero to
    within `tol` are left out.  Windows use 2x2 minors of the coefficient
    matrix against the leading-direction row.  The curve checks offer
    nonflatness to ``exact._derivatives_vary_mod_p`` first, on the
    undifferentiated slots, and call this where it declines.
    """
    comps = list(components)
    nonzero = [c for c in comps if not c.is_identically_zero(tol)]
    if not nonzero:
        return True  # the zero field is (degenerately) directionless
    if all(c.is_rational for c in comps):
        ref, *rest = sorted(
            nonzero, key=lambda c: c.rep.num.degree + c.rep.den.degree)
        return all((c / ref).differentiate().is_identically_zero(tol)
                   for c in rest)
    # window path: minors row[i]*ref[j] - row[j]*ref[i], i < j, against the
    # row of largest peak, in real parts rounded one by one as Python's
    # complex product rounds them (numpy's fuses them on FMA hardware)
    windows = [c if c.is_window else c.to_laurent() for c in comps]
    lo = min(w.rep.min_exponent for w in windows)
    hi = max(w.rep.truncation_order for w in windows)
    rows = np.array([_window_slice(w.rep, lo, hi) for w in windows])
    peaks = np.hypot(rows.real, rows.imag).max(axis=1)
    scale = peaks.max() or 1.0
    ref = rows[peaks.argmax()]
    i, j = np.triu_indices(hi - lo + 1, 1)
    a, b, ri, rj = rows[:, i], rows[:, j], ref[i], ref[j]
    re = ((a.real * rj.real - a.imag * rj.imag)
          - (b.real * ri.real - b.imag * ri.imag))
    im = ((a.real * rj.imag + a.imag * rj.real)
          - (b.real * ri.imag + b.imag * ri.real))
    return not (np.hypot(re, im) > tol * scale * scale).any()


def spinor_common_zero_points(s: SpinorData, tol: float = 1e-8
                              ) -> list[complex]:
    """Common zeros of eta and q = f3^2/eta where both are finite
    (bookkeeping helper; the type itself only validates eta != 0 at
    construction), sorted.

    Exact on rational data: the roots of the gcd of the reduced
    numerators (``_common_zero_poly``), from the one root kernel
    ``series._clustered_roots``, each listed once whatever its
    multiplicity.  `tol` is not read.  Window data have no zero list and
    give ``[]``.
    """
    q = (s.f3 * s.f3) / s.eta
    fns = [f for f in (s.eta, q) if not f.is_identically_zero(0.0)]
    if not all(f.is_rational for f in fns):
        return []
    g = _common_zero_poly(fns)
    base = fns[0].base_point if fns else 0j
    return list(_sorted_points(p for p, _ in
                               _placed(_clustered_roots(g), base)))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _components(f):
    if isinstance(f, DirectionField):
        return f.f1, f.f2, f.f3
    if isinstance(f, C3NullCurve):
        return f.X1, f.X2, f.X3
    f1, f2, f3 = f
    return f1, f2, f3


def _pole_points(*fns) -> tuple[complex, ...]:
    return _sorted_points({p for g in fns for p, _ in g.poles()})


def _sorted_points(points) -> tuple[complex, ...]:
    uniq: list[complex] = []
    for p in sorted(points, key=lambda w: (w.real, w.imag)):
        if not any(abs(p - q) < 1e-9 for q in uniq):
            uniq.append(complex(p))
    return tuple(uniq)


def _with_cycle(err: NonExactField) -> NonExactField:
    from .periods import Cycle  # runtime import: periods imports this module
    pole = getattr(err, "pole", None)
    cycle = None
    if pole is not None:
        cycle = Cycle.circle(pole, 0.1)
    out = NonExactField(str(err), cycle=cycle, period=err.period)
    out.pole = pole
    return out


def _common_zero_poly(fns) -> Poly:
    """The monic gcd over Q(i) of the numerators of the nonzero rational
    ``fns``, each first reduced by its gcd with its own denominator, in
    powers of z - b for b the first fn's base point (a fn stored at
    another one is shifted there).  Its roots, moved by b, are exactly
    the points where every fn is finite and zero.  Each
    ``poly_gcd`` starts with the modular certificate, so a pair it proves
    coprime (a slot's num and den, or a reduced numerator and the running
    gcd) runs no Euclid over Q(i)."""
    g = Poly.zero()
    for f in fns:
        r = _local_rep(f, fns[0].base_point)
        num, den = r.num, r.den
        g = poly_gcd(g, num.exact_div(poly_gcd(num, den)))
        if g.degree == 0:
            break
    return g


def _certified(fns, derivs, tol) -> tuple[bool, bool]:
    """(immersed, nonflat) as the two modular certificates read them from
    the stored (num, den) of the ``fns`` (``exact._derivatives_coprime_mod_p``,
    ``exact._derivatives_vary_mod_p``); False means only "not certified",
    and the caller decides that verdict exactly.  At ``tol > 0`` a fn
    whose derivative in ``derivs()`` is zero to within tol is left out, as
    ``_has_common_zero`` leaves it out (``derivs`` is called only there),
    and nonflatness, a test at tol, is not certified.  Nothing is
    certified unless every fn left is rational and all share one base
    point, so that their (num, den) are in one variable."""
    if tol > 0:
        fns = [f for f, d in zip(fns, derivs())
               if not d.is_identically_zero(tol)]
    slots = ([(f.rep.num, f.rep.den) for f in fns]
             if all(f.is_rational and f.base_point == fns[0].base_point
                    for f in fns) else [])
    return (_derivatives_coprime_mod_p(slots),
            tol <= 0 and _derivatives_vary_mod_p(slots))


def _has_common_zero(derivs, singular, tol) -> bool:
    """Whether the nonzero derivs share a zero away from the points of
    ``singular`` (a curve's ``singular_set``).  No pole set is read: a
    genuine pole of a slot is a pole of its derivative, never a zero.

    Windows are read at their base point only.  On rational derivs the
    answer is exact: G = ``_common_zero_poly(derivs)`` is built, and the
    derivs share a zero iff G has a root that is not within 1e-8 of a
    point of ``singular``.  The curve checks offer immersion to
    ``exact._derivatives_coprime_mod_p`` first, on the undifferentiated
    slots, and call this where it declines.
    """
    nonzero = [d for d in derivs if not d.is_identically_zero(tol)]
    if not nonzero:
        return True  # the zero field vanishes everywhere
    if any(d.is_window for d in nonzero):
        # windows certify behaviour at the base point only; the callers'
        # arithmetic has refused windows at different base points
        base = next(d.base_point for d in nonzero if d.is_window)
        if any(abs(base - e) < 1e-8 for e in singular):
            return False
        return all(d.ord(base) >= 1 for d in nonzero)
    g = _common_zero_poly(nonzero)
    if not singular:
        return g.degree >= 1  # exact: no root is found
    return any(all(abs(p - e) >= 1e-8 for e in singular)
               for p, _ in _placed(_clustered_roots(g), nonzero[0].base_point))
