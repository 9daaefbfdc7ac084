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

from .errors import (
    DegenerateEta,
    EtaIdenticallyZero,
    EvaluationAtPole,
    NonExactField,
)
from ._lazy import np
from .exact import _coprime_mod_p
from .series import MeroFunction, ZERO_TOL, _window_slice

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
    pole set is computed on first read of ``pole_set``."""
    q = (s.f3 * s.f3) / s.eta
    f1 = (s.eta - q) * 0.5
    sign = 1 if s.conjugate_chart else -1
    f2 = (s.eta + q) * (sign * 0.5j)
    return DirectionField(f1, f2, s.f3,
                          _Deferred(_pole_points, s.eta, s.f3, q))


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
    at ``tol == 0`` and coefficient tests at `tol` on windows.  Flatness
    is ``is_flat`` of X': (c/ref)' == 0 for each nonzero component c
    against the smallest one, ref; at ``tol > 0`` each quotient
    derivative's numerator is compared against its own denominator's
    scale.  Immersion is exact on rational components whose derivative
    numerators are coprime (a gcd modulo one prime certifies it, and no
    root is found); otherwise it is numeric: a common zero of the
    derivatives at 1e-6, off the pole set.
    """
    derivs = [c.differentiate() for c in X.components()]
    s = derivs[0] * derivs[0] + derivs[1] * derivs[1] + derivs[2] * derivs[2]
    null = s.is_identically_zero(tol)
    immersion = not _has_common_zero(derivs, lambda: X.pole_set, tol)
    flat = is_flat(derivs, tol)
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
    ``tol == 0`` the verdict is exact; at ``tol > 0`` the numerator of
    each (c/ref)' is compared against its own denominator's scale, as
    ``MeroFunction.is_identically_zero`` does, and components zero to
    within `tol` are left out.  Windows use 2x2 minors of the coefficient
    matrix against the leading-direction row.
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
    """Common zeros of eta and q = f3^2/eta (bookkeeping helper; the type
    itself only validates eta != 0 at construction)."""
    q = (s.f3 * s.f3) / s.eta
    return _common_zeros_list(
        [f for f in (s.eta, q) if not f.is_identically_zero()],
        lambda: (), tol)


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


def _common_zeros_list(nonzero, excluded, tol) -> list[complex]:
    """Numeric candidates where every listed (nonzero) function vanishes,
    away from the points ``excluded()`` lists; it is called only once a
    candidate has passed evaluation."""
    if not nonzero:
        return []  # callers treat "all components zero" separately
    candidates = [p for p, _ in nonzero[0].zeros()]
    out = []
    points = None
    for p in candidates:
        vals = []
        for g in nonzero:
            try:
                vals.append(abs(g.evaluate(p)))
            except EvaluationAtPole:
                vals.append(float("inf"))
        if all(v < tol for v in vals):
            if points is None:
                points = excluded()
            if not any(abs(p - e) < 1e-8 for e in points):
                out.append(p)
    return out


def _has_common_zero(derivs, excluded, tol) -> bool:
    """Whether the nonzero derivs share a zero away from the points that
    the zero-argument callable ``excluded`` lists; it is called only where
    the verdict needs them.

    Windows are read at their base point only.  On rational derivs the
    answer is exactly False when their numerators are coprime, as
    ``exact._coprime_mod_p`` certifies modulo one prime: at each point
    some numerator is nonzero, so that deriv is nonzero or has a pole
    there.  Otherwise (a common factor, or an unlucky prime) it is
    numeric: a root of the first deriv, clustered at 1e-6, where every
    deriv is below 1e-6 in modulus.
    """
    nonzero = [d for d in derivs if not d.is_identically_zero(tol)]
    if not nonzero:
        return True  # the zero field vanishes everywhere
    if any(d.is_window for d in nonzero):
        # windows certify behaviour at the base point only; the callers'
        # arithmetic has refused windows at different base points
        base = next(d.base_point for d in nonzero if d.is_window)
        if any(abs(base - e) < 1e-8 for e in excluded()):
            return False
        return all(d.ord(base) >= 1 for d in nonzero)
    if _coprime_mod_p([d.rep.num for d in nonzero]):
        return False
    scale = 1e-6  # evaluation tolerance for clustered numeric roots
    return bool(_common_zeros_list(nonzero, excluded, scale))
