"""Spinor (Weierstrass-type) data for null curves in C^3.

A direction field f = (f1, f2, f3) with f1^2 + f2^2 + f3^2 == 0 is encoded by
the pair (eta, f3) with eta = f1 + i*f2.  Writing q = f3^2/eta, the inverse
map

    f1 = (eta - q)/2,      f2 = -i*(eta + q)/2

is null *by construction*: f1^2 + f2^2 = -eta*q = -f3^2 identically, so the
round trip costs one division rather than a square root.  When eta vanishes
identically but the field does not, the conjugate chart eta' = f1 - i*f2
works instead; the chart in use is an explicit flag, never a silent swap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateEta,
    EtaIdenticallyZero,
    NonExactField,
)
from .series import MeroFunction, ZERO_TOL, _window_coeff

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


@dataclass(frozen=True)
class DirectionField:
    """A null direction field (the derivative data of a curve in C^3)."""

    f1: MeroFunction
    f2: MeroFunction
    f3: MeroFunction
    pole_set: tuple[complex, ...] = ()

    def components(self) -> tuple[MeroFunction, MeroFunction, MeroFunction]:
        return (self.f1, self.f2, self.f3)


@dataclass(frozen=True)
class C3NullCurve:
    """A null curve X: M -> C^3 with its bookkeeping pole set E."""

    X1: MeroFunction
    X2: MeroFunction
    X3: MeroFunction
    pole_set: tuple[complex, ...] = ()

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
    """Rebuild the null direction field from (eta, f3)."""
    q = (s.f3 * s.f3) / s.eta
    f1 = (s.eta - q) * 0.5
    sign = 1 if s.conjugate_chart else -1
    f2 = (s.eta + q) * (sign * 0.5j)
    poles = set()
    for g in (s.eta, s.f3):
        poles.update(p for p, _ in g.poles())
    poles.update(p for p, _ in s.eta.zeros())  # q may blow up there
    return DirectionField(f1, f2, s.f3, _sorted_points(poles))


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
    scale.
    """
    derivs = [c.differentiate() for c in X.components()]
    s = derivs[0] * derivs[0] + derivs[1] * derivs[1] + derivs[2] * derivs[2]
    null = s.is_identically_zero(tol)
    excluded = set(X.pole_set)
    immersion = not _has_common_zero(derivs, excluded, tol)
    flat = is_flat(derivs, tol)
    return C3Report(null=null, immersion=immersion, flat=flat)


def integrate_null(f, base_point: complex = 0j,
                   value: tuple[complex, complex, complex] = (0j, 0j, 0j)
                   ) -> C3NullCurve:
    """Primitive of a direction field with X(base_point) = value.

    The exactness precondition (all periods of f dz vanish) is decided by
    the exact residue reduction in the series layer; a violation raises
    NonExactField carrying the offending cycle and its period.
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
    poles = tuple(getattr(f, "pole_set", ()))
    return C3NullCurve(prims[0], prims[1], prims[2], poles)


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
    # window path: coefficient matrix, rows = components
    windows = [c if c.is_window else c.to_laurent() for c in comps]
    lo = min(w.rep.min_exponent for w in windows)
    hi = max(w.rep.truncation_order for w in windows)
    rows = []
    for w in windows:
        rows.append([_window_coeff(w.rep, k) or 0j
                     for k in range(lo, hi + 1)])
    scale = max(max(abs(c) for c in row) for row in rows) or 1.0
    ref_row = max(rows, key=lambda row: max(abs(c) for c in row))
    for row in rows:
        for i in range(len(row)):
            for j in range(i + 1, len(row)):
                minor = row[i] * ref_row[j] - row[j] * ref_row[i]
                if abs(minor) > tol * scale * scale:
                    return False
    return True


def spinor_common_zero_points(s: SpinorData, tol: float = 1e-8
                              ) -> list[complex]:
    """Common zeros of eta and q = f3^2/eta (bookkeeping helper; the type
    itself only validates eta != 0 at construction)."""
    q = (s.f3 * s.f3) / s.eta
    return _common_zeros_list([s.eta, q], set(), tol)


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


def _common_zeros_list(funcs, excluded, tol) -> list[complex]:
    """Numeric candidates where every listed function vanishes."""
    nonzero = [f for f in funcs if not f.is_identically_zero()]
    if not nonzero:
        return []  # callers treat "all components zero" separately
    candidates = [p for p, _ in nonzero[0].zeros()]
    out = []
    for p in candidates:
        if any(abs(p - e) < 1e-8 for e in excluded):
            continue
        vals = []
        for g in nonzero:
            try:
                vals.append(abs(g.evaluate(p)))
            except Exception:
                vals.append(float("inf"))
        if all(v < tol for v in vals):
            out.append(p)
    return out


def _has_common_zero(derivs, excluded, tol) -> bool:
    nonzero = [d for d in derivs if not d.is_identically_zero(tol)]
    if not nonzero:
        return True  # the zero field vanishes everywhere
    if any(d.is_window for d in nonzero):
        # windows certify behaviour at the base point only
        base = nonzero[0].base_point
        if any(abs(base - e) < 1e-8 for e in excluded):
            return False
        try:
            return all(d.ord(base) >= 1 for d in nonzero)
        except Exception:
            return False
    scale = 1e-6  # evaluation tolerance for clustered numeric roots
    return bool(_common_zeros_list(nonzero, excluded, scale))
