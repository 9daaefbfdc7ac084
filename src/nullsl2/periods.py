"""Cycles, period integrals, spray families and the period solver.

A period here is the contour integral of a meromorphic integrand f dz over
a closed cycle.  Cycles come in two flavors -- circles (periodic trapezoid
quadrature, which converges geometrically for integrands regular near the
contour) and closed polylines (per-segment Gauss-Legendre).  For rational
integrands every period is also 2*pi*i times a winding-weighted residue
sum, and `period` cross-checks the quadrature against that value.

Both rules depend on their size alone, so each is a read-only table built
once per size: the roots of unity (`series._unit_roots`) for circles and
the Gauss-Legendre rule moved to [0, 1] (`_unit_gauss_legendre`) for
polyline segments.  Every call still builds its own nodes and weights from
the table by the arithmetic it always used, so they come out with the same
bits as a rule rebuilt per call; nothing is keyed by a cycle or integrand.

The solver half of the module closes small periods:  a `SprayFamily`
deforms spinor data (eta, f3) multiplicatively,

    eta_zeta = eta * exp(zeta_1 h_1 + ... + zeta_k h_k),

and `period_solve` runs a damped Newton iteration on zeta until the
periods of the first two components of the rebuilt direction field vanish
over the requested cycles.  The solver uses values at the quadrature
nodes only, and its Jacobian is exact (the integrands are holomorphic in
zeta), so it needs no step size.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field

from ._lazy import np
from .errors import (CrossCheckFailed, MaxIterExceeded, PoleOnContour,
                     SingularJacobian)
from .exact import _ratio, poly_gcd
from .series import (DomainTag, MeroFunction, Rational, annulus, _fft_expand,
                     _offset, _unit_roots)
from .spinor import SpinorData

#: cross-check tolerance between quadrature and residue periods
CROSS_CHECK_TOL = 1e-8

#: a declared pole closer to the contour than this raises PoleOnContour
POLE_DISTANCE_TOL = 1e-9

#: default exponent-window half-width for spray deformations
SPRAY_HALFWIDTH = 32

_TWO_PI_I = 2j * cmath.pi


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _unit_gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule moved to [0, 1]: nodes t and
    weights wt, built once per n and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    t = (x + 1.0) / 2.0
    wt = w / 2.0
    t.flags.writeable = wt.flags.writeable = False
    return t, wt


@dataclass(frozen=True)
class Cycle:
    """A closed integration contour: a circle or a closed polyline.

    Circles are always walked counterclockwise.  Polylines close
    themselves (the last point connects back to the first).
    """

    kind: str
    center: complex = 0j
    radius: float = 1.0
    points: tuple[complex, ...] = ()
    nodes: int = 512
    per_segment: int = 32

    def __post_init__(self):
        if self.nodes < 1 or self.per_segment < 1:
            raise ValueError("a cycle needs at least one quadrature node "
                             f"(nodes={self.nodes}, "
                             f"per_segment={self.per_segment})")
        for name, v in (("center", self.center), ("radius", self.radius),
                        *(("vertex", p) for p in self.points)):
            if not cmath.isfinite(v):
                raise ValueError(f"cycle {name} {v!r} is not finite")
        closed = self.points + self.points[:1]
        for a, b in zip(closed, closed[1:]):
            if abs(b - a) ** 2 == 0:   # min_distance divides by it
                raise ValueError(f"polyline has a zero-length edge at {a}")

    @staticmethod
    def circle(center=0j, radius: float = 1.0, nodes: int = 512) -> "Cycle":
        if radius <= 0:
            raise ValueError("circle radius must be positive")
        return Cycle("circle", center=complex(center), radius=float(radius),
                     nodes=int(nodes))

    @staticmethod
    def polyline(points, per_segment: int = 32) -> "Cycle":
        pts = tuple(complex(p) for p in points)
        if len(pts) < 3:
            raise ValueError("a closed polyline needs at least 3 vertices")
        if abs(pts[0] - pts[-1]) < 1e-15:
            pts = pts[:-1]
        return Cycle("polyline", points=pts, per_segment=int(per_segment))

    # -- quadrature rule ----------------------------------------------------

    def nodes_and_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Sample points z_j and weights w_j with ``sum w_j f(z_j)``
        approximating the contour integral of f dz."""
        if self.kind == "circle":
            e = _unit_roots(self.nodes)
            zs = self.center + self.radius * e
            ws = (1j * self.radius * e) * (2 * np.pi / self.nodes)
            return zs, ws
        t, wt = _unit_gauss_legendre(self.per_segment)
        zs_parts, ws_parts = [], []
        closed = self.points + (self.points[0],)
        for a, b in zip(closed[:-1], closed[1:]):
            zs_parts.append(a + t * (b - a))
            ws_parts.append(wt * (b - a))
        return np.concatenate(zs_parts), np.concatenate(ws_parts)

    # -- geometry -------------------------------------------------------------

    def winding(self, p: complex) -> int:
        p = complex(p)
        if self.kind == "circle":
            return 1 if abs(p - self.center) < self.radius else 0
        total = 0.0
        closed = self.points + (self.points[0],)
        for a, b in zip(closed[:-1], closed[1:]):
            total += cmath.phase((b - p) / (a - p))
        return int(round(total / (2 * cmath.pi)))

    def contains(self, p: complex) -> bool:
        return self.winding(p) != 0

    def min_distance(self, p: complex) -> float:
        p = complex(p)
        if self.kind == "circle":
            return abs(abs(p - self.center) - self.radius)
        best = float("inf")
        closed = self.points + (self.points[0],)
        for a, b in zip(closed[:-1], closed[1:]):
            d = b - a
            t = ((p - a) * d.conjugate()).real / abs(d) ** 2
            t = min(1.0, max(0.0, t))
            best = min(best, abs(p - (a + t * d)))
        return best

    def as_dict(self) -> dict:
        if self.kind == "circle":
            return {"kind": "circle",
                    "center": [self.center.real, self.center.imag],
                    "radius": self.radius, "nodes": self.nodes}
        return {"kind": "polyline",
                "points": [[p.real, p.imag] for p in self.points],
                "per_segment": self.per_segment}


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

def _residue_near(f: MeroFunction, p: complex, clearance: float) -> complex:
    """Residue at a numerically located pole.

    If p is exactly a root of the denominator (an exact synthetic-division
    test at the exact offset p - base_point, no shift), the residue is
    ``f.residue(p)``, read from the exact Laurent head of the translate;
    otherwise it is recovered by a small trapezoid circle around p, which
    tolerates root-finding error.
    """
    p = complex(p)
    if f.rep.den.multiplicity_at(_offset(p, f.base_point)):
        return f.residue(p)
    rho = 0.45 * min(1.0, clearance)
    e = _unit_roots(256)
    vals = f.evaluate_many(p + rho * e)
    return complex(np.mean(vals * rho * e))


def period(f: MeroFunction, cycle: Cycle, cross_check: bool = True,
           tol: float = CROSS_CHECK_TOL) -> complex:
    """Contour integral of f dz over the cycle.

    Declared poles within POLE_DISTANCE_TOL of the contour raise
    PoleOnContour.  For rational f (and unless disabled) the quadrature is
    cross-checked against 2*pi*i times the winding-weighted residue sum;
    disagreement beyond `tol` raises CrossCheckFailed.

    The poles come with their exact orders (``MeroFunction.poles``), and
    the sum of w_p res_p is read as c S + sum of (w_p - c) res_p over the
    poles with w_p != c.  S, the sum of all finite residues, is exact: the
    z**-1 coefficient at infinity, r_(n-1)/d_n for the proper part r/d of
    f (one ``divmod``).  c is the winding number shared by the most
    poles, the smallest such one on a tie.  So a contour that winds the
    same way around every pole needs no residue at a pole, and a tight
    cluster of poles there (whose residues are large and cancel) costs no
    digits.  Every other pole's residue comes from ``_residue_near``.
    """
    poles = f.poles()
    for p, _ in poles:
        if cycle.min_distance(p) < POLE_DISTANCE_TOL:
            raise PoleOnContour(f"pole at {p} lies on the integration contour")
    zs, ws = cycle.nodes_and_weights()
    quad = complex(np.sum(ws * f.evaluate_many(zs)))
    if cross_check and f.is_rational and not f.rep.num.is_zero():
        winds = [cycle.winding(p) for p, _ in poles]
        c = max(sorted(set(winds)), key=winds.count, default=0)
        total = c * _residue_sum(f.rep.num, f.rep.den) if c else 0j
        for (p, _), wind in zip(poles, winds):
            if wind == c:
                continue
            clearance = min([abs(p - q) for q, _ in poles if q != p]
                            + [cycle.min_distance(p)])
            total += (wind - c) * _residue_near(f, p, clearance)
        check = _TWO_PI_I * total
        if abs(quad - check) > tol * max(1.0, abs(quad)):
            raise CrossCheckFailed(
                f"quadrature {quad} vs residue sum {check} "
                f"differ by {abs(quad - check):.3e}")
    return quad


def _residue_sum(num, den) -> complex:
    """The sum of the finite residues of num/den: with r the remainder of
    num by den, r's coefficient at z**(deg den - 1) over den's leading
    coefficient.  The quotient is formed on the Gaussian-integer
    numerators, (a + bi)/d over (x + yi)/e = e(a + bi)(x - yi) / (d(x² +
    y²)), and each part is rounded once by ``_ratio``, as
    ``complex(ExactComplex)`` rounds the same rational."""
    r = num.divmod(den)[1]
    k = den.degree - 1
    a, b = (r._re[k], r._im[k]) if k < len(r._re) else (0, 0)
    x, y = den._re[-1], den._im[-1]
    e, d = den._den, r._den * (x * x + y * y)
    return complex(_ratio(e * (a * x + b * y), d),
                   _ratio(e * (b * x - a * y), d))


@dataclass(frozen=True)
class PeriodReport:
    """Period matrix: values[i][j] integrates component i over cycle j."""

    values: tuple[tuple[complex, ...], ...]
    cycles: tuple[Cycle, ...]
    cross_checked: bool

    def max_abs(self) -> float:
        flat = [abs(v) for row in self.values for v in row]
        return max(flat) if flat else 0.0

    def as_dict(self) -> dict:
        return {
            "values": [[[v.real, v.imag] for v in row] for row in self.values],
            "cycles": [c.as_dict() for c in self.cycles],
            "cross_checked": self.cross_checked,
        }


def period_map(funcs, cycles, cross_check: bool = True,
               tol: float = CROSS_CHECK_TOL) -> PeriodReport:
    """Periods of several integrands over several cycles.

    `funcs` is an iterable of MeroFunction or anything with components()
    (a direction field, say).
    """
    comps = list(funcs.components()) if hasattr(funcs, "components") \
        else list(funcs)
    cyc = tuple(cycles)
    values = tuple(
        tuple(period(f, c, cross_check=cross_check, tol=tol) for c in cyc)
        for f in comps)
    return PeriodReport(values=values, cycles=cyc, cross_checked=cross_check)


# ---------------------------------------------------------------------------
# spray families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SprayFamily:
    """Multiplicative deformation eta * exp(sum_i zeta_i basis_i) of spinor
    data.  `domain` and `window_halfwidth` serve `spray_apply` only (the
    annulus and Laurent window of a nonconstant exponent); the solver
    evaluates pointwise at quadrature nodes and does not depend on them."""

    eta: MeroFunction
    f3: MeroFunction
    basis: tuple[MeroFunction, ...]
    domain: DomainTag = field(default_factory=lambda: annulus(0.5, 2.0))
    window_halfwidth: int = SPRAY_HALFWIDTH
    conjugate_chart: bool = False

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        if not self.basis:
            raise ValueError("a spray family needs at least one direction")


def window_exp(f: MeroFunction, domain: DomainTag,
               halfwidth: int = SPRAY_HALFWIDTH) -> MeroFunction:
    """exp(f) as a two-sided Laurent window on an annulus domain.  A
    sample past the float range is inf, which ``_fft_expand`` refuses with
    ValueError, so its overflow is not also warned about."""
    if not domain.is_annulus:
        raise ValueError("window_exp needs an annulus domain")

    def samples(zs):
        with np.errstate(over="ignore"):
            return np.exp(f.evaluate_many(zs))

    win = _fft_expand(samples, f.base_point, domain, -halfwidth, halfwidth)
    return MeroFunction(win, f.base_point, domain)


def _is_constant(f: MeroFunction) -> bool:
    return (f.is_rational and f.rep.num.degree <= 0
            and f.rep.den.degree == 0)


def _zeta_vector(family: SprayFamily, zeta) -> np.ndarray:
    out = np.asarray(zeta, dtype=complex).reshape(-1)
    if out.size != len(family.basis):
        raise ValueError(
            f"zeta has {out.size} entries for {len(family.basis)} directions")
    return out


def spray_apply(family: SprayFamily, zeta) -> SpinorData:
    """Spinor data at parameter zeta.

    A constant exponent multiplies eta by the exact scalar exp(c), keeping
    rational representations rational; otherwise eta is pushed through a
    Laurent window on the family's annulus.
    """
    zs = _zeta_vector(family, zeta)
    combo = MeroFunction.zero()
    for z, h in zip(zs, family.basis):
        if z == 0:
            continue
        combo = combo + h * complex(z)
    if _is_constant(combo):
        scalar = cmath.exp(combo.evaluate(family.eta.base_point))
        eta_z = family.eta * scalar
    else:
        factor = window_exp(combo, family.domain, family.window_halfwidth)
        eta_z = family.eta * factor
    return SpinorData(eta_z, family.f3,
                      conjugate_chart=family.conjugate_chart)


# ---------------------------------------------------------------------------
# the period solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveResult:
    zeta: tuple[complex, ...]
    residual_norm: float
    iterations: int
    residual_history: tuple[float, ...]
    converged: bool = True

    def as_dict(self) -> dict:
        return {
            "zeta": [[z.real, z.imag] for z in self.zeta],
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "residual_history": list(self.residual_history),
            "converged": self.converged,
        }


def _spray_periods(family: SprayFamily, cycles):
    """The map zeta -> (stacked f1 and f2 periods, their exact Jacobian).

    eta, f3^2 and the directions h_j are evaluated once at each cycle's
    quadrature nodes.  With eta_z = eta exp(zeta . h) and q = f3^2/eta_z,
    f1 = (eta_z - q)/2 and f2 = s (i/2)(eta_z + q), s = -1 (+1 on the
    conjugate chart).  As d eta_z/dzeta_j = h_j eta_z and dq/dzeta_j =
    -h_j q, the Jacobian rows integrate h_j (eta_z + q)/2 and
    s (i/2) h_j (eta_z - q) on the same nodes.

    Raises PoleOnContour when a declared pole of eta, f3 or an h_j, or a
    pole of q, lies on a cycle.  The poles of q are the zeros of eta whose
    multiplicity exceeds that of f3^2 there.  Against a nonzero constant
    f3 they are the zeros of eta, and q = f3^2/eta_z at each node.  On
    rational eta and a nonconstant rational f3, q is reduced by one
    ``poly_gcd`` of its numerator and denominator, its poles are read
    from that reduced form (``MeroFunction.poles``) and its node values
    are q(z)/exp(zeta . h), so a zero of eta that f3^2 cancels is a
    regular point even on a node.

    The integrand is evaluated with float warnings off: a zeta at which
    exp(zeta . h) overflows on a node gives a residual or Jacobian that
    is not finite, and ``period_solve`` reads that.
    """
    eta, f3 = family.eta, family.f3
    bad = [p for g in (eta, f3) + family.basis for p, _ in g.poles()]
    exact_q = None
    if _is_constant(f3) or not (eta.is_rational and f3.is_rational):
        if not f3.is_identically_zero():
            bad += [p for p, _ in eta.zeros()]
    else:
        q = (f3 * f3) / eta
        num, den = q.rep.num, q.rep.den
        g = poly_gcd(num, den)    # no node is then a removable 0/0
        exact_q = MeroFunction(Rational(num.exact_div(g), den.exact_div(g)),
                               q.base_point, q.domain)
        bad += [p for p, _ in exact_q.poles()]
    nodes = []
    for c in cycles:
        hit = [p for p in bad if c.min_distance(p) < POLE_DISTANCE_TOL]
        if hit:
            raise PoleOnContour(f"singular point {hit[0]} of the spray "
                                "integrand lies on the integration contour")
        zs, ws = c.nodes_and_weights()
        nodes.append((ws, eta.evaluate_many(zs),
                      f3.evaluate_many(zs) ** 2 if exact_q is None
                      else exact_q.evaluate_many(zs),
                      np.array([h.evaluate_many(zs) for h in family.basis])))
    half = 0.5j if family.conjugate_chart else -0.5j

    def evaluate(zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p1, p2, j1, j2 = [], [], [], []
        with np.errstate(all="ignore"):
            for ws, eta, top, hs in nodes:
                e = np.exp(zeta @ hs)
                eta_z = eta * e
                q = top / (eta_z if exact_q is None else e)
                plus, minus = ws * (eta_z + q), ws * (eta_z - q)
                p1.append(0.5 * minus.sum())
                p2.append(half * plus.sum())
                j1.append(0.5 * (hs @ plus))
                j2.append(half * (hs @ minus))
        return np.array(p1 + p2), np.array(j1 + j2)
    return evaluate


def solver_residual(family: SprayFamily, cycles, zeta) -> np.ndarray:
    """Stacked periods (f1 block, then f2 block) of the direction field of
    the sprayed spinor data, by quadrature on each cycle's nodes."""
    return _spray_periods(family, tuple(cycles))(_zeta_vector(family, zeta))[0]


def period_solve(family: SprayFamily, cycles, zeta0=None,
                 tol: float = 1e-10, max_iter: int = 20,
                 max_halvings: int = 8) -> SolveResult:
    """Damped Newton iteration closing the (f1, f2) periods.

    The integrands are holomorphic in zeta, so the Jacobian is exact and
    comes from the residual's own quadrature nodes; there is no step size.
    Steps are least-squares solutions, halved up to `max_halvings` times
    until the max-abs residual norm strictly decreases.

    A candidate whose residual or Jacobian is not finite (exp(zeta . h)
    overflows on a quadrature node) is a failed step, and is halved.

    Raises PoleOnContour when the integrand is singular on a cycle,
    SingularJacobian for a zero/ill-conditioned Jacobian, or where the
    residual or Jacobian at zeta0 is not finite, so that no Newton step
    can be formed, and MaxIterExceeded (carrying the best iterate) when
    the budget runs out.
    """
    cyc = tuple(cycles)
    if not cyc:
        raise ValueError("period_solve needs at least one cycle")
    zeta = _zeta_vector(family, np.zeros(len(family.basis))
                        if zeta0 is None else zeta0)
    spray_periods = _spray_periods(family, cyc)

    history: list[float] = []
    best_zeta, best_norm = zeta.copy(), float("inf")

    def fail(msg: str):
        report = SolveResult(zeta=tuple(best_zeta), residual_norm=best_norm,
                             iterations=len(history),
                             residual_history=tuple(history),
                             converged=False)
        raise MaxIterExceeded(msg, zeta=best_zeta.copy(), report=report,
                              residual_history=tuple(history))

    resid, jac = spray_periods(zeta)
    if not (np.isfinite(resid).all() and np.isfinite(jac).all()):
        raise SingularJacobian(
            "the period residual or Jacobian is not finite at zeta0 "
            "(exp(zeta . h) overflows on a quadrature node)")
    for _ in range(max_iter):
        norm = float(np.abs(resid).max())
        history.append(norm)
        if norm < best_norm:
            best_zeta, best_norm = zeta.copy(), norm
        if norm <= tol:
            return SolveResult(zeta=tuple(zeta), residual_norm=norm,
                               iterations=len(history),
                               residual_history=tuple(history))
        delta, _, _, sing = np.linalg.lstsq(jac, resid, rcond=None)  # an SVD
        smax, smin = float(sing[0]), float(sing[-1])
        if smax == 0.0 or smax <= 1e-8 * max(1.0, norm):
            raise SingularJacobian(
                f"Jacobian is numerically zero (largest singular value "
                f"{smax:.3e} at residual norm {norm:.3e})")
        if smin == 0.0 or smax / smin > 1e12:
            raise SingularJacobian(
                f"Jacobian condition number {smax / max(smin, 1e-300):.3e} "
                "exceeds 1e12")
        lam = 1.0
        for _ in range(max_halvings + 1):
            cand = zeta - lam * delta
            cand_resid, cand_jac = spray_periods(cand)
            # norm is finite, so a NaN or infinite residual fails here
            if (float(np.abs(cand_resid).max()) < norm
                    and np.isfinite(cand_jac).all()):
                zeta, resid, jac = cand, cand_resid, cand_jac
                break
            lam /= 2.0
        else:
            fail("no residual decrease along the damped Newton direction")
    fail(f"no convergence within {max_iter} iterations "
         f"(best residual {best_norm:.3e})")


__all__ = [
    "CROSS_CHECK_TOL", "POLE_DISTANCE_TOL", "SPRAY_HALFWIDTH",
    "Cycle", "PeriodReport", "SolveResult", "SprayFamily",
    "period", "period_map", "period_solve", "solver_residual",
    "spray_apply", "window_exp",
]
