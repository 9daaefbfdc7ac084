"""Hermitian-matrix model of Minkowski 4-space and the two projections.

A point x = (x0, x1, x2, x3) of Minkowski space corresponds to the
Hermitian matrix

    her(x) = [[x0 + x3,      x1 + i x2],
              [x1 - i x2,    x0 - x3]],

with det her(x) = -<x, x> for the inner product
<x, y> = -x0 y0 + x1 y1 + x2 y2 + x3 y3.  For A in SL(2,C):

    project_h3:  A -> A A*      lands in H^3 = {<x,x> = -1, x0 > 0},
    project_s31: A -> A J A*    (J = diag(1,-1)) lands in S^3_1 = {<x,x> = +1},

where * is the conjugate transpose.  The fibers are the right actions of
SU(2) (B B* = Id) and SU(1,1) (B J B* = J) respectively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotUnimodular

#: tolerance for membership/validation predicates
MEMBERSHIP_TOL = 1e-9

_J = np.diag([1.0, -1.0]).astype(complex)


@dataclass(frozen=True)
class MinkowskiPoint:
    x0: float
    x1: float
    x2: float
    x3: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x0, self.x1, self.x2, self.x3)


@dataclass(frozen=True)
class H3Point(MinkowskiPoint):
    """A point of the hyperboloid <x,x> = -1, x0 > 0."""

    def validation_residual(self) -> float:
        return abs(minkowski_inner(self, self) + 1.0)


@dataclass(frozen=True)
class S31Point(MinkowskiPoint):
    """A point of the de Sitter quadric <x,x> = +1."""

    def validation_residual(self) -> float:
        return abs(minkowski_inner(self, self) - 1.0)


def minkowski_inner(x, y) -> float:
    xt = x.as_tuple() if hasattr(x, "as_tuple") else tuple(x)
    yt = y.as_tuple() if hasattr(y, "as_tuple") else tuple(y)
    return (-xt[0] * yt[0] + xt[1] * yt[1] + xt[2] * yt[2] + xt[3] * yt[3])


# ---------------------------------------------------------------------------
# Hermitian model
# ---------------------------------------------------------------------------

def her_from_l4(x) -> np.ndarray:
    xt = x.as_tuple() if hasattr(x, "as_tuple") else tuple(x)
    x0, x1, x2, x3 = (float(v) for v in xt)
    return np.array([[x0 + x3, x1 + 1j * x2],
                     [x1 - 1j * x2, x0 - x3]], dtype=complex)


def l4_from_her(a, tol: float = MEMBERSHIP_TOL) -> MinkowskiPoint:
    m = np.asarray(a, dtype=complex)
    if np.abs(m - m.conj().T).max() > tol:
        raise NotHermitian("matrix is not Hermitian within tolerance")
    x0 = (m[0, 0].real + m[1, 1].real) / 2.0
    x3 = (m[0, 0].real - m[1, 1].real) / 2.0
    x1 = m[0, 1].real
    x2 = m[0, 1].imag
    return MinkowskiPoint(x0, x1, x2, x3)


def _require_unimodular(a: np.ndarray, tol: float):
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if abs(det - 1.0) > tol:
        raise NotUnimodular(f"det = {det} is not 1 within {tol}")


def _minkowski_coords(v1, v2, v3, v4, sign):
    """Element-wise (x0, x1, x2, x3) of A A* (sign +1, H^3) or A J A*
    (sign -1, S^3_1) for A = [[v1, v2], [v3, v4]]; scalars or arrays."""
    op = np.add if sign > 0 else np.subtract
    h11 = op(np.abs(v1) ** 2, np.abs(v2) ** 2)
    h22 = op(np.abs(v3) ** 2, np.abs(v4) ** 2)
    h12 = op(v1 * np.conj(v3), v2 * np.conj(v4))
    return (h11 + h22) / 2.0, h12.real, h12.imag, (h11 - h22) / 2.0


def project_h3(a, tol: float = MEMBERSHIP_TOL) -> H3Point:
    """Hyperbolic projection A -> A A* as a hyperboloid point."""
    m = np.asarray(a, dtype=complex)
    _require_unimodular(m, tol)
    return H3Point(*_minkowski_coords(*m.ravel(), 1))


def project_s31(a, tol: float = MEMBERSHIP_TOL) -> S31Point:
    """de Sitter projection A -> A J A* as a quadric point."""
    m = np.asarray(a, dtype=complex)
    _require_unimodular(m, tol)
    return S31Point(*_minkowski_coords(*m.ravel(), -1))


def membership(a, group: str, tol: float = MEMBERSHIP_TOL) -> bool:
    """Fiber-group membership: group in {'SU2', 'SU11'}."""
    m = np.asarray(a, dtype=complex)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det - 1.0) > tol:
        return False
    if group == "SU2":
        return bool(np.abs(m @ m.conj().T - np.eye(2)).max() <= tol)
    if group == "SU11":
        return bool(np.abs(m @ _J @ m.conj().T - _J).max() <= tol)
    raise ValueError(f"unknown group {group!r}; expected 'SU2' or 'SU11'")


# ---------------------------------------------------------------------------
# Poincare ball chart
# ---------------------------------------------------------------------------

def poincare_ball(x: H3Point) -> tuple[float, float, float]:
    """Ball coordinates b = (x1, x2, x3)/(1 + x0) of a hyperboloid point."""
    s = 1.0 + x.x0
    return (x.x1 / s, x.x2 / s, x.x3 / s)


def ball_to_hyperboloid(b) -> H3Point:
    """Inverse ball chart; |b| < 1 required."""
    b1, b2, b3 = (float(v) for v in b)
    s = b1 * b1 + b2 * b2 + b3 * b3
    if s >= 1.0:
        raise ValueError("ball coordinates must satisfy |b| < 1")
    d = 1.0 - s
    return H3Point((1.0 + s) / d, 2.0 * b1 / d, 2.0 * b2 / d, 2.0 * b3 / d)


# ---------------------------------------------------------------------------
# random samplers (documented sampling scheme for the property suites)
# ---------------------------------------------------------------------------

def random_unimodular(rng: np.random.Generator) -> np.ndarray:
    """Random SL(2,C): complex Gaussian 2x2 divided by a principal square
    root of its determinant; near-singular draws are rejected."""
    while True:
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) > 1e-6:
            return m / np.sqrt(det)


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish SU(2) via a normalized quaternion."""
    q = rng.standard_normal(4)
    q = q / np.linalg.norm(q)
    a = q[0] + 1j * q[1]
    b = q[2] + 1j * q[3]
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]], dtype=complex)


def random_su11(rng: np.random.Generator) -> np.ndarray:
    """Random SU(1,1) via a = cosh(t) e^{i phi}, b = sinh(t) e^{i psi}."""
    t = abs(rng.standard_normal()) * 0.8
    phi, psi = rng.uniform(0, 2 * np.pi, size=2)
    a = np.cosh(t) * np.exp(1j * phi)
    b = np.sinh(t) * np.exp(1j * psi)
    return np.array([[a, b], [b.conjugate(), a.conjugate()]], dtype=complex)
