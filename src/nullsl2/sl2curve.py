"""Null curves in SL(2,C) and the quadratic transform linking them to C^3.

Slot order is row-major: (F1, F2, F3, F4) = (z11, z12, z21, z22).

The transform `tee` sends a point (z1, z2, z3) with z3 != 0 to

    (1/z3) * [[1,          z1 + i z2],
              [z1 - i z2,  z1^2 + z2^2 + z3^2]]

and `tee_inv` recovers (z1, z2, z3) = (1/(2 z11)) * (z21 + z12,
i (z21 - z12), 2).  On curves, both directions extend the bookkeeping pole
set with the divisor that the denominator introduces (zeros of X3, resp. of
F1).  Row/column shears are constant unimodular multiplications, so they
preserve unimodularity, nullity, and pointwise coincidence patterns up to
the shear's operator norm on C^4.  G = S F with det S = 1 has G' = S F',
so det G = det F, det G' = det F', the slot derivatives of G vanish
together exactly where those of F do, and G' spans a fixed direction
exactly when F' does: a shear takes over the exact verdicts F has made
(``shear``), and makes them itself only where F has not.

On a rational curve, written X = (N1, N2, N3)/D over one denominator D,
`tee_curve` stores the four slots over one denominator: Q = N3 where D
divides N1^2 + N2^2 + N3^2 (one exact division tells), so that the factor
D common to the five products is not stored, else Q = D N3.  A shear keeps
one denominator: it sums numerators over Q and drops a common power of z
from Q and all four numerators at once.  Over Q, the exact decision of
det F == 1 and det F' == 0 reads the numerators (``SL2NullCurve``), and
det F and det F', where built, stay over Q^2 and Q^4.  On every curve
with rational slots F_k = N_k/D_k (over one denominator or four, as on
end models) ``check_null_sl2`` decides immersion and nonflatness from the
images of the stored N_k and D_k modulo one prime
(``exact._derivatives_coprime_mod_p``, ``exact._derivatives_vary_mod_p``):
F' is built, slot by slot, only where one of those two certificates
declines.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from math import isfinite

from ._lazy import np
from .errors import (
    FirstEntryZero,
    InvalidMultiplicity,
    PoleOnContour,
    SearchFailed,
    ThirdCoordinateZero,
    EvaluationAtPole,
)
from .exact import Poly
from .series import (MeroFunction, Rational, ZERO_TOL, _cancel_monomial,
                     _common_denominator, _merge_domain, _unit_roots,
                     punctured_disk)
from .spinor import (C3NullCurve, _Deferred, _PoleSetField, _certified,
                     _has_common_zero, _pole_source, _sorted_points, is_flat)

_I = 1j


@dataclass(frozen=True)
class SL2NullCurve:
    """A meromorphic curve into SL(2,C), with bookkeeping sets.

    ``pole_set`` lists points where some slot genuinely blows up;
    ``singular_set`` lists points where the homogeneous picture degenerates
    (the lift fails to be unimodular there).  Only ``singular_set`` is
    excluded from the immersion check: a genuine pole of a slot is a pole
    of its derivative, so it is never a common zero of F'.  ``pole_set`` is
    computed on first read when a builder deferred it (``tee_curve``,
    ``shear``); a tuple passed to the constructor is kept as given.

    The derivative F' = (F1', F2', F3', F4'), det F = F1F4 - F2F3 (which
    ``det()`` returns), det F' = F1'F4' - F2'F3' and
    omega = F1 F3' - F3 F1' are computed once per curve, on first use, and
    every check that reads them (validity, both Gauss maps, the Hopf
    cross-check, the Maurer-Cartan trace) shares them.  F' is each slot's
    ``differentiate()``; ``check_null_sl2`` builds it only where a modular
    certificate declines (module docstring).

    One exact decision is cached with them, with no tolerance: the pair
    (det F == 1, det F' == 0) on rational slots, None on windows.  Over one
    stored denominator Q (F_k = N_k/Q: ``tee_curve`` output and its shears)
    it reads the numerators: det F == 1 is N1 N4 - N2 N3 == Q**2, and then
    det F' == 0 is N1' N4' - N2' N3' == Q'**2, since the numerator of
    det F' over Q**4 is Q**2 (N1' N4' - N2' N3' - Q'**2) there; det F' is
    built only where det F != 1.  Other rational slots read det F == N/N
    and a zero numerator of det F'.  ``check_null_sl2``, the Gauss maps,
    the Hopf cross-check and the Maurer-Cartan trace read it (``invariants``
    module docstring).  A translation keeps both identities, so the end
    analysis's recentred curve G(w) = F(w + p) takes F's decision where F
    has made it, and, where p is the slots' base point, relabelled copies
    of the derived functions F has built.

    On rational slots the whole ``check_null_sl2`` report at tol <= 0 is
    one more exact decision, cached beside it: the four verdicts read no
    tolerance there.  A shear keeps all four (module docstring), so
    ``shear`` hands both decisions of F to the sheared curve where F has
    made them, and nothing where a slot of F is a window; F', det F,
    det F' and omega change under a shear and are not handed over.

    Caching is sound because the slots are immutable and the cached values
    do not depend on a tolerance.  They are cached outside the fields, so
    equality, hashing, repr and serialization see only the slots and the
    two point sets; a new curve (a rotation, ``dataclasses.replace``, a
    reload) starts without them, and a shear with F's two decisions only.
    """

    F1: MeroFunction
    F2: MeroFunction
    F3: MeroFunction
    F4: MeroFunction
    pole_set: tuple[complex, ...] = _PoleSetField()
    singular_set: tuple[complex, ...] = ()

    def slots(self) -> tuple[MeroFunction, MeroFunction, MeroFunction, MeroFunction]:
        return (self.F1, self.F2, self.F3, self.F4)

    def evaluate(self, z: complex) -> np.ndarray:
        return np.array(
            [[self.F1.evaluate(z), self.F2.evaluate(z)],
             [self.F3.evaluate(z), self.F4.evaluate(z)]], dtype=complex)

    def det(self) -> MeroFunction:
        return self._det

    @cached_property
    def _det(self) -> MeroFunction:
        return self.F1 * self.F4 - self.F2 * self.F3

    @cached_property
    def _derivative(self) -> tuple[MeroFunction, ...]:
        return tuple(s.differentiate() for s in self.slots())

    @cached_property
    def _det_derivative(self) -> MeroFunction:
        d1, d2, d3, d4 = self._derivative
        return d1 * d4 - d2 * d3

    @cached_property
    def _det_identities(self) -> tuple[bool, bool] | None:
        shared = _one_denominator(self.slots())
        if shared is not None:
            Q, N1, N2, N3, N4 = shared
            if N1 * N4 - N2 * N3 == Q * Q:
                dQ, d1, d2, d3, d4 = (p.derivative() for p in shared)
                return True, d1 * d4 - d2 * d3 == dQ * dQ
        elif not all(s.is_rational for s in self.slots()):
            return None
        # det F is built only off one denominator; over Q, det F != 1 here
        unimodular = shared is None and self._det.rep.num == self._det.rep.den
        return unimodular, self._det_derivative.rep.num.is_zero()

    @property
    def _unimodular_null(self) -> bool:
        return self._det_identities == (True, True)

    @cached_property
    def _exact_report(self) -> SL2Report | None:
        if self._det_identities is None:
            return None
        return _report(self, 0.0)

    @cached_property
    def _omega(self) -> MeroFunction:
        d = self._derivative
        return self.F1 * d[2] - self.F3 * d[0]


@dataclass(frozen=True)
class EndModelSpec:
    """Request for the standard end of given multiplicity at a center."""

    multiplicity: int
    center: complex = 0j


@dataclass(frozen=True)
class SL2Report:
    unimodular: bool
    null: bool
    immersion: bool
    nonflat: bool

    def as_dict(self) -> dict:
        return {"unimodular": self.unimodular, "null": self.null,
                "immersion": self.immersion, "nonflat": self.nonflat}


# ---------------------------------------------------------------------------
# pointwise transform
# ---------------------------------------------------------------------------

def tee(x) -> np.ndarray:
    """Pointwise transform C^3 -> SL(2,C); needs z3 != 0."""
    z1, z2, z3 = (complex(v) for v in x)
    if z3 == 0:
        raise ThirdCoordinateZero("tee needs a nonzero third coordinate")
    return np.array(
        [[1.0 / z3, (z1 + _I * z2) / z3],
         [(z1 - _I * z2) / z3, (z1 * z1 + z2 * z2 + z3 * z3) / z3]],
        dtype=complex)


def tee_inv(a) -> tuple[complex, complex, complex]:
    """Pointwise inverse transform; needs the (1,1) entry != 0."""
    m = np.asarray(a, dtype=complex)
    z11, z12, z21 = m[0, 0], m[0, 1], m[1, 0]
    if z11 == 0:
        raise FirstEntryZero("tee_inv needs a nonzero (1,1) entry")
    return ((z21 + z12) / (2 * z11),
            _I * (z21 - z12) / (2 * z11),
            1.0 / z11)


# ---------------------------------------------------------------------------
# curve-level transform
# ---------------------------------------------------------------------------

def tee_curve(X: C3NullCurve) -> SL2NullCurve:
    """Apply the transform along a curve; zeros of X3 join the pole set.

    On rational X the four slots share one stored denominator.  With
    X = (N1, N2, N3) / D over one D (``series._common_denominator``), they
    are D**2, D (N1 + i N2), D (N1 - i N2) and N1**2 + N2**2 + N3**2 over
    Q = D N3.  These five share the factor D where D divides
    N1**2 + N2**2 + N3**2, which one exact division decides: then the
    slots are stored without it, as D, N1 + i N2, N1 - i N2 and
    (N1**2 + N2**2 + N3**2)/D over Q = N3.  That is the case wherever the
    poles of X lie in X1 - i X2 alone (X1 + i X2 and X3 regular there, as
    on the curves ``integrate_null`` gives for eta = c/(z - p)**2), and
    there the immersion test's modular certificate sees the derivative
    numerators without the shared D.  The slots take X1's base point, in
    whose variable ``_common_denominator`` writes X.
    ``series._cancel_monomial`` drops a
    common power of z from all five at once, since dropping it slot by
    slot would split Q where X3(0) = 0.  ``shear`` keeps one denominator
    the same way.  The exact decision of det F == 1 and det F' == 0 reads
    these numerators (``SL2NullCurve``); where det F or det F' is built,
    it sums over Q**2 or Q**4 by the shared-denominator rule of
    ``series._binary_rational``.  Windows take the four divisions.  The
    pole set (X's and the zeros of X3) is computed on first read of
    ``pole_set``.
    """
    X1, X2, X3 = X.components()
    if X3.is_identically_zero():
        raise ThirdCoordinateZero("X3 vanishes identically; tee is undefined")
    if X1.is_rational and X2.is_rational and X3.is_rational:
        (N1, N2, N3), D = _common_denominator((X1, X2, X3))
        iN2 = N2.scale(_I)
        top = N1 * N1 + N2 * N2 + N3 * N3
        top_D, rem = top.divmod(D) if D.degree > 0 else (top, Poly.zero())
        if rem.is_zero():
            # the five products share the factor D: store them without it
            den, *nums = _cancel_monomial(N3, D, N1 + iN2, N1 - iN2, top_D)
        else:
            den, *nums = _cancel_monomial(
                D * N3, D * D, D * (N1 + iN2), D * (N1 - iN2), top)
        dom = _merge_domain(_merge_domain(X1.domain, X2.domain), X3.domain)
        F1 = MeroFunction(Rational(nums[0], den), X1.base_point, X3.domain)
        F2, F3, F4 = (MeroFunction(Rational(n, den), X1.base_point, dom)
                      for n in nums[1:])
    else:
        F1 = 1 / X3
        F2 = (X1 + _I * X2) / X3
        F3 = (X1 - _I * X2) / X3
        F4 = (X1 * X1 + X2 * X2 + X3 * X3) / X3
    return SL2NullCurve(F1, F2, F3, F4,
                        _Deferred(_with_zeros, _pole_source(X), X3), ())


def tee_inv_curve(F: SL2NullCurve) -> C3NullCurve:
    """Inverse transform along a curve; zeros of F1 join the pole set."""
    if F.F1.is_identically_zero():
        raise FirstEntryZero("F1 vanishes identically; tee_inv is undefined")
    X1 = (F.F3 + F.F2) / (2 * F.F1)
    X2 = _I * (F.F3 - F.F2) / (2 * F.F1)
    X3 = 1 / F.F1
    return C3NullCurve(X1, X2, X3,
                       _Deferred(_with_zeros, _pole_source(F), F.F1))


def _with_zeros(poles, f) -> tuple[complex, ...]:
    """The points of ``poles`` (from ``_pole_source``) and the zeros of f."""
    new_poles = set(poles.resolve() if type(poles) is _Deferred else poles)
    new_poles.update(p for p, _ in f.zeros())
    return _sorted_points(new_poles)


def check_null_sl2(F: SL2NullCurve, tol: float = ZERO_TOL) -> SL2Report:
    """Unimodularity, nullity, immersion and nonflatness verdicts.

    The first two read the exact decision of det F == 1 and det F' == 0
    (``SL2NullCurve``); det F - 1 and det F' are tested at `tol` only on
    windows, or at ``tol > 0`` for a verdict the decision leaves False.
    At ``tol <= 0`` on rational slots the report is made once per curve
    and cached (``SL2NullCurve``); a sheared curve holds its curve's, where
    that was made first, since a shear keeps all four verdicts.

    On rational slots F_k = N_k/D_k, over one denominator or several,
    immersion and (at ``tol <= 0``) nonflatness are first offered to one
    certificate each on the images of the stored N_k and D_k modulo one
    prime, with no exact product and, at ``tol <= 0``, without F'; at
    ``tol > 0`` a slot whose derivative is zero to within tol is left
    out.  The slot derivatives are W_k/D_k**2, W_k = N_k' D_k - N_k D_k'.
    Immersion: the gcd of the images of the W_k, each over its exact
    power of z, is a nonzero constant
    (``exact._derivatives_coprime_mod_p``).
    Nonflatness: the numerator of ((N_c/D_c)'/(N_r/D_r)')' is nonzero at
    one residue for some pair (``exact._derivatives_vary_mod_p``).  A
    certificate that declines leaves its verdict, and only that one,
    straight to the exact test on F' below.

    Nonflatness is ``not is_flat(F')``: on rational slots F' spans a fixed
    direction exactly when (c/ref)' == 0 for each nonzero slot derivative
    c against the smallest one, ref; at ``tol > 0`` each quotient
    derivative's numerator is compared against its own denominator's
    scale, which no certificate decides.  Immersion is exact on rational
    slots: the exact gcd of the reduced derivative numerators decides
    (``spinor._has_common_zero``).  Only ``singular_set`` is excluded; the
    pole set is not read.  A NaN or infinite tol raises ValueError.
    """
    if not isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if tol <= 0 and F._exact_report is not None:
        return F._exact_report
    return _report(F, tol)


def _report(F: SL2NullCurve, tol: float) -> SL2Report:
    """The four verdicts of ``check_null_sl2`` at a finite tol, made on F's
    slots with no cached report read."""
    decided = F._det_identities
    unimodular, null = decided or (False, False)
    if decided is None or tol > 0:
        unimodular = unimodular or (F.det() - 1).is_identically_zero(tol)
        null = null or F._det_derivative.is_identically_zero(tol)
    immersed, nonflat = _certified(F.slots(), lambda: F._derivative, tol)
    immersion = (immersed
                 or not _has_common_zero(F._derivative, F.singular_set, tol))
    nonflat = nonflat or not is_flat(F._derivative, tol)
    return SL2Report(unimodular, null, immersion, nonflat)


def _one_denominator(slots):
    """(Q, N1, N2, N3, N4) when the four slots are rational over one stored
    denominator Q (equal ``Poly``) at one base point, so that F_k = N_k/Q
    in one variable; else None."""
    reps, base = [f.rep for f in slots], slots[0].base_point
    den = reps[0].den if type(reps[0]) is Rational else None
    if all(type(r) is Rational and r.den == den and f.base_point == base
           for r, f in zip(reps, slots)):
        return (den, *(r.num for r in reps))
    return None


# ---------------------------------------------------------------------------
# shears
# ---------------------------------------------------------------------------

#: the four elementary shears: which slot pair receives lambda times which
SHEAR_KINDS = ("row1+row2", "row2+row1", "col1+col2", "col2+col1")

_SHEAR_RECIPES = {
    #  kind: ((target, source), (target, source)) using 0-based slot indices
    "row1+row2": ((0, 2), (1, 3)),
    "row2+row1": ((2, 0), (3, 1)),
    "col1+col2": ((0, 1), (2, 3)),
    "col2+col1": ((1, 0), (3, 2)),
}


def shear(F: SL2NullCurve, lam, kind: str) -> SL2NullCurve:
    """Add lambda times one row/column of F to the other (constant
    unimodular multiplication, hence structure preserving).

    When the four slots are rational over one stored denominator Q (every
    ``tee_curve`` output), each target numerator becomes N_t + lambda N_s
    over Q, and ``series._cancel_monomial`` drops a common power of z from
    Q and all four numerators at once, so the sheared slots share one
    denominator too; where Q(0) != 0 they are exactly the slots
    F_t + lambda F_s that ``MeroFunction`` arithmetic gives.  Other curves
    (end models, windows) take that arithmetic.  The sheared curve keeps
    F's pole set; if F has not read it yet, it is computed once, on the
    first read of either.

    G = S F by a constant S with det S = 1, and G' = S F', so det G,
    det G', the common zeros of the slot derivatives (immersion; the
    singular set is kept) and whether G' spans a fixed direction
    (nonflatness) are those of F.  Where F has made its exact decision of
    det F == 1 and det F' == 0 and its tol <= 0 report
    (``SL2NullCurve``), G takes them and decides neither again; where a
    slot of F is a window, G takes nothing."""
    if kind not in _SHEAR_RECIPES:
        raise ValueError(f"unknown shear kind {kind!r}; "
                         f"expected one of {SHEAR_KINDS}")
    slots = F.slots()
    out = list(slots)
    shared = _one_denominator(slots)
    if shared is not None:
        den, *nums = shared
        doms = [f.domain for f in slots]
        for target, source in _SHEAR_RECIPES[kind]:
            nums[target] = nums[target] + shared[1 + source].scale(lam)
            doms[target] = _merge_domain(doms[target], slots[source].domain)
        den, *nums = _cancel_monomial(den, *nums)
        out = [MeroFunction(Rational(n, den), f.base_point, d)
               for n, f, d in zip(nums, slots, doms)]
    else:
        lam_f = MeroFunction.constant(lam, slots[0].base_point)
        for target, source in _SHEAR_RECIPES[kind]:
            out[target] = slots[target] + lam_f * slots[source]
    G = SL2NullCurve(out[0], out[1], out[2], out[3],
                     _pole_source(F), F.singular_set)
    # G = S F and G' = S F' with det S = 1: F's exact verdicts are G's
    facts = vars(F)
    if facts.get("_det_identities") is not None:
        for name in ("_det_identities", "_exact_report"):
            if name in facts:
                vars(G)[name] = facts[name]
    return G


def shear_matrix(lam: complex, kind: str) -> np.ndarray:
    """The 4x4 linear map the shear induces on the slot vector."""
    if kind not in _SHEAR_RECIPES:
        raise ValueError(f"unknown shear kind {kind!r}")
    m = np.eye(4, dtype=complex)
    for target, source in _SHEAR_RECIPES[kind]:
        m[target, source] = complex(lam)
    return m


def shear_operator_norm(lam: complex, kind: str) -> float:
    """Largest singular value of the slot map; relates coincidence
    tolerances before and after the shear (in both directions)."""
    return float(np.linalg.svd(shear_matrix(lam, kind), compute_uv=False)[0])


# ---------------------------------------------------------------------------
# end models
# ---------------------------------------------------------------------------

def end_model(spec, center: complex = 0j) -> SL2NullCurve:
    """The standard end of multiplicity m centered at a point.

    m = 1:  ( z^-2,  -(4/3) z,            z^-1,              -(1/3) z^2 )
    m >= 2: ( z^-1,  -z^(m+1)/(m+2),  -1/(m z^(m+1)),  (m+1)^2 z/((m+1)^2-1) )

    The slots are stored in powers of w = z - center, as every function
    is stored at its base point (``series`` module docstring), so they are
    these small integers over small integers at every centre, and
    det == 1 stays an exact identity with no shift.  Serialized curves
    keep their coefficients in z and reload exactly at every centre: off
    dyadic centres the Taylor-shifted coefficients are not floats, and the
    file carries them exactly next to the rounded ones.
    """
    if isinstance(spec, EndModelSpec):
        m, center = spec.multiplicity, spec.center
    else:
        m = spec
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InvalidMultiplicity(f"end models need an integer m >= 1, got {m!r}")
    if m == 1:
        data = [((1,), (0, 0, 1)),      # 1/z^2
                ((0, -4), (3,)),        # -(4/3) z
                ((1,), (0, 1)),         # 1/z
                ((0, 0, -1), (3,))]     # -(1/3) z^2
    else:
        mm = (m + 1) ** 2
        data = [((1,), (0, 1)),                              # 1/z
                ((0,) * (m + 1) + (-1,), (m + 2,)),          # -z^(m+1)/(m+2)
                ((-1,), (0,) * (m + 1) + (m,)),              # -1/(m z^(m+1))
                ((0, mm), (mm - 1,))]                        # (m+1)^2 z/(mm-1)
    center = complex(center)
    slots = [MeroFunction(Rational(Poly(num), Poly(den)), center,
                          punctured_disk()) for num, den in data]
    return SL2NullCurve(slots[0], slots[1], slots[2], slots[3],
                        pole_set=(center,), singular_set=())


# ---------------------------------------------------------------------------
# auxiliary rotations
# ---------------------------------------------------------------------------

def aux_rotations(F: SL2NullCurve) -> tuple[SL2NullCurve, SL2NullCurve, SL2NullCurve]:
    """Three constant unimodular companions of F whose first slots run
    through F2, F3, F4: F J^-1, J F and J F J^-1 for J = [[0, 1], [-1, 0]].
    Each is a signed permutation of the slots of F (see the invariants
    module docstring for what the end analysis reads from that)."""
    F1, F2, F3, F4 = F.slots()
    return tuple(SL2NullCurve(*slots, F.pole_set, F.singular_set)
                 for slots in ((F2, -F1, F4, -F3), (F3, F4, -F1, -F2),
                               (F4, -F3, -F2, F1)))


# ---------------------------------------------------------------------------
# norm pushing
# ---------------------------------------------------------------------------

def push_norm(F: SL2NullCurve, fixed_slot: int, delta: float, samples,
              budget: int = 64, seed: int = 0):
    """Find a shear that keeps slot ``fixed_slot`` unchanged while making the
    other slots uniformly large on the sample set.

    Returns (lambda, sheared curve) with ``max_{j != i} |Fhat_j(p)| > delta``
    at every sample p.  Deterministic escalating magnitudes with seeded
    angular jitter; raises SearchFailed (carrying the best candidate) when
    the budget is exhausted.
    """
    if fixed_slot not in (1, 2, 3, 4):
        raise ValueError("fixed_slot must be one of 1..4")
    kind = "row2+row1" if fixed_slot in (1, 2) else "row1+row2"
    samples = [complex(p) for p in samples]
    if not samples:
        raise ValueError("push_norm needs a nonempty sample set")
    rng = np.random.default_rng(seed)
    others = [j for j in range(4) if j != fixed_slot - 1]

    def margin(curve) -> float:
        worst = float("inf")
        for p in samples:
            best_here = 0.0
            for j in others:
                try:
                    best_here = max(best_here, abs(curve.slots()[j].evaluate(p)))
                except EvaluationAtPole:
                    best_here = float("inf")
                    break
            worst = min(worst, best_here)
        return worst

    best_lam, best_margin = None, -1.0
    for k in range(budget):
        lam = (2.0 ** k) * cmath.exp(2j * cmath.pi * rng.uniform())
        cand = shear(F, lam, kind)
        m = margin(cand)
        if m > best_margin:
            best_lam, best_margin = lam, m
        if m > delta:
            return lam, cand
    raise SearchFailed(
        f"no shear reached margin {delta} within {budget} draws "
        f"(best margin {best_margin:.3g})", best_lambda=best_lam)


def min_sup_norm_on_circle(F: SL2NullCurve, radius: float,
                           n_samples: int = 256,
                           center: complex = 0j) -> float:
    """min over the circle of the entrywise sup norm of F, sampled at
    center + radius * exp(2 pi i k / n_samples), k = 0 .. n_samples - 1.

    Raises PoleOnContour when the circle passes through a declared or
    detected pole.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    for p in tuple(F.pole_set) + tuple(F.singular_set):
        if abs(abs(p - center) - radius) < 1e-9:
            raise PoleOnContour(f"declared pole {p} lies on the circle")
    zs = center + radius * _unit_roots(n_samples)
    try:
        sup = np.max([np.abs(s.evaluate_many(zs)) for s in F.slots()], axis=0)
    except EvaluationAtPole as exc:
        raise PoleOnContour(f"pole on the sample circle: {exc}") from exc
    return float(sup.min())
