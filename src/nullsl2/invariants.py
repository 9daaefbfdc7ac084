"""Geometric invariants of SL(2,C) null curves and end classification.

For a null immersion F the derivative has rank one, so the two quotients
defining each Gauss map agree; this module checks that (via det F' == 0)
before dividing.  The invariants are

    hyperbolic Gauss map   G = F1'/F3' = F2'/F4'
    secondary Gauss map    g = -F2'/F1' = -F4'/F3'
    Wronskian one-form     omega/dz = F1 F3' - F3 F1'
    Hopf differential      Q/dz^2 = omega * dg/dz

with Q/dz^2 cross-checked against (F1'' - F1' omega'/omega)/F1, where
omega' = F1 F3'' - F3 F1''.  End exponents at a puncture p:

    k = ord_p F1,   l = ord_p (F3/F1)',   ord_p omega = l + 2k,
    q_hat(-2) = -k(k+1+l),   multiplicity m = |l+1|,
    m^2 = (ord_p omega + 1)^2 + 4 q_hat(-2).

The first, second, and fourth relations are algebraic identities of the
normalized curve; the alternative slot-order form m = |ord F3 - ord F1|
holds for the standard models and their rotations but is not shear
invariant, so it is asserted only where applicable.

Q is invariant under aux_rotations when d(det F) = 0, since that reads
F1'(F4 + g F3) = F3'(F2 + g F1), i.e. omega_R = g^2 omega for
R = (F2, -F1, F4, -F3), whose g_R = -1/g.

The Hopf cross-check and the Maurer-Cartan trace test are determinant
tests.  For any F, with d = F' and a = F' F^-1 (adjugate inverse),

    a11 + a22 = d1 F4 - d2 F3 + d4 F1 - d3 F2 = (det F)',

and where F' has rank one (F2' = -g F1', F4' = -g F3'), with
q_main = omega g' and q_alt = (F1'' - F1' omega'/omega)/F1,

    q_main - det F q_alt = -omega ((det F)'/omega)',
    a = [[d1 u, -d1 v], [d3 u, -d3 v]],  u = F4 + g F3,  v = F2 + g F1.

So (det F)' == 0 gives q_main = det F q_alt, and det F == 1 gives
q_main = q_alt.  On the branch F1' == 0, F1 and F2 are constant, q_alt
is 0, and (det F)' == 0 makes g = -F2/F1 constant, so q_main is 0 too.
tests/test_invariants.py proves the three identities with sympy.
One exact decision of SL2NullCurve, with no tolerance, says whether
det F == 1 and det F' == 0 on rational slots.  Where both hold, the two
tests have exactly zero numerators and pass at every tol, so they are not
computed: hopf returns q_main, and the Maurer-Cartan order is
min(ord d1, ord d3) + min(ord u, ord v), with g = -d2/d1 (-d4/d3 where
d1 == 0), and no entry of F' F^-1 is built.  Where d1 == d3 == 0, and on
every other curve, the four entries (eight products) and the trace are
built and tested.

With J = [[0, 1], [-1, 0]] the rotations F J^-1, J F and J F J^-1 are
signed permutations of the slots of F.  The one with slot i in front has
F1 = +-Fi, F3 = +-F(i+2 mod 4) and omega = +-(F1 F3' - F3 F1') for even i,
+-(F2 F4' - F4 F2') for odd i.  A sign changes no order and no zero test at
any tol, so the end analysis reads that slot pair and builds no rotated
curve.  The entries of a rotation's F' F^-1 are a signed permutation of
those of F, so its Maurer-Cartan order and trace test are those of F.

Every exponent above is invariant under the translation z -> w + p: dz is
unchanged, so ord, Laurent coefficients, omega and Q of G(w) = F(w + p) at
0 are those of F at p.  The end analysis therefore recentres once and
works at the origin, where a pole of order n is the monomial w^n that the
rational arithmetic cancels.  Every function stores its coefficients in
powers of z - base_point (``series`` module docstring), so where p is the
slots' base point, as for an end model read at its centre, G holds F's own
polynomials and only the base point is relabelled to 0; F's cached F',
det F, det F' and omega, where F has built them, are relabelled copies of
G's, and G takes them, so no slot is differentiated twice.  A slot at
another base point is Taylor-shifted once, exactly, by p - base_point (every
float is Gaussian-rational), and G builds its own derived functions.  The
tolerance checks (F1, (F3/F1)' and omega == 0, det F', the Maurer-Cartan
trace) compare coefficients of G, so for float-rounded input a curve and
its exact translate get the same verdicts.  The translation keeps
det F == 1 and det F' == 0, so G takes F's exact decision where F has made
it (as after check_null_sl2(F) at any tol); otherwise G decides it on its
own slots, which are short at the puncture.

The end analysis reads each quantity of G once per call: F', det F' and
omega once per curve (see SL2NullCurve), so each slot is differentiated
once; the order of each slot, which gives k and the orders of the
multiplicity pair; (F3/F1)', l, omega and ord omega of a slot pair, so the
multiplicity reuses classify_end's reading when slot 0 leads; and Q, whose
Laurent head at 0 gives q_hat(-2) to both the m^2 check and the report.  Q
comes from the public hopf, which recomputes g: the benchmark's tracer
counts hopf calls per classification by that name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DegenerateDenominator,
    GaussMapMismatch,
    HopfMismatch,
    HypothesisViolation,
    IdenticallyZero,
    NotAnEnd,
    UmbilicInput,
)
from .series import MeroFunction, ZERO_TOL, _translated
from .sl2curve import SL2NullCurve, aux_rotations


@dataclass(frozen=True)
class EndReport:
    """Classification data of one end, in the normalization described in
    the module docstring."""

    center: complex
    k: int
    l: int
    ord_omega: int
    q_hat_minus2: complex
    multiplicity: int
    regular: bool
    finite_total_curvature: bool
    smooth_candidate: bool
    min_maurer_cartan_ord: int
    hopf_head: dict[int, complex]

    def as_dict(self) -> dict:
        return {
            "center": [self.center.real, self.center.imag],
            "k": self.k,
            "l": self.l,
            "ord_omega": self.ord_omega,
            "q_hat_minus2": [self.q_hat_minus2.real, self.q_hat_minus2.imag],
            "multiplicity": self.multiplicity,
            "regular": self.regular,
            "finite_total_curvature": self.finite_total_curvature,
            "smooth_candidate": self.smooth_candidate,
            "min_maurer_cartan_ord": self.min_maurer_cartan_ord,
            "hopf_head": {str(k): [v.real, v.imag]
                          for k, v in sorted(self.hopf_head.items())},
        }


# ---------------------------------------------------------------------------
# Gauss maps and differentials
# ---------------------------------------------------------------------------

def _rank_one_quotient(F: SL2NullCurve, tol: float, first, second,
                       names: str) -> MeroFunction:
    """d[first[0]] / d[first[1]], or the second quotient where the first
    denominator vanishes, for d = F'; they agree exactly when det F' == 0.
    Where F's exact decision has det F' == 0, the zero test of det F' is
    not run (it passes at every tol), nor is det F' built."""
    d = F._derivative
    den_a, den_b = d[first[1]], d[second[1]]
    if den_a.is_identically_zero(tol) and den_b.is_identically_zero(tol):
        raise DegenerateDenominator(f"both {names} vanish identically")
    null = (F._det_identities or (False, False))[1]
    if not (null or F._det_derivative.is_identically_zero(tol)):
        raise GaussMapMismatch("det F' != 0: the defining quotients disagree")
    if not den_a.is_identically_zero(tol):
        return d[first[0]] / den_a
    return d[second[0]] / den_b


def hyperbolic_gauss(F: SL2NullCurve, tol: float = ZERO_TOL) -> MeroFunction:
    """G = F1'/F3' (equivalently F2'/F4'); the two must agree."""
    return _rank_one_quotient(F, tol, (0, 2), (1, 3), "F3' and F4'")


def secondary_gauss(F: SL2NullCurve, tol: float = ZERO_TOL) -> MeroFunction:
    """g = -F2'/F1' (equivalently -F4'/F3'); the two must agree."""
    return -_rank_one_quotient(F, tol, (1, 0), (3, 2), "F1' and F3'")


def omega(F: SL2NullCurve) -> MeroFunction:
    """The Wronskian one-form omega/dz = F1 F3' - F3 F1'."""
    return F._omega


def hopf(F: SL2NullCurve, tol: float = ZERO_TOL) -> MeroFunction:
    """Q/dz^2 computed two ways, omega * g' and (F1'' - F1' omega'/omega)/F1
    with omega' = F1 F3'' - F3 F1''; HopfMismatch when they disagree.
    Where det F == 1 and det F' == 0 hold exactly, the two are equal (module
    docstring), so only omega * g' is built."""
    w = omega(F)
    if w.is_identically_zero(tol):
        raise DegenerateDenominator(
            "omega == 0 (flat input): the Hopf quotient path divides by omega")
    if F.F1.is_identically_zero(tol):
        raise DegenerateDenominator(
            "F1 == 0: the quotient path is undefined; rotate the curve first")
    q_main = w * secondary_gauss(F, tol).differentiate()
    if F._unimodular_null:
        return q_main  # q_alt == q_main exactly (module docstring)
    f1, d1 = F.F1, F._derivative[0]
    q_alt = d1.differentiate() / f1 - (d1 / f1) * (w.differentiate() / w)
    if not (q_main - q_alt).is_identically_zero(tol):
        raise HopfMismatch("the two Hopf computation paths disagree")
    return q_main


def induced_metric_factor(F: SL2NullCurve, z: complex) -> float:
    """Conformal factor (1+|g|^2)^2 |omega/dz|^2 of the lifted metric at z."""
    w = omega(F)
    if w.is_identically_zero():
        return 0.0
    return _metric_factor(secondary_gauss(F).evaluate(z), w.evaluate(z))


def _metric_factor(gv: complex, wv: complex) -> float:
    """(1+|g|^2)^2 |omega/dz|^2 from the values of g and omega at a point,
    with Python's abs: numpy's array abs differs in the last bits on about
    a third of the mesh points, which would change the sidecar bytes."""
    return float((1.0 + abs(gv) ** 2) ** 2 * abs(wv) ** 2)


# ---------------------------------------------------------------------------
# end analysis
# ---------------------------------------------------------------------------

#: the derived functions of a curve that its recentred copy takes over
_HANDED_ON = ("_derivative", "_det", "_det_derivative", "_omega")


def _recentred(F: SL2NullCurve, p: complex) -> SL2NullCurve:
    """The curve G(w) = F(w + p), with its pole and singular sets moved by
    -p; see the module docstring for why its exponents at 0 are those of F
    at p, and for what G takes from F's caches."""
    p = complex(p)
    G = SL2NullCurve(*(_translated(s, p) for s in F.slots()),
                     pole_set=tuple(q - p for q in F.pole_set),
                     singular_set=tuple(q - p for q in F.singular_set))
    # a translation keeps det F == 1 and det F' == 0, so F's decision is
    # G's; where G holds F's own polynomials, so are F's derived functions
    local = all(s.base_point == p for s in F.slots())
    for name, x in vars(F).items():
        if name == "_det_identities":
            vars(G)[name] = x
        elif local and name in _HANDED_ON:
            vars(G)[name] = (tuple(_translated(d, p) for d in x)
                             if type(x) is tuple else _translated(x, p))
    return G


def _slot_ord(f: MeroFunction) -> float:
    try:
        return f.ord(0)
    except IdenticallyZero:
        return math.inf


def _slot_orders(G: SL2NullCurve, p: complex) -> list[float]:
    """ord_0 of each slot of the recentred curve G, inf for a zero slot;
    NotAnEnd, naming the caller's puncture p, when none has a pole there."""
    ords = [_slot_ord(s) for s in G.slots()]
    if min(ords) >= 0:
        raise NotAnEnd(f"no slot has a pole at {p}")
    return ords


class _SlotPair:
    """(F3/F1)', l, omega and ord omega at 0 of the normalization with slot
    i of the recentred curve G in front (module docstring), each computed
    when first read and then kept: a caller keeps its own order of zero
    tests, and a second caller reuses the reading."""

    def __init__(self, G: SL2NullCurve, i: int):
        self.G, self.i = G, i

    @cached_property
    def ratio_d(self) -> MeroFunction:
        s = self.G.slots()
        return (s[(self.i + 2) % 4] / s[self.i]).differentiate()

    @cached_property
    def l(self) -> int:
        return self.ratio_d.ord(0)

    @cached_property
    def w(self) -> MeroFunction:
        G, d = self.G, self.G._derivative
        return G._omega if self.i % 2 == 0 else G.F2 * d[3] - G.F4 * d[1]

    @cached_property
    def ord_w(self) -> int:
        return self.w.ord(0)


def _maurer_cartan_min_ord(G: SL2NullCurve, tol: float) -> int:
    g1, g2, g3, g4 = G.slots()
    d1, d2, d3, d4 = G._derivative
    o1 = o3 = math.inf
    if G._unimodular_null:
        o1, o3 = _slot_ord(d1), _slot_ord(d3)
    if min(o1, o3) != math.inf:
        # F' F^-1 = [[d1 u, -d1 v], [d3 u, -d3 v]] (module docstring)
        g = -(d2 / d1) if o1 != math.inf else -(d4 / d3)
        ou, ov = _slot_ord(g4 + g * g3), _slot_ord(g2 + g * g1)
        ords = [o1 + ou, o1 + ov, o3 + ou, o3 + ov]
    else:
        a11 = d1 * g4 - d2 * g3
        a12 = d2 * g1 - d1 * g2
        a21 = d3 * g4 - d4 * g3
        a22 = d4 * g1 - d3 * g2
        if not (a11 + a22).is_identically_zero(tol):
            raise HypothesisViolation(
                "trace of F' F^-1 is nonzero; the input is not unimodular")
        ords = [_slot_ord(a) for a in (a11, a12, a21, a22)]
    finite = [o for o in ords if o != math.inf]
    if not finite:
        raise NotAnEnd("F' F^-1 vanishes identically (constant curve)")
    return int(min(finite))


def maurer_cartan_min_ord(F: SL2NullCurve, p: complex,
                          tol: float = ZERO_TOL) -> int:
    """min over slots of ord_p of F' F^-1, the same for F and each of its
    rotations (module docstring).

    F^-1 is the adjugate [[F4, -F2], [-F3, F1]] (det F == 1), and the trace
    of F' F^-1, which is (det F)', must vanish identically -- checked as a
    sanity condition.  Where det F == 1 and det F' == 0 hold exactly, the
    trace is zero and F' F^-1 has rank-one factors (module docstring), so
    the order is read from those and the four entries are not built.
    """
    return _maurer_cartan_min_ord(_recentred(F, p), tol)


def _multiplicity(G: SL2NullCurve, ords, Q, tol: float, head=None,
                  lead=None) -> int:
    """m = |l+1| at 0 on the first slot of the recentred curve G, by its
    order ``ords`` (lowest first, the first index winning ties), whose
    rotation normalization defines it, exactly cross-checked against
    m^2 = (ord omega + 1)^2 + 4 q_hat(-2).  Q is the (rotation invariant)
    Hopf differential, or None to compute it on that rotation; ``head``, Q's
    Laurent head at 0 from -2, and ``lead``, the _SlotPair of slot 0, are
    the caller's readings, if made."""
    for i in sorted(range(4), key=lambda i: (ords[i], i)):
        if G.slots()[i].is_identically_zero(tol):
            continue
        pair = lead if i == 0 and lead is not None else _SlotPair(G, i)
        if pair.w.is_identically_zero(tol):
            continue
        if Q is None:
            Q = hopf(G if i % 2 == 0 else aux_rotations(G)[0], tol)
        if Q.is_identically_zero(tol):
            raise UmbilicInput("the Hopf differential vanishes identically")
        if pair.ratio_d.is_identically_zero(tol):
            continue
        k, m = ords[i], abs(pair.l + 1)
        if pair.ord_w != pair.l + 2 * k:
            raise HypothesisViolation(
                f"ord omega = {pair.ord_w} != l + 2k = {pair.l + 2 * k}; "
                "the input does not satisfy the end hypotheses")
        q2 = (Q.laurent_head(0, -2, -2) if head is None else head)[-2]
        rhs = (pair.ord_w + 1) ** 2 + 4 * q2
        if abs(m * m - rhs) > 1e-6 * max(1.0, abs(rhs)):
            raise HypothesisViolation(
                f"m^2 = {m * m} inconsistent with "
                f"(ord omega + 1)^2 + 4 q_hat(-2) = {rhs}")
        # The slot-order difference form is not shear invariant; assert it
        # only when the orders actually differ (models and rotations).
        o3 = ords[(i + 2) % 4]
        if o3 != k and math.isfinite(o3) and abs(o3 - k) != m:
            raise HypothesisViolation(
                f"|ord F3 - ord F1| = {abs(o3 - k)} disagrees with m = {m}")
        return m
    raise UmbilicInput(
        "flat/umbilic input: end exponents are undefined in every rotation")


def end_multiplicity(F: SL2NullCurve, p: complex,
                     tol: float = ZERO_TOL) -> int:
    """Multiplicity of the end of F at p via m = |l+1| on the rotation
    normalization, exactly cross-checked against
    m^2 = (ord omega + 1)^2 + 4 q_hat(-2)."""
    G = _recentred(F, p)
    return _multiplicity(G, _slot_orders(G, p), None, tol)


def classify_end(F: SL2NullCurve, p: complex,
                 tol: float = ZERO_TOL) -> EndReport:
    """Full end report at p.  Requires the secondary Gauss map to extend
    holomorphically across p (HypothesisViolation otherwise); reports the
    exponents of the given curve and the rotation-normalized multiplicity
    and Maurer-Cartan order.  The analysis runs at 0 on the recentred
    curve G(w) = F(w + p)."""
    p = complex(p)
    G = _recentred(F, p)
    ords = _slot_orders(G, p)
    g = secondary_gauss(G, tol)
    if not g.is_identically_zero(tol) and g.ord(0) < 0:
        raise HypothesisViolation(
            f"the secondary Gauss map has a pole at {p}")
    if G.F1.is_identically_zero(tol):
        raise HypothesisViolation("F1 == 0; rotate the curve before classifying")
    lead = _SlotPair(G, 0)  # each order is read right after its zero test
    if lead.ratio_d.is_identically_zero(tol):
        raise HypothesisViolation("(F3/F1)' == 0; rotate the curve first")
    l = lead.l
    if lead.w.is_identically_zero(tol):
        raise HypothesisViolation(
            "omega == 0 for the given slot order; rotate the curve first")
    ord_w = lead.ord_w
    Q = hopf(G, tol)  # F1 and omega are nonzero, so Q is defined
    # one series quotient; a window raises TruncationTooShort past its top,
    # so its head is read where each check needs it, only as far as it needs
    head = Q.laurent_head(0, -2, 2) if Q.is_rational else None
    mult = _multiplicity(G, ords, Q, tol, head, lead)
    if Q.ord(0) < -2:
        raise HypothesisViolation(
            "ord Q < -2: the end is not of the admissible type")
    if head is None:
        head = Q.laurent_head(0, -2, 2)
    min_mc = _maurer_cartan_min_ord(G, tol)
    return EndReport(
        center=p,
        k=int(ords[0]),
        l=int(l),
        ord_omega=int(ord_w),
        q_hat_minus2=head[-2],
        multiplicity=int(mult),
        regular=True,
        finite_total_curvature=True,
        smooth_candidate=(mult == 1 and min_mc == -2),
        min_maurer_cartan_ord=int(min_mc),
        hopf_head=head,
    )
