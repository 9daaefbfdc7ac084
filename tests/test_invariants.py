"""Gauss maps, Hopf differential, end exponents and classification.

Oracles for the standard end family (derived by hand from the slot
formulas, cross-checked by the exact rational arithmetic):

  m = 1:  k = -2, l = 0,    ord omega = -4,     q_hat(-2) = -2,   mc = -2
  m >= 2: k = -1, l = -(m+1), ord omega = -(m+3), q_hat(-2) = -(m+1),
          mc = -(m+1)

and in every case m^2 = (ord omega + 1)^2 + 4 q_hat(-2).
"""

import runpy
import sys
from pathlib import Path

import pytest

import nullsl2.invariants as invariants
import nullsl2.series as series
from nullsl2 import (
    SHEAR_KINDS,
    DegenerateDenominator,
    ExactComplex,
    MeroFunction,
    NotAnEnd,
    Poly,
    SL2NullCurve,
    UmbilicInput,
    aux_rotations,
    check_null_sl2,
    classify_end,
    end_model,
    end_multiplicity,
    hopf,
    hyperbolic_gauss,
    induced_metric_factor,
    maurer_cartan_min_ord,
    omega,
    secondary_gauss,
    shear,
)
from nullsl2.errors import (GaussMapMismatch, HopfMismatch,
                             HypothesisViolation, IdenticallyZero,
                             NullCurveError)


def poly(coeffs):
    return MeroFunction.from_poly(coeffs)


def umbilic_with_pole() -> SL2NullCurve:
    # (1 + 2/z, -4/z, 1/z, 1 - 2/z): unimodular, null, Hopf == 0
    inv = MeroFunction.from_rational((1,), (0, 1))
    return SL2NullCurve(1 + 2 * inv, -4 * inv, inv, 1 - 2 * inv,
                        pole_set=(0j,))


# ---------------------------------------------------------------------------
# the m=1 invariant pack
# ---------------------------------------------------------------------------


def test_case1_hyperbolic_gauss():
    G = hyperbolic_gauss(end_model(1))
    target = MeroFunction.from_rational((2,), (0, 1))
    assert (G - target).is_identically_zero(0.0)


def test_case1_secondary_gauss():
    g = secondary_gauss(end_model(1))
    target = MeroFunction.from_rational((0, 0, 0, -2), (3,))
    assert (g - target).is_identically_zero(0.0)


def test_case1_omega():
    w = omega(end_model(1))
    target = MeroFunction.from_rational((1,), (0, 0, 0, 0, 1))
    assert (w - target).is_identically_zero(0.0)


def test_case1_hopf():
    Q = hopf(end_model(1))
    target = MeroFunction.from_rational((-2,), (0, 0, 1))
    assert (Q - target).is_identically_zero(0.0)
    assert Q.laurent_head(0, -2, -2)[-2] == -2


def test_case1_maurer_cartan_min_ord():
    assert maurer_cartan_min_ord(end_model(1), 0) == -2


def test_case1_full_report():
    rep = classify_end(end_model(1), 0)
    assert (rep.k, rep.l) == (-2, 0)
    assert rep.ord_omega == -4
    assert rep.q_hat_minus2 == -2
    assert rep.multiplicity == 1
    assert rep.smooth_candidate
    assert rep.min_maurer_cartan_ord == -2
    d = rep.as_dict()
    assert d["hopf_head"]["-2"] == [-2.0, 0.0]
    assert d["multiplicity"] == 1


# ---------------------------------------------------------------------------
# the end family, m = 1..8
# ---------------------------------------------------------------------------


def test_end_family_exponents():
    for m in range(1, 9):
        rep = classify_end(end_model(m), 0)
        assert rep.multiplicity == m
        if m == 1:
            assert (rep.k, rep.l, rep.ord_omega) == (-2, 0, -4)
            assert rep.q_hat_minus2 == -2
        else:
            assert (rep.k, rep.l, rep.ord_omega) == (-1, -(m + 1), -(m + 3))
            assert rep.q_hat_minus2 == -(m + 1)
        assert rep.ord_omega == rep.l + 2 * rep.k
        assert rep.q_hat_minus2 == -rep.k * (rep.k + 1 + rep.l)
        assert m * m == (rep.ord_omega + 1) ** 2 + 4 * rep.q_hat_minus2.real
        assert rep.smooth_candidate == (m == 1)
        assert rep.min_maurer_cartan_ord == (-2 if m == 1 else -(m + 1))


def test_end_multiplicity_matches_classify():
    for m in (1, 2, 3, 5, 8):
        assert end_multiplicity(end_model(m), 0) == m


def test_end_multiplicity_recentered():
    c = 2.0 + 1.0j
    assert end_multiplicity(end_model(3, center=c), c) == 3


def test_end_multiplicity_invariant_under_rotations():
    for m in (1, 2, 4):
        F = end_model(m)
        for R in aux_rotations(F):
            assert end_multiplicity(R, 0) == m


def _exponents_direct(F, p=0j):
    """k, l, ord omega, q_hat(-2) read off one curve without rotation."""
    k = F.F1.ord(p)
    l = (F.F3 / F.F1).differentiate().ord(p)
    ow = omega(F).ord(p)
    q2 = hopf(F).laurent_head(p, -2, -2)[-2]
    return k, l, ow, q2


def test_exponent_identities_on_all_rotations():
    for m in range(1, 9):
        F = end_model(m)
        for C in (F,) + aux_rotations(F):
            try:
                k, l, ow, q2 = _exponents_direct(C)
            except IdenticallyZero:
                continue   # a rotation may have constant F3/F1
            assert ow == l + 2 * k
            assert q2 == -k * (k + 1 + l)


def test_hopf_is_rotation_invariant():
    for m in (1, 2, 3):
        F = end_model(m)
        Q = hopf(F)
        for R in aux_rotations(F):
            assert (hopf(R) - Q).is_identically_zero(1e-10)


def test_hopf_order_bounded_below():
    for m in range(1, 9):
        F = end_model(m)
        for C in (F,) + aux_rotations(F):
            assert hopf(C).ord(0) >= -2


def _oracle(m, kind=None):
    """(k, l, ord omega, q_hat(-2), multiplicity, mc) from the module
    docstring table.  The row1+row2 shear adds lam F3 to F1, which raises
    ord F1 to -(m+1) for m >= 2 and so gives l = m - 1; the rotation
    invariant entries are unchanged."""
    if m == 1:
        return (-2, 0, -4, -2, 1, -2)
    if kind == "row1+row2":
        return (-(m + 1), m - 1, -(m + 3), -(m + 1), m, -(m + 1))
    return (-1, -(m + 1), -(m + 3), -(m + 1), m, -(m + 1))


def test_classify_end_computes_hopf_once(monkeypatch):
    calls = []
    real_hopf = invariants.hopf

    def counted(F, tol=invariants.ZERO_TOL):
        calls.append(F)
        return real_hopf(F, tol)

    monkeypatch.setattr(invariants, "hopf", counted)
    for c in (0j, 0.5 + 0.25j):
        for m in range(1, 9):
            for kind in (None,) + SHEAR_KINDS:
                F = end_model(m, c)
                if kind is not None:
                    F = shear(F, 0.5, kind)
                calls.clear()
                rep = classify_end(F, c)
                assert len(calls) == 1, (m, c, kind)
                got = (rep.k, rep.l, rep.ord_omega, rep.q_hat_minus2,
                       rep.multiplicity, rep.min_maurer_cartan_ord)
                assert got == _oracle(m, kind), (m, c, kind)
                assert rep.hopf_head[-2] == rep.q_hat_minus2
                assert rep.smooth_candidate == (m == 1)


def _end_models():
    """(curve, centre) for end_model m = 1..8 at 0 and at 0.5+0.25j, plain
    and under each shear kind."""
    for c in (0j, 0.5 + 0.25j):
        for m in range(1, 9):
            for kind in (None,) + SHEAR_KINDS:
                F = end_model(m, c)
                yield (F if kind is None else shear(F, 0.5, kind)), c


def test_classify_end_differentiates_each_slot_once(monkeypatch):
    # the recentred curve computes F' once and the end analysis reads its
    # slot pairs, so no slot of G nor any other object is differentiated
    # a second time
    calls = []
    real_differentiate = MeroFunction.differentiate

    def counted(self):
        calls.append(self)
        return real_differentiate(self)

    recentred = []
    real_recentred = invariants._recentred

    def captured(F, p):
        recentred.append(real_recentred(F, p))
        return recentred[-1]

    monkeypatch.setattr(MeroFunction, "differentiate", counted)
    monkeypatch.setattr(invariants, "_recentred", captured)
    for F, c in _end_models():
        calls.clear()
        recentred.clear()
        classify_end(F, c)
        assert len(recentred) == 1
        G = recentred[0]
        assert [sum(f is s for f in calls) for s in G.slots()] == \
            [1, 1, 1, 1], (F, c)
        assert len({id(f) for f in calls}) == len(calls), (F, c)


@pytest.mark.parametrize("F, lead", [
    (end_model(1), 0), (shear(end_model(3), 0.5, "col1+col2"), 2)])
def test_classify_end_reads_each_slot_order_pair_and_head_once(
        monkeypatch, F, lead):
    # the slot orders give k and the multiplicity pair's orders, slot 0's
    # (F3/F1)' and omega are read once, and Q's Laurent head comes from one
    # series quotient; ``lead`` is the slot with the lowest order.  F holds
    # det F == 1 and det F' == 0 exactly, so hopf builds no second path;
    # its float-rounded copy R does not, and hopf's second path runs there
    valued, divided, differentiated, quotients, hopfs, recentred = \
        [], [], [], [], [], []
    real_ord, real_div = MeroFunction.ord, MeroFunction.__truediv__
    real_differentiate = MeroFunction.differentiate
    real_quotient = series._exact_series_quotient
    real_hopf, real_recentred = invariants.hopf, invariants._recentred

    def counted_ord(self, p):
        valued.append(self)
        return real_ord(self, p)

    def counted_div(self, other):
        divided.append((self, other))
        return real_div(self, other)

    def counted_differentiate(self):
        differentiated.append(self)
        return real_differentiate(self)

    def counted_quotient(ns, ds, count):
        quotients.append(ns)
        return real_quotient(ns, ds, count)

    def captured_hopf(G, tol=invariants.ZERO_TOL):
        hopfs.append(real_hopf(G, tol))
        return hopfs[-1]

    def captured_recentred(F, p):
        recentred.append(real_recentred(F, p))
        return recentred[-1]

    monkeypatch.setattr(MeroFunction, "ord", counted_ord)
    monkeypatch.setattr(MeroFunction, "__truediv__", counted_div)
    monkeypatch.setattr(MeroFunction, "differentiate", counted_differentiate)
    monkeypatch.setattr(series, "_exact_series_quotient", counted_quotient)
    monkeypatch.setattr(invariants, "hopf", captured_hopf)
    monkeypatch.setattr(invariants, "_recentred", captured_recentred)
    R = SL2NullCurve(*(_rounded(s) for s in F.slots()), pole_set=(0j,))
    for C, exact in ((F, True), (R, False)):
        for log in (valued, divided, differentiated, quotients, hopfs,
                    recentred):
            log.clear()
        rep = classify_end(C, 0)
        (G,), (Q,) = recentred, hopfs
        assert G._unimodular_null is exact
        assert min(range(4),
                   key=lambda i: (real_ord(G.slots()[i], 0), i)) == lead
        assert rep.multiplicity == (1 if lead == 0 else 3)
        assert [sum(f is s for f in valued) for s in G.slots()] == \
            [1, 1, 1, 1]
        assert len(valued) == (12 if lead == 0 else 14)
        assert sum(a is G.F3 and b is G.F1 for a, b in divided) == 1
        assert sum(ns is Q.rep.num for ns in quotients) == 1
        # hopf's second path, where it runs, reads omega' = F1 F3'' - F3 F1''
        # off omega
        assert not any(f is G._derivative[2] for f in differentiated)
        assert sum(f is G._omega for f in differentiated) == (0 if exact
                                                              else 1)
        if lead == 0:
            assert len(differentiated) == (6 if exact else 8)


def test_end_checks_keep_their_order_on_window_slots():
    # (F3/F1)' = (2 eps/3) w is zero at tol = eps, and omega = 6 eps/w is
    # not, but lies below the order threshold of a window, so reading its
    # order before the (F3/F1)' test would raise TruncationTooShort
    eps = 1e-12
    F = SL2NullCurve(MeroFunction.from_laurent(-1, [3.0, 0, 0, 0, 0]),
                     MeroFunction.from_laurent(0, [1.0, 0, 0, 0]),
                     MeroFunction.from_laurent(-1, [3.0, 0, eps, 0, 0]),
                     MeroFunction.from_laurent(0, [1.0, 0, 0, 0]),
                     pole_set=(0j,))
    with pytest.raises(HypothesisViolation, match=r"\(F3/F1\)' == 0"):
        classify_end(F, 0, eps)
    # a window Q certified only through w^-2 fails the m^2 check before
    # its head through w^2 is read
    slots = [s.to_laurent(0j, 2) for s in end_model(1).slots()]
    slots[1] = slots[1] + MeroFunction.from_laurent(0, [1e-6, 1e-6])
    W = SL2NullCurve(*slots, pole_set=(0j,))
    with pytest.raises(HypothesisViolation, match=r"m\^2 = 1 inconsistent"):
        classify_end(W, 0, 1e-4)


def test_window_end_checks_at_tol_zero_reach_a_domain_verdict():
    # the window curve above at tol 0: (F3/F1)' = (2 eps/3) w is nonzero,
    # so its order and the division by it read the stored coefficients,
    # and det F = -eps w makes the two Hopf paths disagree
    eps = 1e-12
    F = SL2NullCurve(MeroFunction.from_laurent(-1, [3.0, 0, 0, 0, 0]),
                     MeroFunction.from_laurent(0, [1.0, 0, 0, 0]),
                     MeroFunction.from_laurent(-1, [3.0, 0, eps, 0, 0]),
                     MeroFunction.from_laurent(0, [1.0, 0, 0, 0]),
                     pole_set=(0j,))
    for check in (classify_end, end_multiplicity):
        with pytest.raises(HopfMismatch):
            check(F, 0, 0.0)


def test_end_analysis_builds_no_rotated_curve(monkeypatch):
    before = [(classify_end(F, c), maurer_cartan_min_ord(F, c))
              for F, c in _end_models()]

    def refused(F):
        raise AssertionError("the end analysis built a rotated curve")

    monkeypatch.setattr(invariants, "aux_rotations", refused)
    after = [(classify_end(F, c), maurer_cartan_min_ord(F, c))
             for F, c in _end_models()]
    assert after == before


def test_maurer_cartan_order_is_rotation_invariant():
    for F, c in _end_models():
        mc = maurer_cartan_min_ord(F, c)
        for R in aux_rotations(F):
            assert maurer_cartan_min_ord(R, c) == mc, (F, c)


def test_umbilic_multiplicity_through_odd_front_slot():
    # slot order [3, 1, 2, 0] and omega_13 == 0, so the Hopf differential
    # comes from the rotation with F2 in front, and it vanishes
    inv = MeroFunction.from_rational((1,), (0, 1))
    F = SL2NullCurve(MeroFunction.zero(), MeroFunction.constant(1),
                     MeroFunction.constant(-1), inv, pole_set=(0j,))
    with pytest.raises(UmbilicInput):
        end_multiplicity(F, 0)


def test_hopf_cross_check_rejects_det_two():
    # doubling F1 and F2 keeps det F' == 0 but makes det F == 2, and the
    # two Hopf paths then differ by that factor
    F = end_model(2)
    G = SL2NullCurve(2 * F.F1, 2 * F.F2, F.F3, F.F4, F.pole_set)
    assert (G.det() - 2).is_identically_zero(0.0)
    with pytest.raises(HopfMismatch):
        hopf(G)
    with pytest.raises(HopfMismatch):
        classify_end(G, 0)


def test_hopf_at_tol_zero_sees_a_det_off_one_by_two_to_minus_40():
    # every slot times c = 1 + 2**-41: det F = c**2 and q_main = c**2 q_alt,
    # a difference far below 1e-8 that tol 0 must still see
    c = 1 + 2.0 ** -41
    G = SL2NullCurve(*(s * c for s in end_model(2).slots()))
    with pytest.raises(HopfMismatch):
        hopf(G, 0)
    hopf(G, 1e-10)


def test_determinant_identities_hold_for_any_rank_one_derivative():
    # the identities behind the exact determinant fact, for generic F1, F3
    # and g with F2' = -g F1' and F4' = -g F3', proved by sympy:
    #   a11 + a22 = (det F)'                     (no hypothesis at all)
    #   q_main - det F q_alt = -omega ((det F)'/omega)'
    #   a11, a12, a21, a22 = d1 u, -d1 v, d3 u, -d3 v
    # with u = F4 + g F3 and v = F2 + g F1, so (det F)' == 0 gives
    # q_main = det F q_alt, and det F == 1 gives q_main = q_alt
    sp = pytest.importorskip("sympy")
    z = sp.Symbol("z")
    f1, f2, f3, f4, g = (sp.Function(n)(z)
                         for n in ("F1", "F2", "F3", "F4", "g"))
    rank_one = {f2.diff(z): -g * f1.diff(z), f4.diff(z): -g * f3.diff(z)}

    def D(e):
        return sp.diff(e, z).subs(rank_one)

    d1, d2, d3, d4 = (D(f) for f in (f1, f2, f3, f4))
    a11, a12 = d1 * f4 - d2 * f3, d2 * f1 - d1 * f2
    a21, a22 = d3 * f4 - d4 * f3, d4 * f1 - d3 * f2
    det, w = f1 * f4 - f2 * f3, f1 * d3 - f3 * d1
    free = [sp.Function(n)(z) for n in ("A", "B", "C", "E")]
    da = [x.diff(z) for x in free]
    trace = (da[0] * free[3] - da[1] * free[2]
             + da[3] * free[0] - da[2] * free[1])
    assert sp.expand(trace - sp.diff(free[0] * free[3] - free[1] * free[2],
                                     z)) == 0
    assert sp.expand(a11 + a22 - D(det)) == 0
    q_main = w * g.diff(z)
    q_alt = (D(d1) - d1 * D(w) / w) / f1
    assert sp.simplify(q_main - det * q_alt + w * D(D(det) / w)) == 0
    u, v = f4 + g * f3, f2 + g * f1
    assert [sp.expand(x) for x in (a11 - d1 * u, a12 + d1 * v,
                                   a21 - d3 * u, a22 + d3 * v)] == [0] * 4
    # the branch F1' == 0: F1 = c and F2 = b are constant, q_alt = 0, and
    # (det F)' = -(c g + b) F3' == 0 makes g = -b/c constant, so q_main = 0
    b, c = sp.symbols("b c", nonzero=True)
    rank_one = {f4.diff(z): -g * f3.diff(z)}
    det, w = c * f4 - b * f3, c * D(f3)
    assert sp.simplify(w * g.diff(z) + w * D(D(det) / w)) == 0
    assert sp.solve(D(det), g) == [-b / c]
    assert (w * g.diff(z)).subs(g, -b / c).doit() == 0


_TOLS = (0.0, 1e-12, 1e-8, 1e-4)


def _fresh(F):
    return SL2NullCurve(*F.slots(), F.pole_set, F.singular_set)


def _readings(F, c, fresh=True):
    """classify_end, end_multiplicity and maurer_cartan_min_ord at c, and
    hopf of F recentred at c, at each of _TOLS, each on a new copy of F (on
    F itself, with what it has cached, if not ``fresh``): the value, or the
    class of the exception raised.  (hopf of F itself would read the long
    Taylor-shifted slots of a curve off the origin, several times slower
    on the full path.)"""
    out = []
    for tol in _TOLS:
        for read in (lambda C: classify_end(C, c, tol),
                     lambda C: end_multiplicity(C, c, tol),
                     lambda C: maurer_cartan_min_ord(C, c, tol),
                     lambda C: hopf(invariants._recentred(C, c), tol)):
            try:
                out.append(read(_fresh(F) if fresh else F))
            except NullCurveError as exc:
                out.append(type(exc))
    return out


def _ends_pool(monkeypatch, seed):
    """(curve, centre) of each op of one ends cycle of ``seed``."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import nullsl2
    import workloads
    monkeypatch.setitem(workloads.CYCLES, "ends", workloads.ROUND["ends"])
    seen, real = [], nullsl2.classify_end
    monkeypatch.setattr(nullsl2, "classify_end",
                        lambda F, c: seen.append((F, c)) or real(F, c))
    for op in workloads.ends_ops(seed):
        op.run()
    monkeypatch.setattr(nullsl2, "classify_end", real)
    return seen


def _inexact_ends():
    """(curve, centre) where det F == 1 and det F' == 0 do not hold
    exactly: det F == 2, det F = (1 + 2**-41)**2, two window curves and
    float-rounded end models."""
    F = end_model(2)
    yield SL2NullCurve(2 * F.F1, 2 * F.F2, F.F3, F.F4, F.pole_set), 0j
    c = 1 + 2.0 ** -41
    yield SL2NullCurve(*(s * c for s in F.slots()), pole_set=(0j,)), 0j
    eps = 1e-12
    yield SL2NullCurve(MeroFunction.from_laurent(-1, [3.0, 0, 0, 0, 0]),
                       MeroFunction.from_laurent(0, [1.0, 0, 0, 0]),
                       MeroFunction.from_laurent(-1, [3.0, 0, eps, 0, 0]),
                       MeroFunction.from_laurent(0, [1.0, 0, 0, 0]),
                       pole_set=(0j,)), 0j
    slots = [s.to_laurent(0j, 2) for s in end_model(1).slots()]
    slots[1] = slots[1] + MeroFunction.from_laurent(0, [1e-6, 1e-6])
    yield SL2NullCurve(*slots, pole_set=(0j,)), 0j
    for m, kind in ((1, None), (3, "col1+col2"), (5, "row1+row2")):
        F = _sheared(end_model(m), kind)
        yield SL2NullCurve(*(_rounded(s) for s in F.slots()),
                           pole_set=(0j,)), 0j


def _rank_one_branches():
    """(curve, centre) with det F == 1 and det F' == 0 exactly, where
    F1' == 0, and where F1' == F3' == 0."""
    one, zero = MeroFunction.constant(1), MeroFunction.zero()
    inv = MeroFunction.from_rational((1,), (0, 1))
    yield SL2NullCurve(one, zero, inv, one, pole_set=(0j,)), 0j
    yield SL2NullCurve(one, inv, zero, one, pole_set=(0j,)), 0j


def test_exact_determinant_fact_keeps_the_full_path_results(monkeypatch):
    # where det F == 1 and det F' == 0 hold exactly, hopf skips its second
    # path and the Maurer-Cartan order skips its trace test and reads rank
    # one factors; with that fact forced off, every reading is the same
    # value or the same exception class, at every tol.  The curves after
    # the end models are also read after check_null_sl2(F, 0), as the ends
    # ops leave them, so that the recentred curve takes F's fact
    models = list(_end_models())
    pool = _ends_pool(monkeypatch, 1) + _ends_pool(monkeypatch, 7)
    inexact, branches = list(_inexact_ends()), list(_rank_one_branches())
    for F, _ in inexact + branches:
        check_null_sl2(F, 0.0)
    checked = pool + inexact + branches
    assert all({"_det", "_det_derivative"} <= vars(F).keys()
               for F, _ in checked)
    cases = models + checked
    assert [_fresh(F)._unimodular_null for F, _ in cases] == \
        [True] * (len(models) + len(pool)) + [False] * 7 + [True] * 2
    fast = [_readings(F, c) for F, c in cases]
    as_left = [_readings(F, c, fresh=False) for F, c in checked]
    assert as_left == fast[len(models):]
    monkeypatch.setattr(SL2NullCurve, "_unimodular_null",
                        property(lambda self: False))
    for (F, c), got in zip(cases, fast):
        assert got == _readings(F, c), (F, c)
    outcomes = {type(x) if isinstance(x, MeroFunction) else x
                for got in fast for x in got
                if not isinstance(x, (int, invariants.EndReport))}
    assert {MeroFunction, HopfMismatch, HypothesisViolation} <= outcomes
    # both branches are ends whose F' F^-1 has order -2
    assert [got[2] for got in fast[-2:]] == [-2, -2]


def test_classify_end_builds_no_det_derivative_on_the_recentred_curve(
        monkeypatch):
    # after check_null_sl2(F, 0), as an ends op leaves F, the recentred
    # curve G takes F's exact fact, and secondary_gauss reads it in place
    # of a zero test of det F'; G holds F's own polynomials, so the det F'
    # it holds is F's, relabelled, and G never builds one
    pool = _ends_pool(monkeypatch, 7)
    recentred = []
    real = invariants._recentred
    monkeypatch.setattr(invariants, "_recentred",
                        lambda F, p: recentred.append(real(F, p))
                        or recentred[-1])
    for F, c in pool:
        F = _fresh(F)
        check_null_sl2(F, 0.0)
        recentred.clear()
        classify_end(F, c)
        assert len(recentred) == 1
        G = recentred[0]
        assert G._unimodular_null
        assert vars(G)["_det_derivative"].rep is vars(F)["_det_derivative"].rep


def test_exact_input_builds_no_hopf_second_path_and_no_trace(monkeypatch):
    # on exact input neither omega' nor a11 + a22 of F' F^-1 is built; on
    # the det F == 2 curve both are
    log, recentred = [], []
    real_recentred = invariants._recentred
    for op in ("__mul__", "__sub__", "__add__"):
        real = getattr(MeroFunction, op)

        def logged(self, other, op=op, real=real):
            log.append((op, self, other, real(self, other)))
            return log[-1][-1]

        monkeypatch.setattr(MeroFunction, op, logged)
    real_differentiate = MeroFunction.differentiate

    def logged_differentiate(self):
        log.append(("d", self, None, real_differentiate(self)))
        return log[-1][-1]

    def captured(F, p):
        recentred.append(real_recentred(F, p))
        return recentred[-1]

    monkeypatch.setattr(MeroFunction, "differentiate", logged_differentiate)
    monkeypatch.setattr(invariants, "_recentred", captured)

    def made(op, a, b):
        return [out for o, x, y, out in log if o == op and x is a and y is b]

    def built(C):
        """(omega' built, a11 + a22 built) on the curve C."""
        g1, g2, g3, g4 = C.slots()
        d1, d2, d3, d4 = C._derivative
        a11 = [s for x in made("__mul__", d1, g4)
               for y in made("__mul__", d2, g3) for s in made("__sub__", x, y)]
        a22 = [s for x in made("__mul__", d4, g1)
               for y in made("__mul__", d3, g2) for s in made("__sub__", x, y)]
        return (bool(made("d", C._omega, None)),
                any(made("__add__", x, y) for x in a11 for y in a22))

    for F, c in _end_models():
        log.clear()
        recentred.clear()
        classify_end(F, c)
        maurer_cartan_min_ord(F, c)
        hopf(F)
        assert [built(C) for C in recentred + [F]] == [(False, False)] * 3
    F = end_model(2)
    G = SL2NullCurve(2 * F.F1, 2 * F.F2, F.F3, F.F4, F.pole_set)
    log.clear()
    recentred.clear()
    with pytest.raises(HopfMismatch):
        hopf(G)
    assert maurer_cartan_min_ord(G, 0) == -3
    assert built(G)[0] and built(recentred[0])[1]


def _sheared(F, kind):
    return F if kind is None else shear(F, 0.5, kind)


@pytest.mark.parametrize("c", [0.5 + 0.25j, 0.3137 + 0.2719j])
def test_recentred_report_matches_origin_model(c):
    # end_model(m, c) is end_model(m) translated by hand to c, so its report
    # at c is the origin report with only the center changed
    for m in range(1, 9):
        for kind in (None,) + SHEAR_KINDS:
            rep = classify_end(_sheared(end_model(m, c), kind), c)
            at0 = classify_end(_sheared(end_model(m), kind), 0)
            assert rep.center == c
            assert rep.as_dict() == {**at0.as_dict(),
                                     "center": [c.real, c.imag]}, (m, kind)
            got = (rep.k, rep.l, rep.ord_omega, rep.q_hat_minus2,
                   rep.multiplicity, rep.min_maurer_cartan_ord)
            assert got == _oracle(m, kind), (m, c, kind)


def test_classify_end_recentres_once(monkeypatch):
    c = 0.5 + 0.25j
    F = end_model(5, c)
    shifts, classified, hopfs = [], [], []
    real_shift = Poly.shift
    real_classify, real_hopf = invariants.classify_end, invariants.hopf

    def counted_shift(self, p):
        if p:
            shifts.append(self)
        return real_shift(self, p)

    def counted_classify(*args, **kwargs):
        classified.append(args)
        return real_classify(*args, **kwargs)

    def counted_hopf(*args, **kwargs):
        hopfs.append(args)
        return real_hopf(*args, **kwargs)

    monkeypatch.setattr(Poly, "shift", counted_shift)
    monkeypatch.setattr(invariants, "classify_end", counted_classify)
    monkeypatch.setattr(invariants, "hopf", counted_hopf)
    rep = invariants.classify_end(F, c)
    assert rep.multiplicity == 5 and rep.center == c
    # the slots are stored in powers of z - c, so recentring at c relabels
    # them and nothing is shifted
    assert shifts == []
    assert len(classified) == 1 and len(hopfs) == 1


def test_window_slots_recentre_by_base_point():
    c = 0.5 + 0.25j
    for m in (1, 2, 3):
        F = end_model(m, c)
        W = SL2NullCurve(*(s.to_laurent(c, 30) for s in F.slots()),
                         pole_set=F.pole_set)
        G = invariants._recentred(W, c)
        for s, t in zip(W.slots(), G.slots()):
            assert t.rep == s.rep and t.domain == s.domain
            assert t.base_point == s.base_point - c == 0
        assert G.pole_set == (0j,)
        rep = classify_end(W, c)
        assert rep.as_dict() == classify_end(F, c).as_dict()
        assert end_multiplicity(W, c) == m
        assert maurer_cartan_min_ord(W, c) == _oracle(m)[5]


def _rounded(f):
    """f with float coefficients: num and den divided by den's leading
    coefficient in floating point, so non-dyadic models lose exactness."""
    num, den = f.rep.num.float_coeffs(), f.rep.den.float_coeffs()
    lead = den[0]
    return MeroFunction.from_rational([a / lead for a in reversed(num)],
                                      [a / lead for a in reversed(den)])


def _moved(f, c):
    """w -> f(w - c), by an exact Taylor shift."""
    q = ExactComplex.of(-c)
    return MeroFunction.from_rational(f.rep.num.shift(q), f.rep.den.shift(q))


@pytest.mark.parametrize("c", [-37.1 + 21.9j, 1000.1 + 0.3j])
def test_rounded_curve_verdicts_are_translation_invariant(c):
    # Tolerance checks (F1 == 0, omega == 0, det F', the Maurer-Cartan
    # trace) run in the recentred coordinate, so a float-rounded end and its
    # exact translate to a far centre get the same verdicts
    for m in range(1, 9):
        for kind in (None,) + SHEAR_KINDS:
            F = _sheared(end_model(m), kind)
            R = SL2NullCurve(*(_rounded(s) for s in F.slots()), pole_set=(0j,))
            assert any(r.rep != s.rep for r, s in zip(R.slots(), F.slots()))
            H = SL2NullCurve(*(_moved(s, c) for s in R.slots()), pole_set=(c,))
            at0 = classify_end(R, 0)
            assert classify_end(H, c).as_dict() == {
                **at0.as_dict(), "center": [c.real, c.imag]}, (m, kind)
            got = (at0.k, at0.l, at0.ord_omega, round(at0.q_hat_minus2.real),
                   at0.multiplicity, at0.min_maurer_cartan_ord)
            assert got == _oracle(m, kind), (m, kind)
            assert end_multiplicity(H, c) == end_multiplicity(R, 0) == m
            assert maurer_cartan_min_ord(H, c) == maurer_cartan_min_ord(R, 0)


def test_end_model_gallery_script(tmp_path, monkeypatch, capsys):
    script = (Path(__file__).resolve().parents[1] / "scripts"
              / "end_model_gallery.py")
    monkeypatch.setattr(sys, "argv", [str(script), "--mesh",
                                      "--out-dir", str(tmp_path)])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    rows = [ln.split() for ln in out.splitlines()]
    table = [r for r in rows if r and r[0].isdigit()]
    assert [int(r[0]) for r in table] == list(range(1, 9))
    # det==1, null, immersion and nonflat
    assert all(r[1:5] == ["True"] * 4 for r in table)
    for m in (1, 2):
        assert (tmp_path / f"end_model_{m}_h3.obj").stat().st_size > 0


# ---------------------------------------------------------------------------
# degenerate inputs
# ---------------------------------------------------------------------------


def test_not_an_end_without_pole():
    F = SL2NullCurve(poly((1, 2)), poly((0, -4)), poly((0, 1)), poly((1, -2)))
    with pytest.raises(NotAnEnd):
        end_multiplicity(F, 0)


def test_umbilic_input_rejected():
    with pytest.raises(UmbilicInput):
        end_multiplicity(umbilic_with_pole(), 0)


def test_flat_curve_rejects_hopf():
    one = MeroFunction.constant(1)
    zero = MeroFunction.zero()
    z = MeroFunction.monomial(1)
    F = SL2NullCurve(one, zero, z, one)   # omega = 1, but g == 0 everywhere
    g = secondary_gauss(F)
    assert g.is_identically_zero(0.0)
    with pytest.raises((DegenerateDenominator, UmbilicInput)):
        # the Hopf quotient path divides by g-side data that vanishes
        Q = hopf(F)
        if Q.is_identically_zero():
            raise UmbilicInput("hopf vanished")


def test_gauss_map_mismatch_on_non_null_input():
    # generic non-null curve: the two defining quotients disagree
    F = SL2NullCurve(poly((0, 1)), poly((1,)), poly((1,)), poly((0, 0, 1)))
    with pytest.raises(GaussMapMismatch):
        hyperbolic_gauss(F)


def test_maurer_cartan_requires_unimodular():
    F = SL2NullCurve(poly((0, 1)), poly((1,)), poly((1,)), poly((0, 0, 1)))
    with pytest.raises(HypothesisViolation):
        maurer_cartan_min_ord(F, 0)
    # F4 + 2**-40 z**3: the trace of F' F^-1 is (det F)' = 3 * 2**-40 z**2
    # F1 != 0, far below 1e-8 and nonzero at tol 0
    F = end_model(2)
    G = SL2NullCurve(F.F1, F.F2, F.F3, F.F4 + poly((0, 0, 0, 2.0 ** -40)))
    with pytest.raises(HypothesisViolation):
        maurer_cartan_min_ord(G, 0, 0)


# ---------------------------------------------------------------------------
# metric factor
# ---------------------------------------------------------------------------


def test_metric_factor_flat_translation():
    one = MeroFunction.constant(1)
    zero = MeroFunction.zero()
    z = MeroFunction.monomial(1)
    F = SL2NullCurve(one, zero, z, one)
    assert induced_metric_factor(F, 0.5) == pytest.approx(1.0)


def test_metric_factor_end_model_values():
    # (1+|g|^2)^2 |omega|^2 with g = -(2/3) z^3, omega = z^-4
    F = end_model(1)
    z = 0.5
    g = -(2.0 / 3.0) * z ** 3
    w = z ** -4.0
    expected = (1 + abs(g) ** 2) ** 2 * abs(w) ** 2
    assert induced_metric_factor(F, z) == pytest.approx(expected, rel=1e-12)


def test_metric_factor_zero_for_constant_curve():
    one = MeroFunction.constant(1)
    zero = MeroFunction.zero()
    F = SL2NullCurve(one, zero, zero, one)
    assert induced_metric_factor(F, 0.3) == 0.0
