"""Pole sets on demand, and copying and pickling of the value types.

The curve builders store a deferred marker in ``pole_set``; no root is
found until something reads it, and the first read gives the tuple the
eager formula gives.
"""

import copy
import pickle

import numpy as np
import pytest

import nullsl2.series as series
import nullsl2.sl2curve as sl2curve
from nullsl2 import (
    C3NullCurve,
    DirectionField,
    MeroFunction,
    SHEAR_KINDS,
    SL2NullCurve,
    SpinorData,
    check_null_sl2,
    disk,
    end_model,
    from_spinor,
    integrate_null,
    shear,
    tee_curve,
    tee_inv_curve,
)
from nullsl2.exact import Poly
from nullsl2.spinor import _Deferred, _sorted_points

from conftest import random_integrable_spinor, random_spinor


def _unread(curve) -> bool:
    return type(curve.__dict__["_pole_set"]) is _Deferred


@pytest.fixture
def root_calls(monkeypatch):
    """The list of ``series._clustered_roots`` calls made from now on."""
    calls = []
    real = series._clustered_roots

    def counted(poly):
        calls.append(poly)
        return real(poly)

    monkeypatch.setattr(series, "_clustered_roots", counted)
    return calls


def _chain(s: SpinorData, lam=0.5 + 0.25j, kind=SHEAR_KINDS[0],
           base_point=0j):
    d = from_spinor(s)
    X = integrate_null(d, base_point)
    F = tee_curve(X)
    return d, X, F, shear(F, lam, kind)


# ---------------------------------------------------------------------------
# no roots until a pole set is read
# ---------------------------------------------------------------------------


def test_from_spinor_and_its_nullity_find_no_roots(root_calls):
    rng = np.random.default_rng(2101)
    for _ in range(12):
        d = from_spinor(random_spinor(rng))
        square = d.f1 * d.f1 + d.f2 * d.f2 + d.f3 * d.f3
        assert square.is_identically_zero(0.0)
        assert _unread(d)
    assert root_calls == []


def _roots_inside_the_immersion_test(root_calls, monkeypatch):
    """The list of root calls made inside ``_has_common_zero`` from now on."""
    inside = []
    real = sl2curve._has_common_zero

    def immersion_test(*args):
        before = len(root_calls)
        out = real(*args)
        inside.extend(root_calls[before:])
        return out

    monkeypatch.setattr(sl2curve, "_has_common_zero", immersion_test)
    return inside


def test_construct_chain_finds_only_the_immersion_tests_roots(
        root_calls, monkeypatch):
    # integrate_null -> tee_curve -> check -> shear -> check: no pole set
    # is read, and on this pool the modular certificate finds the slot
    # derivatives' numerators coprime, so no root is found at all
    inside = _roots_inside_the_immersion_test(root_calls, monkeypatch)
    rng = np.random.default_rng(2102)
    for k in range(8):
        d, X, F, G = _chain(random_integrable_spinor(rng),
                            kind=SHEAR_KINDS[k % 4])
        for curve in (F, G):
            rep = check_null_sl2(curve, tol=0.0)
            assert rep.unimodular and rep.null and rep.immersion
        assert all(map(_unread, (d, X, F, G)))
    assert root_calls == [] and inside == []


def test_an_uncertified_chain_finds_roots_only_in_the_immersion_test(
        root_calls, monkeypatch):
    # eta = c/(z - p)^2: the slot derivatives' numerators share (z - p)^2
    # with Q^2, so the numeric path runs; its roots are all found inside
    # the immersion test, and the excluded points are read there
    inside = _roots_inside_the_immersion_test(root_calls, monkeypatch)
    p, c = 0.5 - 1j, 2 + 1j
    lin = MeroFunction.from_poly([-p, 1])
    s = SpinorData(MeroFunction.constant(c) / (lin * lin),
                   MeroFunction.from_poly([1, 2j, 3]))
    d, X, F, G = _chain(s, base_point=p + 1)
    for curve in (F, G):
        rep = check_null_sl2(curve, tol=0.0)
        assert rep.unimodular and rep.null and rep.immersion
    assert root_calls and len(inside) == len(root_calls)


def test_first_read_equals_the_eager_pole_sets():
    rng = np.random.default_rng(2103)
    for _ in range(10):
        s = random_spinor(rng)
        d = from_spinor(s)
        q = (s.f3 * s.f3) / s.eta
        eager = _sorted_points({p for g in (s.eta, s.f3, q)
                                for p, _ in g.poles()})
        assert _unread(d)
        assert d.pole_set == eager and type(d.pole_set) is tuple
    for _ in range(10):
        s = random_integrable_spinor(rng)
        d, X, F, G = _chain(s)
        if X.X3.is_identically_zero():
            continue
        assert all(map(_unread, (d, X, F, G)))
        # read the end of the chain first: each marker reads its source
        got = G.pole_set
        eager_X = from_spinor(s).pole_set
        eager_F = _sorted_points(set(eager_X)
                                 | {p for p, _ in X.X3.zeros()})
        assert (got, F.pole_set, X.pole_set) == (eager_F, eager_F, eager_X)
        Y = tee_inv_curve(F)
        eager_Y = _sorted_points(set(eager_F)
                                 | {p for p, _ in F.F1.zeros()})
        assert _unread(Y) and Y.pole_set == eager_Y


def test_a_passed_pole_set_is_kept_as_given():
    f = MeroFunction.from_poly([1, 2, 3j])
    given = (0.5 + 0j, 2j)
    for curve in (DirectionField(f, f, f, given), C3NullCurve(f, f, f, given),
                  SL2NullCurve(f, f, f, f, pole_set=given)):
        assert curve.pole_set is given
    assert DirectionField(f, f, f).pole_set == ()
    X = C3NullCurve(f, f, f, given)
    assert integrate_null(X).pole_set == given
    F = SL2NullCurve(f, f, f, f, given)
    assert shear(F, 2, "col1+col2").pole_set == given


def test_a_read_releases_the_marker_and_its_sources():
    s = random_spinor(np.random.default_rng(2104))
    d = from_spinor(s)
    marker = d.__dict__["_pole_set"]
    assert marker.args[0] is s.eta
    points = d.pole_set
    assert d.__dict__["_pole_set"] is points
    assert marker.fn is None and marker.args is None


# ---------------------------------------------------------------------------
# copy, deepcopy and pickle
# ---------------------------------------------------------------------------

_COPIES = [copy.copy, copy.deepcopy,
           lambda v: pickle.loads(pickle.dumps(v)),
           lambda v: pickle.loads(pickle.dumps(v, protocol=0))]


@pytest.mark.parametrize("dup", _COPIES)
def test_poly_and_merofunction_copy_and_pickle(dup):
    p = Poly([1, 2.5j, 0.25])
    assert dup(p) == p and hash(dup(p)) == hash(p)
    assert dup(p).coeffs == p.coeffs
    assert dup(Poly([1, 2.5j])) == Poly([1, 2.5j])
    rational = MeroFunction.from_rational([1, 2j], [0, 0, 3], base_point=1)
    window = MeroFunction.from_laurent(-1, [1, 0.5j, 2], base_point=0.5)
    for f in (rational, window):
        g = dup(f)
        assert type(g) is MeroFunction and g == f and hash(g) == hash(f)
        assert g.evaluate(0.7 + 0.1j) == f.evaluate(0.7 + 0.1j)


def test_merofunction_and_curves_compare_by_structure():
    one = MeroFunction.constant(1)
    assert one == MeroFunction.constant(1)
    assert hash(one) == hash(MeroFunction.constant(1))
    F = end_model(2)
    assert F == end_model(2) and hash(F) == hash(end_model(2))
    assert pickle.loads(pickle.dumps(F)) == F
    assert end_model(2) != end_model(3) and F != shear(F, 2, "col1+col2")
    window = MeroFunction.from_laurent(-1, [1, 0.5j, 2], base_point=0.5)
    assert window == MeroFunction.from_laurent(-1, [1, 0.5j, 2], 0.5)
    # the stored form, the base point and the domain each count: z/z is
    # stored as (z + 1)/(z + 1) and differs from the constant 1
    f = MeroFunction.from_rational([1, 2j], [0, 0, 3])
    assert f != MeroFunction.from_rational([1, 2j], [0, 0, 3], base_point=1)
    assert f != f.with_domain(disk())
    z1 = MeroFunction.from_poly([1, 1])
    assert z1 / z1 != one and f != f.rep and one != 1


@pytest.mark.parametrize("dup", _COPIES)
def test_curves_copy_and_pickle(dup):
    F = end_model(2)
    G = dup(F)
    assert G.slots() == F.slots()
    assert (G.pole_set, G.singular_set) == (F.pole_set, F.singular_set)
    assert check_null_sl2(G, tol=0.0) == check_null_sl2(F, tol=0.0)
    # an unread deferred chain copies unread and reads the same points;
    # eta = 3/z^2 puts a pole of the direction field at 0
    s = SpinorData(MeroFunction.monomial(-2, 3),
                   MeroFunction.from_poly([2, 1j]))
    *_, curve = _chain(s, base_point=1)
    twin = dup(curve)
    assert _unread(curve) and _unread(twin)
    assert twin.slots() == curve.slots()
    points = _chain(s, base_point=1)[-1].pole_set
    assert 0j in points and len(points) == 3
    assert twin.pole_set == points and curve.pole_set == points
