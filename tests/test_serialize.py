"""JSON/CSV serialization round trips and failure modes."""

import copy
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullsl2 import (
    Cycle,
    MeroFunction,
    ParseError,
    SprayFamily,
    SpinorData,
    end_model,
    from_spinor,
    integrate_null,
    period_map,
    spray_apply,
    tee_curve,
)
from nullsl2.exact import Poly
from nullsl2.serialize import (
    c3_from_dict,
    c3_to_dict,
    curve_from_dict,
    cycle_from_dict,
    cycle_to_dict,
    dumps,
    load_json,
    mero_from_dict,
    mero_to_dict,
    period_report_csv,
    save_json,
    sl2_from_dict,
    sl2_to_dict,
    spinor_from_dict,
    spinor_to_dict,
    spray_from_dict,
    spray_to_dict,
)


def sample_spinor():
    eta = MeroFunction.from_rational([1, 1], [0, 1])   # (1+z)/z
    f3 = MeroFunction.from_rational([2], [1])
    return SpinorData(eta, f3)


def integrable_spinor():
    # eta = 2 z^2, f3 = z (1+z): q = f3^2/eta is polynomial, so the whole
    # direction field is polynomial and integrates exactly
    eta = MeroFunction.from_rational([0, 0, 2], [1])
    f3 = MeroFunction.from_rational([0, 1, 1], [1])
    return SpinorData(eta, f3)


def sample_c3_curve():
    return integrate_null(from_spinor(integrable_spinor()))


def _points(n=24):
    return [0.5 + 0.1j * k for k in range(n)]


def test_mero_rational_round_trip():
    f = MeroFunction.from_rational([Fraction(1, 3), 2], [1, 0, 1], base_point=0.5)
    g = mero_from_dict(mero_to_dict(f))
    for z in _points():
        assert abs(f.evaluate(z) - g.evaluate(z)) < 1e-14
    assert g.base_point == f.base_point


def test_mero_window_round_trip():
    f = MeroFunction.from_laurent(-2, [1, 0, 0.5, 1j], base_point=1.0)
    g = mero_from_dict(mero_to_dict(f))
    assert not g.is_rational
    for z in (0.8, 1.2, 0.9 + 0.3j):
        assert abs(f.evaluate(z) - g.evaluate(z)) < 1e-14


def test_sl2_round_trip_and_contract_keys():
    F = end_model(2)
    d = sl2_to_dict(F)
    assert "poles" in d and "singular" in d
    assert "pole_set" not in d and "singular_set" not in d
    G = sl2_from_dict(d)
    assert G.pole_set == F.pole_set
    assert G.singular_set == F.singular_set
    for z in (0.5, 1.0 + 0.5j):
        for a, b in zip(F.slots(), G.slots()):
            assert abs(a.evaluate(z) - b.evaluate(z)) < 1e-14


def test_sl2_accepts_legacy_key_spellings():
    d = sl2_to_dict(end_model(1))
    d["pole_set"] = d.pop("poles")
    d["singular_set"] = d.pop("singular")
    G = sl2_from_dict(d)
    assert G.pole_set == (0j,)


def test_c3_round_trip():
    X = sample_c3_curve()
    d = c3_to_dict(X)
    assert "poles" in d
    Y = c3_from_dict(d)
    assert Y.pole_set == X.pole_set
    for z in (0.5, 2.0 - 1j):
        for a, b in zip(X.components(), Y.components()):
            assert abs(a.evaluate(z) - b.evaluate(z)) < 1e-14


def test_curve_dispatch():
    F = end_model(1)
    X = sample_c3_curve()
    assert curve_from_dict(sl2_to_dict(F)).slots()[0].evaluate(0.5) == \
        F.slots()[0].evaluate(0.5)
    assert curve_from_dict(c3_to_dict(X)).components()[0].evaluate(0.5) == \
        X.components()[0].evaluate(0.5)
    with pytest.raises(ParseError):
        curve_from_dict({"bogus": 1})


def test_spinor_round_trip_preserves_chart():
    s = SpinorData(sample_spinor().eta, sample_spinor().f3,
                   conjugate_chart=True)
    t = spinor_from_dict(spinor_to_dict(s))
    assert t.conjugate_chart is True
    assert abs(t.eta.evaluate(0.7) - s.eta.evaluate(0.7)) < 1e-14
    # the two charts genuinely differ on the middle component
    a = from_spinor(s).components()[1].evaluate(0.7)
    b = from_spinor(SpinorData(s.eta, s.f3)).components()[1].evaluate(0.7)
    assert abs(a + b) < 1e-14 and abs(a) > 0


def test_cycle_round_trips():
    c = Cycle.circle(1 + 1j, 0.75, nodes=64)
    d = cycle_from_dict(cycle_to_dict(c))
    assert d.as_dict() == c.as_dict()
    p = Cycle.polyline([0, 1, 1 + 1j, 1j], per_segment=8)
    q = cycle_from_dict(cycle_to_dict(p))
    assert q.as_dict() == p.as_dict()
    with pytest.raises(ParseError):
        cycle_from_dict({"kind": "spiral"})
    with pytest.raises(ParseError, match="zero-length edge"):
        cycle_from_dict({"kind": "polyline",
                         "points": [[1, 0], [1, 0], [0, 1], [-1, 0]]})


@pytest.mark.parametrize("data", [
    {"kind": "circle", "nodes": 0},
    {"kind": "circle", "nodes": -3},
    {"kind": "polyline", "points": [[0, 0], [1, 0], [0, 1]],
     "per_segment": 0},
], ids=["nodes0", "nodes-3", "per_segment0"])
def test_cycle_with_an_empty_rule_is_a_parse_error(data):
    with pytest.raises(ParseError, match="quadrature node"):
        cycle_from_dict(data)


def test_spray_round_trip():
    eta = MeroFunction.from_rational([0.3, 1], [0, 1])  # (0.3+z)/z = 1+0.3/z
    f3 = MeroFunction.constant(1)
    basis = (MeroFunction.from_rational([1], [0, 1]),)
    fam = SprayFamily(eta, f3, basis)
    fam2 = spray_from_dict(spray_to_dict(fam))
    assert len(fam2.basis) == 1
    assert fam2.window_halfwidth == fam.window_halfwidth
    a = from_spinor(spray_apply(fam, [0.1])).f1.evaluate(0.8)
    b = from_spinor(spray_apply(fam2, [0.1])).f1.evaluate(0.8)
    assert abs(a - b) < 1e-12


def test_period_report_csv_format():
    funcs = [MeroFunction.from_rational([3], [-0.2, 1]),   # 3/(z-0.2)
             MeroFunction.from_rational([1], [0, 1])]      # 1/z
    rep = period_map(funcs, [Cycle.circle(0, 1.0)])
    text = period_report_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "component,cycle,re,im"
    assert len(lines) == 1 + len(rep.values) * len(rep.values[0])
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    float(first[2]); float(first[3])   # parseable %.17g floats


def test_dumps_is_deterministic_and_newline_terminated():
    payload = {"b": 1, "a": [2, 3]}
    text = dumps(payload)
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    assert dumps(payload) == text


def test_save_and_load_json(tmp_path):
    path = tmp_path / "curve.json"
    save_json(path, sl2_to_dict(end_model(1)))
    data = load_json(path)
    assert "F1" in data and "poles" in data
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_json(bad)


def test_malformed_payloads_raise_parse_error():
    with pytest.raises(ParseError):
        mero_from_dict({"base_point": [0, 0]})       # no rep at all
    with pytest.raises(ParseError):
        sl2_from_dict({"F1": mero_to_dict(MeroFunction.constant(1))})
    with pytest.raises(ParseError):
        spinor_from_dict({"eta": "nope"})


def test_sl2_json_survives_tee_round_trip(tmp_path):
    F = tee_curve(sample_c3_curve())
    path = tmp_path / "F.json"
    save_json(path, sl2_to_dict(F))
    G = sl2_from_dict(load_json(path))
    for z in (0.6, 1.1 + 0.2j):
        for a, b in zip(F.slots(), G.slots()):
            assert abs(a.evaluate(z) - b.evaluate(z)) < 1e-12


# ---------------------------------------------------------------------------
# exact payloads for coefficients that floats cannot hold
# ---------------------------------------------------------------------------

def test_a_rounded_rational_reloads_exactly():
    # a third and a Taylor shift to a non-dyadic centre have no float
    # coefficients; their exact payload reloads the same Poly
    for f in (MeroFunction.from_rational([Fraction(1, 3), 2], [1, 0, 1]),
              end_model(8, 0.3137 + 0.2719j).F3):
        data = mero_to_dict(f)
        assert "exact" in data["rational"]
        g = mero_from_dict(json.loads(dumps(data)))
        assert (g.rep.num, g.rep.den) == (f.rep.num, f.rep.den)


def test_a_rational_exact_as_floats_has_no_exact_payload():
    for f in (MeroFunction.from_rational([0.1, 2j], [1, 0.5]),
              end_model(3, 0.5 - 0.5j).F2):
        assert "exact" not in mero_to_dict(f)["rational"]


def test_an_exact_payload_that_disagrees_with_the_floats_is_refused():
    data = mero_to_dict(MeroFunction.from_rational([Fraction(1, 3), 2]))
    assert set(data["rational"]["exact"]) == {"num"}
    data["rational"]["num"][0][0] += 1e-12
    with pytest.raises(ParseError):
        mero_from_dict(data)
    data = mero_to_dict(MeroFunction.from_rational([Fraction(1, 3), 2]))
    data["rational"]["exact"]["num"]["re"].append("0x1")
    with pytest.raises(ParseError):
        mero_from_dict(data)


_small = st.lists(st.complex_numbers(max_magnitude=8, allow_nan=False,
                                     allow_infinity=False), max_size=5)
_centre = st.complex_numbers(max_magnitude=2, allow_nan=False,
                             allow_infinity=False)


@settings(deadline=None, max_examples=60)
@given(_small, _small.filter(any), _centre)
def test_prop_shifted_rational_round_trips_exactly(num, den, centre):
    # float coefficients Taylor-shifted to a float centre: the shifted
    # coefficients are Gaussian rationals of growing height
    p, q = Poly(num).shift(centre), Poly(den).shift(centre)
    f = MeroFunction.from_rational(p, q, base_point=centre)
    g = mero_from_dict(json.loads(dumps(mero_to_dict(f))))
    assert (g.rep.num, g.rep.den, g.base_point) == \
        (f.rep.num, f.rep.den, f.base_point)


@pytest.mark.parametrize("center", [0.5 - 0.5j, 0.3137 + 0.2719j])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_end_model_round_trips_at_its_centre(m, center):
    # slots stored in powers of z - center: copy and pickle keep the stored
    # form, and a file, which holds coefficients in z, shifts back to it
    F = end_model(m, center)
    assert all(s.base_point == center for s in F.slots())
    assert copy.deepcopy(F) == F
    assert pickle.loads(pickle.dumps(F)) == F
    assert curve_from_dict(json.loads(dumps(sl2_to_dict(F)))) == F
