"""End-to-end acceptance gate.

Each test runs one batch of the package's headline guarantees at its stated
tolerance and prints a single [PASS]/[FAIL] line with the measured runtime
against the batch's budget (visible under `pytest -s`).  Frozen numeric
oracles are recorded next to the assertions that use them.
"""

import os
import time
from contextlib import contextmanager

import numpy as np

from conftest import (
    random_sl2_curve,
    random_spinor,
    random_window_spinor,
)
from nullsl2 import (
    Cycle,
    MeroFunction,
    SprayFamily,
    SL2NullCurve,
    ball_to_hyperboloid,
    check_null_sl2,
    classify_end,
    end_model,
    from_spinor,
    hopf,
    hyperbolic_gauss,
    maurer_cartan_min_ord,
    minkowski_inner,
    omega,
    period,
    period_solve,
    project_h3,
    project_s31,
    push_norm,
    read_obj_vertices,
    secondary_gauss,
    shear,
    shear_operator_norm,
    tee,
    tee_inv,
)
from nullsl2.cli import main as cli_main
from nullsl2.errors import IdenticallyZero
from nullsl2.sl2curve import SHEAR_KINDS, aux_rotations
from nullsl2.spaceforms import random_su2, random_su11, random_unimodular

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@contextmanager
def gate(label: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        dt = time.perf_counter() - t0
        print(f"\n[FAIL] {label} ({dt:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    ok = dt < budget_s
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label} "
          f"({dt:.2f}s / budget {budget_s:.0f}s)")
    assert ok, f"{label}: runtime {dt:.2f}s exceeds the {budget_s}s budget"


def _sum_of_squares(field):
    return field.f1 * field.f1 + field.f2 * field.f2 + field.f3 * field.f3


# ---------------------------------------------------------------------------
# 1. spinor nullity
# ---------------------------------------------------------------------------

def test_spinor_nullity_batch():
    rng = np.random.default_rng(101)
    with gate("spinor nullity: 1000 rational exact, 50 floating < 1e-12", 5.0):
        for _ in range(1000):
            d = from_spinor(random_spinor(rng))
            assert _sum_of_squares(d).is_identically_zero(0.0)
        for _ in range(50):
            d = from_spinor(random_window_spinor(rng))
            assert _sum_of_squares(d).is_identically_zero(1e-12)


# ---------------------------------------------------------------------------
# 2. transform correctness
# ---------------------------------------------------------------------------

def test_transform_round_trip_batch():
    rng = np.random.default_rng(202)
    with gate("transforms: 500 point round trips < 1e-12, "
              "100 lifted curves exactly null", 10.0):
        for _ in range(500):
            x = tuple(complex(a, b) for a, b in rng.normal(size=(3, 2)))
            while abs(x[2]) < 0.1:
                x = (x[0], x[1], complex(*rng.normal(size=2)))
            y = tee_inv(tee(x))
            assert max(abs(u - v) for u, v in zip(x, y)) < 1e-12
        for _ in range(100):
            F = random_sl2_curve(rng)
            report = check_null_sl2(F, tol=0.0)
            assert report.unimodular and report.null


# ---------------------------------------------------------------------------
# 3. end models
# ---------------------------------------------------------------------------

def test_end_model_batch():
    with gate("end models m=1..8: exact det/null, three multiplicity "
              "formulas, m=1 closed-form pack", 5.0):
        for m in range(1, 9):
            F = end_model(m)
            rep = check_null_sl2(F, tol=0.0)
            assert rep.unimodular and rep.null
            er = classify_end(F, 0j)
            # formula 1: |l + 1|
            assert abs(er.l + 1) == m
            # formula 2: |ord F3 - ord F1| on the model slots
            assert abs(F.F3.ord(0j) - F.F1.ord(0j)) == m
            # formula 3: sqrt((ord omega + 1)^2 + 4 qhat(-2))
            rhs = (er.ord_omega + 1) ** 2 + 4 * er.q_hat_minus2
            assert abs(rhs.imag) == 0 and rhs.real == m * m
            assert er.multiplicity == m

        F1 = end_model(1)
        targets = {
            "hyperbolic_gauss": ([2], [0, 1]),              # 2/z
            "secondary_gauss": ([0, 0, 0, -2], [3]),        # -(2/3) z^3
            "omega": ([1], [0, 0, 0, 0, 1]),                # z^-4
            "hopf": ([-2], [0, 0, 1]),                      # -2 z^-2
        }
        got = {
            "hyperbolic_gauss": hyperbolic_gauss(F1),
            "secondary_gauss": secondary_gauss(F1),
            "omega": omega(F1),
            "hopf": hopf(F1),
        }
        for name, (num, den) in targets.items():
            want = MeroFunction.from_rational(num, den)
            assert (got[name] - want).is_identically_zero(0.0), name
        er1 = classify_end(F1, 0j)
        assert er1.q_hat_minus2 == -2
        assert maurer_cartan_min_ord(F1, 0j) == -2


# ---------------------------------------------------------------------------
# 4. exponent identity suite
# ---------------------------------------------------------------------------

def _direct_exponents(G: SL2NullCurve, p: complex):
    """(k, l, ord omega, qhat(-2)) computed from the raw slots of G, or
    None when this rotation's slot layout degenerates."""
    try:
        if G.F1.is_identically_zero(0.0):
            return None
        ratio_d = (G.F3 / G.F1).differentiate()
        if ratio_d.is_identically_zero(0.0):
            return None
        w = omega(G)
        if w.is_identically_zero(0.0):
            return None
        q = hopf(G)
        k = G.F1.ord(p)
        l = ratio_d.ord(p)
        return k, l, w.ord(p), q
    except (IdenticallyZero, ZeroDivisionError):
        return None


def test_exponent_identity_batch():
    with gate("exponent identities on every end model and rotation; "
              "Hopf path agreement; ord Q >= -2", 5.0):
        for m in range(1, 9):
            F = end_model(m)
            seen = 0
            for G in (F, *aux_rotations(F)):
                got = _direct_exponents(G, 0j)
                if got is None:
                    continue
                seen += 1
                k, l, ord_w, q = got
                assert ord_w == l + 2 * k
                q2 = q.laurent_head(0j, -2, -2)[-2]
                assert q2 == -k * (k + 1 + l)
                assert q.ord(0j) >= -2
            assert seen >= 1


# ---------------------------------------------------------------------------
# 5. projections
# ---------------------------------------------------------------------------

def test_projection_batch():
    rng = np.random.default_rng(505)
    with gate("projections: 10^4 membership residuals < 1e-10, fiber "
              "invariance over 100 group draws, increasing x0 along an end",
              10.0):
        for _ in range(10_000):
            A = random_unimodular(rng)
            x = project_h3(A)
            assert abs(minkowski_inner(x.as_tuple(), x.as_tuple()) + 1) < 1e-10
            y = project_s31(A)
            assert abs(minkowski_inner(y.as_tuple(), y.as_tuple()) - 1) < 1e-10

        A = random_unimodular(rng)
        base_h = np.array(project_h3(A).as_tuple())
        base_s = np.array(project_s31(A).as_tuple())
        for _ in range(100):
            U = random_su2(rng)
            moved = np.array(project_h3(A @ U).as_tuple())
            assert np.max(np.abs(moved - base_h)) < 1e-10
            V = random_su11(rng)
            moved = np.array(project_s31(A @ V).as_tuple())
            assert np.max(np.abs(moved - base_s)) < 1e-10

        F = end_model(1)
        heights = [project_h3(F.evaluate(2.0 ** -j)).x0
                   for j in range(1, 9)]
        assert all(b > a for a, b in zip(heights, heights[1:]))


# ---------------------------------------------------------------------------
# 6. periods and the solver
# ---------------------------------------------------------------------------

def _random_pole_fixture(rng):
    """Rational f with known simple poles, split inside/outside the unit
    circle so every residue bookkeeping path is exercised."""
    n_in = int(rng.integers(1, 4))
    n_out = int(rng.integers(0, 3))
    # inner poles stay >= 0.3 away from every contour used below; outer
    # poles start at 2.2 so they clear the square's corners (|1.2+1.2i|
    # is about 1.7) as well as both circles
    poles_in = [0.7 * rng.uniform(0.15, 1.0)
                * np.exp(2j * np.pi * rng.uniform()) for _ in range(n_in)]
    poles_out = [rng.uniform(2.2, 3.0)
                 * np.exp(2j * np.pi * rng.uniform()) for _ in range(n_out)]
    f = MeroFunction.from_poly(
        [complex(a, b) for a, b in rng.normal(size=(2, 2))])
    residues = {}
    for p in poles_in + poles_out:
        c = complex(*rng.normal(size=2))
        f = f + MeroFunction.from_rational([c], [-p, 1])
        residues[complex(p)] = c
    return f, [complex(p) for p in poles_in], residues


def test_period_batch():
    rng = np.random.default_rng(606)
    with gate("periods: 50 quadrature-vs-residue fixtures < 1e-8, homotopy "
              "invariance < 1e-8, toy solve < 1e-10 with quadratic tail",
              30.0):
        for i in range(50):
            f, poles_in, residues = _random_pole_fixture(rng)
            c = Cycle.circle(0j, 1.0)
            val = period(f, c)              # internal cross-check at 1e-8
            residue_val = 2j * np.pi * sum(residues[p] for p in poles_in)
            assert abs(val - residue_val) < 1e-8
            if i < 10:
                # homotopy invariance: same poles, three different contours
                shifted = period(f, Cycle.circle(0.1, 1.3))
                assert abs(shifted - val) < 1e-8
                square = period(f, Cycle.polyline(
                    [1.2 + 1.2j, -1.2 + 1.2j, -1.2 - 1.2j, 1.2 - 1.2j]))
                assert abs(square - val) < 1e-8

        # documented toy problem: eta = 1 + 0.3/z, f3 = 1, basis {1/z}.
        # The f1-period over the unit circle is 2*pi*i*(zeta + 0.3), so the
        # solver must land on zeta = -0.3.
        eta = MeroFunction.from_rational([0.3, 1], [0, 1])
        fam = SprayFamily(eta, MeroFunction.constant(1),
                          (MeroFunction.from_rational([1], [0, 1]),))
        result = period_solve(fam, [Cycle.circle(0j, 1.0)], tol=1e-10,
                              max_iter=20)
        assert result.converged
        assert result.residual_norm < 1e-10
        assert result.iterations <= 20
        assert abs(result.zeta[0] - (-0.3)) < 1e-10
        # quadratic tail: once the residual is below 1e-2 each step is
        # bounded by a constant times the square of the previous one
        hist = [r for r in result.residual_history if 0 < r < 1e-2]
        for a, b in zip(hist, hist[1:]):
            assert b < 10 * a * a + 1e-14


# ---------------------------------------------------------------------------
# 7. shear suite
# ---------------------------------------------------------------------------

def _sample_points(F: SL2NullCurve, rng, n):
    pts = []
    bad = list(F.pole_set)
    while len(pts) < n:
        z = rng.uniform(0.4, 1.8) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - p) > 0.15 for p in bad):
            pts.append(complex(z))
    return pts


def _matrix_values(F: SL2NullCurve, zs):
    cols = [s.evaluate_many(np.asarray(zs)) for s in F.slots()]
    return np.stack([[cols[0], cols[1]], [cols[2], cols[3]]], axis=0)


def test_shear_suite_batch():
    rng = np.random.default_rng(707)
    with gate("shear: 100 random (curve, lambda, kind) exact checks + "
              "coincidence pattern on 10^4 point pairs, push_norm fixtures",
              20.0):
        pairs_per_curve = 100
        for _ in range(100):
            F = random_sl2_curve(rng)
            lam = complex(*rng.normal(size=2)) * rng.uniform(0.5, 3)
            kind = SHEAR_KINDS[rng.integers(0, len(SHEAR_KINDS))]
            G = shear(F, lam, kind)
            rep = check_null_sl2(G, tol=0.0)
            assert rep.unimodular and rep.null

            ps = _sample_points(F, rng, pairs_per_curve)
            qs = _sample_points(F, rng, pairs_per_curve)
            qs[:10] = ps[:10]           # genuine coincidences included
            fp, fq = _matrix_values(F, ps), _matrix_values(F, qs)
            gp, gq = _matrix_values(G, ps), _matrix_values(G, qs)
            d0 = np.abs(fp - fq).max(axis=(0, 1))
            d1 = np.abs(gp - gq).max(axis=(0, 1))
            # the shear matrix has equal operator norms for S and S^-1,
            # so one norm relates the tolerance pair in both directions
            s_norm = 2 * shear_operator_norm(lam, kind)
            eps = 1e-9 * max(1.0, float(d0.max()))
            assert np.all(d1 <= s_norm * d0 + eps)
            assert np.all(d0 <= s_norm * d1 + eps)
            tol0 = float(np.median(d0)) + eps
            tol1 = s_norm * tol0
            # |F(p)-F(q)| < tol0 => |G(p)-G(q)| < tol1, and conversely
            # |G(p)-G(q)| < tol0 => |F(p)-F(q)| < tol1
            assert np.all(~(d0 < tol0) | (d1 < tol1))
            assert np.all(~(d1 < tol0) | (d0 < tol1))
            assert np.all(d1[:10] <= eps)

        # documented push_norm fixtures, each verified by recomputing the
        # margin (min over samples of the max over non-fixed slots) on the
        # returned curve
        def verified_margin(curve, fixed_slot, samples):
            others = [j for j in range(4) if j != fixed_slot - 1]
            vals = [np.abs(curve.slots()[j].evaluate_many(np.asarray(samples)))
                    for j in others]
            return float(np.stack(vals).max(axis=0).min())

        one = MeroFunction.constant(1)
        zero = MeroFunction.zero()
        ident = SL2NullCurve(one, zero, zero, one)
        circle = [np.exp(2j * np.pi * t / 64) for t in range(64)]
        lam, pushed = push_norm(ident, 1, 5.0, circle)
        assert verified_margin(pushed, 1, circle) > 5.0
        lam, pushed = push_norm(ident, 1, 0.5, circle)
        assert verified_margin(pushed, 1, circle) > 0.5   # |F4| = 1 already
        half = [0.5 * np.exp(2j * np.pi * t / 256) for t in range(256)]
        lam, pushed = push_norm(end_model(1), 1, 10.0, half)
        assert verified_margin(pushed, 1, half) > 10.0


# ---------------------------------------------------------------------------
# 8. CLI golden pipeline
# ---------------------------------------------------------------------------

def test_cli_golden_pipeline(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("NULLSL2_SEED", raising=False)
    cfg = os.path.join(GOLDEN, "config.json")
    with gate("CLI golden pipeline: byte-for-byte reports, ball bound, "
              "hyperboloid re-check < 1e-8", 20.0):
        curve = tmp_path / "end2_curve.json"
        assert cli_main(["--config", cfg, "endmodel", "--multiplicity", "2",
                         "--out", str(curve)]) == 0

        validate_json = tmp_path / "validate_report.json"
        assert cli_main(["--config", cfg, "validate", "--curve", str(curve),
                         "--json", str(validate_json)]) == 0

        classify_json = tmp_path / "classify_report.json"
        assert cli_main(["--config", cfg, "classify", "--curve", str(curve),
                         "--center", "0,0", "--json",
                         str(classify_json)]) == 0

        obj_path = tmp_path / "end2.obj"
        assert cli_main(["--config", cfg, "mesh", "--curve", str(curve),
                         "--out", str(obj_path)]) == 0

        produced = {
            "end2_curve.json": curve.read_bytes(),
            "validate_report.json": validate_json.read_bytes(),
            "classify_report.json": classify_json.read_bytes(),
            "end2.obj": obj_path.read_bytes(),
            "end2.obj.json": (tmp_path / "end2.obj.json").read_bytes(),
        }
        for name, blob in produced.items():
            with open(os.path.join(GOLDEN, name), "rb") as fh:
                want = fh.read()
            assert blob == want, f"golden mismatch: {name}"

        verts = read_obj_vertices(obj_path)
        assert verts, "no vertices in the mesh output"
        for v in verts:
            assert sum(c * c for c in v) < 1.0
            x = ball_to_hyperboloid(v)
            assert abs(minkowski_inner(x.as_tuple(), x.as_tuple()) + 1) < 1e-8
