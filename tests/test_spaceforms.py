"""Hermitian projections to hyperbolic and de Sitter space, Minkowski
bookkeeping, and the ball/hyperboloid charts."""

import numpy as np
import pytest

from nullsl2 import (
    H3Point,
    NotHermitian,
    NotUnimodular,
    ball_to_hyperboloid,
    build_surface_mesh,
    end_model,
    her_from_l4,
    induced_metric_factor,
    l4_from_her,
    membership,
    minkowski_inner,
    poincare_ball,
    project_h3,
    project_s31,
    random_su2,
    random_su11,
    random_unimodular,
    shear,
)


def test_minkowski_inner_signature():
    e0, e1 = (1, 0, 0, 0), (0, 1, 0, 0)
    assert minkowski_inner(e0, e0) == -1.0
    assert minkowski_inner(e1, e1) == 1.0
    assert minkowski_inner(e0, e1) == 0.0


def test_her_l4_round_trip(rng):
    for _ in range(50):
        x = rng.normal(size=4)
        h = her_from_l4(x)
        assert np.abs(h - h.conj().T).max() < 1e-14
        y = l4_from_her(h)
        assert np.abs(np.array(y.as_tuple()) - x).max() < 1e-12


def test_l4_from_her_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        l4_from_her(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_project_h3_identity():
    x = project_h3(np.eye(2, dtype=complex))
    assert x.as_tuple() == (1.0, 0.0, 0.0, 0.0)
    assert x.validation_residual() < 1e-15


def test_project_h3_random_membership(rng):
    for _ in range(200):
        a = random_unimodular(rng)
        x = project_h3(a)
        assert abs(minkowski_inner(x.as_tuple(), x.as_tuple()) + 1) < 1e-10
        assert x.x0 > 0  # upper sheet


def test_project_s31_random_membership(rng):
    for _ in range(200):
        a = random_unimodular(rng)
        x = project_s31(a)
        assert abs(minkowski_inner(x.as_tuple(), x.as_tuple()) - 1) < 1e-10


def test_projections_reject_non_unimodular():
    with pytest.raises(NotUnimodular):
        project_h3(2 * np.eye(2, dtype=complex))
    with pytest.raises(NotUnimodular):
        project_s31(2 * np.eye(2, dtype=complex))


def test_h3_fiber_invariance(rng):
    for _ in range(100):
        a = random_unimodular(rng)
        u = random_su2(rng)
        x, y = project_h3(a), project_h3(a @ u)
        assert max(abs(p - q) for p, q in
                   zip(x.as_tuple(), y.as_tuple())) < 1e-10


def test_s31_fiber_invariance(rng):
    for _ in range(100):
        a = random_unimodular(rng)
        v = random_su11(rng)
        x, y = project_s31(a), project_s31(a @ v)
        assert max(abs(p - q) for p, q in
                   zip(x.as_tuple(), y.as_tuple())) < 1e-10


def test_membership_detects_groups(rng):
    for _ in range(50):
        assert membership(random_su2(rng), "SU2")
        assert membership(random_su11(rng), "SU11")
    assert not membership(np.diag([2.0, 0.5]).astype(complex), "SU2")
    assert not membership(random_su2(rng), "SU11") or True  # may overlap at I
    with pytest.raises(ValueError):
        membership(np.eye(2, dtype=complex), "SO3")


def test_su2_su11_are_unimodular(rng):
    for _ in range(50):
        assert abs(np.linalg.det(random_su2(rng)) - 1) < 1e-12
        assert abs(np.linalg.det(random_su11(rng)) - 1) < 1e-12


def test_poincare_ball_round_trip(rng):
    for _ in range(100):
        a = random_unimodular(rng)
        x = project_h3(a)
        b = poincare_ball(x)
        assert sum(v * v for v in b) < 1.0
        y = ball_to_hyperboloid(b)
        assert isinstance(y, H3Point)
        assert max(abs(p - q) for p, q in
                   zip(x.as_tuple(), y.as_tuple())) < 1e-9


def test_ball_to_hyperboloid_rejects_exterior():
    with pytest.raises(ValueError):
        ball_to_hyperboloid((0.8, 0.6, 0.1))


def test_h3_height_increases_along_end():
    # properness proxy: x0 grows monotonically toward the puncture
    F = end_model(1)
    heights = []
    for k in range(1, 9):
        z = 2.0 ** -k
        heights.append(project_h3(F.evaluate(z)).x0)
    assert all(b > a for a, b in zip(heights, heights[1:]))


def test_projection_commutes_with_evaluation_determinism(rng):
    a = random_unimodular(rng)
    x1 = project_h3(a)
    x2 = project_h3(a)
    assert x1.as_tuple() == x2.as_tuple()


# ---------------------------------------------------------------------------
# the induced metric of the hyperbolic projection
# ---------------------------------------------------------------------------

_METRIC_CURVES = {
    "end1": lambda: end_model(1),
    "end2": lambda: end_model(2),
    "end3-off-centre": lambda: end_model(3, 0.25 + 0.5j),
    "end2-sheared": lambda: shear(end_model(2), 0.5 - 0.25j, "row1+row2"),
}


@pytest.mark.parametrize("name", sorted(_METRIC_CURVES))
def test_h3_pullback_is_conformal_with_the_induced_metric_factor(name):
    # central differences of z -> A A* in the Minkowski metric: E = G,
    # F = 0 and E = (1 + |g|^2)^2 |omega|^2, the factor a mesh reports
    F = _METRIC_CURVES[name]()
    h = 1e-5

    def x(z):
        return np.array(project_h3(F.evaluate(z)).as_tuple())

    for z in (0.4 + 0.3j, 0.7 - 0.2j, 1.3 + 0.9j):
        xu = (x(z + h) - x(z - h)) / (2 * h)
        xv = (x(z + 1j * h) - x(z - 1j * h)) / (2 * h)
        e, f, g = (minkowski_inner(xu, xu), minkowski_inner(xu, xv),
                   minkowski_inner(xv, xv))
        factor = induced_metric_factor(F, z)
        assert abs(e - g) <= 1e-6 * factor and abs(f) <= 1e-6 * factor
        assert e == pytest.approx(factor, rel=1e-6)


def test_an_s31_sidecar_reports_the_h3_factor():
    F = end_model(2)
    h3 = build_surface_mesh(F, "h3", grid=(4, 8), radii=(0.5, 1.0))
    s31 = build_surface_mesh(F, "s31", grid=(4, 8), radii=(0.5, 1.0))
    assert s31.metric_factor == h3.metric_factor
