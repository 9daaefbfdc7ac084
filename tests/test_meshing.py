"""Log-polar surface meshing of projected curves and OBJ export.

Numeric oracles for end_model(1) over the annulus [0.25, 1]:

  metric factor at z = 0.25: (1+|g|^2)^2 |omega|^2 with g = -(2/3) z^3 and
  omega = z^-4 gives 0.25^-8 * (1 + (2/3)^2 0.25^6)^2 = 65550.223...
  de Sitter height at z = 0.25: x0 = (|F1|^2-|F2|^2+|F3|^2-|F4|^2)/2
  = (256 - 1/9 + 16 - 1/2304)/2 = 135.9443...
"""

import hashlib
import math

import numpy as np
import pytest

from nullsl2 import (
    MeroFunction,
    PoleOnGrid,
    SL2NullCurve,
    ball_to_hyperboloid,
    build_surface_mesh,
    end_model,
    grid_points,
    minkowski_inner,
    obj_text,
    read_obj_vertices,
    shear,
    sidecar_dict,
    write_obj,
)
from nullsl2.exact import ExactComplex
from nullsl2.invariants import induced_metric_factor, omega, secondary_gauss
from nullsl2.serialize import dumps


def identity_curve():
    one = MeroFunction.constant(1)
    zero = MeroFunction.zero()
    return SL2NullCurve(one, zero, zero, one)


def flat_curve():
    one = MeroFunction.constant(1)
    zero = MeroFunction.zero()
    z = MeroFunction.monomial(1)
    return SL2NullCurve(one, z, zero, one)   # derivative lives in the flat slot


def test_grid_points_layout():
    zs = grid_points(0j, (0.25, 1.0), (8, 12))
    assert zs.shape == (8, 12)
    radii = np.abs(zs[:, 0])
    assert abs(radii[0] - 0.25) < 1e-15
    assert abs(radii[-1] - 1.0) < 1e-15
    # geometric spacing: constant ratio
    ratios = radii[1:] / radii[:-1]
    assert np.ptp(ratios) < 1e-12
    # angles uniform, no duplicated seam
    angles = np.angle(zs[0, :])
    assert len(np.unique(np.round(angles, 12))) == 12


def test_mesh_h3_counts_and_ball_bound():
    mesh = build_surface_mesh(end_model(1), "h3", (8, 12), (0.25, 1.0))
    assert len(mesh.vertices) == 96
    assert len(mesh.faces) == 168          # 2 * (8-1) * 12
    norms = [sum(c * c for c in v) for v in mesh.vertices]
    assert max(norms) < 1.0
    assert abs(math.sqrt(max(norms)) - 0.99268) < 5e-4


@pytest.mark.parametrize("target", ["h3", "s31"])
def test_mesh_array_fields(target):
    mesh = build_surface_mesh(end_model(1), target, (5, 7), (0.25, 1.0))
    assert mesh.vertices.dtype == np.float64
    assert mesh.vertices.shape == (35, 3)
    assert mesh.faces.dtype.kind == "i"
    assert mesh.faces.shape == (2 * 4 * 7, 3)
    if target == "h3":
        assert mesh.x0 is None
    else:
        assert mesh.x0.dtype == np.float64 and mesh.x0.shape == (35,)


def test_mesh_h3_hyperboloid_recheck():
    mesh = build_surface_mesh(end_model(1), "h3", (6, 8), (0.25, 1.0))
    for v in mesh.vertices:
        x = ball_to_hyperboloid(v)
        assert abs(minkowski_inner(x.as_tuple(), x.as_tuple()) + 1) < 1e-8


def test_mesh_metric_factor_head():
    mesh = build_surface_mesh(end_model(1), "h3", (8, 12), (0.25, 1.0))
    assert mesh.metric_factor is not None
    assert mesh.metric_factor[0] == pytest.approx(65550.223, rel=1e-5)


def test_mesh_s31_heights():
    mesh = build_surface_mesh(end_model(1), "s31", (8, 12), (0.25, 1.0))
    assert mesh.x0 is not None and len(mesh.x0) == 96
    assert mesh.x0[0] == pytest.approx(135.9443, rel=1e-5)
    # de Sitter membership of the raw vertices
    for v, x0 in zip(mesh.vertices[:24], mesh.x0[:24]):
        vec = (x0, v[0], v[1], v[2])
        assert abs(minkowski_inner(vec, vec) - 1) < 1e-8


def test_mesh_faces_index_range_and_wraparound():
    grid = (4, 6)
    mesh = build_surface_mesh(end_model(1), "h3", grid, (0.25, 1.0))
    n = grid[0] * grid[1]
    for face in mesh.faces:
        assert len(face) == 3
        assert all(0 <= i < n for i in face)
    # every vertex except possibly boundary rows appears in some face
    used = {i for f in mesh.faces for i in f}
    assert used == set(range(n))


def test_pole_inside_band_rejected():
    with pytest.raises(PoleOnGrid):
        build_surface_mesh(end_model(1, center=0.5), "h3", (4, 8), (0.25, 1.0))


def test_pole_strictly_inside_inner_ring_allowed():
    mesh = build_surface_mesh(end_model(2), "h3", (4, 8), (0.5, 1.0))
    assert len(mesh.vertices) == 32


def test_invalid_radii_and_grid():
    F = end_model(1)
    with pytest.raises(ValueError):
        build_surface_mesh(F, "h3", (4, 8), (1.0, 0.5))
    with pytest.raises(ValueError):
        build_surface_mesh(F, "h3", (4, 8), (-1.0, 0.5))
    with pytest.raises(ValueError):
        build_surface_mesh(F, "h3", (1, 8), (0.25, 1.0))
    with pytest.raises(ValueError):
        build_surface_mesh(F, "bad-target", (4, 8), (0.25, 1.0))


def test_det_drift_warning_for_non_unimodular():
    two = MeroFunction.constant(2)
    zero = MeroFunction.zero()
    one = MeroFunction.constant(1)
    F = SL2NullCurve(two, zero, zero, one)   # det == 2
    mesh = build_surface_mesh(F, "h3", (3, 6), (0.5, 1.0))
    assert any("det" in w for w in mesh.warnings)


def test_degenerate_spread_warning_for_constant_curve():
    mesh = build_surface_mesh(identity_curve(), "h3", (3, 6), (0.5, 1.0))
    assert any("degenerate" in w for w in mesh.warnings)


def test_horosphere_metric_is_unit():
    one = MeroFunction.constant(1)
    zero = MeroFunction.zero()
    z = MeroFunction.monomial(1)
    F = SL2NullCurve(one, zero, z, one)
    mesh = build_surface_mesh(F, "h3", (3, 6), (0.5, 1.0))
    assert mesh.metric_factor is not None
    assert all(m == pytest.approx(1.0) for m in mesh.metric_factor)


def test_metric_warning_for_windows_at_different_base_points():
    # omega(F) multiplies a window at 0 by one at 1, which window
    # arithmetic refuses with ValueError: the mesh is built without it
    F = SL2NullCurve(MeroFunction.from_laurent(0, [1.0, 1.0, 0]),
                     MeroFunction.zero(),
                     MeroFunction.from_laurent(0, [0, 1.0, 0], base_point=1),
                     MeroFunction.constant(1))
    mesh = build_surface_mesh(F, "h3", (3, 6), (0.5, 1.0))
    assert mesh.metric_factor is None
    assert ("metric factor unavailable: window arithmetic needs matching "
            "base points") in mesh.warnings


def test_flat_curve_metric_warning():
    mesh = build_surface_mesh(flat_curve(), "h3", (3, 6), (0.5, 1.0))
    assert any("flat" in w for w in mesh.warnings)
    assert mesh.metric_factor is not None
    assert all(m == 0.0 for m in mesh.metric_factor)


# ---------------------------------------------------------------------------
# OBJ output
# ---------------------------------------------------------------------------


def test_obj_text_structure(tmp_path):
    mesh = build_surface_mesh(end_model(1), "h3", (4, 6), (0.25, 1.0))
    text = obj_text(mesh)
    lines = text.strip().splitlines()
    assert lines[0].startswith("# null-curve surface mesh")
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == len(mesh.vertices)
    assert len(f_lines) == len(mesh.faces)
    # faces are 1-based
    indices = [int(t) for l in f_lines for t in l.split()[1:]]
    assert min(indices) >= 1 and max(indices) <= len(mesh.vertices)


def test_obj_round_trip(tmp_path):
    mesh = build_surface_mesh(end_model(1), "h3", (4, 6), (0.25, 1.0))
    path = tmp_path / "end.obj"
    write_obj(mesh, path)
    verts = read_obj_vertices(path)
    assert len(verts) == len(mesh.vertices)
    for a, b in zip(verts, mesh.vertices):
        assert max(abs(u - v) for u, v in zip(a, b)) < 1e-15


def test_sidecar_dict_contents():
    mesh = build_surface_mesh(end_model(1), "s31", (4, 6), (0.25, 1.0))
    d = sidecar_dict(mesh)
    assert d["target"] == "s31"
    assert d["vertex_count"] == 24 and d["face_count"] == 36
    assert d["grid"] == [4, 6] and d["radii"] == [0.25, 1.0]
    assert "x0" in d and len(d["x0"]) == 24
    assert isinstance(d["warnings"], list)


DYADIC, GENERAL = 0.5 + 0.25j, 0.3137 + 0.2719j

# sha256 of obj_text(mesh) and of dumps(sidecar_dict(mesh)): the OBJ and
# sidecar bytes beyond the 8x12 golden, which no refactor may change.  The
# three entries away from the origin were re-recorded on purpose when
# functions began to store their coefficients in powers of z - base_point:
# an end model is then evaluated in its local variable, and its metric
# factor matches exact evaluation to 1e-12 (test_end_model_metric_factor_
# matches_exact_evaluation), where the Taylor-shifted form lost up to every
# digit; the vertices moved in their last bits
MESH_DIGESTS = {
    "end2-h3-16x32": (
        lambda: end_model(2), "h3", (16, 32), (0.25, 1.0), 0j,
        "17af8f2a6fd785f0b2b8e4f271c5b21ae7bbef80d0415225898b2790515afd3f",
        "43c0d1e975ccc1d432de611eeca2769311561df4359d4ff8d6b20064330928f3"),
    "end2-s31-16x32": (
        lambda: end_model(2), "s31", (16, 32), (0.25, 1.0), 0j,
        "ea4f7d7e759ad57a7f934aa124c2f35f0e255a0a33b6d889e78511d41b3afc97",
        "e215b709b0579eba90bbb1c6ee8eef589cce34a3d83d13dce0aca2154f8ce6bb"),
    "end2-h3-128x256": (
        lambda: end_model(2), "h3", (128, 256), (0.25, 1.0), 0j,
        "33616e6395886a888112874645c85a670530b2763ca2a88df2c23e11f587de08",
        "432b93ca1af3b99f441081b53855e90f7c34bb51ce503ab141116560ff6e5fda"),
    "end2-s31-128x256": (
        lambda: end_model(2), "s31", (128, 256), (0.25, 1.0), 0j,
        "5e970bcc45be28e23905a55f66eff214aa4d75ddd523f78dc44b67f54716f5bc",
        "282bfde884f2b4c95aa47f903a82f221777e4d4ee42f4b3e4a0502157c96d698"),
    "end3-dyadic-h3-16x32": (
        lambda: end_model(3, DYADIC), "h3", (16, 32), (0.25, 1.0), DYADIC,
        "0acfba2b7380820f06a451f28fbc4d5cd08dc206b8960cc8079c32b043f44b11",
        "3726e6c6a174be72dede1e93abbee47fac4e17e76db2aa48048aced445fc7fae"),
    "end1-general-s31-16x32": (
        lambda: end_model(1, GENERAL), "s31", (16, 32), (0.25, 1.0), GENERAL,
        "31832e0c22a7d93a5dd736b5468ff8ece6c12a95de94a2af61101ef02241914d",
        "63dc356b0adc8fbdbcdad52c012671213b5aefb34b3d38e43285b340fab2f36f"),
    "end1-general-h3-128x256": (
        lambda: end_model(1, GENERAL), "h3", (128, 256), (0.25, 1.0), GENERAL,
        "ccff5322a3291b75485fe9d49e07ed9a6c94f40427ed1c79832751effc818766",
        "a3a89fd166cf3024b75e639990641174803531a00d980448534e7b23f02196e3"),
    "end2-sheared-h3-16x32": (
        lambda: shear(end_model(2), 0.5, "row1+row2"), "h3", (16, 32),
        (0.25, 1.0), 0j,
        "fa90058e6c8933ae58edf5d7068afe9a37f5ba233ea57434c85f291651e37a3d",
        "f31735eae95f859b1b85c8363c9243bd38c98175281e4234ef57cdd5d4ee0c32"),
    "flat-h3-16x32": (
        flat_curve, "h3", (16, 32), (0.5, 1.0), 0j,
        "c15bd5519bfa3492b72fd1763985d3e3d96302c6f016fa86c10a82ca2e71b58a",
        "ae6939b9f3490f0924c2a809b1ba4d4cc39d2b68134b5adb085a932cd7e61756"),
    "flat-s31-16x32": (
        flat_curve, "s31", (16, 32), (0.5, 1.0), 0j,
        "7bcf961b160469586f38c0b3ce7756ccfab87414b8e50002db805f6929944dd8",
        "d562aad7eab7c0386bab5238f8e2938129c9b89e549fe5d37c4dff856ac67705"),
}


@pytest.mark.parametrize("name", sorted(MESH_DIGESTS))
def test_mesh_bytes_pinned(name):
    curve, target, grid, radii, center, obj_sha, sidecar_sha = \
        MESH_DIGESTS[name]
    mesh = build_surface_mesh(curve(), target, grid, radii, center)
    obj = hashlib.sha256(obj_text(mesh).encode("ascii")).hexdigest()
    side = hashlib.sha256(dumps(sidecar_dict(mesh)).encode("ascii"))
    assert obj == obj_sha
    assert side.hexdigest() == sidecar_sha


def _exact_metric_factor(g, w, z) -> float:
    """(1 + |g|^2)^2 |omega|^2 at z from Poly.__call__ of g's and omega's
    stored polynomials at the exact offset z - base_point, rounded once."""
    off = ExactComplex.of(z) - ExactComplex.of(g.base_point)
    assert w.base_point == g.base_point
    gv = g.rep.num(off) / g.rep.den(off)
    wv = w.rep.num(off) / w.rep.den(off)
    g2 = gv.re * gv.re + gv.im * gv.im
    return float((1 + g2) ** 2 * (wv.re * wv.re + wv.im * wv.im))


@pytest.mark.parametrize("center", [DYADIC, GENERAL])
def test_end_model_metric_factor_matches_exact_evaluation(center):
    # an end model is stored in powers of z - center, so its float values
    # near the centre keep their digits: the sidecar's metric factor and
    # induced_metric_factor agree with exact evaluation to 1e-12, for every
    # m, where the Taylor-shifted form of the model lost up to all of them
    for m in range(1, 9):
        F = end_model(m, center)
        mesh = build_surface_mesh(F, "h3", (16, 32), (0.25, 1.0), center)
        zs = grid_points(center, (0.25, 1.0), (16, 32)).reshape(-1)
        g, w = secondary_gauss(F), omega(F)
        for k in range(0, len(zs), 7):
            exact = _exact_metric_factor(g, w, complex(zs[k]))
            for got in (mesh.metric_factor[k],
                        induced_metric_factor(F, zs[k])):
                assert abs(got - exact) <= 1e-12 * exact, (m, k)
