"""Log-polar surface meshes of projected null curves.

The mesh samples an annulus around a center on a geometric radius ladder
(punctured ends live at the center, so the inner rings crowd toward it),
pushes each sample through the hyperbolic or de Sitter projection, and
emits a triangulated OBJ plus a JSON sidecar with per-vertex diagnostics
(conformal metric factor, and the time coordinate x0 for de Sitter
targets, whose vertices are the raw spatial part).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import np
from .errors import (DegenerateDenominator, EvaluationAtPole,
                     GaussMapMismatch, PoleOnGrid)
from .invariants import _metric_factor, omega, secondary_gauss
from .series import _unit_roots
from .sl2curve import SL2NullCurve
from .spaceforms import _minkowski_coords

#: slack added to the radius band when testing declared poles
POLE_BAND_PAD = 1e-9

MESH_TARGETS = ("h3", "s31")


@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    """Triangulated projection of an annular patch of a null curve.

    ``vertices`` is an (n, 3) float64 array, ``faces`` an (m, 3) integer
    array of 0-based vertex indices, and ``x0`` (de Sitter targets only)
    an (n,) float64 array.  Arrays have no tuple equality or hash, so the
    dataclass defines neither (``eq=False``): meshes compare by identity.
    """

    target: str
    vertices: np.ndarray
    faces: np.ndarray
    metric_factor: tuple[float, ...] | None
    x0: np.ndarray | None
    warnings: tuple[str, ...]
    grid: tuple[int, int]
    radii: tuple[float, float]
    center: complex


def grid_points(center: complex, radii: tuple[float, float],
                grid: tuple[int, int]) -> np.ndarray:
    """Complex sample points, shape (rings, sectors); the angular seam is
    not duplicated.  The sectors sit at the roots of unity of
    `series._unit_roots`, scaled by each ring's radius."""
    n_r, n_a = grid
    rs = np.geomspace(radii[0], radii[1], n_r)
    return complex(center) + rs[:, None] * _unit_roots(n_a)[None, :]


def _check_radii_grid(radii, grid):
    r_in, r_out = (float(radii[0]), float(radii[1]))
    if r_in <= 0:
        raise ValueError("inner radius must be positive (ends are sampled "
                         "on a punctured annulus)")
    if r_out <= r_in:
        raise ValueError("outer radius must exceed the inner radius")
    n_r, n_a = (int(grid[0]), int(grid[1]))
    if n_r < 2 or n_a < 3:
        raise ValueError("grid must be at least 2 rings by 3 sectors")
    return (r_in, r_out), (n_r, n_a)


def _declared_poles(F: SL2NullCurve) -> set[complex]:
    out = set(F.pole_set)
    for s in F.slots():
        out.update(p for p, _ in s.poles())
    return out


def _metric_samples(F: SL2NullCurve, zs: np.ndarray, warnings: list[str]):
    try:
        w = omega(F)
    except ValueError as err:   # window slots at different base points
        warnings.append(f"metric factor unavailable: {err}")
        return None
    if w.is_identically_zero():
        warnings.append("flat curve: metric factor is identically zero")
        return tuple(0.0 for _ in zs)
    try:
        g = secondary_gauss(F)
    except (DegenerateDenominator, GaussMapMismatch) as err:
        warnings.append(f"metric factor unavailable: {err}")
        return None
    out = []
    bad = 0
    try:
        gv = g.evaluate_many(zs)
        wv = w.evaluate_many(zs)
        out = [_metric_factor(a, b) for a, b in zip(gv, wv)]
    except EvaluationAtPole:
        for z in zs:
            try:
                out.append(_metric_factor(g.evaluate(z), w.evaluate(z)))
            except EvaluationAtPole:
                out.append(math.inf)
                bad += 1
    if bad:
        warnings.append(
            f"metric factor is infinite at {bad} grid point(s) "
            "(pole of the secondary Gauss map)")
    return tuple(out)


def build_surface_mesh(F: SL2NullCurve, target: str = "h3",
                       grid: tuple[int, int] = (16, 32),
                       radii: tuple[float, float] = (0.25, 1.0),
                       center: complex = 0j) -> SurfaceMesh:
    """Mesh the projection of F over the annulus radii[0] <= |z-center|
    <= radii[1].

    Declared poles whose modulus falls inside the (padded) radius band
    raise PoleOnGrid; poles strictly inside the inner ring are fine --
    meshing an end is the main use.
    """
    if target not in MESH_TARGETS:
        raise ValueError(f"target must be one of {MESH_TARGETS}")
    radii, grid = _check_radii_grid(radii, grid)
    center = complex(center)
    for p in _declared_poles(F):
        rho = abs(p - center)
        if radii[0] - POLE_BAND_PAD <= rho <= radii[1] + POLE_BAND_PAD:
            raise PoleOnGrid(
                f"pole at {p} has modulus {rho:.6g} inside the sampled "
                f"band [{radii[0]}, {radii[1]}]")
    zs = grid_points(center, radii, grid).reshape(-1)
    try:
        v1, v2, v3, v4 = (s.evaluate_many(zs) for s in F.slots())
    except EvaluationAtPole as err:
        raise PoleOnGrid(f"evaluation hit an undeclared pole: {err}") from None

    warnings: list[str] = []
    det = v1 * v4 - v2 * v3
    det_err = float(np.abs(det - 1.0).max())
    if det_err > 1e-6:
        warnings.append(
            f"determinant drifts from 1 by {det_err:.3e} on the grid; "
            "projections assume a unimodular curve")

    x0, x1, x2, x3 = _minkowski_coords(v1, v2, v3, v4,
                                       1 if target == "h3" else -1)

    if target == "h3":
        s = 1.0 + x0
        verts = np.stack([x1 / s, x2 / s, x3 / s], axis=1)
        x0_out = None
    else:
        verts = np.stack([x1, x2, x3], axis=1)
        x0_out = x0

    spread = float(np.abs(verts - verts[0]).max())
    if spread < 1e-12:
        warnings.append("degenerate mesh: all vertices coincide")

    # quad (i, j) of the ring ladder splits into (a, b, c) and (a, c, d)
    n_r, n_a = grid
    ring = np.arange(n_r - 1)[:, None] * n_a
    j = np.arange(n_a)[None, :]
    j2 = (j + 1) % n_a
    a, b, c, d = ring + j, ring + j2, ring + n_a + j2, ring + n_a + j
    faces = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)

    metric = _metric_samples(F, zs, warnings)
    return SurfaceMesh(
        target=target,
        vertices=verts,
        faces=faces,
        metric_factor=metric,
        x0=x0_out,
        warnings=tuple(warnings),
        grid=grid,
        radii=radii,
        center=center,
    )


# ---------------------------------------------------------------------------
# OBJ round trip
# ---------------------------------------------------------------------------

#: rows per ``%`` format in obj_text
_OBJ_BLOCK = 4096


def _obj_rows(line: str, rows: np.ndarray) -> list[str]:
    """``line`` formatted once per row, one ``%`` format per block."""
    blocks = (rows[k:k + _OBJ_BLOCK] for k in range(0, len(rows), _OBJ_BLOCK))
    return [(line * len(b)) % tuple(b.ravel().tolist()) for b in blocks]


def obj_text(mesh: SurfaceMesh) -> str:
    head = (f"# null-curve surface mesh target={mesh.target} "
            f"grid={mesh.grid[0]}x{mesh.grid[1]} "
            f"radii={mesh.radii[0]:.17g}:{mesh.radii[1]:.17g}\n")
    return "".join([head, *_obj_rows("v %.17g %.17g %.17g\n", mesh.vertices),
                    *_obj_rows("f %d %d %d\n", mesh.faces + 1)])


def write_obj(mesh: SurfaceMesh, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(obj_text(mesh))


def read_obj_vertices(path) -> list[tuple[float, float, float]]:
    out = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("v "):
                _, x, y, z = line.split()
                out.append((float(x), float(y), float(z)))
    return out


def sidecar_dict(mesh: SurfaceMesh) -> dict:
    """JSON-ready companion data for an OBJ file."""
    out = {
        "target": mesh.target,
        "grid": [mesh.grid[0], mesh.grid[1]],
        "radii": [mesh.radii[0], mesh.radii[1]],
        "center": [mesh.center.real, mesh.center.imag],
        "vertex_count": len(mesh.vertices),
        "face_count": len(mesh.faces),
        "warnings": list(mesh.warnings),
    }
    if mesh.metric_factor is not None:
        out["metric_factor"] = list(mesh.metric_factor)
    if mesh.x0 is not None:
        out["x0"] = mesh.x0.tolist()
    return out
