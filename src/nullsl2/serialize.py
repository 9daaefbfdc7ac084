"""JSON (and small CSV) round trips for the public types.

Complex numbers serialize as [re, im] pairs.  Function payloads carry one
of two representation keys:

    {"rational": {"num": [[re, im], ...], "den": [[re, im], ...]}}
    {"laurent":  {"min_exp": n, "coeffs": [[re, im], ...]}}

plus "base_point" and "domain".  Rational coefficients are in powers of
z, whatever the base point: a function stores them in powers of
z - base_point, so the dump shifts them back exactly and the load
(``MeroFunction.from_rational``) shifts them once to the base point again,
which gives the stored ``Poly`` back.  A rational coefficient list that floats
cannot hold exactly (a Taylor shift to a non-dyadic centre) also gets an
exact payload under "rational"/"exact", keyed "num" or "den": the stored
integers of the ``Poly``, coefficient k being (re[k] + i im[k]) / den,

    {"den": "0x...", "re": ["0x...", ...], "im": ["0x...", ...]}

as hex strings (no digit limit applies to them).  The loader prefers it
and refuses a file whose floats are not its coefficients rounded; files
whose coefficients are exact as floats carry no such payload.  Curves are
recognized by their component keys: F1..F4 for SL(2,C) targets, X1..X3
for C^3 targets.  All loaders wrap malformed input in ParseError; all
dumps are deterministic (sorted keys, two-space indent, trailing newline).
"""

from __future__ import annotations

import functools
import io
import json
import math

from .errors import ParseError
from .exact import Poly
from .meshing import SurfaceMesh, sidecar_dict
from .periods import Cycle, PeriodReport, SprayFamily
from .series import (DomainTag, MeroFunction, annulus, disk, plane,
                     punctured_disk)
from .sl2curve import SL2NullCurve
from .spinor import C3NullCurve, SpinorData


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _finite(x) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x!r}")
    return x


def _as_complex(v) -> complex:
    re, im = (v, 0.0) if isinstance(v, (int, float)) else v
    return complex(_finite(re), _finite(im))


def _guard(fn):
    """Convert structural failures of a loader into ParseError."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError, IndexError,
                AttributeError, OverflowError) as err:
            raise ParseError(f"{fn.__name__}: {err}") from err
    return wrapper


# ---------------------------------------------------------------------------
# domains and functions
# ---------------------------------------------------------------------------

def domain_to_dict(d: DomainTag) -> dict:
    out = {"kind": d.kind}
    if d.is_annulus:
        out["r_inner"] = d.r_inner
        out["r_outer"] = d.r_outer
    return out


@_guard
def domain_from_dict(data: dict) -> DomainTag:
    kind = data["kind"]
    if kind == "annulus":
        return annulus(_finite(data["r_inner"]), _finite(data["r_outer"]))
    return {"disk": disk, "punctured_disk": punctured_disk,
            "plane": plane}[kind]()


def mero_to_dict(f: MeroFunction) -> dict:
    out = {"base_point": complex_pair(f.base_point),
           "domain": domain_to_dict(f.domain)}
    if f.is_rational:
        rat = out["rational"] = {}
        exact = {}
        num, den, b = f.rep.num, f.rep.den, f.base_point
        if b:   # files keep coefficients in z: one exact shift back
            num, den = num.shift(-b), den.shift(-b)
        for key, p in (("num", num), ("den", den)):
            floats = p.float_coeffs()[::-1]
            rat[key] = [complex_pair(c) for c in floats]
            if Poly(floats) != p:
                exact[key] = {"den": hex(p._den),
                              "re": [hex(r) for r in p._re],
                              "im": [hex(m) for m in p._im]}
        if exact:
            rat["exact"] = exact
    else:
        w = f.rep
        out["laurent"] = {
            "min_exp": w.min_exponent,
            "coeffs": [complex_pair(c) for c in w.coeffs],
        }
    return out


@_guard
def mero_from_dict(data: dict) -> MeroFunction:
    base = _as_complex(data.get("base_point", 0))
    domain = domain_from_dict(data["domain"]) if "domain" in data else None
    if "rational" in data:
        rat = data["rational"]
        num = [_as_complex(c) for c in rat["num"]]
        den = [_as_complex(c) for c in rat.get("den", [[1.0, 0.0]])]
        exact = rat.get("exact", {})
        num, den = (_exact_poly(exact[key], floats) if key in exact
                    else Poly(floats)
                    for key, floats in (("num", num), ("den", den)))
        if den.is_zero():
            raise ParseError("rational payload has a zero denominator")
        return MeroFunction.from_rational(num, den, base, domain)
    if "laurent" in data:
        lau = data["laurent"]
        coeffs = [_as_complex(c) for c in lau["coeffs"]]
        return MeroFunction.from_laurent(int(lau["min_exp"]), coeffs, base,
                                         domain)
    raise ParseError("function payload needs a 'rational' or 'laurent' key")


def _exact_poly(data: dict, floats: list[complex]) -> Poly:
    """The ``Poly`` of an exact payload, whose coefficients rounded to
    floats must be ``floats`` (ascending)."""
    den, re, im = (int(data["den"], 16), [int(r, 16) for r in data["re"]],
                   [int(m, 16) for m in data["im"]])
    if den <= 0 or len(re) != len(im):
        raise ParseError("exact payload needs den > 0 and as many re as im")
    p = Poly._make(den, re, im)
    if list(p.float_coeffs()[::-1]) != floats:
        raise ParseError("exact payload and float coefficients disagree")
    return p


# ---------------------------------------------------------------------------
# curves and spinor data
# ---------------------------------------------------------------------------

def sl2_to_dict(F: SL2NullCurve) -> dict:
    out = {name: mero_to_dict(slot)
           for name, slot in zip(("F1", "F2", "F3", "F4"), F.slots())}
    out["poles"] = [complex_pair(p) for p in F.pole_set]
    out["singular"] = [complex_pair(p) for p in F.singular_set]
    return out


@_guard
def sl2_from_dict(data: dict) -> SL2NullCurve:
    slots = [mero_from_dict(data[k]) for k in ("F1", "F2", "F3", "F4")]
    poles = tuple(_as_complex(p) for p in data.get("poles", data.get("pole_set", [])))
    singular = tuple(_as_complex(p) for p in data.get("singular", data.get("singular_set", [])))
    return SL2NullCurve(*slots, pole_set=poles, singular_set=singular)


def c3_to_dict(X: C3NullCurve) -> dict:
    out = {name: mero_to_dict(comp)
           for name, comp in zip(("X1", "X2", "X3"), X.components())}
    out["poles"] = [complex_pair(p) for p in X.pole_set]
    return out


@_guard
def c3_from_dict(data: dict) -> C3NullCurve:
    comps = [mero_from_dict(data[k]) for k in ("X1", "X2", "X3")]
    poles = tuple(_as_complex(p) for p in data.get("poles", data.get("pole_set", [])))
    return C3NullCurve(*comps, pole_set=poles)


@_guard
def curve_from_dict(data: dict):
    """Dispatch on component keys: F1..F4 -> SL2, X1..X3 -> C^3."""
    if "F1" in data:
        return sl2_from_dict(data)
    if "X1" in data:
        return c3_from_dict(data)
    raise ParseError("curve payload needs F1..F4 or X1..X3 keys")


def spinor_to_dict(s: SpinorData) -> dict:
    return {"eta": mero_to_dict(s.eta), "f3": mero_to_dict(s.f3),
            "conjugate_chart": s.conjugate_chart}


@_guard
def spinor_from_dict(data: dict) -> SpinorData:
    return SpinorData(mero_from_dict(data["eta"]),
                      mero_from_dict(data["f3"]),
                      conjugate_chart=bool(data.get("conjugate_chart",
                                                    False)))


# ---------------------------------------------------------------------------
# cycles, spray families, reports
# ---------------------------------------------------------------------------

def cycle_to_dict(c: Cycle) -> dict:
    return c.as_dict()


@_guard
def cycle_from_dict(data: dict) -> Cycle:
    if data["kind"] == "circle":
        return Cycle.circle(_as_complex(data.get("center", 0)),
                            _finite(data.get("radius", 1.0)),
                            int(data.get("nodes", 512)))
    if data["kind"] == "polyline":
        pts = [_as_complex(p) for p in data["points"]]
        return Cycle.polyline(pts, int(data.get("per_segment", 32)))
    raise ParseError(f"unknown cycle kind {data['kind']!r}")


def spray_to_dict(f: SprayFamily) -> dict:
    return {
        "eta": mero_to_dict(f.eta),
        "f3": mero_to_dict(f.f3),
        "basis": [mero_to_dict(h) for h in f.basis],
        "domain": domain_to_dict(f.domain),
        "window_halfwidth": f.window_halfwidth,
        "conjugate_chart": f.conjugate_chart,
    }


@_guard
def spray_from_dict(data: dict) -> SprayFamily:
    kwargs = {}
    if "domain" in data:
        kwargs["domain"] = domain_from_dict(data["domain"])
    if "window_halfwidth" in data:
        kwargs["window_halfwidth"] = int(data["window_halfwidth"])
    if "conjugate_chart" in data:
        kwargs["conjugate_chart"] = bool(data["conjugate_chart"])
    return SprayFamily(mero_from_dict(data["eta"]),
                       mero_from_dict(data["f3"]),
                       tuple(mero_from_dict(h) for h in data["basis"]),
                       **kwargs)


def period_report_csv(report: PeriodReport) -> str:
    """Flat CSV: component index, cycle index, re, im."""
    buf = io.StringIO()
    buf.write("component,cycle,re,im\n")
    for i, row in enumerate(report.values):
        for j, v in enumerate(row):
            buf.write(f"{i},{j},{v.real:.17g},{v.imag:.17g}\n")
    return buf.getvalue()


def mesh_to_sidecar(mesh: SurfaceMesh) -> dict:
    return sidecar_dict(mesh)


# ---------------------------------------------------------------------------
# deterministic file helpers
# ---------------------------------------------------------------------------

def dumps(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def save_json(path, data: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps(data))


@_guard
def load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON in {path}: {err}") from err


__all__ = [
    "complex_pair", "curve_from_dict", "cycle_from_dict", "cycle_to_dict",
    "c3_from_dict", "c3_to_dict", "domain_from_dict", "domain_to_dict",
    "dumps", "load_json", "mero_from_dict", "mero_to_dict",
    "mesh_to_sidecar", "period_report_csv", "save_json", "sl2_from_dict",
    "sl2_to_dict", "spinor_from_dict", "spinor_to_dict", "spray_from_dict",
    "spray_to_dict",
]
