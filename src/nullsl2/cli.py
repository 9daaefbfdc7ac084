"""Command line interface.

Subcommands:

    validate   check curve predicates (unimodular/null/immersion)
    classify   end report at a puncture
    endmodel   write a standard end of given multiplicity
    mesh       triangulate a projected annulus patch to OBJ (+ sidecar)
    solve      close periods of a spray family by damped Newton

Exit codes: 0 success, 1 domain failure (a predicate or solver failed),
2 input error (bad arguments, malformed files, paths that cannot be
opened).

Settings resolve in precedence order: built-in defaults, then a --config
JSON file, then explicit flags, then the NULLSL2_SEED environment
variable (which outranks everything for the seed).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass

from ._lazy import np
from .errors import InvalidMultiplicity, NullCurveError, ParseError
from .exact import Poly
from .invariants import classify_end
from .meshing import build_surface_mesh, sidecar_dict, write_obj
from .periods import period_solve
from .serialize import (curve_from_dict, cycle_from_dict, dumps, load_json,
                        save_json, sl2_to_dict, spray_from_dict)
from .sl2curve import SL2NullCurve, check_null_sl2, end_model
from .spinor import check_null_c3


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    tol: float = 1e-10
    max_iter: int = 20
    target: str = "h3"
    grid: tuple[int, int] = (16, 32)
    radii: tuple[float, float] = (0.25, 1.0)


DEFAULTS = asdict(RunConfig())


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------

def _parse_complex(text: str) -> complex:
    text = text.strip()
    try:
        if "," in text:
            re_s, im_s = text.split(",")
            return complex(float(re_s), float(im_s))
        return complex(text.replace("i", "j"))
    except ValueError as err:
        raise ParseError(f"cannot parse complex number {text!r}") from err


def _parse_grid(text) -> tuple[int, int]:
    if isinstance(text, (list, tuple)):
        a, b = text
        return (int(a), int(b))
    try:
        a, b = str(text).lower().split("x")
        return (int(a), int(b))
    except ValueError as err:
        raise ParseError(f"grid must look like 16x32, got {text!r}") from err


def _parse_radii(text) -> tuple[float, float]:
    if isinstance(text, (list, tuple)):
        a, b = text
        return (float(a), float(b))
    try:
        a, b = str(text).split(":")
        return (float(a), float(b))
    except ValueError as err:
        raise ParseError(
            f"radii must look like 0.25:1.0, got {text!r}") from err


def _load_config(args) -> RunConfig:
    values = dict(DEFAULTS)
    if getattr(args, "config", None):
        raw = load_json(args.config)
        if not isinstance(raw, dict):
            raise ParseError("config file must hold a JSON object")
        for key in values:
            if key in raw:
                values[key] = raw[key]
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    env_seed = os.environ.get("NULLSL2_SEED")
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError as err:
            raise ParseError(
                f"NULLSL2_SEED must be an integer, got {env_seed!r}") from err
    parse = {"grid": _parse_grid, "radii": _parse_radii}
    return RunConfig(**{key: parse.get(key, type(DEFAULTS[key]))(value)
                        for key, value in values.items()})


def _load_curve(path):
    return curve_from_dict(load_json(path))


def _emit(args, payload: dict) -> None:
    text = dumps(payload)
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="ascii") as fh:
            fh.write(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args, cfg: RunConfig) -> int:
    curve = _load_curve(args.curve)
    rng = np.random.default_rng(cfg.seed)
    if isinstance(curve, SL2NullCurve):
        report = check_null_sl2(curve, tol=cfg.tol)
        required = {"unimodular": report.unimodular, "null": report.null,
                    "immersion": report.immersion}
        extras = {"nonflat": report.nonflat}
        spots = _det_spot_check(curve, rng)
    else:
        report = check_null_c3(curve, tol=cfg.tol)
        required = {"null": report.null, "immersion": report.immersion}
        extras = {"flat": report.flat}
        spots = None
    ok = all(required.values())
    payload = dict(report.as_dict())
    payload["valid"] = ok
    if spots is not None:
        payload["max_det_drift_on_sample"] = spots
    _emit(args, payload)
    for name, value in {**required, **extras}.items():
        sys.stdout.write(f"{name}: {value}\n")
    if not ok:
        failed = [k for k, v in required.items() if not v]
        sys.stdout.write(f"INVALID ({', '.join(failed)} failed)\n")
        return 1
    sys.stdout.write("VALID\n")
    return 0


def _det_spot_check(curve: SL2NullCurve, rng: np.random.Generator) -> float:
    """Max |det - 1| over seeded random sample points away from poles."""
    zs = 0.3 + rng.uniform(0.2, 1.5, size=8) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, size=8))
    det = curve.det()
    drift = 0.0
    for z in zs:
        try:
            drift = max(drift, abs(det.evaluate(complex(z)) - 1.0))
        except NullCurveError:
            continue
    return float(drift)


def cmd_classify(args, cfg: RunConfig) -> int:
    curve = _load_curve(args.curve)
    if not isinstance(curve, SL2NullCurve):
        raise ParseError("classify needs an SL(2,C) curve (keys F1..F4)")
    report = classify_end(curve, _parse_complex(args.center), tol=cfg.tol)
    _emit(args, report.as_dict())
    return 0


def cmd_endmodel(args, cfg: RunConfig) -> int:
    center = _parse_complex(args.center) if args.center else 0j
    curve = end_model(args.multiplicity, center)
    save_json(args.out, sl2_to_dict(curve))
    sys.stdout.write(f"wrote end model m={args.multiplicity} "
                     f"center={center} to {args.out}\n")
    polys = [p for s in curve.slots() for p in (s.rep.num, s.rep.den)]
    if any(Poly(p.float_coeffs()[::-1]) != p for p in polys):
        # the file holds float coefficients; off dyadic centres they are
        # rounded, and the reloaded poles no longer sit exactly at center
        sys.stderr.write(
            f"warning: the written coefficients are rounded at "
            f"center={center}; the reloaded curve is not the exact end "
            f"model there\n")
    return 0


def cmd_mesh(args, cfg: RunConfig) -> int:
    curve = _load_curve(args.curve)
    if not isinstance(curve, SL2NullCurve):
        raise ParseError("mesh needs an SL(2,C) curve (keys F1..F4)")
    center = _parse_complex(args.center) if args.center else 0j
    if cfg.radii[0] <= 0 or cfg.radii[1] <= cfg.radii[0]:
        raise ParseError(
            f"radii must satisfy 0 < inner < outer, got {cfg.radii}")
    mesh = build_surface_mesh(curve, target=cfg.target, grid=cfg.grid,
                              radii=cfg.radii, center=center)
    write_obj(mesh, args.out)
    sidecar_path = args.sidecar or (str(args.out) + ".json")
    save_json(sidecar_path, sidecar_dict(mesh))
    sys.stdout.write(
        f"wrote {len(mesh.vertices)} vertices / {len(mesh.faces)} faces "
        f"({mesh.target}) to {args.out}; sidecar {sidecar_path}\n")
    for w in mesh.warnings:
        sys.stdout.write(f"warning: {w}\n")
    return 0


def cmd_solve(args, cfg: RunConfig) -> int:
    family = spray_from_dict(load_json(args.family))
    raw = load_json(args.cycles)
    entries = raw["cycles"] if isinstance(raw, dict) else raw
    if not isinstance(entries, list):
        raise ParseError("cycles file must hold a list or {'cycles': [...]}")
    cycles = [cycle_from_dict(c) for c in entries]
    zeta0 = None
    if args.zeta0:
        zeta0 = [_parse_complex(part) for part in args.zeta0.split(";")]
    result = period_solve(family, cycles, zeta0=zeta0, tol=cfg.tol,
                          max_iter=cfg.max_iter)
    _emit(args, result.as_dict())
    sys.stdout.write(
        f"converged in {result.iterations} iteration(s); "
        f"residual {result.residual_norm:.3e}\n")
    return 0


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullsl2",
        description="meromorphic null curves in SL(2,C): validation, end "
                    "classification, projection meshes, period closing")
    parser.add_argument("--config", help="JSON file with default settings")
    parser.add_argument("--seed", type=int, help="sampling seed "
                        "(NULLSL2_SEED overrides)")
    parser.add_argument("--tol", type=float, help="verdict tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check curve predicates")
    p.add_argument("--curve", required=True, help="curve JSON (F1..F4 or "
                   "X1..X3)")
    p.add_argument("--json", help="also write the report to this path")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("classify", help="end report at a puncture")
    p.add_argument("--curve", required=True)
    p.add_argument("--center", required=True, help="puncture, e.g. 0,0")
    p.add_argument("--json", help="also write the report to this path")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("endmodel", help="write a standard end curve")
    p.add_argument("--multiplicity", type=int, required=True)
    p.add_argument("--center", help="center point, e.g. 0,0")
    p.add_argument("--out", required=True, help="output curve JSON path")
    p.set_defaults(fn=cmd_endmodel)

    p = sub.add_parser("mesh", help="triangulate a projected annulus patch")
    p.add_argument("--curve", required=True)
    p.add_argument("--target", choices=("h3", "s31"))
    p.add_argument("--grid", help="rings x sectors, e.g. 16x32")
    p.add_argument("--radii", help="inner:outer, e.g. 0.25:1.0")
    p.add_argument("--center", help="annulus center, e.g. 0,0")
    p.add_argument("--out", required=True, help="output OBJ path")
    p.add_argument("--sidecar", help="sidecar JSON path "
                   "(default: OBJ path + .json)")
    p.set_defaults(fn=cmd_mesh)

    p = sub.add_parser("solve", help="close periods of a spray family")
    p.add_argument("--family", required=True, help="spray family JSON")
    p.add_argument("--cycles", required=True, help="cycles JSON")
    p.add_argument("--zeta0", help="initial parameter, e.g. '0,0;0,0'")
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--json", help="also write the result to this path")
    p.set_defaults(fn=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.fn(args, cfg)
    except (ParseError, InvalidMultiplicity, ValueError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError, PermissionError) as err:
        sys.stderr.write(f"input error: {err}\n")
        return 2
    except NullCurveError as err:
        sys.stderr.write(f"{type(err).__name__}: {err}\n")
        report = getattr(err, "report", None)
        if report is not None:
            sys.stderr.write(dumps(report.as_dict()))
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
