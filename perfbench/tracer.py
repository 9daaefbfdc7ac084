"""Spans and counters around the public entry points of ``nullsl2``.

``Tracer.install`` wraps each entry in ``LAYERS`` from outside the package:
class methods are patched on the class, module functions in every
``nullsl2`` namespace that binds them.  Each call records one span (name,
start, end, parent) in memory, plus the counts its hook adds.  A span's self
time is its duration minus the durations of its child spans and of the
count hooks that ran inside it.  ``uninstall`` restores every original
binding.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _bits(coeffs) -> int:
    out = 0
    for c in coeffs:
        out = max(out, c.re.numerator.bit_length(),
                  c.re.denominator.bit_length(),
                  c.im.numerator.bit_length(),
                  c.im.denominator.bit_length())
    return out


# -- count hooks: (counts, args, result) -> None -----------------------------

def _poly_mul(counts, args, result):
    a, b = args[0].coeffs, args[1].coeffs
    counts["exact.poly_mul.coeff_products"] += len(a) * len(b)
    bits = max(_bits(a), _bits(b))
    if bits > counts["exact.max_coeff_bits"]:
        counts["exact.max_coeff_bits"] = bits


def _eval_points(counts, args, result):
    counts["series.evaluate_many.points"] += int(np.size(args[1]))


def _solve(counts, args, result):
    counts["periods.newton_iters"] += result.iterations


def _solve_failed(counts, exc):
    report = getattr(exc, "report", None)
    if report is not None:
        counts["periods.newton_iters"] += report.iterations


def _period_failed(counts, exc):
    if type(exc).__name__ == "CrossCheckFailed":
        counts["periods.cross_check_failed"] += 1


def _mesh(counts, args, result):
    counts["meshing.build_surface_mesh.vertices"] += len(result.vertices)


def _length(name):
    def hook(counts, args, result):
        counts[name] += len(result)
    return hook


def _count_samples(counts, args):
    """Count the sample points ``_fft_expand`` asks its callback for."""
    sample = args[0]

    def counted(zs):
        counts["series.fft_expand.samples"] += int(np.size(zs))
        return sample(zs)
    return (counted,) + tuple(args[1:])


def _arith_name(args):
    f, g = args[1], args[2]
    both = f.is_rational and g.is_rational
    return "series.rational_arith" if both else "series.window_arith"


#: (module, attribute, span name, count calls?, result hook, error hook).
#: A dotted attribute patches a method on its class; ``ARG_HOOKS`` may
#: replace a call's arguments before it runs.  ``series._binary`` is
#: the one dispatcher behind every MeroFunction +, -, *, /; it is named by
#: the representation of its operands.
LAYERS = [
    ("exact", "Poly.__mul__", "exact.poly_mul", True, _poly_mul, None),
    ("exact", "Poly.shift", "exact.poly_shift", True, None, None),
    ("exact", "Poly.divmod", "exact.poly_divmod", True, None, None),
    ("exact", "Poly.exact_div", "exact.poly_divmod", False, None, None),
    ("exact", "poly_gcd", "exact.poly_divmod", False, None, None),
    ("exact", "Poly.multiplicity_at", "exact.multiplicity_at", True, None,
     None),
    ("series", "_binary", _arith_name, True, None, None),
    ("series", "MeroFunction.differentiate", "series.differentiate", True,
     None, None),
    ("series", "MeroFunction.exact_laurent", "series.exact_laurent", True,
     None, None),
    ("series", "MeroFunction.evaluate_many", "series.evaluate_many", True,
     _eval_points, None),
    ("series", "_fft_expand", "series.fft_expand", True, None, None),
    ("series", "_clustered_roots", "series.clustered_roots", True, None,
     None),
    ("spinor", "from_spinor", "spinor.from_spinor", True, None, None),
    ("spinor", "integrate_null", "spinor.integrate_null", True, None, None),
    ("sl2curve", "tee_curve", "sl2curve.tee_curve", True, None, None),
    ("sl2curve", "check_null_sl2", "sl2curve.check_null_sl2", True, None,
     None),
    ("sl2curve", "shear", "sl2curve.shear", True, None, None),
    ("invariants", "classify_end", "invariants.classify_end", True, None,
     None),
    ("invariants", "hopf", "invariants.hopf", True, None, None),
    ("periods", "period", "periods.period", True, None, _period_failed),
    ("periods", "period_solve", "periods.period_solve", True, _solve,
     _solve_failed),
    ("periods", "solver_residual", "periods.solver_residual", True, None,
     None),
    ("spaceforms", "project_h3", "spaceforms.project", True, None, None),
    ("spaceforms", "project_s31", "spaceforms.project", True, None, None),
    ("meshing", "build_surface_mesh", "meshing.build_surface_mesh", True,
     _mesh, None),
    ("meshing", "obj_text", "meshing.obj_text", True,
     _length("meshing.obj_text.bytes"), None),
    ("serialize", "load_json", "serialize.load", False, None, None),
    ("serialize", "dumps", "serialize.dump", False,
     _length("serialize.dump.bytes"), None),
    ("serialize", "save_json", "serialize.dump", False, None, None),
]


ARG_HOOKS = {"series.fft_expand": _count_samples}
#: counts that hold a maximum, not a sum, when runs are merged
MAX_COUNTS = {"exact.max_coeff_bits"}


def _serialize_layers():
    """Every ``*_from_dict`` / ``*_to_dict`` converter of the serialize
    module belongs to its load or dump layer."""
    mod = sys.modules["nullsl2.serialize"]
    out = []
    for attr in sorted(vars(mod)):
        if attr.endswith("_from_dict"):
            out.append(("serialize", attr, "serialize.load", False, None,
                        None))
        elif attr.endswith("_to_dict"):
            out.append(("serialize", attr, "serialize.dump", False, None,
                        None))
    return out


class Tracer:
    """In-memory spans: parallel arrays of name id, start, end, parent."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.hidden = array("d")      # hook time inside each span
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording ----------------------------------------------------------

    def wrap(self, fn, name, count_calls=True, on_result=None, on_error=None):
        fixed = None if callable(name) else self._id(name)
        arg_hook = ARG_HOOKS.get(name) if fixed is not None else None
        counts, stack, hidden = self.counts, self._stack, self.hidden
        name_id, start, end, parent = (self.name_id, self.start, self.end,
                                       self.parent)
        clock = time.perf_counter

        def hook(fn, *hook_args):
            t0 = clock()
            fn(counts, *hook_args)
            if stack[-1] >= 0:
                hidden[stack[-1]] += clock() - t0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if fixed is not None else name(args)
            nid = fixed if fixed is not None else self._id(span_name)
            if count_calls:
                counts[span_name + ".calls"] += 1
            if arg_hook is not None:
                args = arg_hook(counts, args)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            hidden.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                if on_error is not None:
                    hook(on_error, exc)
                raise
            end[idx] = clock()
            stack.pop()
            if on_result is not None:
                hook(on_result, args, result)
            return result

        return wrapper

    def call(self, name: str, fn):
        """Run ``fn()`` inside a span called ``name``."""
        return self.wrap(fn, name, count_calls=True)()

    # -- patching -----------------------------------------------------------

    def install(self) -> "Tracer":
        for module, attr, name, count_calls, on_result, on_error in \
                LAYERS + _serialize_layers():
            mod = sys.modules["nullsl2." + module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self.wrap(original, name, count_calls,
                                             on_result, on_error))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(original, name, count_calls, on_result,
                                on_error)
            for mname, m in list(sys.modules.items()):
                if m is None or not (mname == "nullsl2"
                                     or mname.startswith("nullsl2.")):
                    continue
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self.names),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start).copy(),
                "end": np.frombuffer(self.end).copy(),
                "hidden": np.frombuffer(self.hidden).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy()}


def self_times(spans: dict) -> dict[str, float]:
    """Total self time per span name: duration minus direct children and
    minus the hook time recorded inside it."""
    dur = spans["end"] - spans["start"]
    if dur.size == 0:
        return {}
    child = np.zeros(dur.size)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    own = dur - child - spans["hidden"]
    per_name = np.bincount(spans["name_id"], weights=own,
                           minlength=len(spans["names"]))
    return {str(n): float(t) for n, t in zip(spans["names"], per_name)}


def merge(parts: list[dict]) -> dict:
    """Concatenate span arrays recorded by several processes."""
    ids: dict[str, int] = {}
    cols = {"name_id": [], "start": [], "end": [], "hidden": [],
            "parent": []}
    offset = 0
    for part in parts:
        remap = np.array([ids.setdefault(str(n), len(ids))
                          for n in part["names"]], dtype=np.int32)
        cols["name_id"].append(remap[part["name_id"]] if part["names"].size
                               else part["name_id"])
        cols["start"].append(part["start"])
        cols["end"].append(part["end"])
        cols["hidden"].append(part["hidden"])
        par = part["parent"].copy()
        par[par >= 0] += offset
        cols["parent"].append(par)
        offset += part["start"].size
    names = sorted(ids, key=ids.get)
    out = {"names": np.array(names)}
    for key, dtype in (("name_id", np.int32), ("start", float),
                       ("end", float), ("hidden", float),
                       ("parent", np.int64)):
        out[key] = (np.concatenate(cols[key]).astype(dtype) if cols[key]
                    else np.zeros(0, dtype=dtype))
    return out
