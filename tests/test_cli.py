"""Command line interface: subcommands, exit codes, config precedence."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from nullsl2 import MeroFunction, SL2NullCurve, end_model
from nullsl2.cli import RunConfig, _load_config, build_parser, main
from nullsl2.serialize import (
    cycle_to_dict,
    dumps,
    load_json,
    save_json,
    sl2_to_dict,
    spray_to_dict,
)
from nullsl2.periods import Cycle, SprayFamily

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def end1_path(tmp_path):
    path = tmp_path / "end1.json"
    save_json(path, sl2_to_dict(end_model(1)))
    return str(path)


@pytest.fixture
def end2_path(tmp_path):
    path = tmp_path / "end2.json"
    save_json(path, sl2_to_dict(end_model(2)))
    return str(path)


@pytest.fixture
def bad_curve_path(tmp_path):
    two = MeroFunction.constant(2)
    zero = MeroFunction.zero()
    one = MeroFunction.constant(1)
    F = SL2NullCurve(two, zero, zero, one)     # det == 2: not unimodular
    path = tmp_path / "bad.json"
    save_json(path, sl2_to_dict(F))
    return str(path)


@pytest.fixture
def toy_solver_paths(tmp_path):
    eta = MeroFunction.from_rational([0.3, 1], [0, 1])   # 1 + 0.3/z
    fam = SprayFamily(eta, MeroFunction.constant(1),
                      (MeroFunction.from_rational([1], [0, 1]),))
    fam_path = tmp_path / "family.json"
    save_json(fam_path, spray_to_dict(fam))
    cyc_path = tmp_path / "cycles.json"
    save_json(cyc_path, {"cycles": [cycle_to_dict(Cycle.circle(0, 1.0))]})
    return str(fam_path), str(cyc_path)


# ---------------------------------------------------------------------------
# endmodel
# ---------------------------------------------------------------------------

def test_endmodel_writes_curve(tmp_path, capsys):
    out = tmp_path / "m3.json"
    code = main(["endmodel", "--multiplicity", "3", "--out", str(out)])
    assert code == 0
    data = load_json(out)
    assert set("F1 F2 F3 F4".split()) <= set(data)
    assert "wrote end model m=3" in capsys.readouterr().out


def test_endmodel_rejects_m0(tmp_path, capsys):
    out = tmp_path / "m0.json"
    code = main(["endmodel", "--multiplicity", "0", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("center, rounded", [
    ("0.3137,0.2719", True), ("0,0", False), ("0.5,-0.5", False)])
def test_endmodel_writes_an_exact_payload_only_when_rounding_is_lossy(
        tmp_path, capsys, center, rounded):
    # off dyadic centres the shifted coefficients are not floats, and the
    # file carries them exactly next to the rounded ones; no warning
    out = tmp_path / "m3.json"
    code = main(["endmodel", "--multiplicity", "3", "--center", center,
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    data = load_json(out)
    assert any("exact" in data[k]["rational"] for k in ("F1", "F2", "F3",
                                                        "F4")) == rounded
    same = tmp_path / "direct.json"
    re_s, im_s = center.split(",")
    save_json(same, sl2_to_dict(end_model(3, complex(float(re_s),
                                                     float(im_s)))))
    assert out.read_bytes() == same.read_bytes()


@pytest.mark.parametrize("center", ["0.3137,0.2719", "0.5,-0.5"])
def test_endmodel_then_classify_reports_the_multiplicity(tmp_path, capsys,
                                                         center):
    out = str(tmp_path / "end.json")
    for m in range(1, 9):
        assert main(["endmodel", "--multiplicity", str(m), "--center",
                     center, "--out", out]) == 0
        capsys.readouterr()
        assert main(["classify", "--curve", out, "--center", center]) == 0
        assert json.loads(capsys.readouterr().out)["multiplicity"] == m


@pytest.mark.parametrize("command", ["endmodel", "mesh"])
def test_unwritable_output_path_is_input_error(end1_path, tmp_path, capsys,
                                               command):
    args = {"endmodel": ["--multiplicity", "2"],
            "mesh": ["--curve", end1_path, "--grid", "4x6"]}[command]
    code = main([command, *args, "--out", str(tmp_path)])   # a directory
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error")
    assert "Traceback" not in err


# The exact subcommands never run numpy's module body: a lazily bound
# ``numpy`` entry may sit in sys.modules, but none of its submodules.
_EXACT_PATH_SCRIPT = """
import sys
from nullsl2.cli import main
config, out, centers = sys.argv[1], sys.argv[2], sys.argv[3:]
head = ["--config", config] if config else []
for center in centers:
    for m in ("1", "2", "3"):
        assert main(head + ["endmodel", "--multiplicity", m,
                            "--center", center, "--out", out]) == 0
        assert main(head + ["classify", "--curve", out,
                            "--center", center]) == 0
print(sorted(name for name in sys.modules if name.startswith("numpy.")))
"""


@pytest.mark.parametrize("config", [
    "", str(REPO_ROOT / "tests" / "golden" / "config.json")],
    ids=["defaults", "golden-config"])
def test_exact_subcommands_never_run_numpy(tmp_path, config):
    proc = subprocess.run(
        [sys.executable, "-c", _EXACT_PATH_SCRIPT, config,
         str(tmp_path / "end.json"), "0,0", "0.5,0.25"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_end_model_is_valid(end1_path, capsys):
    code = main(["validate", "--curve", end1_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "VALID" in out.splitlines()[-1]
    payload = json.loads(out[:out.rindex("}") + 1])
    assert payload["valid"] is True
    assert "max_det_drift_on_sample" in payload
    assert payload["max_det_drift_on_sample"] == 0.0


def test_validate_non_unimodular_fails(bad_curve_path, capsys):
    code = main(["validate", "--curve", bad_curve_path])
    out = capsys.readouterr().out
    assert code == 1
    assert "INVALID" in out
    assert "unimodular" in out


def test_validate_json_report(end1_path, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["validate", "--curve", end1_path,
                 "--json", str(report_path)])
    assert code == 0
    payload = load_json(report_path)
    assert payload["valid"] is True
    # the file holds exactly the JSON block that was printed
    out = capsys.readouterr().out
    assert out.startswith(dumps(payload))


def test_validate_missing_file_is_input_error(tmp_path, capsys):
    code = main(["validate", "--curve", str(tmp_path / "nope.json")])
    assert code == 2


def test_validate_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "mangled.json"
    path.write_text("{oops")
    code = main(["validate", "--curve", str(path)])
    assert code == 2


@pytest.mark.parametrize("command", ["validate", "classify", "mesh"])
@pytest.mark.parametrize("defect", ["infinite_coefficient", "empty_den",
                                    "zero_den", "nan_window_coefficient",
                                    "nan_pole", "infinite_base_point",
                                    "infinite_annulus_radius"])
def test_malformed_coefficients_are_input_errors(tmp_path, capsys, command,
                                                 defect):
    data = sl2_to_dict(end_model(2))
    rational = data["F2"]["rational"]
    nan, inf = float("nan"), float("inf")   # json writes NaN, Infinity
    if defect == "infinite_coefficient":
        rational["num"][-1] = [inf, 0.0]
    elif defect in ("empty_den", "zero_den"):
        rational["den"] = [] if defect == "empty_den" else [[0.0, 0.0]] * 2
    elif defect == "nan_window_coefficient":
        del data["F4"]["rational"]
        data["F4"]["laurent"] = {"min_exp": 0,
                                 "coeffs": [[nan, 0.0], [1.0, 0.0]]}
    elif defect == "nan_pole":
        data["poles"].append([nan, 0.0])
    elif defect == "infinite_base_point":
        data["F1"]["base_point"] = [0.0, inf]
    else:
        data["F3"]["domain"] = {"kind": "annulus", "r_inner": 0.5,
                                "r_outer": inf}
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "m.obj"
    extra = {"validate": [], "classify": ["--center", "0,0"],
             "mesh": ["--grid", "4x6", "--out", str(out)]}[command]
    code = main([command, "--curve", str(path), *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error")
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_end_model_two(end2_path, capsys):
    code = main(["classify", "--curve", end2_path, "--center", "0,0"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplicity"] == 2
    assert payload["hopf_head"]["-2"] == [-3.0, 0.0]


def test_classify_regular_point_is_domain_failure(end1_path, capsys):
    code = main(["classify", "--curve", end1_path, "--center", "5,0"])
    assert code == 1
    assert "NotAnEnd" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------

def test_mesh_writes_obj_and_sidecar(end1_path, tmp_path, capsys):
    out = tmp_path / "end1.obj"
    code = main(["mesh", "--curve", end1_path, "--grid", "4x6",
                 "--radii", "0.25:1.0", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# null-curve surface mesh")
    sidecar = load_json(str(out) + ".json")
    assert sidecar["vertex_count"] == 24
    assert sidecar["grid"] == [4, 6]


def test_mesh_bad_radii_is_input_error(end1_path, tmp_path, capsys):
    out = tmp_path / "x.obj"
    code = main(["mesh", "--curve", end1_path, "--grid", "4x6",
                 "--radii", "1.0:0.25", "--out", str(out)])
    assert code == 2
    code = main(["mesh", "--curve", end1_path, "--grid", "4x6",
                 "--radii", "junk", "--out", str(out)])
    assert code == 2


def test_mesh_pole_on_grid_is_domain_failure(tmp_path, capsys):
    path = tmp_path / "shifted.json"
    save_json(path, sl2_to_dict(end_model(1, center=0.5)))
    out = tmp_path / "shifted.obj"
    code = main(["mesh", "--curve", str(path), "--grid", "4x6",
                 "--radii", "0.25:1.0", "--out", str(out)])
    assert code == 1
    assert "PoleOnGrid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_toy_family(toy_solver_paths, capsys):
    fam_path, cyc_path = toy_solver_paths
    code = main(["solve", "--family", fam_path, "--cycles", cyc_path])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out[:out.rindex("}") + 1])
    zeta = complex(*payload["zeta"][0])
    assert abs(zeta - (-0.3)) < 1e-8
    assert payload["converged"] is True
    assert "converged in" in out


def test_solve_divergent_is_domain_failure(toy_solver_paths, capsys):
    fam_path, cyc_path = toy_solver_paths
    code = main(["solve", "--family", fam_path, "--cycles", cyc_path,
                 "--zeta0", "100,0", "--max-iter", "2"])
    assert code == 1
    assert "MaxIterExceeded" in capsys.readouterr().err


def test_solve_start_past_the_float_range_is_domain_failure(
        tmp_path, capsys):
    # exp(800/z^2) overflows on the unit circle: a domain failure (exit 1),
    # not an input error from the least-squares step
    fam = SprayFamily(MeroFunction.from_rational([0.3, 1], [0, 1]),
                      MeroFunction.constant(1),
                      (MeroFunction.from_rational([1], [0, 0, 1]),))
    fam_path, cyc_path = tmp_path / "family.json", tmp_path / "cycles.json"
    save_json(fam_path, spray_to_dict(fam))
    save_json(cyc_path, {"cycles": [cycle_to_dict(Cycle.circle(0, 1.0))]})
    code = main(["solve", "--family", str(fam_path), "--cycles",
                 str(cyc_path), "--zeta0", "800,0"])
    assert code == 1
    assert "SingularJacobian" in capsys.readouterr().err


@pytest.mark.parametrize("cycle", [
    {"kind": "circle", "center": [0, 0], "radius": 1.0, "nodes": 0},
    {"kind": "circle", "center": [0, 0], "radius": 1.0, "nodes": -3},
    {"kind": "polyline", "points": [[1, 1], [-1, 1], [-1, -1], [1, -1]],
     "per_segment": 0},
    {"kind": "polyline", "points": [[1, 0], [1, 0], [0, 1], [-1, 0]]},
], ids=["nodes0", "nodes-3", "per_segment0", "zero_length_edge"])
def test_solve_rejects_empty_quadrature_rule(toy_solver_paths, tmp_path,
                                             cycle, capsys):
    fam_path, _ = toy_solver_paths
    cyc_path = tmp_path / "empty_rule.json"
    save_json(cyc_path, {"cycles": [cycle]})
    code = main(["solve", "--family", fam_path, "--cycles", str(cyc_path)])
    assert code == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("which, payload", [
    ("cycles", {"cycles": [{"kind": "circle", "center": [0, 0],
                            "radius": float("inf")}]}),
    ("cycles", {"cycles": [{"kind": "circle", "center": [float("nan"), 0],
                            "radius": 1.0}]}),
    ("family", {"domain": {"kind": "annulus", "r_inner": float("nan"),
                           "r_outer": 2.0}}),
], ids=["infinite_radius", "nan_center", "nan_annulus_radius"])
def test_non_finite_number_in_solver_file_is_input_error(
        toy_solver_paths, tmp_path, which, payload, capsys):
    fam_path, cyc_path = toy_solver_paths
    if which == "family":
        payload = {**load_json(fam_path), **payload}
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(payload))
    paths = {"family": fam_path, "cycles": cyc_path, which: str(path)}
    code = main(["solve", "--family", paths["family"],
                 "--cycles", paths["cycles"]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error") and "non-finite" in err


@pytest.mark.parametrize("value", ["inf,0", "0,-inf", "1e400,0", "nan,0",
                                   "1e999+0j", "nan+1j"])
@pytest.mark.parametrize("command", ["classify", "endmodel", "mesh",
                                     "solve"])
def test_non_finite_complex_argument_is_input_error(
        command, value, end1_path, toy_solver_paths, tmp_path, capsys):
    fam_path, cyc_path = toy_solver_paths
    argv = {
        "classify": ["classify", "--curve", end1_path, "--center", value],
        "endmodel": ["endmodel", "--multiplicity", "1", "--center", value,
                     "--out", str(tmp_path / "e.json")],
        "mesh": ["mesh", "--curve", end1_path, "--grid", "4x6",
                 "--center", value, "--out", str(tmp_path / "m.obj")],
        "solve": ["solve", "--family", fam_path, "--cycles", cyc_path,
                  "--zeta0", value],
    }[command]
    assert main(argv) == 2
    assert "is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key, value", [
    ("radii", "0.25:inf"), ("radii", "nan:1"), ("radii", "-inf:1"),
    ("tol", "nan"), ("tol", "-1"), ("tol", "inf"),
])
def test_non_finite_or_negative_setting_is_input_error(
        source, key, value, end2_path, tmp_path, capsys):
    out = tmp_path / "m.obj"
    if key == "radii":
        command = ["mesh", "--curve", end2_path, "--grid", "4x6",
                   "--out", str(out)]
        setting = [float(v) for v in value.split(":")]
    else:
        command = ["validate", "--curve", end2_path]
        setting = float(value)
    if source == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: setting}))
        argv = ["--config", str(config), *command]
    elif key == "radii":
        argv = [*command, f"--radii={value}"]
    else:
        argv = [f"--tol={value}", *command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"input error: {key} must")
    assert "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("key, setting", [
    ("seed", '{"seed": null}'), ("tol", '{"tol": null}'),
    ("max_iter", '{"max_iter": 1.5e400}'), ("seed", '{"seed": 1.9}'),
    ("seed", '{"seed": true}'), ("grid", '{"grid": [1.5, 40]}'),
    ("max_iter", '{"max_iter": 0}'), ("max_iter", "--max-iter=0"),
    ("max_iter", "--max-iter=-3"), ("seed", '{"seed": -1}'),
])
def test_setting_that_does_not_convert_exactly_is_input_error(
        key, setting, toy_solver_paths, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("NULLSL2_SEED", raising=False)
    fam_path, cyc_path = toy_solver_paths
    argv = ["solve", "--family", fam_path, "--cycles", cyc_path]
    if setting.startswith("--"):
        argv.append(setting)
    else:
        config = tmp_path / "config.json"
        config.write_text(setting)
        argv = ["--config", str(config), *argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"input error: {key} must")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_solve_has_no_step_size_flag(toy_solver_paths):
    fam_path, cyc_path = toy_solver_paths
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--family", fam_path, "--cycles", cyc_path,
              "--fd-step", "1e-6"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# configuration precedence
# ---------------------------------------------------------------------------

def _args(**kw):
    parser = build_parser()
    argv = kw.pop("argv")
    return parser.parse_args(argv)


def test_config_file_overrides_defaults(tmp_path, monkeypatch):
    monkeypatch.delenv("NULLSL2_SEED", raising=False)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 7, "grid": "4x6", "tol": 1e-8}))
    args = _args(argv=["--config", str(cfg_path), "validate", "--curve", "x"])
    cfg = _load_config(args)
    assert cfg.seed == 7
    assert cfg.grid == (4, 6)
    assert cfg.tol == 1e-8


def test_config_ignores_unknown_keys(tmp_path, monkeypatch):
    monkeypatch.delenv("NULLSL2_SEED", raising=False)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"fd_step": 1e-3, "max_iter": 5}))
    args = _args(argv=["--config", str(cfg_path), "validate", "--curve", "x"])
    cfg = _load_config(args)
    assert cfg == RunConfig(max_iter=5)


def test_flags_override_config(tmp_path, monkeypatch):
    monkeypatch.delenv("NULLSL2_SEED", raising=False)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 7, "grid": "4x6"}))
    args = _args(argv=["--config", str(cfg_path), "--seed", "11",
                       "mesh", "--curve", "x", "--grid", "3x8",
                       "--out", "y"])
    cfg = _load_config(args)
    assert cfg.seed == 11
    assert cfg.grid == (3, 8)


def test_env_seed_outranks_flags(monkeypatch):
    monkeypatch.setenv("NULLSL2_SEED", "99")
    args = _args(argv=["--seed", "11", "validate", "--curve", "x"])
    cfg = _load_config(args)
    assert cfg.seed == 99
    # but the env var only governs the seed
    assert cfg.tol == 1e-10


def test_env_seed_must_be_integer(monkeypatch, end1_path, capsys):
    monkeypatch.setenv("NULLSL2_SEED", "pi")
    code = main(["validate", "--curve", end1_path])
    assert code == 2


def test_defaults(monkeypatch):
    monkeypatch.delenv("NULLSL2_SEED", raising=False)
    args = _args(argv=["validate", "--curve", "x"])
    cfg = _load_config(args)
    assert cfg.seed == 0 and cfg.target == "h3"
    assert cfg.grid == (16, 32) and cfg.radii == (0.25, 1.0)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point(end1_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nullsl2", "validate", "--curve", end1_path],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "VALID" in proc.stdout


def _run_declared_console_script(*args):
    """Run the ``nullsl2`` script declared in ``pyproject.toml`` in a fresh
    interpreter, the way an installer's console-script wrapper does: load
    the entry point, set ``argv[0]`` and exit with what it returns."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "nullsl2" in scripts
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"fn = EntryPoint('nullsl2', {scripts['nullsl2']!r},"
        " 'console_scripts').load()\n"
        "sys.argv[0] = 'nullsl2'\n"
        "sys.exit(fn())\n")
    return subprocess.run([sys.executable, "-c", wrapper, *args],
                          capture_output=True, text=True)


def test_console_script(end1_path, bad_curve_path):
    proc = _run_declared_console_script("validate", "--curve", end1_path)
    assert proc.returncode == 0
    assert "VALID" in proc.stdout
    # the script's exit status follows the verdict, not just "it ran"
    proc = _run_declared_console_script("validate", "--curve", bad_curve_path)
    assert proc.returncode == 1
    assert "INVALID" in proc.stdout


@pytest.mark.skipif(shutil.which("nullsl2") is None,
                    reason="nullsl2 console script not installed")
def test_installed_console_script(end1_path):
    proc = subprocess.run(
        ["nullsl2", "validate", "--curve", end1_path],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "VALID" in proc.stdout


#: sha256 of ``endmodel --multiplicity m --center c`` files, as written
#: when slots were stored in powers of z: files keep coefficients in z, so
#: storing them in powers of z - center moved no byte
_ENDMODEL_SHA = {
    (3, "0,0"):
        "5bae0b45ec12b651474208510bddcefeafbd84bac8b9174e54b4db4603b6a243",
    (8, "0,0"):
        "daf9e2de2c154d84cdc2c1fadba970cc099c4f36c718b2d0db02ca2309b2ed13",
    (3, "0.5,-0.5"):
        "91b147c93006eb9be81398f9bc6f088da5e0f655a2f7863ad958b9431bdcbb90",
    (8, "0.5,-0.5"):
        "5301d2d99b0961843d8fb925bd5ff4f1b47d52641dd93f41bd53a34e99702d64",
    (3, "0.3137,0.2719"):
        "c46e765a576b5cb4c5f56092a99bd063ec28ac283586b458c76502fdc943c52a",
    (8, "0.3137,0.2719"):
        "1c9d9c15554b87134dd5316ec92eca224a02de2e90daa73b7910671b349ac2f0",
}


@pytest.mark.parametrize("m,center", sorted(_ENDMODEL_SHA))
def test_endmodel_file_bytes_are_pinned(tmp_path, capsys, m, center):
    out = tmp_path / "end.json"
    assert main(["endmodel", "--multiplicity", str(m), f"--center={center}",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        _ENDMODEL_SHA[m, center]
