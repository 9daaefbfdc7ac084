"""Command line interface: subcommands, exit codes, config precedence."""

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
def test_endmodel_warns_when_rounding_is_lossy(tmp_path, capsys, center,
                                               rounded):
    out = tmp_path / "m3.json"
    code = main(["endmodel", "--multiplicity", "3", "--center", center,
                 "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert err.count("warning:") == int(rounded)
    if rounded:
        assert "(0.3137+0.2719j)" in err and "not the exact end model" in err
    same = tmp_path / "direct.json"
    re_s, im_s = center.split(",")
    save_json(same, sl2_to_dict(end_model(3, complex(float(re_s),
                                                     float(im_s)))))
    assert out.read_bytes() == same.read_bytes()


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


@pytest.mark.parametrize("command", ["validate", "classify"])
@pytest.mark.parametrize("defect", ["infinite_coefficient", "empty_den",
                                    "zero_den"])
def test_malformed_coefficients_are_input_errors(tmp_path, capsys, command,
                                                 defect):
    data = sl2_to_dict(end_model(2))
    rational = data["F2"]["rational"]
    if defect == "infinite_coefficient":
        rational["num"][-1] = [float("inf"), 0.0]   # json writes Infinity
    else:
        rational["den"] = [] if defect == "empty_den" else [[0.0, 0.0]] * 2
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    center = ["--center", "0,0"] if command == "classify" else []
    code = main([command, "--curve", str(path), *center])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error")
    assert "Traceback" not in err


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
