"""Command line interface: subcommands, exit codes, config precedence."""

import json
import subprocess
import sys

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


def test_console_script(end1_path):
    proc = subprocess.run(
        ["nullsl2", "validate", "--curve", end1_path],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "VALID" in proc.stdout
