"""Command line round trips, exit codes, and determinism."""

import csv
import json
import math

import pytest

from conftest import SRC_DIR, run_python
from conftest import run_cli as run


def test_no_command_prints_usage(tmp_path):
    res = run([], tmp_path)
    assert res.returncode == 2


def test_make_fixture_and_classify_cone(tmp_path):
    res = run(["make-fixture", "y120"], tmp_path)
    assert res.returncode == 0
    res = run(["classify-cone", "--config", "y120.json"], tmp_path)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["all_ok"] is True
    assert out["balance_residual"] <= 1e-9
    assert out["meta"]["version"]


def test_make_fixture_unknown_name(tmp_path):
    res = run(["make-fixture", "no-such-thing"], tmp_path)
    assert res.returncode == 2
    assert "catalogue" in res.stderr


def test_flat_norm_with_oracle(tmp_path):
    assert run(["make-fixture", "triangle-complex"], tmp_path).returncode == 0
    res = run(["flat-norm", "--complex", "triangle-complex.json",
               "--chain", "triangle-boundary.json", "--p", "3", "--oracle"],
              tmp_path)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["value"] == pytest.approx(0.5, abs=1e-9)
    assert out["oracle_value"] == pytest.approx(0.5, abs=1e-9)


def test_plateau_on_disk_mesh(tmp_path):
    assert run(["make-fixture", "disk-mesh", "--h", "0.2"],
               tmp_path).returncode == 0
    res = run(["plateau", "--complex", "disk-mesh.json",
               "--boundary", "disk-boundary.json", "--p", "3"], tmp_path)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["value"] == pytest.approx(3.0, abs=1e-9)
    assert out["gap"] == 0.0


def test_solve_network_json(tmp_path):
    spec = {"terminals": [
        {"point": [0.0, 1.0], "multiplicity": 1},
        {"point": [-math.sqrt(3) / 2, -0.5], "multiplicity": 1},
        {"point": [math.sqrt(3) / 2, -0.5], "multiplicity": 1}]}
    (tmp_path / "terms.json").write_text(json.dumps(spec))
    res = run(["solve-network", "--terminals", "terms.json", "--p", "3"],
              tmp_path)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["mass"] == pytest.approx(3.0, abs=1e-6)
    # emitted JSON re-parses to the same payload
    assert json.loads(json.dumps(out)) == out


def test_density_and_monotonicity_csv(tmp_path):
    assert run(["make-fixture", "tilted-plane"], tmp_path).returncode == 0
    res = run(["density", "--sample", "tilted-plane.json",
               "--center", "0,0,0", "--radius", "0.5"], tmp_path)
    assert res.returncode == 0
    assert json.loads(res.stdout)["density_ratio"] > 0.5
    res = run(["monotonicity", "--sample", "tilted-plane.json",
               "--center", "0,0,0", "--radii", "0.25,0.5,1.0",
               "--csv", "prof.csv"], tmp_path)
    assert res.returncode == 0
    lines = (tmp_path / "prof.csv").read_text().strip().splitlines()
    assert lines[0] == "r,density_ratio"
    assert len(lines) == 4


def test_whitney_csv(tmp_path):
    res = run(["whitney", "--m", "2", "--M", "1", "--depth", "3",
               "--tau", "0.5", "--csv", "cubes.csv"], tmp_path)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["member_cubes"] == 112
    assert (tmp_path / "cubes.csv").exists()


def test_coherence_not_coherent_is_exit_3(tmp_path):
    def book_json(angles):
        return {"m": 1, "n": 1, "p": 3, "spine": [],
                "slice": [[1.0, 0.0], [0.0, 1.0]],
                "pages": [{"dir": [math.cos(a), math.sin(a)], "kappa": 1}
                          for a in angles]}

    base = [math.radians(a) for a in (90.0, 210.0, 330.0)]
    (tmp_path / "b0.json").write_text(json.dumps(book_json(base)))
    moved = list(base)
    moved[0] += 2.0 * math.pi / 9.0
    moved[1] -= 2.0 * math.pi / 9.0
    (tmp_path / "b1.json").write_text(json.dumps(book_json(moved)))
    ok = run(["coherence", "--book", "b0.json", "--book0", "b0.json"], tmp_path)
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["coherence_angle"] == pytest.approx(0.0, abs=1e-9)
    bad = run(["coherence", "--book", "b1.json", "--book0", "b0.json"], tmp_path)
    assert bad.returncode == 3
    assert "not coherent" in bad.stdout


def test_bad_json_is_exit_2(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    res = run(["classify-cone", "--config", "bad.json"], tmp_path)
    assert res.returncode == 2
    assert "error" in res.stderr


def test_missing_file_is_exit_2(tmp_path):
    res = run(["classify-cone", "--config", "nope.json"], tmp_path)
    assert res.returncode == 2


def test_out_flag_writes_file(tmp_path):
    assert run(["make-fixture", "y120"], tmp_path).returncode == 0
    res = run(["classify-cone", "--config", "y120.json", "--out", "r.json"],
              tmp_path)
    assert res.returncode == 0
    assert json.loads((tmp_path / "r.json").read_text())["all_ok"] is True


def test_taylor_command_round_trips(tmp_path):
    res = run(["taylor", "--p", "3", "--angles=-40,0,40",
               "--delta", "0.05", "--out", "surface.json"], tmp_path)
    assert res.returncode == 0
    data = json.loads((tmp_path / "surface.json").read_text())
    assert len(data["singular_circles"]) == 1
    scan = run(["decay-scan", "--surface", "surface.json",
                "--radii", "0.2,0.1", "--no-flat", "--csv", "scan.csv"],
               tmp_path)
    assert scan.returncode == 0
    lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_flat_norm_reports_solver_gap_and_has_no_engine_option(tmp_path):
    assert run(["make-fixture", "triangle-complex"], tmp_path).returncode == 0
    args = ["flat-norm", "--complex", "triangle-complex.json",
            "--chain", "triangle-boundary.json", "--p", "3"]
    res = run(args, tmp_path)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert 0.0 <= out["gap"] <= 1e-9
    assert "threads" not in out["meta"]
    assert run(args + ["--engine", "milp"], tmp_path).returncode == 2


def test_import_loads_no_scipy_solver(tmp_path):
    # scipy.optimize and scipy.integrate load with the first solver call that
    # needs them, so neither import nor a non-solver command pays for them
    code = """
import json, sys
def solvers():
    return sorted(m for m in sys.modules
                  if m.split(".")[:2] in (["scipy", "optimize"], ["scipy", "integrate"]))
import modp
after_modp = solvers()
import modp.cli
print(json.dumps({"file": modp.__file__, "modp": after_modp, "cli": solvers()}))
"""
    res = run_python(["-c", code], tmp_path)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["file"].startswith(SRC_DIR)
    assert out["modp"] == []
    assert out["cli"] == []


def test_whitney_excess_from_surface(tmp_path):
    assert run(["taylor", "--p", "3", "--angles=-40,0,40", "--delta", "0.04",
                "--out", "surface.json"], tmp_path).returncode == 0
    tau = 0.5
    res = run(["whitney", "--m", "2", "--M", "1", "--depth", "2",
               "--tau", str(tau), "--excess-from", "surface.json",
               "--csv", "cubes.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "cubes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    columns = {}
    for row in rows:
        columns.setdefault((row["layer"], row["j0"]), []).append(row)
    assert len(rows) == 2 * len(columns)  # 2^M rows per column
    members = 0
    for col in columns.values():
        # membership and excess are properties of the column, not the row
        assert len({r["excess"] for r in col}) == 1
        assert len({r["member"] for r in col}) == 1
        if col[0]["member"] == "1":
            members += len(col)
            assert float(col[0]["excess"]) < tau * tau
    assert 0 < members < len(rows)
    assert json.loads(res.stdout)["member_cubes"] == members
