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


@pytest.mark.parametrize("region,value", [({"1": [0, 1, 2], "2": [0]}, 0.5),
                                          ({"0": [], "1": [], "2": []}, 0.0)])
def test_flat_norm_with_a_region(tmp_path, region, value):
    assert run(["make-fixture", "triangle-complex"], tmp_path).returncode == 0
    (tmp_path / "region.json").write_text(json.dumps(region))
    res = run(["flat-norm", "--complex", "triangle-complex.json",
               "--chain", "triangle-boundary.json", "--p", "3", "--region", "region.json",
               "--oracle"], tmp_path)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["value"] == pytest.approx(value, abs=1e-9)
    assert out["oracle_value"] == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("region", [{"1": [0, 1, 99]}, {"1": [-1], "2": [0]}, [0, 1],
                                    {"1": 5}, {"1": [0.5]}, {"1": ["0"]}, {"x": [0]}])
def test_flat_norm_rejects_a_bad_region(tmp_path, region):
    assert run(["make-fixture", "triangle-complex"], tmp_path).returncode == 0
    (tmp_path / "region.json").write_text(json.dumps(region))
    res = run(["flat-norm", "--complex", "triangle-complex.json",
               "--chain", "triangle-boundary.json", "--p", "2", "--region", "region.json",
               "--oracle"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
def test_flat_norm_rejects_a_region_degree_the_complex_lacks(tmp_path, oracle):
    assert run(["make-fixture", "triangle-complex"], tmp_path).returncode == 0
    (tmp_path / "region.json").write_text(json.dumps({"5": [0], "-1": [3]}))
    res = run(["flat-norm", "--complex", "triangle-complex.json",
               "--chain", "triangle-boundary.json", "--p", "3", "--region", "region.json",
               *oracle], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "region degree" in res.stderr and res.stdout == ""


@pytest.mark.parametrize("bad", [["--p", "3", "--bound=-1"], ["--p", "0"]])
def test_flat_norm_checks_the_oracle_before_any_program(tmp_path, monkeypatch, bad):
    from modp import cli, fixtures, flatnorm

    def no_solve(*args, **kwargs):
        raise AssertionError("flat_norm_modp was called")

    fixtures.make_fixture("triangle-complex", str(tmp_path))
    monkeypatch.setattr(flatnorm, "flat_norm_modp", no_solve)
    assert cli.main(["flat-norm", "--complex", str(tmp_path / "triangle-complex.json"),
                     "--chain", str(tmp_path / "triangle-boundary.json"), "--oracle",
                     *bad]) == 2


@pytest.mark.parametrize("bound", ["-1", "1.5"])
def test_flat_norm_rejects_a_bad_oracle_bound(tmp_path, bound):
    assert run(["make-fixture", "triangle-complex"], tmp_path).returncode == 0
    res = run(["flat-norm", "--complex", "triangle-complex.json",
               "--chain", "triangle-boundary.json", "--p", "3", "--oracle",
               f"--bound={bound}"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "bound" in res.stderr and res.stdout == ""


def test_flat_norm_rejects_complex_with_missing_face(tmp_path):
    # the triangle (0, 1, 2) lacks its edge (0, 2)
    cx = {"vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
          "simplices": {"1": [[0, 1], [1, 2]], "2": [[0, 1, 2]]}}
    (tmp_path / "cx.json").write_text(json.dumps(cx))
    (tmp_path / "t.json").write_text(json.dumps({"degree": 1, "coeffs": {"0": 1}}))
    res = run(["flat-norm", "--complex", "cx.json", "--chain", "t.json", "--p", "3"],
              tmp_path)
    assert res.returncode == 2
    assert "missing" in res.stderr


@pytest.mark.parametrize("h", ["0", "nan", "-0.5"])
def test_make_fixture_rejects_bad_mesh_size(tmp_path, h):
    res = run(["make-fixture", "disk-mesh", f"--h={h}"], tmp_path)
    assert res.returncode == 2
    assert "mesh size" in res.stderr
    assert not (tmp_path / "disk-mesh.json").exists()


def test_plateau_on_disk_mesh(tmp_path):
    assert run(["make-fixture", "disk-mesh", "--h", "0.2"],
               tmp_path).returncode == 0
    res = run(["plateau", "--complex", "disk-mesh.json",
               "--boundary", "disk-boundary.json", "--p", "3"], tmp_path)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["value"] == pytest.approx(3.0, abs=1e-9)
    assert out["gap"] == 0.0


def test_plateau_milp_without_incumbent_is_exit_3(tmp_path):
    assert run(["make-fixture", "disk-mesh", "--h", "0.25"],
               tmp_path).returncode == 0
    # nine points go to the MILP, which time limit 0 stops before any incumbent
    nine = {"degree": 0, "coeffs": {str(v): 1 for v in range(0, 36, 4)}}
    (tmp_path / "nine.json").write_text(json.dumps(nine))
    res = run(["plateau", "--complex", "disk-mesh.json", "--boundary", "nine.json",
               "--p", "3", "--time-limit", "0"], tmp_path)
    assert res.returncode == 3, res.stderr
    assert "MILP failed" in res.stderr


def test_plateau_rejects_a_negative_time_limit(tmp_path):
    assert run(["make-fixture", "disk-mesh", "--h", "0.25"],
               tmp_path).returncode == 0
    res = run(["plateau", "--complex", "disk-mesh.json", "--boundary", "disk-boundary.json",
               "--p", "3", "--time-limit", "-1"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "time_limit" in res.stderr


def test_plateau_on_disconnected_complex(tmp_path):
    # two unit edges in different components; {0: 1, 2: 2} balances only across them
    cx = {"vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.0, 2.0]],
          "simplices": {"1": [[0, 1], [2, 3]]}}
    (tmp_path / "two-edges.json").write_text(json.dumps(cx))
    for name, coeffs in (("both", {0: 1, 1: -1, 2: 1, 3: -1}), ("across", {0: 1, 2: 2})):
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"degree": 0, "coeffs": {str(v): m for v, m in coeffs.items()}}))
    res = run(["plateau", "--complex", "two-edges.json", "--boundary", "both.json",
               "--p", "3"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["value"] == pytest.approx(2.0, abs=1e-12)
    res = run(["plateau", "--complex", "two-edges.json", "--boundary", "across.json",
               "--p", "3"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "does not bound mod p" in res.stderr


def test_taylor_unbalanced_junction_is_exit_3(tmp_path):
    res = run(["taylor", "--p", "3", "--angles=-46,0,46"], tmp_path)
    assert res.returncode == 3, res.stderr
    assert "unbalanced" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_taylor_without_geodesic_arcs_is_exit_3(tmp_path):
    res = run(["taylor", "--p", "3", "--angles=-60,10,50"], tmp_path)
    assert res.returncode == 3, res.stderr
    assert "no geodesic" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_solve_network_rejects_terminals_outside_the_weights_domain(tmp_path):
    terms = [{"point": [math.cos(a), math.sin(a)], "multiplicity": 1} for a in (0.3, 2.1, 4.4)]
    (tmp_path / "terms.json").write_text(json.dumps({"terminals": terms}))
    res = run(["solve-network", "--terminals", "terms.json", "--p", "3", "--weight", "x"],
              tmp_path)
    assert res.returncode == 2, res.stderr
    assert "x > 1e-09" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


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


def test_solve_network_seed_is_only_recorded(tmp_path):
    # the solver draws no random number: --seed changes meta.seed alone, and
    # no in-repo call of a deprecated keyword warns on the way
    spec = {"terminals": [{"point": [math.cos(math.radians(a)), math.sin(math.radians(a))],
                           "multiplicity": 1} for a in (-40.0, 0.0, 40.0)]}
    (tmp_path / "terms.json").write_text(json.dumps(spec))
    outs = []
    for seed in ("0", "5"):
        res = run_python(["-W", "error::DeprecationWarning", "-m", "modp.cli", "solve-network",
                          "--terminals", "terms.json", "--p", "3", "--weight", "x",
                          "--seed", seed], tmp_path)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert out["meta"].pop("seed") == int(seed)
        outs.append(out)
    assert outs[0] == outs[1]


def test_solve_network_rejects_unknown_weight(tmp_path):
    spec = {"terminals": [{"point": [0.0, 1.0], "multiplicity": 1},
                          {"point": [0.0, -1.0], "multiplicity": 1}]}
    (tmp_path / "terms.json").write_text(json.dumps(spec))
    res = run(["solve-network", "--terminals", "terms.json", "--p", "2",
               "--weight", "foo"], tmp_path)
    assert res.returncode == 2
    assert "invalid choice" in res.stderr


TWO_TERMINALS = [{"point": [0.0, 0.0], "multiplicity": 1},
                 {"point": [1.0, 0.0], "multiplicity": 2}]


@pytest.mark.parametrize("terminals, p, message", [
    pytest.param([], 3, "2 to 6 terminals", id="none"),
    pytest.param([{"point": [0.0, 0.0], "multiplicity": 3}], 3, "2 to 6 terminals", id="one"),
    pytest.param([{"point": [math.nan, 0.0], "multiplicity": 1},
                  {"point": [1.0, 0.0], "multiplicity": 2}], 3, "finite points of the plane",
                 id="nan-point"),
    pytest.param([{"point": [0.0, 0.0], "multiplicity": 1.5},
                  {"point": [1.0, 0.0], "multiplicity": 1.5}], 3, "integers",
                 id="half-multiplicity"),
    pytest.param(TWO_TERMINALS, 0, "integer >= 2", id="p-zero"),
    pytest.param(TWO_TERMINALS, 1, "integer >= 2", id="p-one"),
    pytest.param(TWO_TERMINALS, -2, "integer >= 2", id="p-negative"),
])
def test_solve_network_rejects_bad_terminals(tmp_path, terminals, p, message):
    (tmp_path / "terms.json").write_text(json.dumps({"terminals": terminals}))
    res = run(["solve-network", "--terminals", "terms.json", f"--p={p}"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert message in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


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


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_radii_and_tau_must_be_finite_and_positive(tmp_path, value):
    pages = [{"dir": [math.cos(a), math.sin(a)], "kappa": 1}
             for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    book = {"m": 2, "n": 1, "spine": [[0.0, 0.0, 1.0]],
            "slice": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "pages": pages}
    sample = {"m": 2, "points": [[1.0, 0.0, 0.0]], "weights": [1.0], "delta": 0.1}
    (tmp_path / "book.json").write_text(json.dumps(book))
    (tmp_path / "sample.json").write_text(json.dumps(sample))
    at = ["--sample", "sample.json", "--center", "0,0,0"]
    for args in (["density", *at, f"--radius={value}"],
                 ["excess", *at, "--book", "book.json", f"--radius={value}"],
                 ["monotonicity", *at, f"--radii=0.25,{value}", "--csv", "prof.csv"],
                 ["whitney", "--m", "2", "--M", "1", "--depth", "2", f"--tau={value}",
                  "--csv", "cubes.csv"]):
        res = run(args, tmp_path)
        assert res.returncode == 2, (args, res.stdout, res.stderr)
        assert "finite" in res.stderr and "Traceback" not in res.stderr
        assert res.stdout == ""
    assert not (tmp_path / "prof.csv").exists() and not (tmp_path / "cubes.csv").exists()


@pytest.mark.parametrize("delta", ["0", "-0.1"])
def test_taylor_rejects_a_bad_sample_spacing(tmp_path, delta):
    res = run(["taylor", "--p", "3", "--angles=-40,0,40", f"--delta={delta}"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "delta" in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


def test_whitney_csv(tmp_path):
    res = run(["whitney", "--m", "2", "--M", "1", "--depth", "3",
               "--tau", "0.5", "--csv", "cubes.csv"], tmp_path)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["member_cubes"] == 112
    assert (tmp_path / "cubes.csv").exists()


def _book_json(angles, p=3):
    return {"m": 1, "n": 1, "p": p, "spine": [], "slice": [[1.0, 0.0], [0.0, 1.0]],
            "pages": [{"dir": [math.cos(a), math.sin(a)], "kappa": 1} for a in angles]}


def test_coherence_not_coherent_is_exit_3(tmp_path):
    base = [math.radians(a) for a in (90.0, 210.0, 330.0)]
    (tmp_path / "b0.json").write_text(json.dumps(_book_json(base)))
    moved = list(base)
    moved[0] += 2.0 * math.pi / 9.0
    moved[1] -= 2.0 * math.pi / 9.0
    (tmp_path / "b1.json").write_text(json.dumps(_book_json(moved)))
    ok = run(["coherence", "--book", "b0.json", "--book0", "b0.json"], tmp_path)
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["coherence_angle"] == pytest.approx(0.0, abs=1e-9)
    bad = run(["coherence", "--book", "b1.json", "--book0", "b0.json"], tmp_path)
    assert bad.returncode == 3
    assert "not coherent" in bad.stdout


def _spine_book_json(spine, slice_basis, p=3):
    angles = (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    return {"m": 2, "n": 1, "p": p, "spine": [spine], "slice": slice_basis,
            "pages": [{"dir": [math.cos(a), math.sin(a)], "kappa": 1} for a in angles]}


@pytest.mark.parametrize("book, book0, match", [
    pytest.param(_book_json([0.0, 2.0, 4.0], 5), _book_json([0.0, 2.0, 4.0]), "moduli differ",
                 id="p5-against-p3"),
    pytest.param(_spine_book_json([1.0, 0.0, 0.0], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                 _spine_book_json([0.0, 0.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                 "different frames", id="spine-e1-against-e3"),
])
def test_coherence_bad_input_is_exit_2(tmp_path, book, book0, match):
    (tmp_path / "b.json").write_text(json.dumps(book))
    (tmp_path / "b0.json").write_text(json.dumps(book0))
    res = run(["coherence", "--book", "b.json", "--book0", "b0.json"], tmp_path)
    assert res.returncode == 2, res.stdout
    assert match in res.stderr
    assert res.stdout == ""


def test_coherence_is_exact(tmp_path):
    y = [math.radians(a) for a in (90.0, 210.0, 330.0)]
    # the admissible rotations form a window 0.02 degrees wide
    narrow = [math.radians(a + 0.0225) for a in (90.0 + 29.99, 210.0 - 29.99, 330.0)]
    (tmp_path / "y.json").write_text(json.dumps(_book_json(y)))
    (tmp_path / "narrow.json").write_text(json.dumps(_book_json(narrow)))
    (tmp_path / "turned.json").write_text(json.dumps(_book_json([a + 0.7 for a in y])))
    res = run(["coherence", "--book", "narrow.json", "--book0", "y.json"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["coherence_angle"] == pytest.approx(0.5238169417522749,
                                                                      rel=1e-14)
    res = run(["coherence", "--book", "turned.json", "--book0", "turned.json"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert '"coherence_angle": 0.0,' in res.stdout


@pytest.mark.parametrize("p", [3.7, 3.5, 1])
def test_cone_files_with_a_bad_modulus_are_exit_2(tmp_path, p):
    assert run(["make-fixture", "y120"], tmp_path).returncode == 0
    config = json.loads((tmp_path / "y120.json").read_text())
    config["p"] = p
    (tmp_path / "bad.json").write_text(json.dumps(config))
    (tmp_path / "book.json").write_text(json.dumps(_book_json([0.0, 2.0, 4.0], p)))
    for args in (["classify-cone", "--config", "bad.json"],
                 ["coherence", "--book", "book.json", "--book0", "book.json"]):
        res = run(args, tmp_path)
        assert res.returncode == 2, res.stdout
        assert "p must be an integer >= 2" in res.stderr
        assert res.stdout == ""


def test_classify_cone_rejects_p_zero(tmp_path):
    assert run(["make-fixture", "y120"], tmp_path).returncode == 0
    res = run(["classify-cone", "--config", "y120.json", "--p", "0"], tmp_path)
    assert res.returncode == 2
    assert "p must be an integer >= 2" in res.stderr


def test_bad_json_is_exit_2(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    res = run(["classify-cone", "--config", "bad.json"], tmp_path)
    assert res.returncode == 2
    assert "error" in res.stderr


def test_excess_rejects_book_frame_that_is_not_orthonormal(tmp_path):
    # the point (1, 0, 0) lies on a page; a slice row of length 2 would put it at 3
    pages = [{"dir": [math.cos(a), math.sin(a)], "kappa": 1}
             for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    book = {"m": 2, "n": 1, "spine": [[0.0, 0.0, 1.0]],
            "slice": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "pages": pages}
    sample = {"m": 2, "points": [[1.0, 0.0, 0.0]], "weights": [1.0], "delta": 0.1}
    (tmp_path / "book.json").write_text(json.dumps(book))
    (tmp_path / "sample.json").write_text(json.dumps(sample))
    args = ["excess", "--sample", "sample.json", "--book", "book.json",
            "--center", "0,0,0", "--radius", "2"]
    res = run(args, tmp_path)
    assert res.returncode == 2
    assert "orthonormal" in res.stderr
    book["slice"][0] = [1.0, 0.0, 0.0]
    (tmp_path / "book.json").write_text(json.dumps(book))
    res = run(args, tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["excess"] == pytest.approx(0.0, abs=1e-12)


def test_excess_rejects_book_without_a_slice(tmp_path):
    pages = [{"dir": [math.cos(a), math.sin(a)], "kappa": 1}
             for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    book = {"m": 2, "n": 1, "spine": [[0.0, 0.0, 1.0]], "pages": pages}
    sample = {"m": 2, "points": [[1.0, 0.0, 0.0]], "weights": [1.0], "delta": 0.1}
    (tmp_path / "book.json").write_text(json.dumps(book))
    (tmp_path / "sample.json").write_text(json.dumps(sample))
    res = run(["excess", "--sample", "sample.json", "--book", "book.json",
               "--center", "0,0,0", "--radius", "2"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "slice" in res.stderr


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
    scan_args = ["decay-scan", "--surface", "surface.json",
                 "--radii", "0.2,0.1", "--no-flat", "--csv", "scan.csv"]
    scan = run(scan_args, tmp_path)
    assert scan.returncode == 0
    csv_text = (tmp_path / "scan.csv").read_text()
    header, *rows = csv_text.strip().splitlines()
    assert header == "r,excess,flat_distance,fitted_C,flat_gap" and len(rows) == 2
    assert all(row.split(",")[2] == row.split(",")[4] == "" for row in rows)
    # the circles, mass and residuals are derived from the arcs on load
    data["singular_circles"][0]["x"] += 0.1
    data["generator"]["mass"] = 0.0
    (tmp_path / "surface.json").write_text(json.dumps(data))
    assert run(scan_args, tmp_path).returncode == 0
    assert (tmp_path / "scan.csv").read_text() == csv_text
    # turning the last step of an arc at the junction unbalances it
    data["generator"]["arcs"][1]["polyline"][-2][1] += 1e-3
    (tmp_path / "surface.json").write_text(json.dumps(data))
    scan = run(scan_args, tmp_path)
    assert scan.returncode == 3, scan.stderr
    assert "unbalanced" in scan.stderr


@pytest.mark.parametrize("radii", ["", "nan", "inf", "0.2,-0.1"])
def test_decay_scan_rejects_bad_radii(tmp_path, radii):
    assert run(["taylor", "--p", "3", "--angles=-40,0,40", "--delta", "0.05",
                "--out", "surface.json"], tmp_path).returncode == 0
    res = run(["decay-scan", "--surface", "surface.json", f"--radii={radii}",
               "--no-flat", "--csv", "scan.csv"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "radii" in res.stderr
    assert not (tmp_path / "scan.csv").exists()


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


# run ``python -m modp.cli`` with the arguments after ``-c`` and write the
# names of the modules loaded when it exits to stderr, as the last line
_LOADED_BY_COMMAND = """
import json, runpy, sys
sys.argv = ["modp", *sys.argv[1:]]
try:
    runpy.run_module("modp.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code:
        raise
sys.stderr.write("\\n" + json.dumps(sorted(sys.modules)))
"""


def _loaded_by_command(args, cwd):
    res = run_python(["-c", _LOADED_BY_COMMAND, *args], cwd)
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stderr.splitlines()[-1]))


def test_import_loads_no_scipy_solver(tmp_path):
    # scipy.optimize, scipy.integrate and scipy.sparse.csgraph load with the
    # first solver call that needs them, so neither import nor a non-solver
    # command pays for them
    code = """
import json, sys
def solvers():
    return sorted(m for m in sys.modules
                  if m.split(".")[:2] in (["scipy", "optimize"], ["scipy", "integrate"])
                  or m.startswith("scipy.sparse.csgraph"))
import modp
after_modp = solvers()
submodules = sorted(m for m in sys.modules if m.startswith("modp."))
unresolved = [name for name in modp.__all__ if getattr(modp, name, None) is None]
star = {}
exec("from modp import *", star)
import modp.cli
print(json.dumps({"file": modp.__file__, "modp": after_modp, "cli": solvers(),
                  "submodules": submodules, "unresolved": unresolved,
                  "not_starred": sorted(set(modp.__all__) - set(star)),
                  "not_in_dir": sorted(set(modp.__all__) - set(dir(modp)))}))
"""
    res = run_python(["-c", code], tmp_path)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["file"].startswith(SRC_DIR)
    assert out["modp"] == []
    assert out["cli"] == []
    # ``import modp`` loads no submodule, and each public name loads its own
    assert out["submodules"] == []
    assert out["unresolved"] == out["not_starred"] == out["not_in_dir"] == []

    # each command loads only what it runs
    for name in ("triangle-complex", "disk-mesh"):
        loaded = _loaded_by_command(["make-fixture", name], tmp_path)
        assert "modp.complexes" in loaded
        assert not any(m.startswith("scipy.sparse") for m in loaded)
    terms = [{"point": [math.cos(a), math.sin(a)], "multiplicity": 1} for a in (0.3, 2.1, 4.4)]
    (tmp_path / "terms.json").write_text(json.dumps({"terminals": terms}))
    loaded = _loaded_by_command(["solve-network", "--terminals", "terms.json", "--p", "3"],
                                tmp_path)
    assert "modp.cones" in loaded
    assert not any(m == "scipy" or m.startswith("scipy.") for m in loaded)
    # a curved network finds its arcs' roots without scipy.optimize; its
    # terminals lie in the weight's domain x > 0
    terms = [{"point": [math.cos(a), math.sin(a)], "multiplicity": 1} for a in (-0.7, 0.0, 0.7)]
    (tmp_path / "half-plane.json").write_text(json.dumps({"terminals": terms}))
    loaded = _loaded_by_command(["solve-network", "--terminals", "half-plane.json", "--p", "3",
                                 "--weight", "x"], tmp_path)
    assert "modp.taylor" in loaded
    assert not any(m.startswith("scipy.optimize") for m in loaded)
    # the flat norm's neighbourhood search needs no graph library
    assert run(["make-fixture", "triangle-complex"], tmp_path).returncode == 0
    loaded = _loaded_by_command(["flat-norm", "--complex", "triangle-complex.json",
                                 "--chain", "triangle-boundary.json", "--p", "3"], tmp_path)
    assert "scipy.optimize" in loaded
    assert not any(m.startswith("scipy.sparse.csgraph") for m in loaded)
    plane = {"points": [[0.0, 0.0, 0.0]], "weights": [1.0], "m": 2, "delta": 0.1}
    (tmp_path / "plane.json").write_text(json.dumps(plane))
    for module, args in (
            ("modp.whitney", ["whitney", "--m", "2", "--M", "1", "--depth", "2",
                              "--tau", "0.3", "--csv", "cubes.csv"]),
            ("modp.books", ["density", "--sample", "plane.json", "--center", "0,0,0",
                            "--radius", "0.5"])):
        loaded = _loaded_by_command(args, tmp_path)
        assert module in loaded
        assert not {"modp.flatnorm", "modp.cones"} & loaded


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
