"""End-to-end tests for the command line front end.

Each test drives ``main(argv)`` in process and asserts on exit codes,
report files, and stdout.  Error paths must emit a single JSON object
with a machine-readable code; success paths must write deterministic
reports (identical configuration, identical bytes).
"""

import json
import math

import numpy as np
import pytest

from s4min.catalog import load_catalog, write_manifest
from s4min.cli import main
from s4min.grid import GridPatch
from s4min.surface import ImmersionField


@pytest.fixture
def cli(capsys):
    """Run the CLI in process, returning (exit_code, stdout)."""

    def run(*argv):
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().out

    return run


def error_code(out: str) -> str:
    return json.loads(out.strip().splitlines()[-1])["error"]["code"]


# ---------------------------------------------------------------------------
# analyze


def test_analyze_clifford(cli, tmp_path):
    code, out = cli("analyze", "--catalog", "clifford", "--n", 64, "--out", tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["command"] == "analyze"
    assert report["source"]["source"] == "catalog:clifford"
    assert report["grid"] == {"nu": 64, "nv": 64, "periodic_u": True, "periodic_v": True}
    assert abs(report["invariants"]["K"]["max"]) < 1e-9
    assert abs(report["invariants"]["kappa"]["min"] - 1.0) < 1e-9
    assert report["minimality_max"] < 1e-9
    assert report["superminimality"]["verdict"] == "generic"
    for name in report["field_files"]:
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "u,v,value"
        assert len(lines) == 1 + 64 * 64


def test_analyze_veronese_superminimal(cli, tmp_path):
    code, _ = cli("analyze", "--catalog", "veronese", "--n", 64, "--out", tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["superminimality"]["verdict"] == "superminimal"
    assert abs(report["invariants"]["K"]["min"] - 1.0 / 3.0) < 1e-9
    assert report["invariants"]["a_minus"]["max"] < 1e-8
    assert report["invariants"]["hopf_abs"]["max"] < 1e-8


def test_analyze_fd_jets_override(cli, tmp_path):
    code, _ = cli("analyze", "--catalog", "clifford", "--n", 64,
                  "--jets", "fd", "--out", tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["source"]["jet_source"] == "fd"
    assert report["minimality_max"] < 1e-4


# ---------------------------------------------------------------------------
# bad input

def test_unknown_catalog_is_source_error(cli, tmp_path):
    code, out = cli("analyze", "--catalog", "torus", "--out", tmp_path)
    assert code == 2
    assert error_code(out) == "E_SOURCE"


def test_missing_manifest_is_source_error(cli, tmp_path):
    code, out = cli("analyze", "--manifest", tmp_path / "nope.json", "--out", tmp_path)
    assert code == 2
    assert error_code(out) == "E_SOURCE"


@pytest.mark.parametrize("n", [100, 16, 2048])
def test_bad_resolution_is_config_error(cli, tmp_path, n):
    code, out = cli("analyze", "--catalog", "clifford", "--n", n, "--out", tmp_path)
    assert code == 2
    assert error_code(out) == "E_CONFIG"


def test_nonpositive_perturbation_is_config_error(cli, tmp_path):
    code, out = cli("analyze", "--catalog", "clifford", "--n", 64,
                    "--perturb", -1.0, "--out", tmp_path)
    assert code == 2
    assert error_code(out) == "E_CONFIG"


def test_analytic_jets_unavailable_is_config_error(cli, tmp_path):
    imm = load_catalog("clifford", 32).immersion
    manifest = write_manifest(imm, tmp_path / "src", include_jets=False)
    code, out = cli("analyze", "--manifest", manifest, "--jets", "analytic",
                    "--out", tmp_path / "out")
    assert code == 2
    assert error_code(out) == "E_CONFIG"


@pytest.mark.parametrize("command", ["analyze", "deform", "monodromy", "verify"])
def test_degenerate_manifest_is_source_error(cli, tmp_path, command):
    # a curve: the position depends on u only, so the metric is degenerate
    patch = GridPatch(64, 64, (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi), True, True)
    u = patch.u_coords()
    curve = np.zeros((64, 64, 5))
    curve[..., 0] = np.cos(u)[:, None]
    curve[..., 1] = np.sin(u)[:, None]
    manifest = write_manifest(ImmersionField(patch, curve), tmp_path / "src",
                              include_jets=False)
    extra = ("--theta", 0.5) if command == "deform" else ()
    code, out = cli(command, "--manifest", manifest, *extra, "--out", tmp_path / "out")
    assert code == 2
    assert len(out.strip().splitlines()) == 1
    assert error_code(out) == "E_SOURCE"


def test_scan_too_coarse(cli, tmp_path):
    code, out = cli("monodromy", "--catalog", "clifford", "--n", 64,
                    "--scan", 8, "--out", tmp_path)
    assert code == 2
    assert error_code(out) == "E_SCAN_TOO_COARSE"


# ---------------------------------------------------------------------------
# deform


def test_deform_zero_angle_reproduces_surface(cli, tmp_path):
    code, out = cli("deform", "--catalog", "clifford", "--n", 64,
                    "--theta", 0.0, "--out", tmp_path)
    assert code == 0
    assert "congruent" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["congruence"]["congruent"] is True
    assert report["congruence"]["residual"] < 1e-5
    assert report["flatness_residual"] < 1e-9
    for name in ("manifest.json", "position.f64"):
        assert (tmp_path / "deformed" / name).is_file()


def test_deform_quarter_turn_is_not_congruent(cli, tmp_path):
    code, _ = cli("deform", "--catalog", "clifford", "--n", 32,
                  "--theta", math.pi / 4, "--out", tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["congruence"]["congruent"] is False
    assert report["congruence"]["residual"] > 0.1


def test_deform_superminimal_any_angle_congruent(cli, tmp_path):
    code, _ = cli("deform", "--catalog", "veronese", "--n", 128,
                  "--theta", 1.0, "--out", tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["congruence"]["congruent"] is True


def test_deform_output_feeds_back_into_analyze(cli, tmp_path):
    code, _ = cli("deform", "--catalog", "clifford", "--n", 64,
                  "--theta", 0.7, "--out", tmp_path / "a")
    assert code == 0
    code, _ = cli("analyze", "--manifest", tmp_path / "a" / "deformed" / "manifest.json",
                  "--out", tmp_path / "b")
    assert code == 0
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    assert report["source"]["source"] == "manifest:manifest.json"
    assert report["source"]["norm_drift"] < 1e-12
    # members of the family are isometric, so the deformed surface is
    # still intrinsically flat
    assert abs(report["invariants"]["K"]["min"]) < 1e-3
    assert abs(report["invariants"]["K"]["max"]) < 1e-3


def test_deform_perturbed_surface_breaks_integrability(cli, tmp_path):
    code, out = cli("deform", "--catalog", "clifford", "--n", 64, "--theta", 0.3,
                    "--perturb", 1e-3, "--seed", 7, "--out", tmp_path)
    assert code == 3
    assert error_code(out) == "E_INTEGRABILITY"


# ---------------------------------------------------------------------------
# monodromy


def test_monodromy_clifford_finite_quarter_turns(cli, tmp_path):
    code, out = cli("monodromy", "--catalog", "clifford", "--n", 128,
                    "--scan", 64, "--out", tmp_path)
    assert code == 0
    assert "verdict FINITE" in out
    doc = json.loads((tmp_path / "roots.json").read_text())
    assert doc["verdict"] == "FINITE"
    expected = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    assert len(doc["roots"]) == 4
    assert np.allclose(doc["roots"], expected, atol=1e-6)
    table = np.loadtxt(tmp_path / "profile.csv", delimiter=",", skiprows=1)
    assert table.shape == (64, 3)
    header = (tmp_path / "profile.csv").read_text().splitlines()[0]
    assert header == "theta,d,comm_defect"


def test_monodromy_geodesic_sphere_circle(cli, tmp_path):
    code, out = cli("monodromy", "--catalog", "geodesic-sphere", "--n", 64,
                    "--scan", 64, "--out", tmp_path)
    assert code == 0
    assert "verdict CIRCLE" in out
    doc = json.loads((tmp_path / "roots.json").read_text())
    assert doc["verdict"] == "CIRCLE"
    assert doc["roots"] == []


# ---------------------------------------------------------------------------
# verify


def test_verify_clifford_all_pass(cli, tmp_path):
    code, out = cli("verify", "--catalog", "clifford", "--n", 64, "--out", tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert report["failures"] == []
    tags = [it["tag"] for it in report["items"]]
    assert tags == [
        "unit_norm_drift", "minimality_max", "ellipse_radius_product",
        "hopf_holomorphy", "laplace_log_plus", "laplace_log_minus",
        "flatness_theta0", "reconstruction_theta0", "frame_path_dependence",
        "euler_chi_surface", "euler_chi_normal",
        "zero_balance_plus", "zero_balance_minus", "ricci_3sphere_residual",
    ]
    assert "all checks passed" in out
    ricci = report["items"][-1]
    assert ricci["diagnostic"] is True
    assert ricci["value"] < 1e-6


def test_verify_veronese_skips_minus_branch_and_balance(cli, tmp_path):
    code, _ = cli("verify", "--catalog", "veronese", "--n", 128, "--out", tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    items = {it["tag"]: it for it in report["items"]}
    assert items["laplace_log_minus"]["skipped"] is True
    assert items["zero_balance_plus"]["skipped"] is True
    assert "superminimal" in items["zero_balance_plus"]["reason"]
    assert report["superminimality"] == "superminimal"
    assert abs(items["ricci_3sphere_residual"]["value"] - 4.0 / 3.0) < 1e-6


def test_verify_perturbed_surface_fails(cli, tmp_path):
    code, out = cli("verify", "--catalog", "clifford", "--n", 64,
                    "--perturb", 1e-3, "--seed", 7, "--out", tmp_path)
    assert code == 1
    assert "FAILED" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is False
    assert "minimality_max" in report["failures"]
    assert "flatness_theta0" in report["failures"]
    items = {it["tag"]: it for it in report["items"]}
    assert items["minimality_max"]["value"] > 1e-4
    # the perturbed chart is no longer isothermal, so the quadratic
    # differential has no single coefficient to test
    assert items["hopf_holomorphy"]["skipped"] is True


def test_verify_reports_are_byte_identical(cli, tmp_path):
    for sub in ("one", "two"):
        code, _ = cli("verify", "--catalog", "clifford", "--n", 32,
                      "--out", tmp_path / sub)
        assert code == 0
    first = (tmp_path / "one" / "report.json").read_bytes()
    second = (tmp_path / "two" / "report.json").read_bytes()
    assert first == second


def test_analyze_field_files_are_byte_identical(cli, tmp_path):
    for sub in ("one", "two"):
        code, _ = cli("analyze", "--catalog", "veronese", "--n", 32,
                      "--out", tmp_path / sub)
        assert code == 0
    for name in ("report.json", "K.csv", "a_plus.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
