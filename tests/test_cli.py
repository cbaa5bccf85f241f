"""End-to-end tests for the command line front end.

Each test drives ``main(argv)`` in process and asserts on exit codes,
report files, and stdout.  Error paths must emit a single JSON object
with a machine-readable code; success paths must write deterministic
reports (identical configuration, identical bytes).
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from s4min import cli as cli_module
from s4min import family as family_module
from s4min import topology as topology_module
from s4min.catalog import load_catalog, read_manifest, write_manifest
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


def savetxt_bytes(path, table, header: str) -> bytes:
    """The documented CSV format, written by ``np.savetxt`` as the oracle."""
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")
    return path.read_bytes()


def field_csv_oracle(path, patch, values) -> bytes:
    uu = np.repeat(patch.u_coords(), patch.nv)
    vv = np.tile(patch.v_coords(), patch.nu)
    return savetxt_bytes(path, np.column_stack([uu, vv, np.ravel(values)]), "u,v,value")


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


def test_csv_writers_match_savetxt_oracle(tmp_path):
    special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e-300, 1.0 / 3.0]
    rng = np.random.default_rng(5)
    # nu = 37 is not a multiple of the block of u-rows, and nu != nv
    patch = GridPatch(37, 9, (-1.0, 2.0), (0.0, 2.0 * math.pi), False, True)
    fields = {"f": rng.standard_normal((37, 9)), "g": np.zeros((37, 9))}
    fields["f"].flat[:len(special)] = special
    fields["g"].flat[-len(special):] = special
    cli_module._write_field_csvs(tmp_path, patch, fields)
    for name, values in fields.items():
        expected = field_csv_oracle(tmp_path / "oracle.csv", patch, values)
        assert (tmp_path / f"{name}.csv").read_bytes() == expected

    columns = [np.array(special), rng.standard_normal(len(special)),
               np.full(len(special), np.nan)]
    cli_module._write_table_csv(tmp_path / "table.csv", "theta,d,comm_defect", columns)
    expected = savetxt_bytes(tmp_path / "oracle.csv", np.column_stack(columns),
                             "theta,d,comm_defect")
    assert (tmp_path / "table.csv").read_bytes() == expected


def test_analyze_deformed_manifest_fields_match_savetxt_oracle(cli, tmp_path):
    code, _ = cli("deform", "--catalog", "clifford", "--n", 256,
                  "--theta", math.pi / 2, "--out", tmp_path / "a")
    assert code == 0
    manifest = tmp_path / "a" / "deformed" / "manifest.json"
    code, _ = cli("analyze", "--manifest", manifest, "--out", tmp_path / "b")
    assert code == 0
    patch = read_manifest(manifest)[0].patch
    assert (patch.nu, patch.nv) == (257, 257)
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    for name in report["field_files"]:
        path = tmp_path / "b" / name
        # %.17g round-trips every float64, so the values read back exactly
        values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=2)
        assert field_csv_oracle(tmp_path / "oracle.csv", patch, values) == path.read_bytes()


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
    manifest = write_manifest(ImmersionField(imm.patch, imm.position), tmp_path / "src")
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
    manifest = write_manifest(ImmersionField(patch, curve), tmp_path / "src")
    extra = ("--theta", 0.5) if command == "deform" else ()
    code, out = cli(command, "--manifest", manifest, *extra, "--out", tmp_path / "out")
    assert code == 2
    assert len(out.strip().splitlines()) == 1
    assert error_code(out) == "E_SOURCE"


@pytest.mark.parametrize("argv", [
    ("deform", "--theta", "inf"),
    ("deform", "--theta=-inf"),
    ("deform", "--theta", "nan"),
    ("deform", "--theta", 0.5, "--perturb", "nan"),
    ("deform", "--theta", 0.5, "--perturb", "inf"),
    ("analyze", "--perturb", "nan"),
    ("analyze", "--perturb", 1e-3, "--seed", -1),
    ("monodromy", "--scan", 64, "--tol-close", -1),
    ("monodromy", "--scan", 64, "--tol-close", 0),
    ("monodromy", "--scan", 64, "--tol-close", "nan"),
    ("monodromy", "--scan", 64, "--tol-close", "inf"),
    ("monodromy", "--scan", 65537),
], ids=lambda argv: " ".join(map(str, argv)))
def test_nonfinite_or_nonpositive_value_is_config_error(cli, tmp_path, argv):
    command, *rest = argv
    code, out = cli(command, "--catalog", "clifford", "--n", 32, *rest, "--out", tmp_path)
    assert code == 2
    assert len(out.strip().splitlines()) == 1
    assert error_code(out) == "E_CONFIG"


@pytest.mark.parametrize("target", ["afile", "afile/sub"])
@pytest.mark.parametrize("command", ["analyze", "deform", "monodromy", "verify"])
def test_unwritable_out_is_config_error(cli, tmp_path, command, target):
    # a plain file where the output directory (or one of its parents) goes
    (tmp_path / "afile").write_text("")
    out = tmp_path / target
    extra = ("--theta", 0.5) if command == "deform" else ()
    code, text = cli(command, "--catalog", "clifford", "--n", 32, *extra, "--out", out)
    assert code == 2
    assert len(text.strip().splitlines()) == 1
    assert error_code(text) == "E_CONFIG"
    assert str(out) in text


@pytest.mark.parametrize("argv", [
    ("monodromy", "--catalog", "clifford", "--n", 32, "--scan", 32),
    ("monodromy", "--catalog", "clifford", "--n", 32, "--scan", 65537),
    ("verify", "--catalog", "nosuch"),
    ("analyze", "--catalog", "clifford", "--n", 48),
    ("deform", "--catalog", "clifford", "--n", 32, "--theta", "nan"),
    ("verify", "--catalog", "clifford", "--n", 32, "--perturb", 1e-3, "--seed", -1),
], ids=lambda argv: " ".join(map(str, argv)))
def test_refused_run_leaves_no_output_directory(cli, tmp_path, argv):
    out = tmp_path / "ok"
    code, text = cli(*argv, "--out", out)
    assert code == 2
    assert len(text.strip().splitlines()) == 1
    assert not out.exists()


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
    manifest = tmp_path / "a" / "deformed" / "manifest.json"
    # only the position is stored: the deformed jets are finite differences,
    # and stored jets would be read back as analytic
    assert sorted(p.name for p in manifest.parent.iterdir()) == ["manifest.json",
                                                                 "position.f64"]
    code, out = cli("analyze", "--manifest", manifest, "--jets", "analytic",
                    "--out", tmp_path / "c")
    assert code == 2
    assert error_code(out) == "E_CONFIG"
    code, _ = cli("analyze", "--manifest", manifest, "--out", tmp_path / "b")
    assert code == 0
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    assert report["source"]["source"] == "manifest:manifest.json"
    assert report["source"]["jet_source"] == "fd"
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
    profile = tmp_path / "profile.csv"
    table = np.loadtxt(profile, delimiter=",", skiprows=1)
    # one generator: the commutator column is written as nan
    assert table.shape == (64, 3) and np.isnan(table[:, 2]).all()
    # %.17g round-trips every float64, so the oracle re-writes the same bytes
    expected = savetxt_bytes(tmp_path / "oracle.csv", table, "theta,d,comm_defect")
    assert profile.read_bytes() == expected
    assert abs(doc["chi_normal"]) < 1e-9


def test_monodromy_veronese_circle_with_nontrivial_normal_bundle(cli, tmp_path):
    # chi_N = 4 and a CIRCLE verdict: the members must be congruent
    code, out = cli("monodromy", "--catalog", "veronese", "--n", 64,
                    "--scan", 64, "--out", tmp_path)
    assert code == 0
    assert "verdict CIRCLE" in out
    doc = json.loads((tmp_path / "roots.json").read_text())
    assert abs(doc["chi_normal"] - 4.0) < 0.02
    assert doc["congruence_max"] < cli_module.CONGRUENCE_TOL
    assert doc["classes"] == [] and doc["circle_coefficient_max"] < doc["tol_close"]


def test_monodromy_circle_without_congruence_is_contradiction(cli, tmp_path, monkeypatch):
    # the paper's compact-surface theorem: chi_N != 0 allows only finitely
    # many noncongruent members, so CIRCLE with noncongruent members is refused
    monkeypatch.setattr("s4min.monodromy._congruence_residual", lambda conn, theta: 1e-2)
    code, out = cli("monodromy", "--catalog", "veronese", "--n", 64,
                    "--scan", 64, "--out", tmp_path)
    assert code == 3
    assert len(out.strip().splitlines()) == 1
    assert error_code(out) == "E_CONTRADICTION"
    message = json.loads(out)["error"]["message"]
    assert "chi_N = 4" in message and "congruence_max 1.000e-02" in message
    assert not (tmp_path / "roots.json").exists()


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


def test_verify_computes_each_quantity_once(cli, tmp_path, monkeypatch):
    # verify's own Laplace checks are its only ones, one per branch, and
    # the reconstruction check reuses the Omega_0 of the flatness check
    calls = {"laplace_identity_residual": 0, "assemble_maurer_cartan": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli_module, topology_module, family_module):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code, _ = cli("verify", "--catalog", "clifford", "--n", 64, "--out", tmp_path)
    assert code == 0
    assert calls == {"laplace_identity_residual": 2, "assemble_maurer_cartan": 1}


@pytest.mark.parametrize("argv, bound", [
    (("verify", "--catalog", "veronese"), 6.6),
    (("verify", "--catalog", "clifford"), 6.2),
    (("deform", "--catalog", "clifford", "--theta", 0.3), 6.2),
    (("monodromy", "--catalog", "veronese"), 6.2),
])
def test_commands_hold_each_frame_array_once(cli, tmp_path, argv, bound):
    # tracemalloc peak of a whole command at n = 128, in blocks of one
    # (n, n, 5, 5) float64 array.  Measured 5.99, 5.62, 5.58 and 5.57;
    # holding the input fields next to the stored frames, a second sweep
    # or a copy of the frame planes took 8.60, 8.42, 9.17 and 7.40.
    block = 128 * 128 * 25 * 8
    tracemalloc.start()
    try:
        code, _ = cli(*argv, "--n", 128, "--out", tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < bound * block, f"peaked at {peak / block:.2f} blocks"


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
