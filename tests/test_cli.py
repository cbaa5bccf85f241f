"""End-to-end tests for the command line front end.

Each test drives ``main(argv)`` in process and asserts on exit codes,
report files, and stdout.  Error paths must emit a single JSON object
with a machine-readable code; success paths must write deterministic
reports (identical configuration, identical bytes).
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import s4min
from s4min import adapted as adapted_module
from s4min import cli as cli_module
from s4min import family as family_module
from s4min import grid as grid_module
from s4min import surface as surface_module
from s4min import topology as topology_module
from s4min.adapted import superminimality_test
from s4min.catalog import load_catalog, read_manifest, write_manifest
from s4min.cli import main
from s4min.grid import GridPatch
from s4min.surface import ImmersionField, shape_report
from s4min.topology import laplace_identity_residual


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


def cell_oracle_inputs(rng) -> np.ndarray:
    """Values that stress a %.17g formatter: random bit patterns (NaN
    payloads, subnormals and every exponent among them) and the edges."""
    edge = 10.0 ** cli_module._CERTIFIED_EXP
    special = [
        -0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0 / 3.0, 1e300, -1e-300,
        # subnormals and the ends of the float64 range
        5e-324, 2.5e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
        1.7976931348623157e308,
        # exact ties at 17 significant digits: half-even rounds them down
        186714551458061.88, 2.0 ** -25,
        # where %g switches between fixed and exponent notation
        9.9999999999999995e-05, 1e-4, 1e16, 99999999999999984.0, 1e17,
        # the edges of the formatter's table of powers of ten
        edge, np.nextafter(edge, 0.0), 1.0 / edge, np.nextafter(1.0 / edge, 0.0),
        np.nextafter(1.0 / edge, 1.0),
    ]
    powers = [10.0 ** k for k in range(-30, 30)]
    special += powers + [np.nextafter(p, 0.0) for p in powers] + [np.nextafter(p, np.inf) for p in powers]
    bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64).view(np.float64)
    return np.concatenate([special, np.negative(special), bits])


def test_csv_writers_match_savetxt_oracle(tmp_path):
    rng = np.random.default_rng(5)
    values = cell_oracle_inputs(rng)
    # nu = 337 is not a multiple of the block of u-rows, and nu != nv
    nu, nv = 337, 300
    patch = GridPatch(nu, nv, (-1.0, 2.0), (0.0, 2.0 * math.pi), False, True)
    fields = {"f": np.resize(values, (nu, nv)), "g": np.zeros((nu, nv)),
              "h": rng.standard_normal((nu, nv))}
    fields["g"].flat[-values.size:] = values[::-1][:nu * nv]
    cli_module._write_field_csvs(tmp_path, patch, fields)
    for name, field in fields.items():
        expected = field_csv_oracle(tmp_path / "oracle.csv", patch, field)
        assert (tmp_path / f"{name}.csv").read_bytes() == expected

    columns = [values[:5000], rng.standard_normal(5000), np.full(5000, np.nan)]
    cli_module._write_table_csv(tmp_path / "table.csv", "theta,d,comm_defect", columns)
    expected = savetxt_bytes(tmp_path / "oracle.csv", np.column_stack(columns),
                             "theta,d,comm_defect")
    assert (tmp_path / "table.csv").read_bytes() == expected


def test_field_csv_writer_peak_memory(tmp_path):
    # tracemalloc peak of writing seven 256 x 256 fields, in (256, 256)
    # float64 fields: measured 5.14 on random bit patterns and 4.70 on the
    # Veronese invariants; the bound is the measured peak + 25 %
    n = 256
    patch = GridPatch(n, n, (0.0, 1.0), (0.0, 1.0), True, True)
    rng = np.random.default_rng(3)
    fields = {f"f{i}": rng.integers(0, 2 ** 64, size=(n, n), dtype=np.uint64).view(np.float64)
              for i in range(7)}
    cli_module._write_field_csvs(tmp_path, patch, {"warm": fields["f0"]})  # tables built
    tracemalloc.start()
    try:
        cli_module._write_field_csvs(tmp_path, patch, fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field = n * n * 8
    assert peak < 6.4 * field, f"peaked at {peak / field:.2f} fields"


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


@pytest.mark.parametrize("rest", [("--perturb", -1), ("--perturb", 1e-3, "--seed", -2)],
                         ids=["perturb", "seed"])
def test_bad_perturbation_fails_before_the_surface_is_built(cli, tmp_path, monkeypatch, rest):
    def refuse(*args):
        raise AssertionError("the catalog surface was built")

    monkeypatch.setattr(cli_module, "load_catalog", refuse)
    code, out = cli("verify", "--catalog", "clifford", "--n", 1024, *rest, "--out", tmp_path)
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
    ("deform", "--theta", 1e308),
    ("deform", "--theta=-1e308"),
    ("deform", "--theta", 0.5, "--perturb", "nan"),
    ("deform", "--theta", 0.5, "--perturb", "inf"),
    ("analyze", "--perturb", "nan"),
    ("analyze", "--perturb", 1e-3, "--seed", -1),
    ("monodromy", "--scan", 65537),
], ids=lambda argv: " ".join(map(str, argv)))
def test_nonfinite_or_nonpositive_value_is_config_error(cli, tmp_path, argv):
    command, *rest = argv
    code, out = cli(command, "--catalog", "clifford", "--n", 32, *rest, "--out", tmp_path)
    assert code == 2
    assert len(out.strip().splitlines()) == 1
    assert error_code(out) == "E_CONFIG"


def test_closing_tolerance_is_not_an_option(tmp_path, capsys):
    # the scan derives its tolerance from its own error floor
    with pytest.raises(SystemExit) as exit_info:
        main(["monodromy", "--catalog", "clifford", "--n", "32", "--tol-close", "1e-6",
              "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "--tol-close" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["afile", "afile/sub"])
@pytest.mark.parametrize("command", ["analyze", "deform", "monodromy", "verify"])
def test_unwritable_out_is_config_error(cli, tmp_path, command, target):
    # a plain file where the output directory (or one of its parents) goes
    (tmp_path / "afile").write_text("")
    out = tmp_path / target
    extra = ("--theta", 0.5) if command == "deform" else ()
    # verify's Clifford floor; deform at n = 32 is refused before its first
    # write (metric deviation 2.8e-4 at theta = 0.5)
    n = 64 if command in ("verify", "deform") else 32
    code, text = cli(command, "--catalog", "clifford", "--n", n, *extra, "--out", out)
    assert code == 2
    assert len(text.strip().splitlines()) == 1
    assert error_code(text) == "E_CONFIG"
    assert str(out) in text


REFUSED_RUNS = [
    (("monodromy", "--catalog", "clifford", "--n", 32, "--scan", 32), 2),
    (("monodromy", "--catalog", "clifford", "--n", 32, "--scan", 65537), 2),
    (("verify", "--catalog", "nosuch"), 2),
    (("analyze", "--catalog", "clifford", "--n", 48), 2),
    (("deform", "--catalog", "clifford", "--n", 32, "--theta", "nan"), 2),
    (("verify", "--catalog", "clifford", "--n", 64, "--perturb", 1e-3, "--seed", -1), 2),
    # refused after the surface is loaded: the member's metric deviates,
    # and the connection is not flat (3.0e-3)
    (("deform", "--catalog", "clifford", "--n", 32, "--theta", 0.3), 3),
    (("monodromy", "--catalog", "veronese", "--n", 32), 3),
]


@pytest.mark.parametrize("argv, want", [
    pytest.param(argv, want, id=" ".join(map(str, argv))) for argv, want in REFUSED_RUNS])
def test_refused_run_leaves_no_output_directory(cli, tmp_path, argv, want):
    out = tmp_path / "ok"
    code, text = cli(*argv, "--out", out)
    assert code == want
    assert len(text.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(cli_module.VERIFY_FLOOR))
def test_verify_below_the_floor_is_refused_before_the_surface_is_built(
        cli, tmp_path, monkeypatch, name):
    # below its floor an exact catalog surface fails frame_source_deviation
    # (tests/test_family.py pins the floors), so verify refuses the run
    def refuse(*args):
        raise AssertionError("the catalog surface was built")

    monkeypatch.setattr(cli_module, "load_catalog", refuse)
    floor = cli_module.VERIFY_FLOOR[name]
    out = tmp_path / "ok"
    code, text = cli("verify", "--catalog", name, "--n", floor // 2, "--out", out)
    assert code == 2
    assert len(text.strip().splitlines()) == 1
    assert error_code(text) == "E_CONFIG"
    assert f"n >= {floor}" in text
    assert not out.exists()


def test_scan_too_coarse(cli, tmp_path):
    code, out = cli("monodromy", "--catalog", "clifford", "--n", 64,
                    "--scan", 8, "--out", tmp_path)
    assert code == 2
    assert error_code(out) == "E_SCAN_TOO_COARSE"


def _malformed_json(manifest):
    manifest.write_text("{not json")
    return ("analyze",), (f"cannot read manifest {manifest}: Expecting property name "
                       "enclosed in double quotes: line 1 column 2 (char 1)")


def _short_payload(manifest):
    payload = manifest.parent / "position.f64"
    np.fromfile(payload, dtype="<f8")[:-7].tofile(payload)
    return ("analyze",), ("manifest position: expected 5120 float64 values for shape "
                       "(32, 32, 5), file holds 5113")


def _off_sphere(manifest):
    payload = manifest.parent / "position.f64"
    (np.fromfile(payload, dtype="<f8") * (1.0 + 1e-4)).tofile(payload)
    return ("verify",), ("position is off the unit sphere by 1.000e-04 (> 1e-06); "
                      "refusing to renormalize")


def _edit_manifest(manifest, key, value):
    doc = json.loads(manifest.read_text())
    doc[key] = value
    manifest.write_text(json.dumps(doc))


def _jets_without_first(manifest):
    _edit_manifest(manifest, "jets", {"second": "x.f64"})
    return ("analyze",), f"malformed manifest {manifest}: first jet must name a file, got None"


def _jets_not_an_object(manifest):
    _edit_manifest(manifest, "jets", "oops")
    return ("analyze",), f"malformed manifest {manifest}: jets must be an object, got 'oops'"


def _position_not_a_file_name(manifest):
    _edit_manifest(manifest, "position", 5)
    return ("analyze",), f"malformed manifest {manifest}: position must name a file, got 5"


def _not_an_object(manifest):
    manifest.write_text("[1]")
    return ("analyze",), "manifest kind must be 'sampled', got None"


def _one_ended_range(manifest):
    doc = json.loads(manifest.read_text())
    doc["grid"]["u_range"] = [0.0]
    manifest.write_text(json.dumps(doc))
    return ("analyze",), (f"malformed manifest {manifest}: not enough values to unpack "
                          "(expected 2, got 1)")


def _grid_entry(key, value, kind):
    def spoil(manifest):
        doc = json.loads(manifest.read_text())
        doc["grid"][key] = value
        manifest.write_text(json.dumps(doc))
        return ("analyze",), (f"malformed manifest {manifest}: grid {key} must be a JSON "
                              f"{kind}, got {value!r}")

    spoil.__name__ = f"{key}_{value!r}"
    return spoil


def _range_ends(key, ends, name):
    def spoil(manifest):
        doc = json.loads(manifest.read_text())
        doc["grid"][key] = ends
        manifest.write_text(json.dumps(doc))
        bad = next(end for end in ends if type(end) not in (int, float))
        return ("analyze",), (f"malformed manifest {manifest}: grid {key} ends must be "
                              f"JSON numbers, got {bad!r}")

    spoil.__name__ = f"{key}_{name}"
    return spoil


@pytest.mark.parametrize("spoil", [_malformed_json, _short_payload, _off_sphere,
                                   _jets_without_first, _jets_not_an_object,
                                   _position_not_a_file_name, _not_an_object, _one_ended_range,
                                   _grid_entry("periodic_u", "false", "boolean"),
                                   _grid_entry("periodic_v", 1, "boolean"),
                                   _grid_entry("cap_u", None, "boolean"),
                                   _grid_entry("cap_v", "true", "boolean"),
                                   _grid_entry("nu", 32.0, "integer"),
                                   _grid_entry("nv", "32", "integer"),
                                   _grid_entry("nu", True, "integer"),
                                   _range_ends("u_range", [True, "6.283185307179586"],
                                               "true_and_string"),
                                   _range_ends("u_range", [0.0, False], "false"),
                                   _range_ends("v_range", [0.0, "6.283185307179586"],
                                               "string"),
                                   _range_ends("v_range", [None, 6.283185307179586], "null")],
                         ids=lambda spoil: spoil.__name__.strip("_"))
def test_unusable_manifest_is_one_source_error_line(cli, tmp_path, spoil):
    imm = load_catalog("clifford", 32).immersion
    manifest = write_manifest(ImmersionField(imm.patch, imm.position), tmp_path / "src")
    (command, *extra), message = spoil(manifest)
    code, out = cli(command, "--manifest", manifest, *extra, "--out", tmp_path / "out")
    assert code == 2
    assert out == json.dumps({"error": {"code": "E_SOURCE", "message": message}},
                             sort_keys=True) + "\n"


def test_integer_range_ends_are_json_numbers(tmp_path):
    imm = load_catalog("clifford", 32).immersion
    manifest = write_manifest(ImmersionField(imm.patch, imm.position), tmp_path)
    doc = json.loads(manifest.read_text())
    doc["grid"]["u_range"] = [0, 4]
    manifest.write_text(json.dumps(doc))
    u_range = read_manifest(manifest)[0].patch.u_range
    assert u_range == (0.0, 4.0) and all(type(end) is float for end in u_range)


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
    # at n = 32 the member's metric deviates by 4.1e-4 and the run is refused
    code, out = cli("deform", "--catalog", "clifford", "--n", 64,
                    "--theta", math.pi / 4, "--out", tmp_path)
    assert code == 0
    assert "-> noncongruent" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["congruence"]["congruent"] is False
    assert report["congruence"]["residual"] > 0.1


def test_deform_report_fields(cli, tmp_path):
    code, _ = cli("deform", "--catalog", "clifford", "--n", 64,
                  "--theta", 0.3, "--out", tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert sorted(report) == ["command", "congruence", "deformed_manifest",
                              "flatness_residual", "invariant_deviation", "source", "theta"]
    assert sorted(report["congruence"]) == ["congruent", "residual"]


def deform_deviation(cli, tmp_path, n, theta):
    code, _ = cli("deform", "--catalog", "clifford", "--n", n, "--theta", theta,
                  "--out", tmp_path / str(n))
    assert code == 0
    return json.loads((tmp_path / str(n) / "report.json").read_text())["invariant_deviation"]


def test_deform_invariant_deviation_converges_at_fourth_order(cli, tmp_path):
    # the member's metric sees the march error that two sweeps of one
    # Omega share: measured 2.70e-5 and 1.71e-6 (order 3.98), where the
    # two sweeps read 3.4e-15 and 6.1e-15
    coarse = deform_deviation(cli, tmp_path, 64, math.pi / 4)
    fine = deform_deviation(cli, tmp_path, 128, math.pi / 4)
    assert coarse > 0.0
    assert math.log2(coarse / fine) >= 3.8


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


def test_deform_refuses_a_small_perturbation(cli, tmp_path):
    # the member's metric deviates by 2.09e-4, 120 times the exact
    # surface's 1.71e-6 at theta = pi/4 (flatness 2.2e-3); nothing is written
    code, out = cli("deform", "--catalog", "clifford", "--n", 128, "--theta", math.pi / 4,
                    "--perturb", 1e-5, "--out", tmp_path)
    assert code == 3
    assert error_code(out) == "E_INTEGRABILITY"
    assert "the member's metric deviates from the source's" in out
    assert list(tmp_path.iterdir()) == []


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
    # C1 vanishes on the totally geodesic sphere, so the normalized
    # congruence misfit is 0/0: it is defined as 0, without a warning
    assert doc["congruence_max"] == 0.0


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


def test_open_chart_monodromy_is_circle_by_topology(cli, tmp_path, monkeypatch):
    # an open rectangle is simply connected: every member closes, so the
    # answer is CIRCLE with no deck generator and nothing marched
    def refuse(*args):
        raise AssertionError("a generator was marched")

    monkeypatch.setattr("s4min.monodromy.generator_monodromy", refuse)
    imm = load_catalog("clifford", 64).immersion
    p = imm.patch
    chart = GridPatch(p.nu, p.nv, (p.u_range[0], p.u_coords()[-1]),
                      (p.v_range[0], p.v_coords()[-1]), False, False)
    manifest = write_manifest(ImmersionField(chart, imm.position, imm.jet1, imm.jet2),
                              tmp_path / "src")
    code, out = cli("monodromy", "--manifest", manifest, "--scan", 64, "--out", tmp_path / "out")
    assert code == 0
    assert "verdict CIRCLE" in out
    doc = json.loads((tmp_path / "out" / "roots.json").read_text())
    assert (doc["verdict"], doc["generators"], doc["roots"]) == ("CIRCLE", [], [])
    assert doc["d_max"] == doc["circle_coefficient_max"] == doc["spectral_tail"] == 0.0
    assert doc["chi_normal"] is None


def test_monodromy_veronese_below_resolution_is_not_flat(cli, tmp_path):
    # the flatness check runs before the chart's topology answers CIRCLE
    code, out = cli("monodromy", "--catalog", "veronese", "--n", 32, "--out", tmp_path)
    assert code == 3
    assert error_code(out) == "E_INTEGRABILITY"
    assert "residual 3.025e-03 > 1.0e-03" in out
    assert not (tmp_path / "roots.json").exists()


def test_monodromy_circle_without_congruence_is_contradiction(cli, tmp_path, monkeypatch):
    # the paper's compact-surface theorem: chi_N != 0 allows only finitely
    # many noncongruent members, so CIRCLE with noncongruent members is refused
    # family defines the residual; scan_profile looks it up in monodromy
    monkeypatch.setattr("s4min.monodromy.congruence_residual",
                        lambda conn, theta: np.full(np.shape(theta), 1e-2))
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
        "flatness_theta0", "frame_source_deviation",
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


@pytest.mark.parametrize("n", [
    pytest.param(128, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 2: at n = 128 the finite-difference a+ a- / 4 stays "
               "above EPS_SUPERMINIMAL |B|^2, so the surface reads generic and fails "
               "laplace_log_minus (1.59e3) and zero_balance_minus (8.79)")),
    256,
])
def test_verify_veronese_fd_jets_pass(cli, tmp_path, n):
    # finite-difference jets leave a- far above roundoff but a+ a- / 4
    # below EPS_SUPERMINIMAL |B|^2: the one superminimality test names a-
    # as vanishing, so its Laplace identity is skipped rather than failed,
    # and the vanishing Hopf coefficient is certified rather than refused
    # (1.2e-5 against 3.0e-3 at n = 256)
    code, out = cli("verify", "--catalog", "veronese", "--n", n, "--jets", "fd",
                    "--out", tmp_path)
    assert code == 0, out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["superminimality"] == "superminimal"
    items = {it["tag"]: it for it in report["items"]}
    assert items["laplace_log_minus"]["skipped"] is True
    assert items["laplace_log_minus"]["reason"] == "radius field vanishes identically"
    assert items["hopf_holomorphy"]["skipped"] is False


@pytest.mark.parametrize("jets", ["analytic", "fd"])
@pytest.mark.parametrize("name, n", [("clifford", 64), ("geodesic-sphere", 64),
                                     ("veronese", 128), ("veronese", 256)])
def test_verify_verdict_agrees_with_what_vanishes(cli, tmp_path, name, n, jets):
    # no report calls a surface superminimal and then fails or refuses a
    # check on the radius it has just called a circle, or skips a radius
    # of a surface it calls generic
    code, _ = cli("verify", "--catalog", name, "--n", n, "--jets", jets, "--out", tmp_path)
    assert code in (0, 1)
    report = json.loads((tmp_path / "report.json").read_text())
    items = {it["tag"]: it for it in report["items"]}
    vanishing = [branch for branch, tag in (("plus", "laplace_log_plus"),
                                            ("minus", "laplace_log_minus"))
                 if items[tag]["reason"] == "radius field vanishes identically"]
    if report["superminimality"] == "superminimal":
        assert vanishing
        for branch in vanishing:
            assert items[f"laplace_log_{branch}"]["value"] is None
            assert items[f"zero_balance_{branch}"]["value"] is None
        assert items["hopf_holomorphy"]["skipped"] is False
    else:
        assert report["superminimality"] == "generic"
        assert vanishing == []


def test_verify_skipped_checks_carry_no_value(cli, tmp_path):
    # 1 - K vanishes on the totally geodesic sphere: nothing to evaluate,
    # so the item has neither a value nor a tolerance
    code, _ = cli("verify", "--catalog", "geodesic-sphere", "--n", 64, "--out", tmp_path)
    assert code == 0
    items = json.loads((tmp_path / "report.json").read_text())["items"]
    assert items[-1] == {"tag": "ricci_3sphere_residual", "value": None, "tolerance": None,
                         "passed": True, "skipped": True, "diagnostic": True,
                         "reason": "1 - K vanishes on the whole chart"}
    # both radii vanish too: every check that did not run has no tolerance
    skipped = [it for it in items if it["skipped"]]
    assert [it["tag"] for it in skipped] == [
        "laplace_log_plus", "laplace_log_minus",
        "zero_balance_plus", "zero_balance_minus", "ricci_3sphere_residual"]
    assert all(it["value"] is None and it["tolerance"] is None and it["passed"]
               for it in skipped)


def test_verify_perturbed_surface_fails(cli, tmp_path):
    code, out = cli("verify", "--catalog", "clifford", "--n", 64,
                    "--perturb", 1e-3, "--seed", 7, "--out", tmp_path)
    assert code == 1
    assert "FAILED" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is False
    assert "minimality_max" in report["failures"]
    assert "flatness_theta0" in report["failures"]
    assert "frame_source_deviation" in report["failures"]
    items = {it["tag"]: it for it in report["items"]}
    assert items["minimality_max"]["value"] > 1e-4
    # the perturbed chart is no longer isothermal, so the quadratic
    # differential has no single coefficient to test
    assert items["hopf_holomorphy"]["skipped"] is True


def _count_calls(monkeypatch, names, modules) -> dict:
    """Count the calls of the named functions, rebound in every module of
    ``modules`` that looks them up; the counts start at zero."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in modules:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_verify_computes_each_quantity_once(cli, tmp_path, monkeypatch):
    # what vanishes is decided once per command, by one superminimality
    # test; each log field verify's identities read (a+, a-, 1 - K, less
    # what vanishes) is differentiated once, and the source check reuses
    # the Omega_0 of the flatness check: the connection's own buffer, so no
    # Omega is assembled at all
    names = ("superminimality_test", "laplace_beltrami", "assemble_maurer_cartan")
    calls = _count_calls(monkeypatch, names, (cli_module, adapted_module, grid_module,
                                               topology_module, family_module))
    for command, source, want in (("verify", ("clifford", 64), (1, 3, 0)),
                                  ("verify", ("veronese", 128), (1, 2, 0)),
                                  ("analyze", ("clifford", 64), (1, 0, 0))):
        calls.update(dict.fromkeys(names, 0))
        code, _ = cli(command, "--catalog", source[0], "--n", source[1],
                      "--out", tmp_path / command / source[0])
        assert code == 0
        assert calls == dict(zip(names, want)), (command, source)


@pytest.mark.parametrize("name, n, jets, want", [
    ("clifford", 64, "analytic", 20),
    ("veronese", 128, "analytic", 16),
    ("geodesic-sphere", 64, "analytic", 8),
    ("clifford", 64, "fd", 25),
])
def test_verify_derivative_count(cli, tmp_path, monkeypatch, name, n, jets, want):
    # four grid derivatives per differentiated log field (a+ and a- unless
    # they vanish, 1 - K unless it does) plus the eight of the Hopf
    # differential, the connection and its flatness; fd jets add five
    calls = _count_calls(monkeypatch, ("diff",), (grid_module, surface_module, adapted_module,
                                                  topology_module, family_module))
    code, out = cli("verify", "--catalog", name, "--n", n, "--jets", jets, "--out", tmp_path)
    assert code == 0, out
    assert calls["diff"] == want


VERIFY_TAGS = ["unit_norm_drift", "minimality_max", "ellipse_radius_product",
               "hopf_holomorphy", "laplace_log_plus", "laplace_log_minus",
               "flatness_theta0", "frame_source_deviation",
               "euler_chi_surface", "euler_chi_normal", "zero_balance_plus",
               "zero_balance_minus", "ricci_3sphere_residual"]


def test_verify_items_keep_their_order(cli, tmp_path):
    # the global invariants are computed before the connection, but their
    # items still follow its checks, on a closed chart and on an open one
    # whose topology items are skipped
    code, _ = cli("deform", "--catalog", "clifford", "--n", 64, "--theta", 0.7,
                  "--out", tmp_path / "d")
    assert code == 0
    for sub, source in (("closed", ("--catalog", "clifford", "--n", 64)),
                        ("open", ("--manifest", tmp_path / "d" / "deformed" / "manifest.json"))):
        code, out = cli("verify", *source, "--out", tmp_path / sub)
        assert code == 0
        items = json.loads((tmp_path / sub / "report.json").read_text())["items"]
        assert [it["tag"] for it in items] == VERIFY_TAGS
        printed = [line.split(" ")[1].rstrip(":") for line in out.splitlines()[:-1]]
        assert printed == VERIFY_TAGS
        skipped = [it["tag"] for it in items if it["skipped"]]
        assert (sub == "open") == ("euler_chi_surface" in skipped)


GLOBAL_TAGS = VERIFY_TAGS[8:]


def test_verify_open_chart_keeps_the_laplace_identities(cli, tmp_path):
    # a deformed member is sampled on an open chart: the Laplace identities
    # of the radii are still evaluated, and are the one-radius reference's
    # numbers; the global items are skipped with the chart's refusal
    code, _ = cli("deform", "--catalog", "clifford", "--n", 64, "--theta", 0.7,
                  "--out", tmp_path / "d")
    assert code == 0
    manifest = tmp_path / "d" / "deformed" / "manifest.json"
    code, _ = cli("verify", "--manifest", manifest, "--out", tmp_path / "v")
    assert code == 0
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    items = {it["tag"]: it for it in report["items"]}
    _, _, _, metric, _, rep = shape_report(read_manifest(manifest)[0])
    sup = superminimality_test(rep)
    for branch, tag in (("+", "laplace_log_plus"), ("-", "laplace_log_minus")):
        assert items[tag]["skipped"] is False and items[tag]["passed"] is True
        assert items[tag]["value"] == laplace_identity_residual(rep, metric, branch, sup)
        assert 1e-4 < items[tag]["value"] < 3e-4  # 2.105e-4
    for tag in GLOBAL_TAGS:
        assert items[tag]["skipped"] is True and items[tag]["value"] is None
        assert items[tag]["reason"].startswith(
            "global invariants unavailable: Euler-number quadrature needs a closed chart")
    # the verdict is reported on an open chart too, where the global part
    # cannot run: the member of the Clifford torus is generic
    assert report["superminimality"] == sup.verdict == "generic"


def test_verify_refused_zero_count_skips_only_the_global_items(cli, tmp_path, monkeypatch):
    # a zero list the count refuses stops the global part on a closed chart,
    # but not the Laplace identities, which need no zero count
    monkeypatch.setattr(topology_module, "find_zero_candidates",
                        lambda patch, values: [(10, 10), (11, 11)])
    code, out = cli("verify", "--catalog", "clifford", "--n", 64, "--out", tmp_path)
    assert code == 0, out
    items = {it["tag"]: it for it in json.loads((tmp_path / "report.json").read_text())["items"]}
    for tag in ("laplace_log_plus", "laplace_log_minus"):
        assert items[tag]["skipped"] is False and items[tag]["value"] < 1e-8
    for tag in GLOBAL_TAGS:
        assert items[tag]["skipped"] is True
        assert items[tag]["reason"] == ("global invariants unavailable: overlapping "
                                        "excision rectangles around (10, 10) and (11, 11)")


@pytest.mark.parametrize("argv, bound", [
    (("verify", "--catalog", "veronese"), 3.0),
    (("verify", "--catalog", "clifford"), 2.95),
    (("deform", "--catalog", "clifford", "--theta", 0.3), 2.95),
    (("monodromy", "--catalog", "veronese"), 2.95),
    (("analyze", "--catalog", "veronese"), 2.95),
    (("analyze", "--catalog", "clifford"), 2.95),
], ids=["verify-veronese", "verify-clifford", "deform-clifford", "monodromy-veronese",
        "analyze-veronese", "analyze-clifford"])
def test_commands_hold_each_frame_array_once(cli, tmp_path, argv, bound):
    # tracemalloc peak of a whole command at n = 128, in blocks of one
    # (n, n, 5, 5) float64 array.  Measured 2.84, 2.78, 2.79, 2.78, 2.79
    # and 2.78; with the shape stage's whole-grid temporaries and the
    # second jets held past it 3.27, 3.25, 3.13, 3.13, 3.13 and 3.29, a
    # connection that kept its own copy of the five frame fields 3.63,
    # 3.30, 3.55 and 3.47 (the first four), building the connection while
    # the second jets, the metric and the other shape fields were alive
    # 5.87, 5.50, 5.46 and 5.45, and holding the input fields next to the
    # stored frames, a second sweep or a copy of the frame planes 8.60,
    # 8.42, 9.17 and 7.40.  With deform's one streamed sweep the six read
    # 2.84, 2.78, 2.78, 2.79, 2.78 and 2.79 on numpy 2.4: deform's peak is
    # shape_report's, as it was with the whole "uv" frame array and the
    # "vu" sweep, so its bound stays at the neighbours' margin;
    # test_deform_march_holds_no_frame_array gates what follows.
    block = 128 * 128 * 25 * 8
    tracemalloc.start()
    try:
        code, _ = cli(*argv, "--n", 128, "--out", tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < bound * block, f"peaked at {peak / block:.2f} blocks"


def test_deform_march_holds_no_frame_array(cli, tmp_path, monkeypatch):
    # tracemalloc peak of deform at n = 128 from the start of integrate_frame
    # to the end of the command, in blocks as above: measured 1.54 to 1.60,
    # in deformed_immersion.  Holding the whole "uv" frame array while the
    # "vu" sweep was compared with it, and the connection, took 2.75 to 2.81.
    integrate_frame = cli_module.integrate_frame

    def reset_before(*args):
        tracemalloc.reset_peak()
        return integrate_frame(*args)

    monkeypatch.setattr(cli_module, "integrate_frame", reset_before)
    block = 128 * 128 * 25 * 8
    tracemalloc.start()
    try:
        code, _ = cli("deform", "--catalog", "clifford", "--theta", 0.3, "--n", 128,
                      "--out", tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1.8 * block, f"peaked at {peak / block:.2f} blocks"


@pytest.mark.parametrize("argv, after", [
    (("analyze",), "shape_invariants"),
    (("deform", "--theta", 0.3), "connection_data"),
    (("monodromy",), "shape_invariants"),
    (("verify",), "shape_invariants"),
], ids=["analyze", "deform", "monodromy", "verify"])
def test_commands_let_the_second_jets_go(cli, tmp_path, monkeypatch, argv, after):
    # the first stage after the shape stage finds the catalog's second jets
    # freed.  tangent_frame is handed the field that holds them.
    refs, freed = [], []
    first = cli_module.tangent_frame
    stage = getattr(cli_module, after)

    def watched_first(imm, *args):
        refs.append(weakref.ref(imm.jet2))
        return first(imm, *args)

    def watched_stage(*args, **kwargs):
        freed.append(refs[0]() is None)
        return stage(*args, **kwargs)

    monkeypatch.setattr(cli_module, "tangent_frame", watched_first)
    monkeypatch.setattr(cli_module, after, watched_stage)
    code, _ = cli(argv[0], "--catalog", "clifford", "--n", 64, *argv[1:], "--out", tmp_path)
    assert code == 0
    assert freed == [True]


def _watch_analyze_shape_steps(monkeypatch, refs):
    """Hook analyze's three shape steps.  refs gets weak references to the
    first jets, the position, e1, e2 and e3 as the steps see or make them;
    the returned list gets, on entry to normal_frame and to
    second_fundamental_entries, which of those are freed."""
    freed = []
    tangent_frame = cli_module.tangent_frame
    normal_frame = cli_module.normal_frame
    second_fundamental_entries = cli_module.second_fundamental_entries

    def watched_tangent_frame(imm):
        out = tangent_frame(imm)
        refs.update(jet1=weakref.ref(imm.jet1), position=weakref.ref(imm.position),
                    e1=weakref.ref(out[0]), e2=weakref.ref(out[1]))
        return out

    def watched_normal_frame(*args):
        freed.append(("normal_frame", {k: r() is None for k, r in refs.items()}))
        nf = normal_frame(*args)
        refs["e3"] = weakref.ref(nf.e3)
        return nf

    def watched_second_fundamental_entries(*args):
        freed.append(("second_fundamental_entries", {k: r() is None for k, r in refs.items()}))
        return second_fundamental_entries(*args)

    monkeypatch.setattr(cli_module, "tangent_frame", watched_tangent_frame)
    monkeypatch.setattr(cli_module, "normal_frame", watched_normal_frame)
    monkeypatch.setattr(cli_module, "second_fundamental_entries",
                        watched_second_fundamental_entries)
    return freed


def test_analyze_drops_each_field_after_its_last_reader(cli, tmp_path, monkeypatch):
    # analyze reads the first jets only in the tangent frame, so they go
    # with it; the position, e1 and e2 go after the normal frame, which is
    # their last reader
    refs = {}
    freed = _watch_analyze_shape_steps(monkeypatch, refs)
    code, _ = cli("analyze", "--catalog", "veronese", "--n", 64, "--out", tmp_path)
    assert code == 0
    assert freed == [
        ("normal_frame", {"jet1": True, "position": False, "e1": False, "e2": False}),
        ("second_fundamental_entries",
         {"jet1": True, "position": True, "e1": True, "e2": True, "e3": False}),
    ]


def test_analyze_lets_the_position_go(cli, tmp_path, monkeypatch):
    # analyze reads only the metric and the shape report past the shape
    # steps: the position, its first jets and the frames are freed before
    # the field files are written
    refs, freed = {}, []
    _watch_analyze_shape_steps(monkeypatch, refs)
    write = cli_module._write_field_csvs

    def watched_write(*args, **kwargs):
        freed.append([refs[k]() is None for k in ("position", "jet1", "e1", "e2", "e3")])
        return write(*args, **kwargs)

    monkeypatch.setattr(cli_module, "_write_field_csvs", watched_write)
    code, _ = cli("analyze", "--catalog", "clifford", "--n", 64, "--out", tmp_path)
    assert code == 0
    assert freed == [[True] * 5]


def _watch_stages(monkeypatch, command):
    """Wrap each stage of the command in cli.STAGES.  Returns a list that
    gets, on entry to each stage, its name and the fields that should be
    freed by then but are not; and the weak references to the fields.

    A field should be freed once the last stage that reads it
    (cli.last_readers) has run, or once it is written if no later stage
    reads it, unless a field that is still read holds it (the shape report
    holds H3, H4 and minimality).  Every array and dataclass field is
    watched but the patch, which every field shares.
    """
    last = cli_module.last_readers(command)
    refs, ends, ids, holds, seen = {}, {}, {}, {}, []

    def unfreed(i):
        due = {k: max([ends[k]] + [ends[j] for j in holds if ids[k] in holds[j]]) for k in refs}
        return sorted(k for k, ref in refs.items() if due[k] < i and ref() is not None)

    def watch(i, name):
        spec, run = cli_module.STAGES[name]
        writes = cli_module.stage_fields(name)[1]

        def stage(*values):
            seen.append((name, unfreed(i)))
            out = run(*values)
            for k, v in zip(writes, out if len(writes) > 1 else (out,)):
                if k == "patch" or v is None or isinstance(v, (float, dict, list)):
                    continue
                refs[k], ends[k], ids[k] = weakref.ref(v), last.get(k, i), id(v)
                holds[k] = {id(a) for a in getattr(v, "__dict__", {}).values()}
            return out

        return spec, stage

    for i, name in enumerate(cli_module.COMMANDS[command]):
        monkeypatch.setitem(cli_module.STAGES, name, watch(i, name))
    return seen, refs


@pytest.mark.parametrize("argv", [
    ("analyze", "--catalog", "veronese", "--n", 64),
    ("deform", "--catalog", "clifford", "--n", 64, "--theta", 0.3),
    ("monodromy", "--catalog", "veronese", "--n", 64),
    ("verify", "--catalog", "veronese", "--n", 128),
    ("verify", "--catalog", "clifford", "--n", 64, "--jets", "fd"),
], ids=["analyze", "deform", "monodromy", "verify", "verify-fd"])
def test_each_field_is_freed_after_its_last_reader(cli, tmp_path, monkeypatch, argv):
    # one rule for every command, from the runner's one table of readers:
    # on entry to each stage, every field whose last reader has run is
    # freed.  The first jets go before the normal frame, and the second
    # jets before the shape invariants are made.
    command = argv[0]
    stages = cli_module.COMMANDS[command]
    seen, refs = _watch_stages(monkeypatch, command)
    code, _ = cli(*argv, "--out", tmp_path)
    assert code == 0
    assert seen == [(name, []) for name in stages]
    assert {"imm", "position", "jet1", "jet2", "e1", "e2", "nf", "metric", "H3"} <= set(refs)
    last = cli_module.last_readers(command)
    assert last["jet2"] == stages.index("shape")
    if command != "analyze":
        assert {"w", "conn"} <= set(refs)
        assert last["jet1"] < stages.index("normal")


@pytest.mark.parametrize("source", ["catalog-fd", "manifest"])
def test_each_position_is_norm_checked_once(cli, tmp_path, monkeypatch, source):
    # the rows of each (rows, nv, 5) norm taken of a position: the field's
    # unit-norm check covers each position once, one block of
    # grid.BLOCK_ROWS rows at a time, and read_manifest's own drift check
    # covers a manifest's once more, whole.  tangent_frame's block norms
    # are of new arrays, not of views of a position.  A whole-grid check
    # read [64] and [65, 65] here, and its temporaries, 7 planes, set the
    # sphere loads' high-water mark.
    code, _ = cli("deform", "--catalog", "clifford", "--n", 64, "--theta", 0.7,
                  "--out", tmp_path / "d")
    assert code == 0
    argv, grid, want = {
        "catalog-fd": (("--catalog", "clifford", "--n", 64, "--jets", "fd"), (64, 64),
                       [32, 32]),
        "manifest": (("--manifest", tmp_path / "d" / "deformed" / "manifest.json"),
                     (65, 65), [65, 32, 32, 1]),
    }[source]
    rows = []
    norm = np.linalg.norm

    def counted(x, *args, **kwargs):
        of = x if getattr(x, "base", None) is None else x.base
        if np.shape(of) == grid + (5,) and np.shape(x)[1:] == grid[1:] + (5,):
            rows.append(len(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    code, _ = cli("verify", *argv, "--out", tmp_path / "v")
    assert code == 0
    assert rows == want


def test_verify_reports_are_byte_identical(cli, tmp_path):
    for sub in ("one", "two"):
        code, _ = cli("verify", "--catalog", "clifford", "--n", 64,
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


def test_no_command_imports_numpy_ma(tmp_path):
    # numpy.ma takes about 14 ms to import, and only np.median pulled it in
    script = "\n".join([
        "import sys",
        "from s4min.cli import main",
        f"out = {str(tmp_path)!r}",
        "for argv in (['analyze', '--n', '32'], ['deform', '--n', '64', '--theta', '0.3'],",
        "             ['monodromy', '--n', '32', '--scan', '64'], ['verify', '--n', '64']):",
        "    assert main([*argv, '--catalog', 'clifford', '--out', out + '/' + argv[0]]) == 0",
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(s4min.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
