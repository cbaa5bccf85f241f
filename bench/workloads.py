"""The benchmark's workloads: the commands of one pass and their checks.

A workload is a fixed sequence of ``s4min`` CLI commands, built from the
workload seed alone.  Every command has a check that reads the command's
exit code, standard output and output directory and returns the list of
problems it found (empty when the outputs are right).  The expected values
are written out here, independently of the program: they are the
closed-form invariants of the catalog surfaces.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Deformation angles at which the Clifford torus closes up, and the
# identity tolerance of a refined closing angle.
CLIFFORD_ROOTS = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
ROOT_TOL = 1e-6
# Pointwise invariants of the catalog surfaces (their ``truth`` records),
# and a tolerance that holds for analytic jets at n=256 and n=512 and for
# the finite-difference jets of a deformed 257x257 manifest.
CLIFFORD_TRUTH = {"K": 0.0, "K_N": 0.0, "kappa": 1.0, "mu": 0.0}
VERONESE_TRUTH = {"K": 1 / 3, "abs_K_N": 2 / 3,
                  "kappa": 1 / math.sqrt(3), "mu": 1 / math.sqrt(3)}
INVARIANT_TOL = 1e-5
CONGRUENCE_MAX = 1e-4
PERTURBATION = "1e-3"

Check = Callable[[Path, int, str], list]


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass.

    ``args`` may name ``{dir}``, the pass directory; the command writes to
    ``{dir}/<name>``.  ``reports`` are the files that must be byte-identical
    in every pass.  ``known_defect`` is the start of the one problem the
    program is known to produce for this command; a failure made only of
    such problems is reported as a known defect, not as a new failure.
    """

    name: str
    kind: str
    args: tuple
    check: Check
    reports: tuple = ("report.json",)
    known_defect: str = ""

    def argv(self, pass_dir: Path) -> list:
        args = [a.format(dir=pass_dir) for a in self.args]
        return [self.kind, *args, "--out", str(pass_dir / self.name)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Callable[[int], list]


# ---------------------------------------------------------------------------
# checks


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return {"_unreadable": f"{path.name}: {exc}"}


def _exit(code: int, want: int) -> list:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def _invariant_problems(report: dict, truth: dict) -> list:
    spans = report.get("invariants", {})
    problems = []
    for key, want in truth.items():
        field, absolute = (key[4:], True) if key.startswith("abs_") else (key, False)
        span = spans.get(field)
        if span is None:
            problems.append(f"invariant {field} missing")
            continue
        lo, hi = span["min"], span["max"]
        if absolute:
            lo, hi = min(abs(lo), abs(hi)), max(abs(lo), abs(hi))
        if abs(lo - want) > INVARIANT_TOL or abs(hi - want) > INVARIANT_TOL:
            problems.append(f"invariant {key} spans [{lo:.9g}, {hi:.9g}], "
                            f"expected {want:.9g} within {INVARIANT_TOL:g}")
    return problems


def check_clifford_closing(out: Path, code: int, stdout: str) -> list:
    """FINITE verdict, roots {0, pi/2, pi, 3pi/2}, d(pi/4) well away from 0."""
    problems = _exit(code, 0)
    doc = _read_json(out / "roots.json")
    if doc.get("verdict") != "FINITE":
        problems.append(f"verdict {doc.get('verdict')}, expected FINITE")
    roots = doc.get("roots", [])
    if len(roots) != len(CLIFFORD_ROOTS) or any(
            abs(r - w) > ROOT_TOL for r, w in zip(roots, CLIFFORD_ROOTS)):
        found = ", ".join(f"{r:.9f}" for r in roots) or "none"
        problems.append(f"roots: {found}; expected 0, pi/2, pi, 3pi/2 "
                        f"within {ROOT_TOL:g}")
    try:
        rows = [line.split(",") for line in
                (out / "profile.csv").read_text().splitlines()[1:]]
        theta, d = min(((float(t), float(v)) for t, v, _ in rows),
                       key=lambda row: abs(row[0] - math.pi / 4))
    except (OSError, ValueError) as exc:
        return problems + [f"profile.csv unreadable: {exc}"]
    if abs(theta - math.pi / 4) > 1e-9 or not d > 0.1:
        problems.append(f"d({theta:.6f}) = {d:.3g}, expected d(pi/4) > 0.1")
    return problems


def check_verify_passes(superminimality: str) -> Check:
    def check(out: Path, code: int, stdout: str) -> list:
        problems = _exit(code, 0)
        doc = _read_json(out / "report.json")
        if doc.get("passed") is not True:
            problems.append(f"verify failed: {doc.get('failures')}")
        verdict = doc.get("superminimality")
        if verdict != superminimality:
            problems.append(f"superminimality {verdict}, expected {superminimality}")
        return problems
    return check


def check_circle(out: Path, code: int, stdout: str) -> list:
    problems = _exit(code, 0)
    doc = _read_json(out / "roots.json")
    if doc.get("verdict") != "CIRCLE":
        problems.append(f"verdict {doc.get('verdict')}, expected CIRCLE")
    cmax = doc.get("congruence_max")
    if cmax is None or not cmax < CONGRUENCE_MAX:
        problems.append(f"congruence_max {cmax}, expected < {CONGRUENCE_MAX:g}")
    return problems


def check_analyze(truth: dict, grid: dict) -> Check:
    def check(out: Path, code: int, stdout: str) -> list:
        problems = _exit(code, 0)
        doc = _read_json(out / "report.json")
        got = {k: doc.get("grid", {}).get(k) for k in grid}
        if got != grid:
            problems.append(f"grid {got}, expected {grid}")
        return problems + _invariant_problems(doc, truth)
    return check


def check_deform(theta: float) -> Check:
    def check(out: Path, code: int, stdout: str) -> list:
        problems = _exit(code, 0)
        doc = _read_json(out / "report.json")
        if doc.get("theta") != theta:
            problems.append(f"theta {doc.get('theta')}, expected {theta!r}")
        if not (doc.get("congruence") or {}).get("congruent") or "-> congruent" not in stdout:
            problems.append(f"not congruent at a closing angle: {doc.get('congruence')}")
        if not (out / "deformed" / "manifest.json").is_file():
            problems.append("deformed/manifest.json not written")
        return problems
    return check


def check_perturbed_verify(out: Path, code: int, stdout: str) -> list:
    problems = _exit(code, 1)
    failures = _read_json(out / "report.json").get("failures") or []
    for tag in ("minimality_max", "flatness_theta0"):
        if tag not in failures:
            problems.append(f"{tag} not among the failures {failures}")
    return problems


# ---------------------------------------------------------------------------
# workloads


def _torus_closing(seed: int) -> list:
    return [
        Command("closing", "monodromy",
                ("--catalog", "clifford", "--n", "256", "--scan", "720"),
                check_clifford_closing, reports=("roots.json", "profile.csv")),
        Command("verify", "verify", ("--catalog", "clifford", "--n", "256"),
                check_verify_passes("generic")),
        # At n=64 d(0) is about 7e-6, above the fixed closing tolerance of
        # 1e-6, so the scan misses every closing angle, theta = 0 included.
        Command("probe", "monodromy",
                ("--catalog", "clifford", "--n", "64", "--scan", "256"),
                check_clifford_closing, reports=("roots.json", "profile.csv"),
                known_defect="roots: none;"),
    ]


def _sphere_circle(seed: int) -> list:
    return [
        Command("circle", "monodromy",
                ("--catalog", "veronese", "--n", "256", "--scan", "256"),
                check_circle, reports=("roots.json", "profile.csv")),
        Command("verify", "verify", ("--catalog", "veronese", "--n", "512"),
                check_verify_passes("superminimal")),
    ]


def _invariant_fields(seed: int) -> list:
    return [
        Command("veronese", "analyze", ("--catalog", "veronese", "--n", "512"),
                check_analyze(VERONESE_TRUTH, {"nu": 512, "nv": 512})),
        Command("clifford", "analyze", ("--catalog", "clifford", "--n", "256"),
                check_analyze(CLIFFORD_TRUTH, {"nu": 256, "nv": 256})),
    ]


def deform_angle(seed: int) -> float:
    """The nonzero closing angle of the Clifford torus that ``seed`` picks."""
    return CLIFFORD_ROOTS[1 + seed % 3]


def _manifest_roundtrip(seed: int) -> list:
    theta = deform_angle(seed)
    manifest = "{dir}/deform/deformed/manifest.json"
    return [
        Command("deform", "deform",
                ("--catalog", "clifford", "--n", "256", "--theta", repr(theta)),
                check_deform(theta)),
        Command("analyze", "analyze", ("--manifest", manifest),
                check_analyze(CLIFFORD_TRUTH, {"nu": 257, "nv": 257,
                                               "periodic_u": False,
                                               "periodic_v": False})),
        Command("perturbed", "verify",
                ("--manifest", manifest, "--perturb", PERTURBATION,
                 "--seed", str(seed)),
                check_perturbed_verify),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("torus-closing",
             "Clifford torus, FINITE verdict: golden-section root refinement "
             "dominates; includes the n=64 probe that misses its roots",
             _torus_closing),
    Workload("sphere-circle",
             "Veronese sphere, CIRCLE verdict: congruence sheet integrations "
             "and the dense n=512 connection arrays of verify",
             _sphere_circle),
    Workload("invariant-fields",
             "analyze only: frames, jets and CSV field output; never enters "
             "the family or monodromy layers",
             _invariant_fields),
    Workload("manifest-roundtrip",
             "deform writes a manifest that analyze and a perturbed verify "
             "read back; the seed picks the angle and the perturbation",
             _manifest_roundtrip),
)}
