"""Acceptance suite: every guaranteed behavior at working resolution.

One test per guarantee, run at n = 256 against closed-form targets,
hand-integrated oracles, and falsification variants.  These are the
checks a release must pass; each prints a single pass/fail line under
``pytest -v``.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from s4min.adapted import hopf_coefficient, superminimality_test
from s4min.catalog import load_catalog
from s4min.cli import main as cli_main
from s4min.family import (
    ConnectionData,
    assemble_maurer_cartan,
    deformation_invariant_deviation,
    deformed_immersion,
    flatness_residual,
    integrate_frame,
)
from s4min.grid import GridPatch, MetricField
from s4min.monodromy import generator_monodromy, scan_profile
from s4min.surface import ImmersionField, shape_report
from s4min.topology import (
    laplace_identity_residual,
    topology_report,
    zero_count_excised,
)

from oracles import connection, curvature_deviation, synthetic_zero_field, winding_number

N = 256


@pytest.fixture(scope="module")
def clifford():
    return shape_report(load_catalog("clifford", N))


@pytest.fixture(scope="module")
def veronese():
    return shape_report(load_catalog("veronese", N))


@pytest.fixture(scope="module")
def clifford_conn(clifford):
    return connection(clifford)


@pytest.fixture(scope="module")
def veronese_conn(veronese):
    return connection(veronese)


@pytest.fixture(scope="module")
def verify_runs(tmp_path_factory):
    """Two identical full-verification runs of the flat torus."""
    outs = []
    for sub in ("one", "two"):
        out = tmp_path_factory.mktemp("verify") / sub
        assert cli_main(["verify", "--catalog", "clifford", "--n", str(N),
                         "--out", str(out)]) == 0
        outs.append(out)
    return outs


def _flat_chart(n):
    patch = GridPatch(n, n, (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi),
                      periodic_u=True, periodic_v=True)
    one = np.ones(patch.shape)
    return patch, MetricField(patch, one, np.zeros(patch.shape), one)


# 1. flat-torus invariants are exact constants, with analytic and FD jets


def test_flat_torus_invariants_pointwise(clifford):
    imm, e1, e2, metric, e3, e4, rep = clifford

    def worst(r):
        return max(
            np.abs(r.K).max(),
            np.abs(r.K_N).max(),
            np.abs(r.norm_B2 - 2.0).max(),
            np.abs(r.kappa - 1.0).max(),
            np.abs(r.mu).max(),
            np.abs(r.a_plus - 1.0).max(),
            np.abs(r.a_minus - 1.0).max(),
        )

    assert worst(rep) < 1e-9
    fd = ImmersionField(imm.patch, imm.position).with_jets()
    rep_fd = shape_report(fd)[-1]
    assert worst(rep_fd) < 1e-5


# 2. superminimal sphere: constant curvatures, circle ellipse, zero Hopf field


def test_superminimal_sphere_invariants(veronese):
    imm, e1, e2, metric, e3, e4, rep = veronese
    assert np.abs(rep.K - 1.0 / 3.0).max() < 1e-9
    assert np.abs(np.abs(rep.K_N) - 2.0 / 3.0).max() < 1e-9
    assert superminimality_test(rep).verdict == "superminimal"
    assert np.abs(hopf_coefficient(rep)).max() < 1e-8
    assert rep.a_minus.max() < 1e-8


# 3. Laplace identity for the ellipse radii, plus sign falsification


def test_radius_laplace_identity_and_falsification(clifford):
    for branch in ("+", "-"):
        residual = laplace_identity_residual(clifford[-1], clifford[3], branch,
                                             superminimality_test(clifford[-1]))
        assert residual is not None
        assert residual < 1e-8
    # The sphere chart keeps its first and last rows half a step from the
    # poles, where the inverse metric scales like 4/h^2; the discrete
    # Laplacian of the (constant) log radius amplifies machine noise by
    # that factor, so the measurement floor on those rows crosses 1e-8
    # near n = 256.  Measure the identity at the resolution where the
    # floor is well below the bound.
    imm, e1, e2, metric_v, e3, e4, rep_v = shape_report(
        load_catalog("veronese", 128))
    sup_v = superminimality_test(rep_v)
    residual = laplace_identity_residual(rep_v, metric_v, "+", sup_v)
    assert residual is not None
    assert residual < 1e-8
    # the minus radius vanishes identically: nothing to test on that branch
    assert sup_v.vanishing == ("-",)
    assert laplace_identity_residual(rep_v, metric_v, "-", sup_v) is None
    # flipping the sign of the normal curvature must blow the identity up
    flipped = dataclasses.replace(rep_v, K_N=-rep_v.K_N)
    assert laplace_identity_residual(flipped, metric_v, "+", sup_v) > 1.0


# 4. deformation family: flat connection, faithful reconstruction, isometry


def test_family_flatness_reconstruction_isometry(clifford, clifford_conn):
    imm = clifford[0]
    patch = imm.patch
    tol = 5.0 * max(patch.hu, patch.hv) ** 2
    for theta in (0.0, 0.3, math.pi / 4, 1.2, math.pi):
        mc = assemble_maurer_cartan(clifford_conn, theta)
        assert float(flatness_residual(mc).max()) < tol
        deformed = deformed_immersion(patch, integrate_frame(mc))
        assert deformation_invariant_deviation(patch, imm.position, deformed) < 1e-4
        dev = curvature_deviation(imm, deformed)
        assert dev["K"] < 1e-4
        assert dev["K_N"] < 1e-4
        if theta == 0.0:
            ext = patch.unwrapped()
            replay = imm.position[np.ix_(np.arange(ext.nu) % patch.nu,
                                         np.arange(ext.nv) % patch.nv)]
            gap = deformed.position - replay
            assert math.sqrt(np.mean(gap**2)) < 1e-6


# 5. closing-set dichotomy: four quarter-turn angles vs the full circle


def test_closing_set_dichotomy(clifford, clifford_conn, veronese_conn):
    profile = scan_profile(clifford_conn, n_theta=720)
    assert profile.tol_close == 1e-6  # above 10 d(0) and 10 flatness
    assert profile.verdict == "FINITE"
    expected = [0.0, math.pi / 2, math.pi, 3.0 * math.pi / 2]
    assert len(profile.roots) == 4
    assert max(abs(r - e) for r, e in zip(profile.roots, expected)) < 1e-6
    quarter = 90  # theta = pi/4 in a 720-sample scan
    assert math.isclose(profile.thetas[quarter], math.pi / 4)
    assert profile.d[quarter] > 0.1
    assert profile.commutator_defect.max() < 1e-7
    # the profile's generators run through the grid origin; those through
    # node (37, 61), rolled to the origin, give the same distance to the
    # identity
    imm, e1, e2, metric, e3, e4, rep = clifford
    roll = lambda a: np.roll(a, (-37, -61), axis=(0, 1))  # noqa: E731
    origin = np.stack([row[37, 61] for row in (imm.position, e1, e2, e3, e4)])
    moved = ConnectionData(clifford_conn.patch, origin, roll(clifford_conn.forms))
    Mu = generator_monodromy(moved, 0, profile.thetas)
    Mv = generator_monodromy(moved, 1, profile.thetas)
    shifted = np.maximum(np.linalg.norm(Mu - np.eye(5), axis=(-2, -1)),
                         np.linalg.norm(Mv - np.eye(5), axis=(-2, -1)))
    assert np.abs(profile.d - shifted).max() < 1e-8

    vp = scan_profile(veronese_conn, n_theta=720)
    assert vp.verdict == "CIRCLE"
    assert vp.congruence_residuals.max() < 1e-4


# 6. global invariants: Euler numbers, curvature balance, zero counts


def test_global_invariants_and_zero_counts(clifford, veronese):
    topo = topology_report(clifford[-1], clifford[3], superminimality_test(clifford[-1]))
    assert topo.chi_M.rounded == 0 and topo.chi_M.gap < 1e-6
    assert topo.chi_Nf.rounded == 0 and topo.chi_Nf.gap < 1e-6
    assert topo.balance.reason == ""
    assert topo.balance.residual_plus < 0.05
    assert topo.balance.residual_minus < 0.05

    topo_v = topology_report(veronese[-1], veronese[3], superminimality_test(veronese[-1]))
    assert topo_v.chi_M.rounded == 2
    assert abs(topo_v.chi_M.value - 2.0) < 0.02
    # circle ellipse: the balance does not apply
    assert topo_v.balance.residual_plus is None

    # synthetic radius fields with prescribed zeros of total order 1, 2, 3
    patch, flat = _flat_chart(N)
    u, v = patch.u_coords(), patch.v_coords()
    cases = [
        [(60, 77, 1)],
        [(128, 128, 2)],
        [(40, 50, 1), (170, 135, 2)],
    ]
    for spec_zeros in cases:
        zeros = [(u[i], v[j], m) for i, j, m in spec_zeros]
        total = sum(m for _, _, m in spec_zeros)
        a, witness = synthetic_zero_field(patch, zeros)
        count = zero_count_excised(patch, a, flat, [(i, j) for i, j, _ in spec_zeros])
        assert count.rounded == total
        windings = [winding_number(patch, witness, (u[i], v[j]),
                                   4.0 * max(patch.hu, patch.hv))
                    for i, j, _ in spec_zeros]
        assert [p.rounded for p in count.per_zero] == windings
        assert round(count.excised_integral) == total


# 7. a seeded normal perturbation must fail verification, loudly


def test_perturbation_fails_verification(verify_runs, tmp_path):
    out = tmp_path / "perturbed"
    code = cli_main(["verify", "--catalog", "clifford", "--n", str(N),
                     "--perturb", "1e-3", "--seed", "7", "--out", str(out)])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    items = {it["tag"]: it for it in report["items"]}
    assert "minimality_max" in report["failures"]
    assert "flatness_theta0" in report["failures"]
    assert items["minimality_max"]["value"] > 1e-4
    baseline = json.loads((verify_runs[0] / "report.json").read_text())
    base_flat = {it["tag"]: it for it in baseline["items"]}["flatness_theta0"]
    assert items["flatness_theta0"]["value"] > 10.0 * base_flat["value"]


# 8. identical configurations produce byte-identical reports


def test_identical_runs_are_byte_identical(verify_runs):
    one, two = verify_runs
    assert (one / "report.json").read_bytes() == (two / "report.json").read_bytes()
