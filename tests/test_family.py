"""Connection decomposition, frame marching and the isometric deformation family.

Oracles: on the Clifford torus the connection matrices are constant and
commute, so flatness and path dependence must vanish to roundoff and the
march reproduces the input to stencil accuracy.  Deformation invariance
(metric, K, |K_N| unchanged) and congruence at closing angles are checked
against the catalog surfaces; structural corruptions of the connection
must blow the flatness residual up by many orders of magnitude.
"""

import math
import tracemalloc

import numpy as np
import pytest

from s4min.catalog import clifford_torus, perturb_immersion, veronese_sphere
from s4min.family import (
    ConnectionData,
    FamilyError,
    IntegrabilityBroken,
    _UPPER,
    _bracket,
    _so5,
    assemble_maurer_cartan,
    congruence_test,
    connection_data,
    deformation_invariant_deviation,
    deformed_immersion,
    flatness_residual,
    frame_reconstruction_residual,
    integrate_frame,
    polar_reorthonormalize,
)
from s4min.grid import diff, quadrature_weights
from s4min.surface import rotate_normal_frame, second_fundamental_form, shape_report


@pytest.fixture(scope="module")
def clifford():
    return shape_report(clifford_torus(64).immersion)


@pytest.fixture(scope="module")
def clifford_conn(clifford):
    imm, e1, e2, metric, nf, rep = clifford
    return connection_data(imm, e1, e2, nf, rep)


@pytest.fixture(scope="module")
def clifford128_conn():
    imm, e1, e2, metric, nf, rep = shape_report(clifford_torus(128).immersion)
    return connection_data(imm, e1, e2, nf, rep)


@pytest.fixture(scope="module")
def veronese():
    return shape_report(veronese_sphere(128).immersion)


@pytest.fixture(scope="module")
def veronese_conn(veronese):
    imm, e1, e2, metric, nf, rep = veronese
    return connection_data(imm, e1, e2, nf, rep)


def area_weights(imm, metric):
    wu, wv = quadrature_weights(imm.patch)
    return ((wu[:, None] * wv[None, :]) * metric.dA).ravel()


# ---------------------------------------------------------------------------
# assembly of the one-parameter connection


@pytest.mark.parametrize("fix", ["clifford", "veronese"])
def test_connection_frames_use_the_normal_frame(fix, request):
    nf = request.getfixturevalue(fix)[4]
    conn = request.getfixturevalue(fix + "_conn")
    assert np.array_equal(conn.frames[..., 3, :], nf.e3)
    assert np.array_equal(conn.frames[..., 4, :], nf.e4)


def test_components_are_packed_forms(clifford_conn):
    nu, nv = clifford_conn.patch.shape
    for C in (clifford_conn.C0, clifford_conn.C1, clifford_conn.C2):
        assert C.shape == (nu, nv, 2, 4)


def test_components_antisymmetric(clifford_conn):
    for theta in (0.0, 0.3, 1.2):
        omega = _so5(assemble_maurer_cartan(clifford_conn, theta).forms)
        assert np.array_equal(omega, -np.swapaxes(omega, -1, -2))


def test_theta_zero_is_component_sum(clifford_conn):
    omega = _so5(assemble_maurer_cartan(clifford_conn, 0.0).forms)
    C0, C1 = clifford_conn.C0, clifford_conn.C1
    for k, (i, j) in enumerate([(0, 1), (0, 2), (1, 2), (3, 4)]):
        assert np.array_equal(omega[..., i, j], C0[..., k])
    for k, (i, j) in enumerate([(1, 3), (2, 3), (1, 4), (2, 4)]):
        assert np.array_equal(omega[..., i, j], C1[..., k])


def test_theta_pi_equals_theta_zero(veronese_conn):
    # the family is pi-periodic in theta: the rotation acts through 2*theta
    m0 = assemble_maurer_cartan(veronese_conn, 0.0)
    m1 = assemble_maurer_cartan(veronese_conn, math.pi)
    assert np.allclose(m0.forms, m1.forms, atol=1e-12)


def test_tangent_block_theta_independent(veronese_conn):
    # w1, w2, omega12 live in C0 only: the deformation is isometric
    m0 = _so5(assemble_maurer_cartan(veronese_conn, 0.0).forms)
    m1 = _so5(assemble_maurer_cartan(veronese_conn, 0.77).forms)
    assert np.array_equal(m0[..., :3, :3], m1[..., :3, :3])
    assert np.array_equal(m0[..., 0, :], m1[..., 0, :])


# ---------------------------------------------------------------------------
# flatness and reconstruction


def test_clifford_flatness_roundoff(clifford_conn):
    for theta in (0.0, 0.3, math.pi / 4, 1.2, math.pi):
        mc = assemble_maurer_cartan(clifford_conn, theta)
        assert flatness_residual(mc).max() < 1e-12


def test_bracket_matches_dense_commutator_exactly():
    # integer-valued entries make every product and sum exact, so the
    # slot-wise commutator must equal the dense one bit for bit
    rng = np.random.default_rng(11)
    a, b = rng.integers(-9, 10, size=(2, 6, 7, 8)).astype(float)
    A, B = _so5(a), _so5(b)
    dense = A @ B - B @ A
    rows, cols = np.array(_UPPER).T
    assert np.array_equal(np.stack(list(_bracket(a, b)), axis=-1), dense[..., rows, cols])


@pytest.mark.parametrize("fix", ["clifford_conn", "veronese_conn"])
def test_flatness_matches_dense_oracle(fix, request):
    # the stated oracle: the curvature of the assembled 5x5 blocks, with the
    # exterior derivative taken on dense whole-grid matrices; the slot-wise
    # sums run in another order than the matrix products, hence roundoff
    conn = request.getfixturevalue(fix)
    for theta in (0.0, 0.3, 1.2):
        mc = assemble_maurer_cartan(conn, theta)
        Wu, Wv = _so5(mc.forms[:, :, 0]), _so5(mc.forms[:, :, 1])
        dense = np.linalg.norm(diff(mc.patch, Wv, 0) - diff(mc.patch, Wu, 1)
                               - (Wu @ Wv - Wv @ Wu), axis=(-2, -1))
        np.testing.assert_allclose(flatness_residual(mc), dense, rtol=0, atol=1e-14)


def test_clifford_frame_reconstruction(clifford_conn):
    assert frame_reconstruction_residual(clifford_conn) < 2e-5


def test_veronese_flatness(veronese_conn):
    h = max(veronese_conn.patch.hu, veronese_conn.patch.hv)
    for theta in (0.0, 0.3, 1.2):
        mc = assemble_maurer_cartan(veronese_conn, theta)
        assert flatness_residual(mc).max() < 5.0 * h * h


def test_veronese_frame_reconstruction(veronese_conn):
    assert frame_reconstruction_residual(veronese_conn) < 5e-5


@pytest.mark.parametrize("fix", ["clifford128_conn", "veronese_conn"])
def test_family_checks_hold_no_whole_grid_blocks(fix, request):
    # flatness, reconstruction and frame transport work on packed forms
    # and (nu, nv) planes; whole-grid 5x5 products took 4.3 to 4.7 blocks
    conn = request.getfixturevalue(fix)
    nu, nv = conn.patch.shape
    block = nu * nv * 25 * 8  # bytes of one (nu, nv, 5, 5) float64 array
    mc = assemble_maurer_cartan(conn, 0.3)
    checks = {
        "flatness_residual": lambda: flatness_residual(mc),
        "frame_reconstruction_residual": lambda: frame_reconstruction_residual(conn),
        "integrate_frame": lambda: integrate_frame(mc, conn.frames[0, 0]),
    }
    for name, check in checks.items():
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * block, f"{name} peaked at {peak / block:.2f} blocks"


def test_veronese_reconstruction_fourth_order():
    res = []
    for n in (64, 128):
        imm, e1, e2, metric, nf, rep = shape_report(veronese_sphere(n).immersion)
        res.append(frame_reconstruction_residual(connection_data(imm, e1, e2, nf, rep)))
    assert res[0] / res[1] > 8.0


# ---------------------------------------------------------------------------
# marching


def test_clifford_path_independence(clifford_conn):
    mc = assemble_maurer_cartan(clifford_conn, 0.3)
    dp = integrate_frame(mc, clifford_conn.frames[0, 0])
    assert dp.path_dependence < 1e-12


def test_marched_frames_stay_orthonormal(clifford_conn):
    mc = assemble_maurer_cartan(clifford_conn, 0.77)
    dp = integrate_frame(mc, clifford_conn.frames[0, 0])
    gram = np.einsum("uvik,uvjk->uvij", dp.frame, dp.frame) - np.eye(5)
    assert np.abs(gram).max() < 1e-12


def test_clifford_theta_zero_roundtrip(clifford_conn, clifford):
    imm = clifford[0]
    mc = assemble_maurer_cartan(clifford_conn, 0.0)
    dp = integrate_frame(mc, clifford_conn.frames[0, 0])
    dimm = deformed_immersion(dp)
    n = imm.patch.nu
    replay = imm.position[np.ix_(np.arange(dimm.patch.nu) % n,
                                 np.arange(dimm.patch.nv) % n)]
    rms = np.sqrt(np.mean(np.sum((dimm.position - replay) ** 2, axis=-1)))
    assert rms < 1e-5


def test_veronese_theta_zero_roundtrip(veronese_conn, veronese):
    imm = veronese[0]
    mc = assemble_maurer_cartan(veronese_conn, 0.0)
    dp = integrate_frame(mc, veronese_conn.frames[0, 0])
    dimm = deformed_immersion(dp)
    n = imm.patch.nu
    replay = imm.position[np.ix_(np.arange(dimm.patch.nu) % n,
                                 np.arange(dimm.patch.nv) % n)]
    rms = np.sqrt(np.mean(np.sum((dimm.position - replay) ** 2, axis=-1)))
    assert rms < 2e-5


def test_deformed_positions_on_sphere(veronese_conn):
    mc = assemble_maurer_cartan(veronese_conn, 1.0)
    dp = integrate_frame(mc, veronese_conn.frames[0, 0])
    norms = np.linalg.norm(deformed_immersion(dp).position, axis=-1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_reorthonormalization_does_not_depend_on_the_batch():
    rng = np.random.default_rng(5)
    Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    near = Q + 1e-12 * rng.standard_normal((5, 5))
    alone = polar_reorthonormalize(near[None])[0]
    for drift in (0.1, 0.5):  # Newton-Schulz and SVD neighbours
        stretched = Q @ np.diag([math.sqrt(1.0 + drift), 1.0, 1.0, 1.0, 1.0])
        batch = polar_reorthonormalize(np.stack([near, stretched]))
        assert np.array_equal(batch[0], alone)
        assert np.abs(batch[1].T @ batch[1] - np.eye(5)).max() < 1e-14


def test_bad_seed_shape_rejected(clifford_conn):
    mc = assemble_maurer_cartan(clifford_conn, 0.0)
    with pytest.raises(FamilyError):
        integrate_frame(mc, np.eye(4))


# ---------------------------------------------------------------------------
# the deformation is isometric and curvature preserving


def test_veronese_invariants_preserved(veronese_conn, veronese):
    imm = veronese[0]
    for theta in (0.3, 1.2):
        mc = assemble_maurer_cartan(veronese_conn, theta)
        dp = integrate_frame(mc, veronese_conn.frames[0, 0])
        dev = deformation_invariant_deviation(imm, dp)
        assert dev["metric"] < 1e-4
        assert dev["K"] < 1e-4
        assert dev["K_N"] < 1e-4


def test_clifford_invariants_preserved(clifford_conn, clifford):
    imm = clifford[0]
    mc = assemble_maurer_cartan(clifford_conn, 1.2)
    dp = integrate_frame(mc, clifford_conn.frames[0, 0])
    dev = deformation_invariant_deviation(imm, dp)
    assert dev["metric"] < 1e-4
    assert dev["K"] < 1e-4
    assert dev["K_N"] < 1e-4


# ---------------------------------------------------------------------------
# congruence


def test_clifford_congruent_at_half_turn(clifford_conn, clifford):
    # theta = pi/2 closes the family up to an ambient isometry
    imm, _, _, metric, _, _ = clifford
    n = imm.patch.nu
    w = area_weights(imm, metric)
    mc = assemble_maurer_cartan(clifford_conn, math.pi / 2)
    dp = integrate_frame(mc, clifford_conn.frames[0, 0])
    core = deformed_immersion(dp).position[:n, :n]
    fit = congruence_test(imm.position.reshape(-1, 5), core.reshape(-1, 5), w)
    assert fit.residual < 1e-5
    # the torus spans only four ambient coordinates, so the fifth
    # direction is undetermined by the fit
    assert fit.rank == 4
    assert fit.restricted


def test_clifford_not_congruent_inside_fundamental_domain(clifford_conn, clifford):
    imm, _, _, metric, _, _ = clifford
    n = imm.patch.nu
    w = area_weights(imm, metric)
    mc = assemble_maurer_cartan(clifford_conn, math.pi / 4)
    dp = integrate_frame(mc, clifford_conn.frames[0, 0])
    core = deformed_immersion(dp).position[:n, :n]
    fit = congruence_test(imm.position.reshape(-1, 5), core.reshape(-1, 5), w)
    assert fit.residual > 0.05


def test_veronese_congruent_at_every_theta(veronese_conn, veronese):
    # superminimal: the whole family is congruent to the original
    imm, _, _, metric, _, _ = veronese
    n = imm.patch.nu
    w = area_weights(imm, metric)
    for theta in (0.3, 1.0, 2.0):
        mc = assemble_maurer_cartan(veronese_conn, theta)
        dp = integrate_frame(mc, veronese_conn.frames[0, 0])
        core = deformed_immersion(dp).position[:, :n]
        fit = congruence_test(imm.position.reshape(-1, 5), core.reshape(-1, 5), w)
        assert fit.residual < 1e-4
        assert fit.rank == 5
        assert abs(fit.determinant - 1.0) < 1e-6 or abs(fit.determinant + 1.0) < 1e-6


def test_congruence_recovers_known_rotation(veronese):
    imm = veronese[0]
    rng = np.random.default_rng(3)
    A = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    if np.linalg.det(A) < 0:
        A[:, 0] = -A[:, 0]
    pos = imm.position.reshape(-1, 5)
    fit = congruence_test(pos, pos @ A.T, np.ones(len(pos)))
    assert fit.residual < 1e-12
    assert np.allclose(fit.isometry, A, atol=1e-10)
    assert fit.rank == 5


# ---------------------------------------------------------------------------
# gauge independence


def test_adapted_gauge_gives_congruent_deformation(clifford, clifford_conn):
    # connection data built in a normal gauge rotated by a per-point angle
    # must deform to a congruent surface.  The discrete d(angle) carries
    # the 4th-order stencil truncation, about 1e-5 times the amplitude of
    # the varying part at n = 64 (3.0e-6 measured for 0.3).
    imm, e1, e2, metric, nf, rep = clifford
    s = 2.0 * math.pi * np.arange(imm.patch.nu) / imm.patch.nu
    wave = np.sin(s)[:, None] * np.cos(s)[None, :]
    dp = integrate_frame(assemble_maurer_cartan(clifford_conn, 0.3),
                         clifford_conn.frames[0, 0])
    ref = deformed_immersion(dp).position.reshape(-1, 5)
    for amplitude, tol in ((1e-6, 1e-10), (0.3, 1e-5)):
        nf_rot = rotate_normal_frame(nf, 0.37 + amplitude * wave)
        rep_rot = second_fundamental_form(imm, e1, e2, metric, nf_rot)
        conn = connection_data(imm, e1, e2, nf_rot, rep_rot)
        dp_rot = integrate_frame(assemble_maurer_cartan(conn, 0.3), conn.frames[0, 0])
        pos = deformed_immersion(dp_rot).position.reshape(-1, 5)
        assert congruence_test(ref, pos).residual < tol


# ---------------------------------------------------------------------------
# falsification: corrupted connections must fail loudly


def test_perturbed_surface_breaks_integrability():
    entry = clifford_torus(64)
    imm, e1, e2, metric, nf, rep = shape_report(perturb_immersion(entry.immersion, 1e-3, seed=7))
    conn = connection_data(imm, e1, e2, nf, rep)
    base = flatness_residual(assemble_maurer_cartan(conn, 0.3)).max()
    assert base > 1e-3  # flatness residual itself reports the breakage
    with pytest.raises(IntegrabilityBroken):
        integrate_frame(assemble_maurer_cartan(conn, 0.3), conn.frames[0, 0])


def test_doubled_rotation_component_breaks_flatness(clifford_conn):
    bad = ConnectionData(clifford_conn.patch, clifford_conn.frames,
                         clifford_conn.C0, clifford_conn.C1,
                         2.0 * clifford_conn.C2)
    # theta = 0 never sees C2 ...
    assert flatness_residual(assemble_maurer_cartan(bad, 0.0)).max() < 1e-12
    # ... but any other angle does
    assert flatness_residual(assemble_maurer_cartan(bad, 0.3)).max() > 1.0


def test_shifted_normal_connection_breaks_flatness(clifford_conn):
    C0 = clifford_conn.C0.copy()
    C0[..., 3] += 0.05  # omega34
    bad = ConnectionData(clifford_conn.patch, clifford_conn.frames,
                         C0, clifford_conn.C1, clifford_conn.C2)
    assert flatness_residual(assemble_maurer_cartan(bad, 0.0)).max() > 1e-2
