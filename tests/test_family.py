"""Connection decomposition, frame marching and the isometric deformation family.

Oracles: on the Clifford torus the connection matrices are constant and
commute, so flatness and the two-sweep path dependence must vanish to
roundoff and the march reproduces the input to stencil accuracy.
Deformation invariance (metric, K, |K_N| unchanged) and congruence at
closing angles are checked against the catalog surfaces; structural
corruptions of the connection must blow the flatness residual up by many
orders of magnitude.
"""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from s4min.catalog import clifford_torus, load_catalog, perturb_immersion, veronese_sphere
from s4min.cli import VERIFY_FLOOR
from s4min.family import (
    PATH_DEPENDENCE_TOL,
    ConnectionData,
    _UPPER,
    _bracket,
    _so5,
    _step_midpoint,
    assemble_maurer_cartan,
    congruence_residual,
    congruence_test,
    coframe,
    connection_data,
    deformation_invariant_deviation,
    deformed_immersion,
    flatness_residual,
    frame_reconstruction_residual,
    frame_source_deviation,
    integrate_frame,
    polar_reorthonormalize,
)
from s4min.grid import diff
from s4min.surface import (
    ImmersionField,
    rotate_normal_frame,
    second_fundamental_form,
    shape_report,
)

from oracles import curvature_deviation, sweep_frames, two_sweep_path_dependence


@pytest.fixture(scope="module")
def clifford():
    return shape_report(clifford_torus(64).immersion)


@pytest.fixture(scope="module")
def clifford_conn(clifford):
    imm, e1, e2, metric, e3, e4, rep = clifford
    return connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           e3, e4, rep.H3, rep.H4)


@pytest.fixture(scope="module")
def clifford128():
    return shape_report(clifford_torus(128).immersion)


@pytest.fixture(scope="module")
def clifford128_conn(clifford128):
    imm, e1, e2, metric, e3, e4, rep = clifford128
    return connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           e3, e4, rep.H3, rep.H4)


@pytest.fixture(scope="module")
def perturbed_clifford_conn():
    # not flat, and its (0, 1) bracket products do not vanish
    imm, e1, e2, metric, e3, e4, rep = shape_report(
        perturb_immersion(clifford_torus(64).immersion, 1e-3, 0))
    return connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           e3, e4, rep.H3, rep.H4)


@pytest.fixture(scope="module")
def veronese():
    return shape_report(veronese_sphere(128).immersion)


@pytest.fixture(scope="module")
def veronese_conn(veronese):
    imm, e1, e2, metric, e3, e4, rep = veronese
    return connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           e3, e4, rep.H3, rep.H4)


def frame_rows(pack):
    """The five (nu, nv, 5) frame fields (f, e1, e2, e3, e4) of a
    shape_report result."""
    imm, e1, e2, metric, e3, e4, rep = pack
    return imm.position, e1, e2, e3, e4


def area_weights(imm, metric):
    return (imm.patch.hu * imm.patch.hv * metric.dA).ravel()


# ---------------------------------------------------------------------------
# assembly of the one-parameter connection


@pytest.mark.parametrize("fix", ["clifford", "veronese"])
def test_connection_keeps_the_origin_frame_and_no_position(fix, request):
    # the connection holds the frame at node (0, 0) and no position field
    # (congruence is read off C1), neither a copy of it nor a reference to
    # the caller's; it copies no frame row.  C0 and C1 are views of its one
    # packed buffer.  Measured peaks 0.81 (n = 64) and 0.80 blocks
    # (n = 128), the buffer allocated after the difference fields are
    # freed; allocated before them 1.27 and 1.09, and a (nu, nv, 5, 5) copy
    # of the five frame fields took 1.64.
    pack = request.getfixturevalue(fix)
    imm, e1, e2, metric, e3, e4, rep = pack
    conn = request.getfixturevalue(fix + "_conn")
    assert [f.name for f in dataclasses.fields(conn)] == ["patch", "origin", "forms"]
    assert not any(np.shares_memory(a, imm.position) for a in (conn.origin, conn.forms))
    assert np.shares_memory(conn.C0, conn.forms) and np.shares_memory(conn.C1, conn.forms)
    assert np.array_equal(conn.origin, np.stack([row[0, 0] for row in frame_rows(pack)]))
    block = imm.position.size * 5 * 8  # bytes of one (nu, nv, 5, 5) float64 array
    w = coframe(imm.jet1, e1, e2)
    tracemalloc.start()
    try:
        connection_data(imm.patch, imm.position, w, e1, e2, e3, e4, rep.H3, rep.H4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * block, f"connection_data peaked at {peak / block:.2f} blocks"


def test_components_are_packed_forms(clifford_conn):
    nu, nv = clifford_conn.patch.shape
    for C in (clifford_conn.C0, clifford_conn.C1, clifford_conn.C2):
        assert C.shape == (nu, nv, 2, 4)


@pytest.mark.parametrize("fix", ["clifford_conn", "veronese_conn"])
def test_derived_C2_gives_the_stored_bits(fix, request):
    # C2 is not stored: assembly turns C1 a quarter with the roundings of
    # c C1 + s C2, so Omega_theta keeps every bit
    conn = request.getfixturevalue(fix)
    C1 = conn.C1  # C2 as connection_data stored it: (alt3, -sym3, alt4, -sym4)
    C2 = np.stack([C1[..., 1], -C1[..., 0], C1[..., 3], -C1[..., 2]], axis=-1)
    assert np.array_equal(conn.C2, C2)
    for theta in (0.0, 0.3, math.pi / 4, math.pi / 2, 1.1):
        rotating = math.cos(2.0 * theta) * conn.C1 + math.sin(2.0 * theta) * C2
        expected = np.concatenate([conn.C0, rotating], axis=-1)
        assert np.array_equal(assemble_maurer_cartan(conn, theta).forms, expected)


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4])
def test_one_buffer_assembly_keeps_the_two_array_bits(veronese, theta):
    # C0 and C1 are views of the connection's one buffer.  Omega_theta
    # assembled from it is the two-array formula
    # C0 || cos(2 theta) C1 + sin(2 theta) C2 to the bit, in a new buffer:
    # congruence_residual reads the same before and after.  The buffer
    # itself is Omega_0 but for the sign of a zero, as verify and
    # scan_profile read it.
    imm, e1, e2, metric, e3, e4, rep = veronese
    conn = connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           e3, e4, rep.H3, rep.H4)
    C0, C1 = conn.forms[..., :4].copy(), conn.forms[..., 4:].copy()
    C2 = np.stack([C1[..., 1], -C1[..., 0], C1[..., 3], -C1[..., 2]], axis=-1)
    c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
    residual = congruence_residual(conn, theta)
    mc = assemble_maurer_cartan(conn, theta)
    assert not np.shares_memory(mc.forms, conn.forms)
    assert np.array_equal(mc.forms, np.concatenate([C0, c * C1 + s * C2], axis=-1))
    assert np.array_equal(congruence_residual(conn, theta), residual)
    assert np.array_equal(conn.forms, assemble_maurer_cartan(conn, 0.0).forms)


@pytest.mark.parametrize("a, b", [(0.3, 0.5), (0.7, -0.2), (math.pi / 4, math.pi / 4)])
def test_assembly_composes_member_connections(veronese_conn, a, b):
    # Omega_theta is member theta's connection: turning it by b is the
    # source turned by a + b, with the source's C0 and origin frame
    twice = assemble_maurer_cartan(assemble_maurer_cartan(veronese_conn, a), b)
    once = assemble_maurer_cartan(veronese_conn, a + b)
    assert twice.patch == veronese_conn.patch
    assert np.array_equal(twice.origin, veronese_conn.origin)
    assert np.array_equal(twice.C0, veronese_conn.C0)
    np.testing.assert_allclose(twice.C1, once.C1, rtol=0,
                               atol=1e-14 * np.abs(veronese_conn.C1).max())


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


@pytest.mark.parametrize("fix", ["clifford_conn", "veronese_conn",
                                 "perturbed_clifford_conn"])
def test_flatness_matches_dense_oracle(fix, request):
    # the stated oracle: the curvature of the assembled 5x5 blocks, with the
    # exterior derivative taken on dense whole-grid matrices; the slot-wise
    # sums run in another order than the matrix products, hence roundoff.
    # The (0, 1) bracket products vanish on both catalog charts; only the
    # perturbed torus sees a sign error there (gap 1.0e-2 against 3.1e-16).
    conn = request.getfixturevalue(fix)
    for theta in (0.0, 0.3, 1.2):
        mc = assemble_maurer_cartan(conn, theta)
        Wu, Wv = _so5(mc.forms[:, :, 0]), _so5(mc.forms[:, :, 1])
        dense = np.linalg.norm(diff(mc.patch, Wv, 0) - diff(mc.patch, Wu, 1)
                               - (Wu @ Wv - Wv @ Wu), axis=(-2, -1))
        np.testing.assert_allclose(flatness_residual(mc), dense, rtol=0, atol=1e-14)


def test_clifford_frame_reconstruction(clifford, clifford_conn):
    mc0 = assemble_maurer_cartan(clifford_conn, 0.0)
    assert frame_reconstruction_residual(frame_rows(clifford), mc0) < 2e-5


def test_veronese_flatness(veronese_conn):
    h = max(veronese_conn.patch.hu, veronese_conn.patch.hv)
    for theta in (0.0, 0.3, 1.2):
        mc = assemble_maurer_cartan(veronese_conn, theta)
        assert flatness_residual(mc).max() < 5.0 * h * h


def test_veronese_frame_reconstruction(veronese, veronese_conn):
    mc0 = assemble_maurer_cartan(veronese_conn, 0.0)
    assert frame_reconstruction_residual(frame_rows(veronese), mc0) < 5e-5


@pytest.mark.parametrize("fix", ["clifford128_conn", "veronese_conn"])
def test_family_checks_hold_no_whole_grid_blocks(fix, request):
    # flatness, reconstruction and frame transport work on packed forms
    # and (nu, nv) planes, and hold one whole-grid frame array at most:
    # measured peaks 1.01 and 0.86 blocks; integrate_frame, which keeps
    # only the member's positions, 0.32 (1.14 with the whole "uv" frame
    # array held for a second sweep), and 0.12 for the source
    # comparison, which holds none.  Whole-grid 5x5 products
    # took 4.3 to 4.7 blocks; a frame copy for the reconstruction planes
    # took 1.96, a stack of each row's derivatives with one product
    # buffer for all rows 0.96, a second sweep held whole 2.96, and
    # copying each sheet's lines with their seam repeated 1.46.
    conn = request.getfixturevalue(fix)
    rows = frame_rows(request.getfixturevalue(fix.removesuffix("_conn")))
    nu, nv = conn.patch.shape
    block = nu * nv * 25 * 8  # bytes of one (nu, nv, 5, 5) float64 array
    mc = assemble_maurer_cartan(conn, 0.3)
    mc0 = assemble_maurer_cartan(conn, 0.0)
    checks = {
        "flatness_residual": (lambda: flatness_residual(mc), 1.45),
        "frame_reconstruction_residual":
            (lambda: frame_reconstruction_residual(rows, mc0), 0.95),
        "integrate_frame": (lambda: integrate_frame(mc), 0.45),
        "frame_source_deviation":
            (lambda: frame_source_deviation(mc0, rows), 0.2),
    }
    for name, (check, bound) in checks.items():
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * block, f"{name} peaked at {peak / block:.2f} blocks"


def test_veronese_reconstruction_fourth_order():
    res = []
    for n in (64, 128):
        pack = shape_report(veronese_sphere(n).immersion)
        imm, e1, e2, metric, e3, e4, rep = pack
        conn = connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                               e3, e4, rep.H3, rep.H4)
        res.append(frame_reconstruction_residual(frame_rows(pack), assemble_maurer_cartan(conn, 0.0)))
    assert res[0] / res[1] > 8.0


@functools.cache
def source_deviation(name, n, jets="analytic", perturb=None):
    """frame_source_deviation of a catalog surface built as verify builds
    it: finite-difference jets on request, then a seed-0 perturbation."""
    imm = load_catalog(name, n).immersion
    if jets == "fd":
        imm = ImmersionField(imm.patch, imm.position).with_jets()
    if perturb is not None:
        imm = perturb_immersion(imm, perturb, 0)
    pack = shape_report(imm)
    imm, e1, e2, metric, e3, e4, rep = pack
    conn = connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           e3, e4, rep.H3, rep.H4)
    return frame_source_deviation(assemble_maurer_cartan(conn, 0.0), frame_rows(pack))


@pytest.mark.parametrize("fix", ["clifford", "veronese"])
def test_source_deviation_equals_whole_sweep_oracle(fix, request):
    # the streamed comparison against the "uv" sweep held whole, its
    # duplicated seam lines read against the source's first lines
    pack = request.getfixturevalue(fix)
    conn = request.getfixturevalue(fix + "_conn")
    mc0 = assemble_maurer_cartan(conn, 0.0)
    sweep = sweep_frames(mc0)
    NU, NV = sweep.shape[:2]
    source = np.stack(frame_rows(pack), axis=-2)
    D = sweep - source[np.ix_(np.arange(NU) % conn.patch.nu, np.arange(NV) % conn.patch.nv)]
    D *= D
    oracle = float(np.sqrt(np.add.reduce(D, axis=(-2, -1))).max())
    assert frame_source_deviation(mc0, frame_rows(pack)) == oracle


def test_source_deviation_sees_the_march_error(clifford_conn, clifford):
    # Clifford's Omega is exact and its two sweeps agree to roundoff, but
    # the march itself is off at 4th order: only the source comparison
    # sees it (measured 9.7e-6 at n = 64, path dependence 3.1e-15)
    mc0 = assemble_maurer_cartan(clifford_conn, 0.0)
    assert two_sweep_path_dependence(mc0) < 1e-12
    assert frame_source_deviation(mc0, frame_rows(clifford)) > 1e-6


@pytest.mark.parametrize("name", sorted(VERIFY_FLOOR))
def test_source_deviation_floor_is_the_least_passing_n(name):
    # measured at the floor: clifford 9.7e-6 / 1.7e-5, geodesic-sphere
    # 3.4e-5 / 3.4e-5, veronese 6.9e-5 / 6.9e-5 (analytic / fd jets); at
    # half of it 1.5e-4, 5.5e-4 and 1.1e-3 with analytic jets
    floor = VERIFY_FLOOR[name]
    for jets in ("analytic", "fd"):
        assert source_deviation(name, floor, jets) <= PATH_DEPENDENCE_TOL
    assert source_deviation(name, floor // 2) > PATH_DEPENDENCE_TOL


@pytest.mark.parametrize("name", sorted(VERIFY_FLOOR))
def test_source_deviation_converges_at_fourth_order(name):
    # measured ratios 15.96 (clifford), 15.95 (geodesic-sphere), 15.87 (veronese)
    order = math.log2(source_deviation(name, 64) / source_deviation(name, 128))
    assert order >= 3.8


@pytest.mark.parametrize("name, n, amplitude", [
    ("clifford", 128, 1e-3), ("veronese", 256, 1e-3), ("clifford", 128, 1e-5)])
def test_source_deviation_fails_every_perturbation(name, n, amplitude):
    # the seed-0 runs where the two-sweep path dependence or the pointwise
    # reconstruction failed: measured 6.5e-2, 3.1 and 6.5e-4.  At 1e-5 the
    # reconstruction passed (8.2e-4 against its 6.0e-3)
    assert source_deviation(name, n, perturb=amplitude) > PATH_DEPENDENCE_TOL


# ---------------------------------------------------------------------------
# marching


def whole_line_midpoints(A, periodic):
    """The former whole-line midpoint rule, kept as the oracle of the
    per-step midpoints."""
    if periodic:
        Am1 = np.roll(A, 1, axis=0)
        Ap1 = np.roll(A, -1, axis=0)
        Ap2 = np.roll(A, -2, axis=0)
        return (-Am1 + 9.0 * A + 9.0 * Ap1 - Ap2) / 16.0
    inner = (-A[:-3] + 9.0 * A[1:-2] + 9.0 * A[2:-1] - A[3:]) / 16.0
    first = (5.0 * A[0] + 15.0 * A[1] - 5.0 * A[2] + A[3]) / 16.0
    last = (A[-4] - 5.0 * A[-3] + 15.0 * A[-2] + 5.0 * A[-1]) / 16.0
    return np.concatenate([first[None], inner, last[None]], axis=0)


# open lines have at least the 4 samples of the one-sided end rules
# (a GridPatch axis has 8); periodic lines wrap at any length
@pytest.mark.parametrize("n, periodic", [(n, periodic) for n in (2, 3, 4, 5, 8)
                                         for periodic in (False, True) if periodic or n >= 4])
def test_step_midpoints_match_whole_line_rule(n, periodic):
    line = np.random.default_rng(n).standard_normal((n, 3, 8))
    steps = n if periodic else n - 1
    per_step = np.stack([_step_midpoint(line, k, periodic) for k in range(steps)])
    assert np.array_equal(per_step, whole_line_midpoints(line, periodic))


@pytest.fixture(scope="module")
def deformed_manifest_conn():
    # the open 257 x 257 chart that deform writes for the Clifford torus
    imm, e1, e2, metric, e3, e4, rep = shape_report(clifford_torus(256).immersion)
    conn = connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           e3, e4, rep.H3, rep.H4)
    position = integrate_frame(assemble_maurer_cartan(conn, 0.5 * math.pi))
    imm, e1, e2, metric, e3, e4, rep = shape_report(deformed_immersion(conn.patch, position))
    return connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           e3, e4, rep.H3, rep.H4)


@pytest.mark.parametrize("fix", ["clifford_conn", "veronese_conn",
                                 "deformed_manifest_conn"])
def test_integrate_frame_keeps_row_zero_of_the_sweep(fix, request):
    # the streamed member is the first frame row of the sweep held whole
    conn = request.getfixturevalue(fix)
    mc = assemble_maurer_cartan(conn, 0.3)
    assert np.array_equal(integrate_frame(mc), sweep_frames(mc)[..., 0, :])


def test_clifford_path_independence(clifford_conn):
    mc = assemble_maurer_cartan(clifford_conn, 0.3)
    assert two_sweep_path_dependence(mc) < 1e-12


def test_marched_frames_stay_orthonormal(clifford_conn):
    frames = sweep_frames(assemble_maurer_cartan(clifford_conn, 0.77))
    gram = np.einsum("uvik,uvjk->uvij", frames, frames) - np.eye(5)
    assert np.abs(gram).max() < 1e-12


def test_clifford_theta_zero_roundtrip(clifford_conn, clifford):
    imm = clifford[0]
    dimm = member(clifford_conn, 0.0)
    n = imm.patch.nu
    replay = imm.position[np.ix_(np.arange(dimm.patch.nu) % n,
                                 np.arange(dimm.patch.nv) % n)]
    rms = np.sqrt(np.mean(np.sum((dimm.position - replay) ** 2, axis=-1)))
    assert rms < 1e-5


def test_veronese_theta_zero_roundtrip(veronese_conn, veronese):
    imm = veronese[0]
    dimm = member(veronese_conn, 0.0)
    n = imm.patch.nu
    replay = imm.position[np.ix_(np.arange(dimm.patch.nu) % n,
                                 np.arange(dimm.patch.nv) % n)]
    rms = np.sqrt(np.mean(np.sum((dimm.position - replay) ** 2, axis=-1)))
    assert rms < 2e-5


def test_deformed_positions_on_sphere(veronese_conn):
    norms = np.linalg.norm(member(veronese_conn, 1.0).position, axis=-1)
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


# ---------------------------------------------------------------------------
# the deformation is isometric and curvature preserving


def member(conn, theta):
    return deformed_immersion(conn.patch, integrate_frame(assemble_maurer_cartan(conn, theta)))


def test_veronese_invariants_preserved(veronese_conn, veronese):
    imm = veronese[0]
    for theta in (0.3, 1.2):
        deformed = member(veronese_conn, theta)
        assert deformation_invariant_deviation(imm.patch, imm.position, deformed) < 1e-4
        dev = curvature_deviation(imm, deformed)
        assert dev["K"] < 1e-4
        assert dev["K_N"] < 1e-4


def test_clifford_invariants_preserved(clifford_conn, clifford):
    imm = clifford[0]
    deformed = member(clifford_conn, 1.2)
    assert deformation_invariant_deviation(imm.patch, imm.position, deformed) < 1e-4
    dev = curvature_deviation(imm, deformed)
    assert dev["K"] < 1e-4
    assert dev["K_N"] < 1e-4


def test_member_metric_is_what_the_shape_stage_measures(clifford_conn, clifford):
    # the check's first-jet metric is the metric shape_report takes from
    # the same finite-difference jets, bit for bit
    imm = clifford[0]
    deformed = member(clifford_conn, math.pi / 4)
    p = imm.patch
    replay = imm.position[np.ix_(p.unwrap_index(0), p.unwrap_index(1))]
    g0 = shape_report(ImmersionField(deformed.patch, replay))[3]
    g1 = shape_report(deformed)[3]
    oracle = max(float(np.abs(getattr(g1, k) - getattr(g0, k)).max()) for k in "EFG")
    assert deformation_invariant_deviation(p, imm.position, deformed) == oracle > 0.0


# ---------------------------------------------------------------------------
# congruence


def test_clifford_congruent_at_half_turn(clifford_conn, clifford):
    # theta = pi/2 closes the family up to an ambient isometry
    imm, _, _, metric, _, _, _ = clifford
    n = imm.patch.nu
    w = area_weights(imm, metric)
    core = member(clifford_conn, math.pi / 2).position[:n, :n]
    fit = congruence_test(imm.position.reshape(-1, 5), core.reshape(-1, 5), w)
    assert fit.residual < 1e-5


def test_clifford_not_congruent_inside_fundamental_domain(clifford_conn, clifford):
    imm, _, _, metric, _, _, _ = clifford
    n = imm.patch.nu
    w = area_weights(imm, metric)
    core = member(clifford_conn, math.pi / 4).position[:n, :n]
    fit = congruence_test(imm.position.reshape(-1, 5), core.reshape(-1, 5), w)
    assert fit.residual > 0.05


def test_veronese_congruent_at_every_theta(veronese_conn, veronese):
    # superminimal: the whole family is congruent to the original
    imm, _, _, metric, _, _, _ = veronese
    n = imm.patch.nu
    w = area_weights(imm, metric)
    for theta in (0.3, 1.0, 2.0):
        core = member(veronese_conn, theta).position[:, :n]
        fit = congruence_test(imm.position.reshape(-1, 5), core.reshape(-1, 5), w)
        assert fit.residual < 1e-4
        assert abs(abs(np.linalg.det(fit.isometry)) - 1.0) < 1e-6


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


# ---------------------------------------------------------------------------
# gauge independence


def test_adapted_gauge_gives_congruent_deformation(clifford, clifford_conn):
    # connection data built in a normal gauge rotated by a per-point angle
    # must deform to a congruent surface.  The discrete d(angle) carries
    # the 4th-order stencil truncation, about 1e-5 times the amplitude of
    # the varying part at n = 64 (3.0e-6 measured for 0.3).
    imm, e1, e2, metric, e3, e4, rep = clifford
    s = 2.0 * math.pi * np.arange(imm.patch.nu) / imm.patch.nu
    wave = np.sin(s)[:, None] * np.cos(s)[None, :]
    ref = member(clifford_conn, 0.3).position.reshape(-1, 5)
    src = clifford_torus(64).immersion  # shape_report's field has no second jets
    for amplitude, tol in ((1e-6, 1e-10), (0.3, 1e-5)):
        e3_rot, e4_rot = rotate_normal_frame(e3, e4, 0.37 + amplitude * wave)
        rep_rot = second_fundamental_form(src.jet2, metric, e3_rot, e4_rot)
        conn = connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                               e3_rot, e4_rot, rep_rot.H3, rep_rot.H4)
        pos = member(conn, 0.3).position.reshape(-1, 5)
        assert congruence_test(ref, pos).residual < tol


# ---------------------------------------------------------------------------
# falsification: corrupted connections must fail loudly


def test_perturbed_surface_breaks_integrability():
    entry = clifford_torus(64)
    imm, e1, e2, metric, e3, e4, rep = shape_report(
        perturb_immersion(entry.immersion, 1e-3, seed=7))
    conn = connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           e3, e4, rep.H3, rep.H4)
    base = flatness_residual(assemble_maurer_cartan(conn, 0.3)).max()
    assert base > 1e-3  # flatness residual itself reports the breakage
    # and the member's metric is not the source's
    deviation = deformation_invariant_deviation(imm.patch, imm.position, member(conn, 0.3))
    assert deviation > PATH_DEPENDENCE_TOL


def test_doubled_rotation_component_breaks_flatness(clifford_conn):
    def doubled(theta):  # Omega_theta with its sin(2 theta) C2 term doubled
        rotating = (math.cos(2.0 * theta) * clifford_conn.C1
                    + 2.0 * math.sin(2.0 * theta) * clifford_conn.C2)
        return ConnectionData(clifford_conn.patch, clifford_conn.origin,
                              np.concatenate([clifford_conn.C0, rotating], axis=-1))
    # theta = 0 never sees C2 ...
    assert flatness_residual(doubled(0.0)).max() < 1e-12
    # ... but any other angle does
    assert flatness_residual(doubled(0.3)).max() > 1.0


def test_shifted_normal_connection_breaks_flatness(clifford_conn):
    forms = clifford_conn.forms.copy()
    forms[..., 3] += 0.05  # omega34
    bad = ConnectionData(clifford_conn.patch, clifford_conn.origin, forms)
    assert flatness_residual(assemble_maurer_cartan(bad, 0.0)).max() > 1e-2
