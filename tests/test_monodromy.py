"""Deck monodromy, identity-distance profile, and the closing-set dichotomy.

Oracle: on the flat square-lattice torus the deformation shears the
lattice, so the deformed surface is doubly periodic exactly when the
shear preserves the lattice - at quarter-turn multiples.  The scan must
find those four angles and nothing else; the superminimal sphere must
classify as a circle with congruence evidence.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import s4min.family
import s4min.monodromy
from s4min.catalog import clifford_torus, geodesic_sphere, perturb_immersion, veronese_sphere
from s4min.cli import CONGRUENCE_TOL
from s4min.family import (
    ConnectionData,
    IntegrabilityBroken,
    assemble_maurer_cartan,
    congruence_residual,
    congruence_test,
    coframe,
    connection_data,
    integrate_frame,
    march_frames,
)
from s4min.grid import GridPatch, InputError
from s4min.monodromy import (
    GOLDEN,
    QUARTER,
    _golden_min,
    dichotomy_report,
    generator_monodromy,
    scan_profile,
)
from s4min.surface import ImmersionField, shape_report

from oracles import two_sweep_path_dependence


@pytest.fixture(scope="module")
def clifford():
    return shape_report(clifford_torus(128).immersion)


@pytest.fixture(scope="module")
def clifford_conn(clifford):
    imm, e1, e2, metric, nf, rep = clifford
    return imm, connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                                nf.e3, nf.e4, rep.H3, rep.H4)


@pytest.fixture(scope="module")
def clifford_profile(clifford_conn):
    return scan_profile(clifford_conn[1], n_theta=720)


@pytest.fixture(scope="module")
def veronese_conn():
    imm, e1, e2, metric, nf, rep = shape_report(veronese_sphere(128).immersion)
    return imm, connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                                nf.e3, nf.e4, rep.H3, rep.H4)


@pytest.fixture(scope="module")
def veronese_profile(veronese_conn):
    return scan_profile(veronese_conn[1], n_theta=128)


def circular_distance(a, b):
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


# ---------------------------------------------------------------------------
# torus: finite closing set


def test_torus_verdict_finite(clifford_profile):
    assert clifford_profile.verdict == "FINITE"


def test_torus_roots_are_quarter_turns(clifford_profile):
    roots = clifford_profile.roots
    assert len(roots) == 4
    for expected in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
        assert min(circular_distance(r, expected) for r in roots) < 1e-6


def test_torus_zero_always_closes(clifford_profile):
    assert clifford_profile.d[0] < clifford_profile.tol_close


def test_torus_open_at_eighth_turn(clifford_profile):
    k = len(clifford_profile.thetas) // 8  # theta = pi/4
    assert clifford_profile.d[k] > 0.1


def test_monodromies_orthogonal(clifford_conn, clifford_profile):
    _, conn = clifford_conn
    for axis in (0, 1):
        M = generator_monodromy(conn, axis, clifford_profile.thetas)
        gram = np.swapaxes(M, -1, -2) @ M - np.eye(5)
        assert np.abs(gram).max() < 1e-8


def test_deck_group_abelian(clifford_profile):
    assert clifford_profile.commutator_defect.max() < 1e-7


def test_profile_is_pi_periodic_exactly(clifford_profile):
    # d is evaluated at theta mod pi/2, so it is exactly pi/2-periodic
    d = clifford_profile.d
    assert len(d) == 720
    for q in (1, 2, 3):
        assert np.array_equal(d[:180], d[180 * q:180 * (q + 1)])


@pytest.mark.parametrize("n_theta", [722, 101])
def test_roots_between_samples_are_found(clifford_conn, n_theta):
    # with these grids pi/2 (and for 101 also pi) falls between samples,
    # so the sampled d there is far above the closing tolerance
    roots = scan_profile(clifford_conn[1], n_theta=n_theta).roots
    assert len(roots) == 4
    for expected in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
        assert min(circular_distance(r, expected) for r in roots) < 1e-8


def test_default_tolerance_closes_theta_zero_at_coarse_grid():
    # at n=64 d(0) is ~7e-6, above 1e-6; the default tolerance follows it
    imm, e1, e2, metric, nf, rep = shape_report(clifford_torus(64).immersion)
    conn = connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           nf.e3, nf.e4, rep.H3, rep.H4)
    profile = scan_profile(conn, n_theta=256)
    assert profile.tol_close >= 10.0 * profile.d[0]
    assert len(profile.roots) == 4
    assert profile.roots[0] == 0.0


def test_refinement_is_batched(clifford_conn, monkeypatch):
    calls = []
    march = s4min.monodromy.march_frames

    def counted(*args, **kwargs):
        calls.append(1)
        return march(*args, **kwargs)

    monkeypatch.setattr(s4min.monodromy, "march_frames", counted)
    scan_profile(clifford_conn[1], n_theta=720)
    assert len(calls) <= 10


def test_solve_marches_at_most_half_the_scan_angles(clifford_conn, monkeypatch):
    # the sample doubling stops before it would march more angles per
    # generator than the n_theta / 2 of a half-circle scan
    marched = []
    transport = s4min.monodromy.generator_monodromy

    def counted(conn, axis, theta):
        marched.append(np.size(theta))
        return transport(conn, axis, theta)

    monkeypatch.setattr(s4min.monodromy, "generator_monodromy", counted)
    profile = scan_profile(clifford_conn[1], n_theta=64)
    assert sum(marched) <= 2 * 32
    assert profile.spectral_tail < 1e-14


# ---------------------------------------------------------------------------
# chart topology: deck generators only where a loop is noncontractible


def _band(imm, rows):
    """The u rows ``rows`` of a catalog chart as an annulus: u open and
    uncapped, v as before, with the catalog's analytic jets."""
    p = imm.patch
    u = p.u_coords()[rows]
    patch = GridPatch(len(u), p.nv, (u[0], u[-1]), p.v_range, False, p.periodic_v)
    return ImmersionField(patch, imm.position[rows], imm.jet1[rows], imm.jet2[rows])


def _conn(imm):
    imm, e1, e2, metric, nf, rep = shape_report(imm)
    return connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           nf.e3, nf.e4, rep.H3, rep.H4)


def _no_march(*args):
    raise AssertionError("a generator was marched")


@pytest.mark.parametrize("make, rows, verdict", [
    (clifford_torus, slice(0, 33), "FINITE"),
    (veronese_sphere, slice(8, 56), "CIRCLE"),
    (geodesic_sphere, slice(8, 56), "CIRCLE"),
], ids=["clifford", "veronese", "geodesic-sphere"])
def test_annulus_band_closes_where_its_surface_does(make, rows, verdict):
    # with the caps or half the torus cut away the azimuth loop v is the
    # band's one deck generator; with fewer loops no fewer angles close
    imm = make(64).immersion
    whole = scan_profile(_conn(imm))
    profile = scan_profile(_conn(_band(imm, rows)))
    assert profile.generators == (1,)
    assert profile.verdict == verdict
    if verdict == "FINITE":
        assert len(profile.roots) == 4
        for expected in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
            assert min(circular_distance(r, expected) for r in profile.roots) < 1e-6
    else:
        assert profile.circle_coefficient_max > 0.0  # the loop was marched
    if whole.verdict == "CIRCLE":
        assert profile.verdict == "CIRCLE"
    else:
        assert all(min(circular_distance(r, w) for r in profile.roots) < 1e-6
                   for w in whole.roots)


@pytest.mark.parametrize("make", [veronese_sphere, geodesic_sphere],
                         ids=["veronese", "geodesic-sphere"])
def test_sphere_chart_is_circle_without_a_march(make, monkeypatch):
    # the azimuth loop of a capped chart shrinks to a pole: the chart is
    # simply connected, so every member closes and no generator is marched
    monkeypatch.setattr(s4min.monodromy, "generator_monodromy", _no_march)
    conn = _conn(make(64).immersion)
    profile = scan_profile(conn, n_theta=64)
    assert conn.patch.deck_axes == ()
    assert (profile.verdict, profile.generators, profile.roots) == ("CIRCLE", (), [])
    assert not profile.d.any() and profile.commutator_defect is None
    assert profile.circle_coefficient_max == profile.spectral_tail == 0.0
    assert profile.tol_close == max(1e-6, 10.0 * profile.flatness)
    assert np.array_equal(profile.congruence_residuals,
                          congruence_residual(conn, profile.congruence_thetas))


def _scalar_golden_min(fn, a, b, width):
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while (b - a) > width:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = fn(x2)
    x = 0.5 * (a + b)
    return x, fn(x)


def test_batched_golden_matches_scalar_search():
    fn = lambda x: np.abs(np.sin(3.0 * x - 0.4)) + 0.1 * x  # noqa: E731
    a = np.array([-0.3, 0.0, 0.9, 2.0, 2.5])
    b = np.array([0.4, 0.05, 1.3, 2.2, 3.5])
    x, f = _golden_min(fn, a, b, 1e-8)
    for k in range(len(a)):
        xs, fs = _scalar_golden_min(fn, a[k], b[k], 1e-8)
        assert x[k] == xs and f[k] == fs


def _rotated(imm):
    """imm turned by the SO(5) rotation of test_ambient_rotation (seed 7)."""
    rng = np.random.default_rng(7)
    Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return ImmersionField(imm.patch, imm.position @ Q.T, imm.jet1 @ Q.T, imm.jet2 @ Q.T,
                          imm.jet_source)


AGREEMENT_CASES = {
    "clifford": lambda: clifford_torus(64).immersion,
    "rotated_clifford": lambda: _rotated(clifford_torus(64).immersion),
    "veronese": lambda: veronese_sphere(64).immersion,
    "geodesic_sphere": lambda: geodesic_sphere(64).immersion,
}


@pytest.mark.parametrize("name", sorted(AGREEMENT_CASES))
def test_congruence_residual_agrees_with_procrustes(name):
    # r(theta), read off the connection, against the integrated member:
    # one sweep from the origin frame, fitted to the source by Procrustes
    # with the same area weights, gives the same verdict at 16 angles
    imm, e1, e2, metric, nf, rep = shape_report(AGREEMENT_CASES[name]())
    conn = connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           nf.e3, nf.e4, rep.H3, rep.H4)
    thetas = QUARTER * np.arange(16) / 16
    r = congruence_residual(conn, thetas)
    assert r.shape == thetas.shape
    C0 = conn.C0
    dA = np.abs(C0[..., 0, 0] * C0[..., 1, 1] - C0[..., 1, 0] * C0[..., 0, 1])
    nu, nv = imm.patch.shape
    for theta, r_theta in zip(thetas, r):
        pos = integrate_frame(assemble_maurer_cartan(conn, theta), conn.origin).position[:nu, :nv]
        fit = congruence_test(imm.position, pos / np.linalg.norm(pos, axis=-1, keepdims=True), dA)
        assert (r_theta < CONGRUENCE_TOL) == (fit.residual < CONGRUENCE_TOL), theta
    if name.endswith("clifford"):
        # the congruence group is {k pi/2}: exact there, far off between
        assert np.all(congruence_residual(conn, QUARTER * np.arange(4)) == 0.0)
        assert congruence_residual(conn, math.pi / 4) > 1.0
        assert r[0] == 0.0 and r[1:].min() > 0.1
    else:
        # superminimal or totally geodesic: the whole circle
        assert r.max() <= 1e-12


def test_congruence_residual_clips_the_gap():
    # superminimal by construction, P4 = J P3 at every node, so
    # 2 |beta| = S and g = 0 up to roundoff, which falls on either side of
    # 0.  r grows as sqrt(g), so g of 1e-16 reads as r of 1e-8; below 0 the
    # clip makes r exactly 0, where an unclipped g would take the square
    # root of a negative (a RuntimeWarning, an error under this suite)
    patch = GridPatch(8, 8, (0.0, 1.0), (0.0, 1.0), True, True)
    exact = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        C0 = rng.standard_normal((8, 8, 2, 4))
        P3 = rng.standard_normal((8, 8, 2, 2))
        C1 = np.concatenate([P3, P3[..., ::-1] * [1.0, -1.0]], axis=-1)
        r = congruence_residual(ConnectionData(patch, np.eye(5), np.concatenate([C0, C1], axis=-1)),
                                QUARTER * np.arange(16) / 16)
        assert np.isfinite(r).all() and r.max() < 1e-7, seed
        exact += bool(np.all(r == 0.0))
    assert exact > 0


def test_circle_congruence_integrates_no_member(veronese_conn, monkeypatch):
    # a CIRCLE verdict takes its congruence from the connection alone
    def refuse(*args, **kwargs):
        raise AssertionError("a member was integrated or fitted")

    for name in ("integrate_frame", "congruence_test"):
        monkeypatch.setattr(s4min.family, name, refuse)
    profile = scan_profile(veronese_conn[1], n_theta=64)
    assert profile.verdict == "CIRCLE"
    assert profile.congruence_residuals.max() == 0.0


def moved_basepoint(shape, conn, i0, j0):
    """conn with node (i0, j0) moved to the grid origin, its frame there
    taken from the shape_report fields it was built from: its generators
    are the grid lines of conn through (i0, j0)."""
    imm, e1, e2, metric, nf, rep = shape
    roll = lambda a: np.roll(a, (-i0, -j0), axis=(0, 1))  # noqa: E731
    origin = np.stack([row[i0, j0] for row in (imm.position, e1, e2, nf.e3, nf.e4)])
    return ConnectionData(conn.patch, origin, roll(conn.forms))


def generator_loops(shape, conn, i0, j0, thetas):
    """The two deck-generator monodromies based at node (i0, j0), and
    their distance to the identity (the larger of the two)."""
    moved = moved_basepoint(shape, conn, i0, j0)
    Mu = generator_monodromy(moved, 0, thetas)
    Mv = generator_monodromy(moved, 1, thetas)
    d = np.maximum(np.linalg.norm(Mu - np.eye(5), axis=(-2, -1)),
                   np.linalg.norm(Mv - np.eye(5), axis=(-2, -1)))
    return Mu, Mv, d


def test_basepoint_invariance(clifford, clifford_conn):
    # the profile's loops run through the grid origin; loops through
    # another node see conjugate monodromies at the same distance
    _, conn = clifford_conn
    profile = scan_profile(conn, n_theta=64)
    _, _, d = generator_loops(clifford, conn, 37, 19, profile.thetas)
    assert np.abs(profile.d - d).max() < 1e-8


def test_contractible_loop_is_trivial(clifford_conn):
    # the path dependence of the two sweeps is the holonomy around every
    # rectangle of the unwrapped domain with a corner at the origin
    _, conn = clifford_conn
    for theta in (0.0, 0.4, 0.77, 1.1, 2.5):
        assert two_sweep_path_dependence(assemble_maurer_cartan(conn, theta), conn.origin) < 1e-7


def test_s3_surface_monodromy_fixes_fifth_axis(clifford_conn):
    # the torus lies in a totally geodesic 3-sphere; its deck isometries
    # must fix the orthogonal ambient direction
    _, conn = clifford_conn
    n5 = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    for theta in (0.3, 0.9, 2.0):
        for axis in (0, 1):
            M = generator_monodromy(conn, axis, theta)
            assert np.linalg.norm(M @ n5 - n5) < 1e-10


@pytest.mark.parametrize("fix", ["clifford_conn", "veronese_conn"])
def test_generator_line_gives_the_stored_bits(fix, request, monkeypatch):
    # the packed line is C0 then c C1 + s C2 on the generator, with C2 as
    # connection_data stored it, (alt3, -sym3, alt4, -sym4): every bit kept
    _, conn = request.getfixturevalue(fix)
    # the same forms on the uncapped chart, where the sphere's azimuth is a
    # deck generator; on the capped chart that loop contracts
    conn = ConnectionData(replace(conn.patch, cap_u=False), conn.origin, conn.forms)
    lines = []
    march = s4min.monodromy.march_frames

    def recorded(line, *args):
        lines.append(line)
        return march(line, *args)

    monkeypatch.setattr(s4min.monodromy, "march_frames", recorded)
    C1 = conn.C1
    C2 = np.stack([C1[..., 1], -C1[..., 0], C1[..., 3], -C1[..., 2]], axis=-1)
    thetas = np.array([0.0, 0.3, math.pi / 4, math.pi / 2, 1.1])
    c, s = np.cos(2.0 * thetas)[:, None], np.sin(2.0 * thetas)[:, None]
    for axis in conn.patch.deck_axes:
        generator_monodromy(conn, axis, thetas)
        at = lambda C: np.moveaxis(C, axis, 0)[:, 0, axis][:, None]  # noqa: E731
        rotating = c * at(C1) + s * at(C2)
        expected = np.concatenate([np.broadcast_to(at(conn.C0), rotating.shape), rotating],
                                  axis=-1)
        assert np.array_equal(lines.pop(), expected)
    assert lines == []


def test_batched_angles_match_single_angles(clifford_conn):
    _, conn = clifford_conn
    thetas = np.array([0.0, 0.3, 0.9, 2.0, 4.1])
    for axis in (0, 1):
        Ms = generator_monodromy(conn, axis, thetas)
        assert Ms.shape == (len(thetas), 5, 5)
        for M, theta in zip(Ms, thetas):
            assert np.abs(M - generator_monodromy(conn, axis, theta)).max() <= 1e-14


def test_scan_monodromies_are_the_generator_loops(clifford, clifford_conn):
    # oracle: the one loop transport marched at every profile angle; with
    # 90 angles all but theta = 0 and pi fall between the solve's samples,
    # and half of them lie in the quarters reached through M -> P M P
    _, conn = clifford_conn
    profile = scan_profile(conn, n_theta=90)
    Mu, Mv, d = generator_loops(clifford, conn, 0, 0, profile.thetas)
    assert np.abs(profile.d - d).max() <= 1e-12
    defect = np.linalg.norm(Mu @ Mv - Mv @ Mu, axis=(-2, -1))
    assert np.abs(profile.commutator_defect - defect).max() <= 1e-12


def test_loop_transport_matches_whole_grid_assembly(clifford, clifford_conn):
    # assembling Omega on the generator line only gives the whole-grid
    # march along the u line through (0, j0)
    imm, conn = clifford_conn
    j0, theta = 17, 0.9
    omega = assemble_maurer_cartan(conn, theta).forms[:, j0, 0]
    moved = moved_basepoint(clifford, conn, 0, j0)
    F0 = moved.origin  # the frame at node (0, j0)
    F = march_frames(omega, imm.patch.hu, F0, periodic=True)[-1]
    M = generator_monodromy(moved, 0, theta)
    assert np.abs(M - F.T @ F0).max() <= 1e-13


def test_theta_zero_monodromy_identity(clifford_conn):
    _, conn = clifford_conn
    M = generator_monodromy(conn, 0, 0.0)
    assert np.linalg.norm(M - np.eye(5)) < 1e-6


# ---------------------------------------------------------------------------
# sphere: circle verdict with congruence evidence


def test_sphere_verdict_circle(veronese_profile):
    assert veronese_profile.verdict == "CIRCLE"
    assert veronese_profile.roots == []


def test_sphere_distance_stays_below_tol(veronese_profile):
    frac = np.mean(veronese_profile.d < veronese_profile.tol_close)
    assert frac >= 0.9


def test_sphere_congruence_evidence(veronese_profile):
    assert veronese_profile.congruence_residuals is not None
    assert veronese_profile.congruence_residuals.max() < 1e-4
    # members a quarter turn apart are congruent: four angles of [0, pi/2)
    assert np.allclose(veronese_profile.congruence_thetas,
                       [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8])


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("surface", [veronese_sphere, geodesic_sphere])
def test_circle_certificate(surface, n):
    # CIRCLE: every non-constant Fourier coefficient of M - I is below
    # the closing tolerance, and the samples resolve M to roundoff
    imm, e1, e2, metric, nf, rep = shape_report(surface(n).immersion)
    conn = connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           nf.e3, nf.e4, rep.H3, rep.H4)
    profile = scan_profile(conn, n_theta=64)
    assert profile.verdict == "CIRCLE"
    assert profile.circle_coefficient_max < profile.tol_close
    assert profile.spectral_tail < 1e-14
    assert profile.roots == [] and profile.classes == []


# ---------------------------------------------------------------------------
# report


def test_report_is_json_serializable(clifford_profile, veronese_profile):
    for prof in (clifford_profile, veronese_profile):
        rep = dichotomy_report(prof)
        text = json.dumps(rep, sort_keys=True)
        back = json.loads(text)
        assert back["verdict"] == prof.verdict


def test_report_fields(clifford_profile):
    rep = dichotomy_report(clifford_profile)
    assert rep["verdict"] == "FINITE"
    assert len(rep["roots"]) == 4
    assert rep["classes"] == [0.0]
    assert rep["circle_coefficient_max"] > rep["tol_close"]
    assert rep["commutator_defect_max"] < 1e-7
    assert "basepoint_invariance" in rep


# ---------------------------------------------------------------------------
# error paths


def test_too_few_samples_rejected(clifford_conn):
    with pytest.raises(InputError, match="64"):
        scan_profile(clifford_conn[1], n_theta=32)


def test_open_chart_is_circle_by_topology(clifford_conn, monkeypatch):
    # an open rectangle has no deck generator: every member closes, even
    # though the members of the flat torus's patch are not congruent
    imm, conn = clifford_conn
    p = imm.patch
    open_patch = GridPatch(p.nu, p.nv, p.u_range, p.v_range,
                           periodic_u=False, periodic_v=False)
    open_conn = ConnectionData(open_patch, conn.origin, conn.forms)
    monkeypatch.setattr(s4min.monodromy, "march_frames", _no_march)
    profile = scan_profile(open_conn)
    assert (profile.verdict, profile.generators, profile.classes) == ("CIRCLE", (), [])
    assert not profile.d.any()
    assert profile.congruence_residuals.max() > 1.0


@pytest.mark.parametrize("chart, axis", [("half-open", 0), ("half-open", 1),
                                         ("veronese", 1), ("geodesic-sphere", 1)],
                         ids=["0", "1", "veronese", "geodesic-sphere"])
def test_open_axis_has_no_generator(clifford_conn, chart, axis):
    # an open axis has no loop; across a capped axis the periodic azimuth's
    # loop contracts to a pole, and marching it would read truncation as
    # monodromy
    if chart == "half-open":
        imm, conn = clifford_conn
        p = imm.patch
        half_open = GridPatch(p.nu, p.nv, p.u_range, p.v_range,
                              periodic_u=axis != 0, periodic_v=axis != 1)
        conn = ConnectionData(half_open, conn.origin, conn.forms)
        generator_monodromy(conn, 1 - axis, 0.3)
    else:
        make = {"veronese": veronese_sphere, "geodesic-sphere": geodesic_sphere}[chart]
        conn = _conn(make(64).immersion)
    with pytest.raises(InputError, match=f"{'uv'[axis]} axis is not a deck generator"):
        generator_monodromy(conn, axis, 0.3)


def test_non_minimal_input_refused():
    imm, e1, e2, metric, nf, rep = shape_report(
        perturb_immersion(clifford_torus(64).immersion, 1e-3, seed=7))
    conn = connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           nf.e3, nf.e4, rep.H3, rep.H4)
    with pytest.raises(IntegrabilityBroken, match="not flat"):
        scan_profile(conn, n_theta=64)


def test_coarse_scan_reports_wrap_root_canonically(clifford_conn):
    # with few samples the minimum at theta=0 is refined from the wrapped
    # side of the circle; the root must still be reported as 0, not 2*pi
    profile = scan_profile(clifford_conn[1], n_theta=64)
    assert profile.verdict == "FINITE"
    assert len(profile.roots) == 4
    assert profile.roots[0] == pytest.approx(0.0, abs=1e-7)
    assert all(0.0 <= r < 2.0 * math.pi for r in profile.roots)
