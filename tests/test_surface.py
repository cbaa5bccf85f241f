"""Frame construction and pointwise invariants against closed-form surfaces.

Expected values are the classical closed forms of the model surfaces
(curvatures of the flat torus, the quadric sphere, the equator), computed
by hand and frozen here; they do not come from the code under test.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from s4min.catalog import (
    clifford_torus,
    geodesic_sphere,
    load_catalog,
    perturb_immersion,
    veronese_sphere,
)
from s4min.grid import GridPatch, InputError, diff, integrate
from s4min.family import (assemble_maurer_cartan, coframe, connection_data, deformed_immersion,
                          integrate_frame)
from s4min.surface import (
    ImmersionField,
    _rotate_pair,
    _seam_turn,
    _seed_normal_basis,
    _transport_lines,
    fd_jets,
    flip_normal_orientation,
    frame_orthonormality_residual,
    normal_frame,
    rotate_normal_frame,
    second_fundamental_form,
    shape_report,
    tangent_frame,
)

SQ3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def clifford():
    imm, e1, e2, metric, nf, rep = shape_report(clifford_torus(64).immersion)
    return imm, e1, e2, metric, nf, rep


@pytest.fixture(scope="module")
def veronese():
    imm, e1, e2, metric, nf, rep = shape_report(veronese_sphere(64).immersion)
    return imm, e1, e2, metric, nf, rep


@pytest.fixture(scope="module")
def geodesic():
    imm, e1, e2, metric, nf, rep = shape_report(geodesic_sphere(64).immersion)
    return imm, e1, e2, metric, nf, rep


# ---------------------------------------------------------------------------
# frames


def test_tangent_frame_is_orthonormal_and_tangent(clifford):
    imm, e1, e2, _, _, _ = clifford
    for a, b, want in [(e1, e1, 1.0), (e2, e2, 1.0), (e1, e2, 0.0)]:
        got = np.einsum("uvk,uvk->uv", a, b)
        assert np.abs(got - want).max() < 1e-13
    for e in (e1, e2):
        assert np.abs(np.einsum("uvk,uvk->uv", e, imm.position)).max() < 1e-13


def test_metric_closed_form_clifford(clifford):
    _, _, _, metric, _, _ = clifford
    assert np.abs(metric.E - 1.0).max() < 1e-14
    assert np.abs(metric.F).max() < 1e-14
    assert np.abs(metric.G - 1.0).max() < 1e-14


def test_metric_closed_form_veronese(veronese):
    # round metric of radius sqrt(3): I = 3 dt^2 + 3 sin^2(t) dphi^2
    imm, _, _, metric, _, _ = veronese
    t = imm.patch.u_coords()[:, None]
    assert np.abs(metric.E - 3.0).max() < 1e-12
    assert np.abs(metric.F).max() < 1e-12
    assert np.abs(metric.G - 3.0 * np.sin(t) ** 2).max() < 1e-12


@pytest.mark.parametrize("fix", ["clifford", "veronese", "geodesic"])
def test_full_frame_orthonormality(fix, request):
    imm, e1, e2, _, nf, _ = request.getfixturevalue(fix)
    assert frame_orthonormality_residual(imm, e1, e2, nf) < 1e-12


def _step_angle(imm, e1, e2, nf, axis, k_from, k_to):
    """Rotation of e3 over one step along axis: project e3 at index k_from
    onto the normal space at index k_to, read its angle in (e3, e4)."""
    at = lambda a, k: np.take(a, k, axis=axis)  # noqa: E731
    f, a, b = at(imm.position, k_to), at(e1, k_to), at(e2, k_to)
    t = at(nf.e3, k_from)
    for normal in (f, a, b):
        t = t - np.einsum("...k,...k->...", t, normal)[..., None] * normal
    return np.arctan2(np.einsum("...k,...k->...", t, at(nf.e4, k_to)),
                      np.einsum("...k,...k->...", t, at(nf.e3, k_to)))


@pytest.fixture(scope="module")
def rotated_clifford():
    # in the catalog embedding the torus' transport closes exactly; turned
    # by a generic SO(5) rotation its u spine closes 0.034 rad short at n=64
    Q = np.linalg.qr(np.random.default_rng(7).standard_normal((5, 5)))[0]
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    imm = clifford_torus(64).immersion
    return shape_report(ImmersionField(imm.patch, imm.position @ Q.T, imm.jet1 @ Q.T,
                                       imm.jet2 @ Q.T))


@pytest.mark.parametrize("fix, axis", [("veronese", 1), ("rotated_clifford", 0)],
                         ids=["veronese-v", "rotated-clifford-u"])
def test_normal_frame_periodic_after_correction(fix, axis, request):
    # the closure angle is spread over every step, the seam step included:
    # crossing the seam turns the gauge as much as the step before it
    imm, e1, e2, _, nf, _ = request.getfixturevalue(fix)
    seam = _step_angle(imm, e1, e2, nf, axis, -1, 0)
    interior = _step_angle(imm, e1, e2, nf, axis, -2, -1)
    assert np.abs(seam - interior).max() < 1e-5  # measured 6.0e-7 and 1.1e-6


@pytest.mark.parametrize("n", [64, 128])
def test_normal_frame_has_no_seam_kink(n):
    # a kink at the v-seam would make the second difference grow like 1/h
    imm, _, _, _, nf, _ = shape_report(veronese_sphere(n).immersion)
    assert np.abs(diff(imm.patch, nf.e3, 1, order=2)).max() <= 5.0


def test_seam_turn_spreads_the_closure_angle():
    # each entry k of n turns by -angle * k / n; a whole turn shared by
    # every lane closes by itself and is dropped
    angle = np.array([0.3, 0.5, -0.2, 0.1])
    turn = np.multiply.outer(*_seam_turn(angle, 8, cyclic_lanes=True))
    assert turn.shape == (4, 8)
    assert np.array_equal(turn, -angle[:, None] * (np.arange(8) / 8))
    for whole in (-2, 1, 3):
        shifted = np.multiply.outer(*_seam_turn(angle + 2.0 * math.pi * whole, 8,
                                                cyclic_lanes=True))
        assert np.abs(shifted - turn).max() < 1e-14


def test_seam_turn_refuses_a_winding_around_the_transverse_cycle():
    # closure angles that wind once as the lanes go round a periodic
    # transverse axis admit no periodic gauge; across an open axis the
    # same angles are unwrapped into a gauge that turns from lane to lane
    winding = 2.0 * math.pi * np.arange(16) / 16
    wrapped = np.angle(np.exp(1j * winding))
    with pytest.raises(InputError, match="winds around the transverse cycle"):
        _seam_turn(wrapped, 8, cyclic_lanes=True)
    turn = np.multiply.outer(*_seam_turn(wrapped, 8, cyclic_lanes=False))
    assert np.abs(turn + winding[:, None] * (np.arange(8) / 8)).max() < 1e-14


def test_normal_frame_is_smooth(veronese):
    # corrected gauge must not have hidden seam kinks: the discrete
    # derivative stays bounded by the true rotation rate, far below the
    # 1/h ~ 20 signature of a jump
    imm, _, _, _, nf, _ = veronese
    assert np.abs(diff(imm.patch, nf.e3, 1)).max() < 10.0
    assert np.abs(diff(imm.patch, nf.e4, 1)).max() < 10.0


# ---------------------------------------------------------------------------
# invariants against closed forms


def test_invariants_clifford(clifford):
    _, _, _, _, _, rep = clifford
    assert np.abs(rep.norm_B2 - 2.0).max() < 1e-12
    assert np.abs(rep.K).max() < 1e-12
    assert np.abs(rep.K_N).max() < 1e-12
    assert np.abs(rep.kappa - 1.0).max() < 1e-12
    assert np.abs(rep.mu).max() < 1e-12
    assert np.abs(rep.a_plus - 1.0).max() < 1e-12
    assert np.abs(rep.a_minus - 1.0).max() < 1e-12


def test_invariants_veronese(veronese):
    _, _, _, _, _, rep = veronese
    assert np.abs(rep.K - 1.0 / 3.0).max() < 1e-12
    assert np.abs(rep.K_N - 2.0 / 3.0).max() < 1e-12  # sign fixed by orientation
    assert np.abs(rep.kappa - 1.0 / SQ3).max() < 1e-8
    assert np.abs(rep.mu - 1.0 / SQ3).max() < 1e-8
    assert rep.a_minus.max() < 1e-12  # isotropic branch vanishes identically
    assert np.abs(rep.a_plus - 2.0 / SQ3).max() < 1e-12


def test_invariants_geodesic_sphere(geodesic):
    _, _, _, _, _, rep = geodesic
    assert rep.norm_B2.max() < 1e-25
    assert np.abs(rep.K - 1.0).max() < 1e-12
    assert rep.kappa.max() < 1e-12 and rep.mu.max() < 1e-12


def test_ellipse_identities(veronese, clifford):
    # |K_N| = 2 kappa mu and a_pm^2 = 1 - K +- K_N on both surfaces
    for pack in (veronese, clifford):
        rep = pack[5]
        assert np.abs(np.abs(rep.K_N) - 2.0 * rep.kappa * rep.mu).max() < 1e-12
        assert np.abs(rep.a_plus**2 - (1.0 - rep.K + rep.K_N)).max() < 1e-11
        assert np.abs(rep.a_minus**2 - (1.0 - rep.K - rep.K_N)).max() < 1e-11


def test_minimality_residual_small_on_catalog(clifford, veronese, geodesic):
    for pack in (clifford, veronese, geodesic):
        assert pack[5].minimality.max() < 1e-12


def test_minimality_detects_normal_perturbation():
    ent = clifford_torus(64)
    base = shape_report(ent.immersion)[5].minimality.max()
    bent = perturb_immersion(ent.immersion, 1e-3, seed=7)
    res = shape_report(bent)[5].minimality.max()
    assert res > 1e-4
    assert res > 100.0 * max(base, 1e-12)


# ---------------------------------------------------------------------------
# gauge behaviour


def test_invariants_are_gauge_independent(veronese):
    imm, e1, e2, metric, nf, _ = veronese
    U, V = imm.patch.mesh()
    field_angle = 0.3 * np.sin(U) * np.cos(V) + 0.37
    src = veronese_sphere(64).immersion  # shape_report's field has no second jets
    rep_a = second_fundamental_form(src.jet2, metric, nf)
    rep_b = second_fundamental_form(src.jet2, metric,
                                    rotate_normal_frame(nf, field_angle))
    for name in ("norm_B2", "K", "K_N", "kappa", "mu", "a_plus", "a_minus"):
        d = np.abs(getattr(rep_a, name) - getattr(rep_b, name)).max()
        assert d < 1e-10, f"{name} moved by {d} under a gauge rotation"


def test_h_components_rotate_covariantly(clifford):
    imm, e1, e2, metric, nf, rep = clifford
    psi = 0.41
    src = clifford_torus(64).immersion  # shape_report's field has no second jets
    rep2 = second_fundamental_form(src.jet2, metric, rotate_normal_frame(nf, psi))
    H3_want = math.cos(psi) * rep.H3 + math.sin(psi) * rep.H4
    H4_want = -math.sin(psi) * rep.H3 + math.cos(psi) * rep.H4
    assert np.abs(rep2.H3 - H3_want).max() < 1e-12
    assert np.abs(rep2.H4 - H4_want).max() < 1e-12


def test_orientation_flip_negates_normal_curvature(veronese):
    imm, e1, e2, metric, nf, rep = veronese
    src = veronese_sphere(64).immersion  # shape_report's field has no second jets
    rep2 = second_fundamental_form(src.jet2, metric, flip_normal_orientation(nf))
    assert np.abs(rep2.K_N + rep.K_N).max() < 1e-12
    assert np.abs(rep2.K - rep.K).max() < 1e-14
    assert np.abs(rep2.kappa - rep.kappa).max() < 1e-12


# ---------------------------------------------------------------------------
# consistency checks


def test_fd_jets_consistent_with_analytic():
    for entry, bound in ((clifford_torus(64), 5e-6), (veronese_sphere(64), 0.05)):
        imm = entry.immersion
        jet1, jet2 = fd_jets(imm.patch, imm.position)
        assert np.abs(jet1 - imm.jet1).max() < bound
        assert np.abs(jet2 - imm.jet2).max() < bound


@pytest.mark.parametrize("periodic", [True, False])
def test_fd_jets_write_each_derivative_into_the_jets(periodic):
    # the jets, one derivative and its stencil scratch: measured 1.41 jet
    # copies at n = 256.  Stacking five whole derivative fields into the
    # jets took 2.00.
    n = 256
    f = np.random.default_rng(5).standard_normal((n, n, 5))
    patch = GridPatch(n, n, (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi), periodic, periodic)
    tracemalloc.start()
    try:
        jet1, jet2 = fd_jets(patch, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    jets = jet1.nbytes + jet2.nbytes
    assert peak < 1.6 * jets, f"fd_jets peaked at {peak / jets:.2f} jet copies"


def test_area_from_metric(clifford, veronese, geodesic):
    # torus chart: rectangle rule is exact; sphere charts: midpoint rule
    # over the capped axis carries an O(h^2) constant ~ area * h^2 / 24
    imm, _, _, metric, _, _ = clifford
    area = integrate(imm.patch, np.ones(imm.patch.shape), metric)
    assert abs(area - 2.0 * math.pi**2) < 1e-10
    for pack, want in [(veronese, 12.0 * math.pi), (geodesic, 4.0 * math.pi)]:
        imm, _, _, metric, _, _ = pack
        area = integrate(imm.patch, np.ones(imm.patch.shape), metric)
        h = imm.patch.hu
        assert abs(area - want) < 0.1 * want * h * h


# ---------------------------------------------------------------------------
# error paths


def test_off_sphere_position_rejected():
    patch = GridPatch(8, 8, (0.0, 1.0), (0.0, 1.0), True, True)
    pos = np.zeros((8, 8, 5))
    pos[..., 0] = 1.0 + 1e-6
    with pytest.raises(InputError, match="unit sphere"):
        ImmersionField(patch, pos)


def test_degenerate_immersion_names_location():
    patch = GridPatch(8, 8, (0.0, 1.0), (0.0, 1.0), True, True)
    pos = np.zeros((8, 8, 5))
    pos[..., 0] = 1.0
    imm = ImmersionField(patch, pos, np.zeros((8, 8, 2, 5)), np.zeros((8, 8, 3, 5)))
    with pytest.raises(InputError, match=r"\(0, 0\)"):
        tangent_frame(imm)


def test_with_jets_marks_source():
    ent = clifford_torus(32)
    bare = ImmersionField(ent.immersion.patch, ent.immersion.position)
    filled = bare.with_jets()
    assert filled.jet_source == "fd"
    assert ent.immersion.jet_source == "analytic"
    with pytest.raises(InputError, match="jets"):
        tangent_frame(bare)


# ---------------------------------------------------------------------------
# the blocked shape stage against the whole-grid expressions


def _whole_grid_tangent_frame(imm):
    """tangent_frame's e1 and e2 formed on the whole grid at once: the
    oracle of the blocked Gram-Schmidt."""
    fu, fv = imm.jet1[:, :, 0, :], imm.jet1[:, :, 1, :]
    E = np.einsum("uvk,uvk->uv", fu, fu)
    F = np.einsum("uvk,uvk->uv", fu, fv)
    w = fv - (F / E)[:, :, None] * fu
    return fu / np.sqrt(E)[:, :, None], w / np.linalg.norm(w, axis=2)[:, :, None]


def _whole_grid_normal_frame(imm, e1, e2):
    """normal_frame with the column seam's turn applied to the whole grid
    at once: the oracle of the in-place, blocked turn."""
    patch, f = imm.patch, imm.position
    e3, e4 = np.empty_like(f), np.empty_like(f)
    s3, s4 = _seed_normal_basis(f[0, 0], e1[0, 0], e2[0, 0])
    if np.linalg.det(np.stack([e1[0, 0], e2[0, 0], s3, s4, f[0, 0]], axis=1)) < 0:
        s4 = -s4
    e3[0, 0], e4[0, 0] = s3, s4
    spine = [a[:, :1] for a in (f, e1, e2, e3, e4)]
    turn = _transport_lines(*spine, patch.periodic_u, False)
    if turn is not None:
        e3[:, :1], e4[:, :1] = _rotate_pair(e3[:, :1], e4[:, :1], np.multiply.outer(*turn).T)
    columns = [np.swapaxes(a, 0, 1) for a in (f, e1, e2, e3, e4)]
    turn = _transport_lines(*columns, patch.periodic_v, patch.periodic_u)
    if turn is not None:
        e3, e4 = _rotate_pair(e3, e4, np.multiply.outer(*turn))
    return e3, e4


def _whole_grid_form(imm, metric, e3, e4):
    """second_fundamental_form with every field formed on the whole grid
    at once: the oracle the blocked form must equal bit for bit."""
    fuu, fuv, fvv = (imm.jet2[:, :, k, :] for k in range(3))
    det = metric.dA**2
    a = 1.0 / np.sqrt(metric.E)
    c = np.sqrt(metric.E / det)
    b = -metric.F / np.sqrt(metric.E * det)

    def components(vec):
        return np.einsum("uvk,uvk->uv", vec, e3), np.einsum("uvk,uvk->uv", vec, e4)

    h11_3, h11_4 = components((a * a)[:, :, None] * fuu)
    h12_3, h12_4 = components((a * b)[:, :, None] * fuu + (a * c)[:, :, None] * fuv)
    h22_3, h22_4 = components(
        (b * b)[:, :, None] * fuu + (2.0 * b * c)[:, :, None] * fuv + (c * c)[:, :, None] * fvv)
    H3 = h11_3 + 1j * h12_3
    H4 = h11_4 + 1j * h12_4
    minimality = np.maximum(np.abs(h11_3 + h22_3), np.abs(h11_4 + h22_4))
    norm_B2 = 2.0 * (np.abs(H3) ** 2 + np.abs(H4) ** 2)
    K = 1.0 - norm_B2 / 2.0
    K_N = (1j * (H3 * np.conj(H4) - np.conj(H3) * H4)).real
    a_plus = np.abs(H3 - 1j * H4)
    a_minus = np.abs(H3 + 1j * H4)
    return {"H3": H3, "H4": H4, "norm_B2": norm_B2, "K": K, "K_N": K_N,
            "kappa": 0.5 * (a_plus + a_minus), "mu": 0.5 * np.abs(a_plus - a_minus),
            "a_plus": a_plus, "a_minus": a_minus, "minimality": minimality}


def _rotated_clifford_field():
    # the SO(5) rotation of tests/test_ambient_rotation.py
    Q = np.linalg.qr(np.random.default_rng(7).standard_normal((5, 5)))[0]
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    imm = clifford_torus(64).immersion
    return ImmersionField(imm.patch, imm.position @ Q.T, imm.jet1 @ Q.T, imm.jet2 @ Q.T)


def _deformed_field():
    # the open 257 x 257 chart a deformed manifest of the Clifford torus
    # carries: 257 rows are no multiple of the block
    imm, e1, e2, _, nf, rep = shape_report(clifford_torus(256).immersion)
    conn = connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           nf.e3, nf.e4, rep.H3, rep.H4)
    return deformed_immersion(integrate_frame(assemble_maurer_cartan(conn, 0.5 * math.pi),
                                              conn.origin)).with_jets()


BLOCK_CASES = {
    **{f"{make.__name__}-{n}": functools.partial(lambda make, n: make(n).immersion, make, n)
       for make in (clifford_torus, veronese_sphere, geodesic_sphere) for n in (64, 256)},
    "rotated-clifford-64": _rotated_clifford_field,
    "deformed-257": _deformed_field,
}


@functools.cache
def _block_case(name):
    imm = BLOCK_CASES[name]()
    e1, e2, metric = tangent_frame(imm)
    return imm, e1, e2, metric


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_blocked_shape_stage_equals_whole_grid_oracle(name):
    # at n = 64 a complex field (64 KB) is below numpy's temporary elision
    # size, at n = 256 (1 MB) above it; the deformed chart is open
    imm, e1, e2, metric = _block_case(name)
    want_e1, want_e2 = _whole_grid_tangent_frame(imm)
    assert np.array_equal(e1, want_e1) and np.array_equal(e2, want_e2)
    nf = normal_frame(imm.patch, imm.position, e1, e2)
    e3, e4 = _whole_grid_normal_frame(imm, e1, e2)
    assert np.array_equal(nf.e3, e3) and np.array_equal(nf.e4, e4)
    rep = second_fundamental_form(imm.jet2, metric, nf)
    for field_name, want in _whole_grid_form(imm, metric, e3, e4).items():
        assert np.array_equal(getattr(rep, field_name), want), field_name
    # 1 - K +- K_N is |H3 -+ i H4|^2 = a_pm^2 by the stage's own formulas:
    # no input makes it negative beyond roundoff, so it carries no check.
    # Measured at most 8.9e-16.
    scale = max(1.0, float(rep.norm_B2.max()))
    for sign, a in ((1.0, rep.a_plus), (-1.0, rep.a_minus)):
        assert np.abs(1.0 - rep.K + sign * rep.K_N - a**2).max() < 1e-13 * scale


def test_shape_report_holds_no_whole_grid_temporary():
    # tracemalloc peak of shape_report above its input, in (n, n) float64
    # planes.  It returns 36 planes (frames, metric, report).  Measured 39.3;
    # with the whole-grid ambient vectors, rotation products and radicands
    # 48.1
    imm = veronese_sphere(128).immersion
    plane = imm.patch.nu * imm.patch.nv * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        shape_report(imm)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 42 * plane, f"shape_report peaked at {peak / plane:.2f} planes"


def test_load_and_tangent_frame_hold_no_whole_grid_temporary():
    # tracemalloc peak above the outputs, in (n, n) float64 planes at
    # n = 128, where one block of 32 u rows is a quarter plane per scalar
    # field.  The sphere charts' loads return 30 planes (position and
    # jets); measured 8.55 (veronese) and 7.04 (geodesic-sphere) above
    # them: the unit-norm check's product of the position with itself and
    # one block's sphere jets and quadric terms.  With the whole-grid
    # unit-sphere planes 32.04 and 27.03.  tangent_frame returns 14
    # planes (e1, e2, E, F, G, dA); measured 4.28 above them: the metric's
    # determinant and one block of the Gram-Schmidt.  With whole-grid e1
    # and e2 products 7.01.
    n = 128
    plane = n * n * 8
    imm = load_catalog("veronese", n).immersion

    def jets_bytes(entry):
        imm = entry.immersion
        return imm.position.nbytes + imm.jet1.nbytes + imm.jet2.nbytes

    def frame_bytes(out):
        e1, e2, metric = out
        return e1.nbytes + e2.nbytes + sum(a.nbytes for a in
                                           (metric.E, metric.F, metric.G, metric.dA))

    checks = {
        "load veronese": (lambda: load_catalog("veronese", n), jets_bytes, 10.0),
        "load geodesic-sphere": (lambda: load_catalog("geodesic-sphere", n), jets_bytes, 10.0),
        "tangent_frame": (lambda: tangent_frame(imm), frame_bytes, 5.5),
    }
    for name, (step, outputs, bound) in checks.items():
        tracemalloc.start()
        try:
            out = step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        above = (peak - outputs(out)) / plane
        del out
        assert above < bound, f"{name} peaked {above:.2f} planes above its outputs"


@pytest.mark.parametrize("jets", ["analytic", "fd"])
def test_shape_report_field_has_no_second_jets(jets):
    # the returned field keeps the position, its checked drift and the
    # first jets; the field passed in is not changed
    imm = clifford_torus(32).immersion
    if jets == "fd":
        imm = ImmersionField(imm.patch, imm.position)
    out = shape_report(imm)[0]
    assert out.jet2 is None and out.jet1 is not None
    assert out.position is imm.position and out.norm_drift == imm.norm_drift
    assert out.jet_source == jets
    assert (imm.jet2 is None) == (jets == "fd")
