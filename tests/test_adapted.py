"""Ellipse-aligned frames, connection forms, Hopf field, zero orders.

Connection-form oracles are hand-integrated closed forms of synthetic
(kappa1, mu1) fields (stated in comments next to each test); they are
independent of the implementation under test.
"""

import math

import numpy as np
import pytest

from s4min.adapted import (
    AdaptedFrameError,
    SuperminimalPatch,
    build_adapted_frame,
    circle_mask,
    connection_form_agreement,
    find_zero_candidates,
    frame_derivative_identity_residual,
    hopf_differential,
    superminimality_test,
    synthetic_adapted_frame,
    winding_number,
    zero_orders,
)
from s4min.catalog import clifford_torus, geodesic_sphere, perturb_immersion, veronese_sphere
from s4min.grid import GridPatch, MetricField, u_generator, v_generator
from s4min.surface import shape_report


@pytest.fixture(scope="module")
def clifford():
    return shape_report(clifford_torus(64).immersion)


@pytest.fixture(scope="module")
def clifford_adapted(clifford):
    imm, e1, e2, metric, nf, rep = clifford
    return build_adapted_frame(imm, e1, e2, metric, nf, rep)


def flat_patch(n=64):
    patch = GridPatch(n, n, (0.0, 2 * math.pi), (0.0, 2 * math.pi), True, True)
    one = np.ones(patch.shape)
    return patch, MetricField(patch, one, np.zeros(patch.shape), one.copy())


# ---------------------------------------------------------------------------
# superminimality classification


def test_superminimality_verdicts():
    for gen, want in [(clifford_torus, "generic"),
                      (veronese_sphere, "superminimal"),
                      (geodesic_sphere, "superminimal")]:
        rep = shape_report(gen(32).immersion)[5]
        assert superminimality_test(rep).verdict == want


def test_superminimal_patch_raised():
    for gen in (veronese_sphere, geodesic_sphere):
        imm, e1, e2, metric, nf, rep = shape_report(gen(32).immersion)
        with pytest.raises(SuperminimalPatch):
            build_adapted_frame(imm, e1, e2, metric, nf, rep)


# ---------------------------------------------------------------------------
# adapted frame on the flat torus


def test_clifford_alignment(clifford, clifford_adapted):
    aff = clifford_adapted
    rep = clifford[5]
    assert np.abs(aff.kappa1 - 1.0).max() < 1e-12
    assert np.abs(aff.mu1).max() < 1e-12
    assert not aff.circle_mask.any()
    assert aff.seam_winding == {"plus_u": 0, "plus_v": 0, "minus_u": 0, "minus_v": 0}
    # in the rotated frame H3 is real = kappa1 and H4 = i mu1
    H3a = np.exp(-2j * aff.chi) * (np.cos(aff.psi) * rep.H3 + np.sin(aff.psi) * rep.H4)
    H4a = np.exp(-2j * aff.chi) * (-np.sin(aff.psi) * rep.H3 + np.cos(aff.psi) * rep.H4)
    assert np.abs(H3a - aff.kappa1).max() < 1e-12
    assert np.abs(H4a - 1j * aff.mu1).max() < 1e-12
    assert np.abs((H3a * np.conj(H4a)).real).max() < 1e-12  # axis alignment


def test_clifford_frames_stay_orthonormal(clifford, clifford_adapted):
    imm = clifford[0]
    aff = clifford_adapted
    cols = np.stack([imm.position, aff.e1, aff.e2, aff.e3, aff.e4], axis=2)
    gram = np.einsum("uvik,uvjk->uvij", cols, cols)
    assert np.abs(gram - np.eye(5)).max() < 1e-12


def test_clifford_connection_forms_vanish(clifford_adapted):
    aff = clifford_adapted
    for comp in (aff.omega12_u, aff.omega12_v, aff.omega34_u, aff.omega34_v):
        assert np.abs(comp).max() < 1e-12
    agree = connection_form_agreement(aff)
    assert agree["omega12"] < 1e-12
    assert agree["omega34"] < 1e-12
    assert frame_derivative_identity_residual(aff) < 1e-10


# ---------------------------------------------------------------------------
# connection forms against hand-integrated synthetic fields


def test_connection_forms_closed_form_smooth():
    # kappa1 = 2 + cos u, mu1 = 1/2, flat chart.  By hand:
    #   omega34 = *(-mu1 d kappa1)/(kappa1^2 - 1/4) = (sin u / 2) / (kappa1^2 - 1/4) dv
    #   omega12 = -1/4 * d log(kappa1^2 - 1/4)     = kappa1 sin u / (2 (kappa1^2 - 1/4)) dv
    patch, metric = flat_patch(128)
    U, _ = patch.mesh()
    kappa1 = 2.0 + np.cos(U)
    mu1 = np.full(patch.shape, 0.5)
    aff = synthetic_adapted_frame(patch, metric, kappa1, mu1)
    den = kappa1**2 - 0.25
    assert not aff.circle_mask.any()
    assert np.abs(aff.omega34_u).max() < 1e-12
    assert np.abs(aff.omega34_v - 0.5 * np.sin(U) / den).max() < 1e-7
    assert np.abs(aff.omega12_u).max() < 1e-12
    # omega12 differentiates log(den), whose higher derivatives are larger
    # than den's; the stencil floor at n=128 is ~2.4e-6
    assert np.abs(aff.omega12_v - kappa1 * np.sin(U) / (2.0 * den)).max() < 1e-5


def test_connection_forms_masked_at_circle_line():
    # kappa1 = 2 + cos u, mu1 = 1 degenerates along u = pi; the mask must
    # cover it and the closed form must still match well away from it
    patch, metric = flat_patch(64)
    U, _ = patch.mesh()
    kappa1 = 2.0 + np.cos(U)
    mu1 = np.ones(patch.shape)
    aff = synthetic_adapted_frame(patch, metric, kappa1, mu1)
    assert aff.circle_mask.any()
    assert aff.circle_mask[32, :].all()  # u = pi row
    den = kappa1**2 - 1.0
    want = np.divide(np.sin(U), den, out=np.zeros_like(U), where=den > 1e-12)
    far = ~aff.excluded(widen=8)
    assert far.any()
    assert np.abs(aff.omega34_v - want)[far].max() < 1e-4


def test_derivative_identities_on_synthetic():
    # residual of E(kappa1) = -2 i kappa1 w12(E) + i mu1 w34(E) and its
    # mu1 twin; both hold exactly for fields built from the closed formulas,
    # so the numbers measure pure stencil error (4th order: ~16x per halving)
    def residual(n):
        patch, metric = flat_patch(n)
        U, V = patch.mesh()
        kappa1 = 2.0 + np.cos(U) * np.cos(V)
        mu1 = 0.3 + 0.2 * np.sin(U)
        aff = synthetic_adapted_frame(patch, metric, kappa1, mu1)
        return frame_derivative_identity_residual(aff)

    r64, r128 = residual(64), residual(128)
    assert r128 < 1e-5
    assert r128 < 0.12 * r64


def test_derivative_identities_catch_wrong_form():
    patch, metric = flat_patch(64)
    U, _ = patch.mesh()
    aff = synthetic_adapted_frame(patch, metric, 2.0 + np.cos(U),
                                  np.full(patch.shape, 0.5))
    base = frame_derivative_identity_residual(aff)
    aff.omega34_E = 2.0 * aff.omega34_E
    broken = frame_derivative_identity_residual(aff)
    scale = np.abs(aff.mu1 * aff.omega34_E / 2.0).max()
    assert broken > 0.5 * scale  # the spurious half of the doubled form dominates
    assert broken > 100.0 * base  # and sits far above the stencil noise floor


# ---------------------------------------------------------------------------
# Hopf field


def test_hopf_clifford_constant_and_holomorphic(clifford):
    rep, metric = clifford[5], clifford[3]
    hopf = hopf_differential(rep, metric)
    assert hopf.chart == "isothermal"
    assert np.abs(np.abs(hopf.phi_coeff) - 0.25).max() < 1e-12
    assert hopf.holo_residual.max() < 1e-8
    assert hopf.zero_list == []


def test_hopf_modulus_is_gauge_invariant(clifford):
    rep = clifford[5]
    hopf = hopf_differential(rep, clifford[3])
    want = 0.25 * rep.a_plus * rep.a_minus
    assert np.abs(np.abs(hopf.phi_coeff) - want).max() < 1e-12


def test_hopf_vanishes_superminimal():
    for gen in (veronese_sphere, geodesic_sphere):
        pack = shape_report(gen(32).immersion)
        hopf = hopf_differential(pack[5], pack[3])
        assert hopf.chart == "degenerate-zero"
        assert np.abs(hopf.phi_coeff).max() < 1e-10
        assert hopf.holo_residual.max() < 1e-10


def test_hopf_detects_broken_holomorphy(clifford):
    # corrupt H4 (the component that carries the curvature here; H3 is
    # identically zero on this torus with the default frame seed) by a
    # smooth grid-periodic real bump: the coefficient is then provably
    # not holomorphic and the Cauchy-Riemann residual must light up
    imm, e1, e2, metric, nf, rep = clifford
    U, _ = rep.patch.mesh()
    wave = np.cos(2 * np.pi * U / (rep.patch.u_range[1] - rep.patch.u_range[0]))
    bad = type(rep)(rep.patch, rep.H3, rep.H4 + 0.01 * wave, rep.norm_B2,
                    rep.K, rep.K_N, rep.kappa, rep.mu, rep.a_plus, rep.a_minus,
                    rep.minimality, rep.jet_source)
    hopf = hopf_differential(bad, metric)
    base = hopf_differential(rep, metric)
    assert hopf.holo_residual.max() > 1e-3
    assert hopf.holo_residual.max() > 1e3 * max(base.holo_residual.max(), 1e-15)


def test_hopf_rejects_non_isothermal_nonzero():
    # a generic (non-circle) shape report on a visibly non-conformal chart
    patch = GridPatch(32, 32, (0.0, 2 * math.pi), (0.0, 2 * math.pi), True, True)
    metric = MetricField(patch, np.full(patch.shape, 2.0), np.zeros(patch.shape),
                         np.ones(patch.shape))
    rep = shape_report(clifford_torus(32).immersion)[5]
    rep = type(rep)(patch, rep.H3, rep.H4, rep.norm_B2, rep.K, rep.K_N,
                    rep.kappa, rep.mu, rep.a_plus, rep.a_minus,
                    rep.minimality, rep.jet_source)
    with pytest.raises(AdaptedFrameError, match="isothermal"):
        hopf_differential(rep, metric)


# ---------------------------------------------------------------------------
# zeros and winding


def periodic_zero_field(n=128, m=1):
    """Complex field on the flat torus with one zero of order m at (pi, pi)."""
    patch = GridPatch(n, n, (0.0, 2 * math.pi), (0.0, 2 * math.pi), True, True)
    U, V = patch.mesh()
    w = (2.0 * np.sin((U - math.pi) / 2) * np.cos((V - math.pi) / 2)
         + 2j * np.sin((V - math.pi) / 2))
    return patch, w**m * (2.0 + np.cos(U))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_zero_orders_synthetic(m):
    patch, field = periodic_zero_field(m=m)
    cands = find_zero_candidates(patch, field)
    assert cands == [(64, 64)]
    orders = zero_orders(patch, field, cands)
    assert len(orders) == 1
    z = orders[0]
    assert z.order == m and z.gap < 0.05 and not z.flagged


def test_zero_orders_flags_non_holomorphic_type():
    patch, field = periodic_zero_field(m=1)
    squared = (np.abs(field) ** 2).astype(complex)
    cands = find_zero_candidates(patch, squared)
    orders = zero_orders(patch, squared, cands)
    assert orders[0].order == 0
    assert orders[0].flagged


def test_no_zeros_empty_list():
    patch, _ = periodic_zero_field(m=1)
    U, _ = patch.mesh()
    field = (2.0 + np.cos(U)).astype(complex)
    assert find_zero_candidates(patch, field) == []


def test_winding_sum_rule_clifford(clifford):
    # nonvanishing coefficient on the torus: zero list empty and the
    # winding along both generating cycles is zero
    rep, metric = clifford[5], clifford[3]
    hopf = hopf_differential(rep, metric)
    patch = rep.patch
    phi = hopf.phi_coeff
    for loop in (u_generator(patch), v_generator(patch)):
        pts = loop.points
        vals = phi[pts[:, 0] % patch.nu, pts[:, 1] % patch.nv]
        inc = np.angle(vals[1:] * np.conj(vals[:-1]))
        assert abs(np.sum(inc)) < 1e-10


def test_winding_number_direct():
    patch, field = periodic_zero_field(m=2)
    w = winding_number(patch, field, (math.pi, math.pi), 0.3)
    assert abs(w - 2.0) < 0.01
