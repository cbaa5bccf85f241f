"""Euler numbers, zero counts, and the integral identities tying them together.

Oracles: the Clifford torus has K = K_N = 0 pointwise, so both Euler numbers
and all balance residuals must vanish to roundoff, and it satisfies the
3-sphere curvature test exactly.  The Veronese surface has K = 1/3 and
K_N = 2/3 with closed-form area 12*pi, pinning chi_M = 2 and chi_Nf = 4,
and its constant radius a+ makes the Laplace identity trivially tight while
the 3-sphere test must report exactly 4/3.  Zero counts are validated on
synthetic fields with prescribed zeros of known order, cross-checked against
winding numbers measured on small circles.
"""

import dataclasses
import math

import numpy as np
import pytest

from s4min.adapted import find_zero_candidates, superminimality_test, zero_orders
from s4min.catalog import clifford_torus, geodesic_sphere, veronese_sphere
from s4min.grid import GridPatch, InputError, MetricField, integrate
from s4min.surface import shape_report
from s4min.topology import (
    IntegerVerdict,
    _log_laplacian,
    balance_residuals,
    euler_numbers,
    laplace_identity_residual,
    ricci_condition_residual,
    synthetic_zero_field,
    topology_report,
    zero_count_excised,
)


@pytest.fixture(scope="module")
def clifford():
    return shape_report(clifford_torus(128).immersion)


@pytest.fixture(scope="module")
def veronese():
    return shape_report(veronese_sphere(128).immersion)


@pytest.fixture(scope="module")
def geodesic():
    return shape_report(geodesic_sphere(128).immersion)


@pytest.fixture(scope="module")
def clifford_topo(clifford):
    _, _, _, metric, _, _, rep = clifford
    return topology_report(rep, metric, superminimality_test(rep))


@pytest.fixture(scope="module")
def veronese_topo(veronese):
    _, _, _, metric, _, _, rep = veronese
    return topology_report(rep, metric, superminimality_test(rep))


@pytest.fixture(scope="module")
def flat_chart():
    n = 128
    patch = GridPatch(n, n, (0.0, 2 * math.pi), (0.0, 2 * math.pi), True, True)
    metric = MetricField(patch, np.ones((n, n)), np.zeros((n, n)), np.ones((n, n)))
    return patch, metric


# ---------------------------------------------------------------------------
# Euler numbers


def test_clifford_euler_numbers_vanish(clifford_topo):
    assert abs(clifford_topo.chi_M.value) < 1e-8
    assert abs(clifford_topo.chi_Nf.value) < 1e-8
    assert clifford_topo.chi_M.rounded == 0
    assert clifford_topo.chi_Nf.rounded == 0


def test_veronese_euler_characteristic(veronese_topo):
    assert veronese_topo.chi_M.rounded == 2
    assert veronese_topo.chi_M.gap < 0.02


def test_veronese_normal_euler_consistency(veronese, veronese_topo):
    # K_N is constant, so the quadrature must equal K_N * Area / 2pi with
    # the area measured by the same quadrature: pure internal consistency.
    _, _, _, metric, _, _, rep = veronese
    area = integrate(rep.patch, np.ones(rep.patch.shape), metric)
    k_n = float(rep.K_N[5, 5])
    assert np.ptp(rep.K_N) < 1e-10
    assert abs(veronese_topo.chi_Nf.value - k_n * area / (2 * math.pi)) < 1e-9
    assert veronese_topo.chi_Nf.rounded == 4
    assert veronese_topo.chi_Nf.gap < 0.02


def test_geodesic_sphere_euler_numbers(geodesic):
    _, _, _, metric, _, _, rep = geodesic
    chi_m, chi_n = euler_numbers(rep, metric)
    assert chi_m.rounded == 2 and chi_m.gap < 0.02
    assert chi_n.value == 0.0


def test_euler_numbers_need_closed_chart(clifford):
    _, _, _, metric, _, _, rep = clifford
    open_patch = GridPatch(
        rep.patch.nu, rep.patch.nv, rep.patch.u_range, rep.patch.v_range, False, False
    )
    open_rep = dataclasses.replace(rep, patch=open_patch)
    with pytest.raises(InputError, match="closed chart"):
        euler_numbers(open_rep, metric)


# ---------------------------------------------------------------------------
# zero counts on synthetic fields


def test_zero_count_order_two_with_smooth_factor(flat_chart):
    patch, metric = flat_chart
    a, w = synthetic_zero_field(
        patch, [(math.pi, math.pi, 2)], smooth=lambda u, v: 2.0 + np.cos(u)
    )
    cands = find_zero_candidates(patch, a)
    assert len(cands) == 1
    count = zero_count_excised(patch, a, metric, cands)
    assert abs(count.value - 2.0) < 0.05
    assert count.rounded == 2
    windings = zero_orders(patch, w, cands)
    assert [z.order for z in windings] == [2]
    assert count.rounded == sum(z.order for z in windings)


def test_zero_count_reads_the_given_log_fields(flat_chart):
    # topology_report hands the count the fields its Laplace identity
    # differentiated; the count from them is the count from the field
    patch, metric = flat_chart
    a, _ = synthetic_zero_field(patch, [(math.pi, math.pi, 1)])
    cands = find_zero_candidates(patch, a)
    given = zero_count_excised(patch, a, metric, cands, _log_laplacian(patch, a, metric))
    assert given == zero_count_excised(patch, a, metric, cands)
    assert given.rounded == 1


def test_zero_count_two_simple_zeros(flat_chart):
    patch, metric = flat_chart
    a, w = synthetic_zero_field(patch, [(1.5, 1.5, 1), (4.5, 4.0, 1)])
    cands = find_zero_candidates(patch, a)
    assert len(cands) == 2
    count = zero_count_excised(patch, a, metric, cands)
    assert count.rounded == 2
    assert [v.rounded for v in count.per_zero] == [1, 1]
    assert all(v.gap < 0.05 for v in count.per_zero)
    windings = zero_orders(patch, w, cands)
    assert sorted(z.order for z in windings) == [1, 1]


def test_zero_count_mixed_orders(flat_chart):
    # shallow order-1 dip next to an order-2 zero: explicit zero list
    patch, metric = flat_chart
    nodes = [(31, 31), (92, 82)]
    spots = [
        (patch.u_coords()[i], patch.v_coords()[j], m)
        for (i, j), m in zip(nodes, (1, 2))
    ]
    a, w = synthetic_zero_field(patch, spots, smooth=lambda u, v: 2.0 + np.sin(v))
    count = zero_count_excised(patch, a, metric, nodes)
    assert count.rounded == 3
    # each factor is a curved background for the other zero's flux, so the
    # gap is larger than in the single-zero oracles but far below rounding
    assert count.gap < 0.1
    assert [v.rounded for v in count.per_zero] == [1, 2]
    windings = zero_orders(patch, w, nodes)
    assert count.rounded == sum(z.order for z in windings)


def test_zero_count_single_simple_zero(flat_chart):
    patch, metric = flat_chart
    a, _ = synthetic_zero_field(
        patch, [(2.5, 3.5, 1)], smooth=lambda u, v: 1.5 + 0.5 * np.cos(v)
    )
    count = zero_count_excised(patch, a, metric, find_zero_candidates(patch, a))
    assert count.rounded == 1
    assert count.gap < 0.05


def test_zero_count_of_positive_field_is_exactly_zero(flat_chart):
    patch, metric = flat_chart
    count = zero_count_excised(patch, np.ones(patch.shape), metric, [])
    assert count.value == 0.0
    assert count.excised_integral == 0.0
    assert count.per_zero == ()


def test_flux_count_matches_excised_integral(flat_chart):
    patch, metric = flat_chart
    a, _ = synthetic_zero_field(patch, [(1.5, 1.5, 1), (4.5, 4.0, 1)])
    count = zero_count_excised(patch, a, metric, find_zero_candidates(patch, a))
    assert abs(count.value - count.excised_integral) < 0.02


def test_overlapping_rectangles_rejected(flat_chart):
    patch, metric = flat_chart
    a, _ = synthetic_zero_field(patch, [(3.0, 3.0, 1)])
    with pytest.raises(InputError, match="overlap"):
        zero_count_excised(patch, a, metric, [(61, 61), (64, 64)])


def test_rectangle_must_clear_open_boundary():
    n = 64
    patch = GridPatch(n, n, (0.0, 2 * math.pi), (0.0, 2 * math.pi), False, True)
    metric = MetricField(patch, np.ones((n, n)), np.zeros((n, n)), np.ones((n, n)))
    a, _ = synthetic_zero_field(patch, [(patch.u_coords()[2], 3.0, 1)])
    with pytest.raises(InputError, match="crosses the open"):
        zero_count_excised(patch, a, metric, [(2, 31)])


def test_rectangle_cannot_span_periodic_axis():
    # 8 samples along v make the production radius (6 of the larger
    # spacing, 2 pi / 8) reach 48 of the 64 u-samples on each side
    patch = GridPatch(64, 8, (0.0, 2 * math.pi), (0.0, 2 * math.pi), True, True)
    metric = MetricField(patch, np.ones(patch.shape), np.zeros(patch.shape),
                         np.ones(patch.shape))
    a, _ = synthetic_zero_field(patch, [(patch.u_coords()[31], patch.v_coords()[4], 1)])
    with pytest.raises(InputError, match="spans the whole periodic u-axis"):
        zero_count_excised(patch, a, metric, [(31, 4)])


def test_incomplete_zero_list_detected(flat_chart):
    patch, metric = flat_chart
    u1, v1 = patch.u_coords()[30], patch.v_coords()[30]
    u2, v2 = patch.u_coords()[90], patch.v_coords()[90]
    a, _ = synthetic_zero_field(patch, [(u1, v1, 1), (u2, v2, 1)])
    with pytest.raises(InputError, match="incomplete"):
        zero_count_excised(patch, a, metric, [(30, 30)])


def test_zero_count_input_validation(flat_chart):
    patch, metric = flat_chart
    with pytest.raises(InputError, match="nonnegative"):
        zero_count_excised(patch, -np.ones(patch.shape), metric, [])
    with pytest.raises(InputError, match="off the grid"):
        zero_count_excised(patch, np.ones(patch.shape), metric, [(500, 3)])
    holed = np.ones(patch.shape)
    holed[3, 4] = np.nan
    with pytest.raises(InputError, match=r"non-finite entry at grid index \(3, 4\)"):
        zero_count_excised(patch, holed, metric, [])


def test_catalog_surfaces_have_no_radius_zeros(clifford_topo, veronese_topo):
    assert clifford_topo.count_plus.value == 0.0
    assert clifford_topo.count_minus.value == 0.0
    assert veronese_topo.count_plus.value == 0.0
    assert veronese_topo.count_minus is None  # a- vanishes identically


# ---------------------------------------------------------------------------
# Euler/zero balance


def test_balance_holds_on_clifford(clifford_topo):
    balance = clifford_topo.balance
    assert balance.reason == ""
    assert balance.residual_plus < 1e-8
    assert balance.residual_minus < 1e-8


def test_balance_skipped_on_superminimal(veronese_topo):
    assert veronese_topo.laplace_minus is None  # a- vanishes identically
    assert "superminimal" in veronese_topo.balance.reason
    assert veronese_topo.balance.residual_plus is None
    assert veronese_topo.balance.residual_minus is None


def test_balance_residuals_flag_fabricated_violation():
    rp, rm = balance_residuals(1.0, 1.0, 1.0, 1.0)
    assert rp == 2.0 and rm == 4.0
    rp, rm = balance_residuals(0.0, 0.0, 0.0, 0.0)
    assert rp == 0.0 and rm == 0.0


# ---------------------------------------------------------------------------
# Laplace identity


def test_laplace_identity_clifford_both_branches(clifford):
    _, _, _, metric, _, _, rep = clifford
    for branch in ("+", "-"):
        assert laplace_identity_residual(rep, metric, branch, superminimality_test(rep)) < 1e-8


def test_laplace_identity_veronese_plus_branch(veronese):
    _, _, _, metric, _, _, rep = veronese
    assert laplace_identity_residual(rep, metric, "+", superminimality_test(rep)) < 1e-8


def test_laplace_identity_veronese_minus_branch_empty(veronese):
    _, _, _, metric, _, _, rep = veronese
    assert laplace_identity_residual(rep, metric, "-", superminimality_test(rep)) is None


def test_laplace_identity_skips_exactly_the_named_branches(clifford):
    # the branch superminimality_test names is skipped whatever its size
    # (a+ = a- = 1 on the Clifford torus), and no other
    _, _, _, metric, _, _, rep = clifford
    sup = superminimality_test(rep)
    assert sup.vanishing == ()
    named = dataclasses.replace(sup, vanishing=("-",))
    assert laplace_identity_residual(rep, metric, "-", named) is None
    assert laplace_identity_residual(rep, metric, "+", named) < 1e-8


def test_laplace_identity_wrong_normal_curvature_sign_fails(veronese):
    # negating K_N swaps the branch targets; on the Veronese surface the
    # residual of the + branch then jumps to 2|K_N| = 4/3
    _, _, _, metric, _, _, rep = veronese
    broken = dataclasses.replace(rep, K_N=-rep.K_N)
    assert laplace_identity_residual(broken, metric, "+", superminimality_test(broken)) > 1.0


def test_laplace_identity_invalid_branch(clifford):
    _, _, _, metric, _, _, rep = clifford
    with pytest.raises(InputError, match="branch"):
        laplace_identity_residual(rep, metric, "x", superminimality_test(rep))


def test_report_laplace_residuals_are_the_reference(clifford, veronese,
                                                    clifford_topo, veronese_topo):
    # the report differentiates each radius once and reads its residual
    # from that result: the numbers of the one-radius reference, bit for bit
    for (_, _, _, metric, _, _, rep), topo in ((clifford, clifford_topo),
                                               (veronese, veronese_topo)):
        sup = superminimality_test(rep)
        assert topo.laplace_plus == laplace_identity_residual(rep, metric, "+", sup)
        assert topo.laplace_minus == laplace_identity_residual(rep, metric, "-", sup)


def test_report_on_open_chart_keeps_the_laplace_residuals(clifford):
    _, _, _, metric, _, _, rep = clifford
    open_patch = GridPatch(
        rep.patch.nu, rep.patch.nv, rep.patch.u_range, rep.patch.v_range, False, False
    )
    open_rep = dataclasses.replace(rep, patch=open_patch)
    sup = superminimality_test(open_rep)
    topo = topology_report(open_rep, metric, sup)
    assert topo.unavailable.startswith("Euler-number quadrature needs a closed chart")
    for branch, residual in (("+", topo.laplace_plus), ("-", topo.laplace_minus)):
        assert residual == laplace_identity_residual(open_rep, metric, branch, sup) < 1e-8
    assert [getattr(topo, name) for name in ("chi_M", "chi_Nf", "count_plus", "count_minus",
                                             "balance", "ricci")] == [None] * 6


# ---------------------------------------------------------------------------
# 3-sphere curvature test


def test_ricci_condition_clifford_in_sphere(clifford_topo):
    assert clifford_topo.ricci < 1e-6


def test_ricci_condition_veronese_not_in_sphere(veronese_topo):
    assert abs(veronese_topo.ricci - 4.0 / 3.0) < 1e-6


def test_ricci_condition_geodesic_skipped(geodesic):
    _, _, _, metric, _, _, rep = geodesic
    assert ricci_condition_residual(rep, metric) is None


# ---------------------------------------------------------------------------
# report assembly and helpers


def test_topology_report_geodesic_gates(geodesic):
    _, _, _, metric, _, _, rep = geodesic
    sup = superminimality_test(rep)
    assert sup.vanishing == ("+", "-")
    topo = topology_report(rep, metric, sup)
    assert topo.laplace_plus is None and topo.laplace_minus is None
    assert topo.count_plus is None and topo.count_minus is None
    assert topo.balance.residual_plus is None and topo.balance.residual_minus is None
    assert topo.ricci is None


def test_synthetic_smooth_factor_must_be_positive(flat_chart):
    patch, _ = flat_chart
    with pytest.raises(InputError, match="positive"):
        synthetic_zero_field(patch, [(1.0, 1.0, 1)], smooth=lambda u, v: np.cos(u))


def test_integer_verdict_reports_gap():
    v = IntegerVerdict.of(1.98)
    assert v.rounded == 2
    assert abs(v.gap - 0.02) < 1e-12
    assert v.value == 1.98
