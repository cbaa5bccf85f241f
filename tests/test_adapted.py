"""Superminimality verdict, Hopf field, zero candidates and winding orders."""

import math

import numpy as np
import pytest

from s4min.adapted import (
    find_zero_candidates,
    hopf_coefficient,
    hopf_differential,
    superminimality_test,
    winding_number,
    zero_orders,
)
from s4min.catalog import clifford_torus, geodesic_sphere, veronese_sphere
from s4min.grid import GridPatch, InputError, MetricField
from s4min.surface import shape_report


@pytest.fixture(scope="module")
def clifford():
    return shape_report(clifford_torus(64).immersion)


# ---------------------------------------------------------------------------
# superminimality classification


def test_superminimality_verdicts():
    for gen, want in [(clifford_torus, "generic"),
                      (veronese_sphere, "superminimal"),
                      (geodesic_sphere, "superminimal")]:
        rep = shape_report(gen(32).immersion)[-1]
        assert superminimality_test(rep).verdict == want


# ---------------------------------------------------------------------------
# Hopf field


def test_hopf_clifford_constant_and_holomorphic(clifford):
    rep, metric = clifford[-1], clifford[3]
    assert np.abs(np.abs(hopf_coefficient(rep)) - 0.25).max() < 1e-12
    holo = hopf_differential(rep, metric, hopf_coefficient(rep), superminimality_test(rep))
    assert holo.max() < 1e-8


def test_hopf_modulus_is_gauge_invariant(clifford):
    rep = clifford[-1]
    want = 0.25 * rep.a_plus * rep.a_minus
    assert np.abs(np.abs(hopf_coefficient(rep)) - want).max() < 1e-12


def test_hopf_vanishes_superminimal():
    for gen in (veronese_sphere, geodesic_sphere):
        pack = shape_report(gen(32).immersion)
        assert np.abs(hopf_coefficient(pack[-1])).max() < 1e-10
        holo = hopf_differential(pack[-1], pack[3], hopf_coefficient(pack[-1]),
                                 superminimality_test(pack[-1]))
        assert holo.max() < 1e-10


def test_hopf_detects_broken_holomorphy(clifford):
    # corrupt H4 (the component that carries the curvature here; H3 is
    # identically zero on this torus with the default frame seed) by a
    # smooth grid-periodic real bump: the coefficient is then provably
    # not holomorphic and the Cauchy-Riemann residual must light up
    imm, e1, e2, metric, e3, e4, rep = clifford
    U, _ = rep.patch.mesh()
    wave = np.cos(2 * np.pi * U / (rep.patch.u_range[1] - rep.patch.u_range[0]))
    bad = type(rep)(rep.patch, rep.H3, rep.H4 + 0.01 * wave, rep.norm_B2,
                    rep.K, rep.K_N, rep.kappa, rep.mu, rep.a_plus, rep.a_minus,
                    rep.minimality)
    holo = hopf_differential(bad, metric, hopf_coefficient(bad), superminimality_test(bad)).max()
    base = hopf_differential(rep, metric, hopf_coefficient(rep), superminimality_test(rep)).max()
    assert holo > 1e-3
    assert holo > 1e3 * max(base, 1e-15)


def test_hopf_rejects_non_isothermal_nonzero():
    # a generic (non-circle) shape report on a visibly non-conformal chart
    patch = GridPatch(32, 32, (0.0, 2 * math.pi), (0.0, 2 * math.pi), True, True)
    metric = MetricField(patch, np.full(patch.shape, 2.0), np.zeros(patch.shape),
                         np.ones(patch.shape))
    rep = shape_report(clifford_torus(32).immersion)[-1]
    rep = type(rep)(patch, rep.H3, rep.H4, rep.norm_B2, rep.K, rep.K_N,
                    rep.kappa, rep.mu, rep.a_plus, rep.a_minus,
                    rep.minimality)
    with pytest.raises(InputError, match="isothermal"):
        hopf_differential(rep, metric, hopf_coefficient(rep), superminimality_test(rep))


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
    phi = hopf_coefficient(clifford[-1])
    for line in (phi[:, 0], phi[0, :]):  # once around u along row 0, v along column 0
        vals = np.append(line, line[0])
        inc = np.angle(vals[1:] * np.conj(vals[:-1]))
        assert abs(np.sum(inc)) < 1e-10


def test_winding_number_direct():
    patch, field = periodic_zero_field(m=2)
    w = winding_number(patch, field, (math.pi, math.pi), 0.3)
    assert abs(w - 2.0) < 0.01
