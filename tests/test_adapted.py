"""Superminimality verdict, Hopf field, zero candidates and winding orders."""

import math

import numpy as np
import pytest

from s4min.adapted import (
    find_zero_candidates,
    hopf_coefficient,
    hopf_differential,
    superminimality_test,
)
from s4min.catalog import (
    catalog_names,
    clifford_torus,
    geodesic_sphere,
    load_catalog,
    perturb_immersion,
    veronese_sphere,
)
from s4min.family import (
    assemble_maurer_cartan,
    deformed_immersion,
    integrate_frame,
)
from s4min.grid import GridPatch, InputError, MetricField
from s4min.surface import ImmersionField, shape_report

from oracles import connection, winding_number, zero_orders
from test_ambient_rotation import rotation


@pytest.fixture(scope="module")
def clifford():
    return shape_report(clifford_torus(64))


# ---------------------------------------------------------------------------
# superminimality classification


def _surface(name, n, variant):
    """The catalog surface with analytic jets, fd jets, rotated by
    test_ambient_rotation's R (jets by finite differences), perturbed, or
    as the member at angle theta."""
    imm = load_catalog(name, n)
    kind, _, arg = variant.partition(" ")
    if kind == "fd":
        return imm.with_fd_jets()
    if kind == "rotated":
        return ImmersionField(imm.patch, imm.position @ rotation().T).with_jets()
    if kind == "perturb":
        return perturb_immersion(imm, float(arg), 0).with_jets()
    if kind == "member":
        conn = connection(shape_report(imm))
        mc = assemble_maurer_cartan(conn, float(arg))
        return deformed_immersion(imm.patch, integrate_frame(mc)).with_jets()
    return imm


# (surface, n, variant, verdict); a perturbed surface may read anything but
# superminimal.  With fd jets the Veronese a- peaks at 1.3e-3, 7.9e-5 and
# 4.9e-6 for n = 32, 64 and 128, against the floor 1e-4; both radii of the
# rotated geodesic sphere are stencil noise (3.6e-6, 1.1e-7 and 3.5e-9).
VERDICT_TABLE = [
    *[("clifford", n, jets, "generic") for n in (32, 64, 128) for jets in ("analytic", "fd")],
    *[("veronese", n, "analytic", "superminimal") for n in (32, 64, 128)],
    ("veronese", 32, "fd", "generic"),
    ("veronese", 64, "fd", "superminimal"),
    ("veronese", 128, "fd", "superminimal"),
    *[("geodesic-sphere", n, variant, "superminimal") for n in (32, 64, 128)
      for variant in ("analytic", "fd", "rotated")],
    *[(name, n, f"perturb {amp:g}", None)
      for name in catalog_names() for amp in (1e-3, 1e-5) for n in (64, 128)],
    ("veronese", 128, "member 0.5", "superminimal"),
]


def test_superminimality_verdicts():
    # one floor decides the verdict, the vanishing radii and the circle
    # points: superminimal exactly when a radius vanishes, and then every
    # node is a circle point
    wrong = []
    for name, n, variant, want in VERDICT_TABLE:
        rep = shape_report(_surface(name, n, variant))[-1]
        sup = superminimality_test(rep)
        superminimal = sup.verdict == "superminimal"
        as_wanted = not superminimal if want is None else sup.verdict == want
        if (superminimal != bool(sup.vanishing)
                or superminimal != (sup.circle_point_count == rep.kappa.size)
                or not as_wanted):
            wrong.append((name, n, variant, sup.verdict, sup.vanishing,
                          sup.circle_point_count, rep.kappa.size))
    assert wrong == []


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
        pack = shape_report(gen(32))
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
    rep = shape_report(clifford_torus(32))[-1]
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
