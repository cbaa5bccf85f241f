"""Invariance under an ambient rotation of S^4.

A rotation R in SO(5) carries the immersion f to R f, a congruent surface
with the same orientation, so every invariant the pipeline reports must
stay as it was: K, K_N, the ellipse semi-axes, minimality, the flatness
of Omega_theta, the path dependence of the frame transport and the
monodromy profile d(theta).  R is fixed by a seed and applied to the
position and both jets.

The normal gauge is seeded by projecting fixed ambient axes at grid index
(0, 0) and transported by projection and Gram-Schmidt, which is not
equivariant under a constant rotation of the normal pair.  In the catalog
orientation the Clifford torus gets a constant connection, and its
flatness and path dependence vanish to roundoff; rotated, its gauge turns
by an angle that varies at O(h^2), and both become stencil and RK4
truncation (7.5e-8 and 3.0e-5 measured at n = 64).  Their tolerances
below are truncation tolerances for that reason.
"""

import numpy as np
import pytest

from s4min.catalog import clifford_torus, veronese_sphere
from s4min.family import assemble_maurer_cartan, flatness_residual
from s4min.monodromy import scan_profile
from s4min.surface import ImmersionField, shape_report

from oracles import connection, two_sweep_path_dependence

INVARIANTS = ("K", "K_N", "kappa", "mu", "minimality")
THETAS = (0.0, 0.3)

# surface -> (catalog surface, path dependence tolerance), with the measured change
CASES = {
    "clifford": (lambda: clifford_torus(64), 5e-5),      # 3.0e-5
    "veronese": (lambda: veronese_sphere(128), 1e-12),   # 1.9e-15
}


def rotation() -> np.ndarray:
    rng = np.random.default_rng(7)
    Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def evaluate(imm: ImmersionField) -> dict:
    pack = shape_report(imm)
    conn, rep = connection(pack), pack[-1]
    out = {name: getattr(rep, name) for name in INVARIANTS}
    for theta in THETAS:
        mc = assemble_maurer_cartan(conn, theta)
        out[f"flatness {theta}"] = flatness_residual(mc)
        out[f"path {theta}"] = two_sweep_path_dependence(mc)
    out["profile"] = scan_profile(conn, n_theta=64)
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_ambient_rotation_leaves_every_invariant_unchanged(name):
    make, path_tol = CASES[name]
    imm = make()
    R = rotation()
    assert abs(np.linalg.det(R) - 1.0) < 1e-14
    assert np.abs(R.T @ R - np.eye(5)).max() < 1e-15
    rotated = ImmersionField(imm.patch, imm.position @ R.T, imm.jet1 @ R.T,
                             imm.jet2(slice(None)) @ R.T, imm.jet_source)
    a, b = evaluate(imm), evaluate(rotated)
    for key in INVARIANTS:  # measured at most 1.5e-14
        assert np.abs(a[key] - b[key]).max() < 1e-13, key
    for theta in THETAS:
        # measured at most 9.5e-8; Veronese flatness peaks at 1.2e-5
        assert np.abs(a[f"flatness {theta}"] - b[f"flatness {theta}"]).max() < 1e-6
        assert abs(a[f"path {theta}"] - b[f"path {theta}"]) < path_tol
    pa, pb = a["profile"], b["profile"]
    assert (pa.verdict, pa.classes, pa.generators) == (pb.verdict, pb.classes, pb.generators)
    assert np.abs(pa.d - pb.d).max() < 1e-10  # measured 8.2e-12
