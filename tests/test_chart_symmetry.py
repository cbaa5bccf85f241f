"""Invariance under a shift or a flip of the chart.

The same surface sampled on a moved chart must give the same pointwise
invariants at the moved samples, and the same structure-equation
residuals:

* shift: the samples rolled by whole rows along each periodic axis
  (Clifford torus: both axes; Veronese sphere: the periodic azimuth v
  only, the capped polar axis stays put), with the chart ranges moved to
  match;
* flip: v -> -v, so index j goes to -j mod nv, and every jet component
  that carries one v-derivative changes sign.

K_N keeps its sign under the flip: the normal frame is oriented by
det[e1 e2 e3 e4 f] > 0, so the normal orientation turns with the chart.

The normal gauge is seeded at grid index (0, 0) and transported from
there, so a moved chart gets a different gauge.  On the Clifford torus
the connection stays constant in either gauge and the residuals stay at
roundoff; on the Veronese sphere they are 4th-order truncation and must
not move beyond roundoff of their own size.
"""

import dataclasses

import numpy as np
import pytest

from s4min.catalog import clifford_torus, veronese_sphere
from s4min.family import (assemble_maurer_cartan, connection_data, flatness_residual,
                          integrate_frame)
from s4min.surface import ImmersionField, shape_report

INVARIANTS = ("K", "K_N", "kappa", "mu", "a_plus", "a_minus", "minimality")
THETAS = (0.0, 0.3)

# surface -> (catalog entry, whether the u axis is periodic)
CASES = {
    "clifford": (lambda: clifford_torus(64), True),
    "veronese": (lambda: veronese_sphere(128), False),
}


def evaluate(imm: ImmersionField) -> dict:
    imm, e1, e2, metric, nf, rep = shape_report(imm)
    conn = connection_data(imm.patch, imm.position, imm.jet1, e1, e2, nf.e3, nf.e4,
                           rep.H3, rep.H4)
    out = {name: getattr(rep, name) for name in INVARIANTS}
    for theta in THETAS:
        mc = assemble_maurer_cartan(conn, theta)
        out[f"flatness {theta}"] = float(flatness_residual(mc).max())
        out[f"path {theta}"] = integrate_frame(mc, conn.origin).path_dependence
    return out


def shifted(imm: ImmersionField, su: int, sv: int):
    """The surface on the chart that starts su rows along u, sv along v."""
    p = imm.patch

    def move(x):
        return np.roll(x, (-su, -sv), axis=(0, 1))

    patch = dataclasses.replace(
        p, u_range=(p.u_range[0] + su * p.hu, p.u_range[1] + su * p.hu),
        v_range=(p.v_range[0] + sv * p.hv, p.v_range[1] + sv * p.hv))
    return ImmersionField(patch, move(imm.position), move(imm.jet1), move(imm.jet2),
                          imm.jet_source), move


def flipped(imm: ImmersionField):
    """The surface on the chart v -> -v."""
    idx = -np.arange(imm.patch.nv) % imm.patch.nv

    def move(x):
        return x[:, idx]

    jet1, jet2 = move(imm.jet1), move(imm.jet2)
    jet1[..., 1, :] *= -1.0  # f_v
    jet2[..., 1, :] *= -1.0  # f_uv
    return ImmersionField(imm.patch, move(imm.position), jet1, jet2, imm.jet_source), move


@pytest.mark.parametrize("name", sorted(CASES))
def test_chart_shift_and_flip_leave_invariants_unchanged(name):
    make, u_periodic = CASES[name]
    imm = make().immersion
    rng = np.random.default_rng(7)
    su = int(rng.integers(1, imm.patch.nu)) if u_periodic else 0
    sv = int(rng.integers(1, imm.patch.nv))
    base = evaluate(imm)
    for moved, move in (shifted(imm, su, sv), flipped(imm)):
        got = evaluate(moved)
        for key in INVARIANTS:  # measured at most 1.1e-15
            assert np.abs(got[key] - move(base[key])).max() < 1e-13, key
        for key in (f"{kind} {theta}" for kind in ("flatness", "path") for theta in THETAS):
            if name == "clifford":  # measured at most 1.2e-14
                assert got[key] < 1e-12, key
            else:  # 1.20e-5 and 5.50e-5; measured relative change at most 1.5e-10
                assert abs(got[key] - base[key]) <= 1e-9 * base[key], key
