"""Invariance under a shift, a flip or an axis swap of the chart.

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

The axis swap exchanges u and v with their flags, caps, ranges and jet
components.  It must keep the topology and closing answers, and each
structure-equation and frame-check residual within 2x.
"""

import dataclasses
import json

import numpy as np
import pytest

from s4min.catalog import clifford_torus, geodesic_sphere, veronese_sphere, write_manifest
from s4min.cli import main
from s4min.family import (assemble_maurer_cartan, coframe, connection_data, flatness_residual,
                          frame_source_deviation)
from s4min.grid import GridPatch
from s4min.monodromy import scan_profile
from s4min.surface import ImmersionField, shape_report
from s4min.topology import euler_numbers

from oracles import two_sweep_path_dependence

INVARIANTS = ("K", "K_N", "kappa", "mu", "a_plus", "a_minus", "minimality")
THETAS = (0.0, 0.3)

# surface -> (catalog entry, whether the u axis is periodic)
CASES = {
    "clifford": (lambda: clifford_torus(64), True),
    "veronese": (lambda: veronese_sphere(128), False),
}


def evaluate(imm: ImmersionField) -> dict:
    imm, e1, e2, metric, e3, e4, rep = shape_report(imm)
    conn = connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           e3, e4, rep.H3, rep.H4)
    out = {name: getattr(rep, name) for name in INVARIANTS}
    for theta in THETAS:
        mc = assemble_maurer_cartan(conn, theta)
        out[f"flatness {theta}"] = float(flatness_residual(mc).max())
        out[f"path {theta}"] = two_sweep_path_dependence(mc)
    return out


def shifted(imm: ImmersionField, su: int, sv: int):
    """The surface on the chart that starts su rows along u, sv along v."""
    p = imm.patch

    def move(x):
        return np.roll(x, (-su, -sv), axis=(0, 1))

    patch = dataclasses.replace(
        p, u_range=(p.u_range[0] + su * p.hu, p.u_range[1] + su * p.hu),
        v_range=(p.v_range[0] + sv * p.hv, p.v_range[1] + sv * p.hv))
    return ImmersionField(patch, move(imm.position), move(imm.jet1),
                          move(imm.jet2(slice(None))), imm.jet_source), move


def flipped(imm: ImmersionField):
    """The surface on the chart v -> -v."""
    idx = -np.arange(imm.patch.nv) % imm.patch.nv

    def move(x):
        return x[:, idx]

    jet1, jet2 = move(imm.jet1), move(imm.jet2(slice(None)))
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


# ---------------------------------------------------------------------------
# axis swap: the same surface with u and v exchanged


def transposed(imm: ImmersionField) -> ImmersionField:
    """The surface on the chart (v, u): flags, caps, ranges and jets swapped."""
    p = imm.patch
    patch = GridPatch(p.nv, p.nu, p.v_range, p.u_range, p.periodic_v, p.periodic_u,
                      p.cap_v, p.cap_u)

    def swap(x):
        return np.ascontiguousarray(np.swapaxes(x, 0, 1))

    # (f_u, f_v) -> (f_v, f_u) and (f_uu, f_uv, f_vv) -> (f_vv, f_uv, f_uu)
    return ImmersionField(patch, swap(imm.position), swap(imm.jet1[:, :, ::-1]),
                          swap(imm.jet2(slice(None))[:, :, ::-1]), imm.jet_source)


def answers_and_residuals(imm: ImmersionField) -> tuple[dict, dict]:
    imm, e1, e2, metric, e3, e4, rep = shape_report(imm)
    chi_m, chi_n = euler_numbers(rep, metric)
    conn = connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           e3, e4, rep.H3, rep.H4)
    mc0 = assemble_maurer_cartan(conn, 0.0)
    profile = scan_profile(conn, n_theta=64)
    answers = {"chi_M": chi_m.rounded, "chi_N": chi_n.rounded,
               "verdict": profile.verdict, "classes": profile.classes}
    residuals = {
        "flatness": float(flatness_residual(mc0).max()),
        "source": frame_source_deviation(mc0, (imm.position, e1, e2, e3, e4)),
        "path 0.5": two_sweep_path_dependence(assemble_maurer_cartan(conn, 0.5)),
    }
    return answers, residuals


@pytest.mark.parametrize("make", [
    lambda: clifford_torus(64),
    lambda: geodesic_sphere(64),
    pytest.param(lambda: veronese_sphere(128), marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the normal gauge of a winding normal bundle depends on which "
               "axis carries the cap: flatness 1.2e-5 -> 3.8e-4, and the "
               "two sweeps at theta = 0.5 disagree beyond PATH_DEPENDENCE_TOL "
               "(ROADMAP item 14)")),
], ids=["clifford", "geodesic-sphere", "veronese"])
def test_axis_swap_keeps_answers_and_residuals(make):
    imm = make().immersion
    base_answers, base = answers_and_residuals(imm)
    answers, got = answers_and_residuals(transposed(imm))
    assert answers == base_answers
    for key, value in got.items():  # measured: within 1.2x, or both at roundoff
        if max(value, base[key]) >= 1e-12:
            assert 0.5 * base[key] <= value <= 2.0 * base[key], key


def test_deform_writes_the_transposed_veronese_member(tmp_path, capsys):
    # the member's metric deviates by 5.3e-7 on the transposed chart, 3.7e-5
    # on the catalog chart; two sweeps of its Omega disagree by 2.2e-3
    manifest = write_manifest(transposed(veronese_sphere(128).immersion), tmp_path / "src")
    code = main(["deform", "--manifest", str(manifest), "--theta", "0.5",
                 "--out", str(tmp_path / "d")])
    assert code == 0, capsys.readouterr().out
    report = json.loads((tmp_path / "d" / "report.json").read_text())
    assert report["invariant_deviation"] < 1e-6
    assert report["congruence"]["congruent"] is True
    assert (tmp_path / "d" / "deformed" / "manifest.json").is_file()
