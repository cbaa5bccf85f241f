"""Catalog generators, perturbations, and the sampled-immersion manifest."""

import json
import math

import numpy as np
import pytest

from s4min.catalog import (
    _sphere_chart,
    _unit_sphere_jets,
    _veronese_maps,
    catalog_names,
    clifford_torus,
    geodesic_sphere,
    load_catalog,
    perturb_immersion,
    read_manifest,
    veronese_sphere,
    write_manifest,
)
from s4min.grid import InputError, integrate, row_blocks
from s4min.surface import ImmersionField, fd_jets, normal_frame, tangent_frame


def blocked(imm: ImmersionField) -> np.ndarray:
    """The second jets as their readers see them, one block of u rows at
    a time, put together."""
    return np.concatenate([imm.jet2(rows) for rows in row_blocks(imm.patch.nu)])


def test_registry_names_and_lookup():
    assert catalog_names() == ["clifford", "geodesic-sphere", "veronese"]
    ent = load_catalog("clifford", 32)
    assert ent.immersion.patch.nu == 32
    with pytest.raises(InputError, match="veronese"):
        load_catalog("does-not-exist")


def test_clifford_chart_is_isothermal_unit():
    ent = clifford_torus(32)
    _, _, metric = tangent_frame(ent.immersion)
    assert np.abs(metric.E - 1.0).max() < 1e-14
    assert np.abs(metric.F).max() < 1e-14
    assert np.abs(metric.G - 1.0).max() < 1e-14
    area = integrate(ent.immersion.patch, np.ones((32, 32)), metric)
    assert abs(area - 2.0 * math.pi**2) < 1e-10


def test_veronese_lies_on_unit_sphere_exactly():
    # |f|^2 = (w . A_k w)_k sums to |w|^4 = 1: an algebraic identity of the
    # five quadrics, so any drift here is a bug in the matrices
    ent = veronese_sphere(64)
    norms = np.linalg.norm(ent.immersion.position, axis=2)
    assert np.abs(norms - 1.0).max() < 1e-14


@pytest.mark.parametrize("n", [32, 256])
def test_veronese_jets_match_einsum_oracle(n):
    # the quadric and its jets, x . A_k y, as a 3-operand einsum
    patch = _sphere_chart(n)
    w, wt, wp, wtt, wtp, wpp = _unit_sphere_jets(*patch.mesh())
    A = _veronese_maps()

    def quad(x, y):
        return np.einsum("puv,kpq,quv->uvk", x, A, y)

    imm = veronese_sphere(n).immersion
    assert np.array_equal(imm.position, quad(w, w))
    assert np.array_equal(imm.jet1, np.stack([2.0 * quad(wt, w), 2.0 * quad(wp, w)], axis=2))
    assert np.array_equal(blocked(imm), np.stack([2.0 * (quad(wt, wt) + quad(wtt, w)),
                                                  2.0 * (quad(wt, wp) + quad(wtp, w)),
                                                  2.0 * (quad(wp, wp) + quad(wpp, w))], axis=2))


def test_veronese_area_converges_at_second_order():
    # midpoint quadrature over the capped polar axis: error ~ C h^2, so the
    # Richardson combination (4 A_2n - A_n)/3 must be much closer than A_2n
    want = 12.0 * math.pi

    def area(n):
        ent = veronese_sphere(n)
        _, _, metric = tangent_frame(ent.immersion)
        return integrate(ent.immersion.patch, np.ones(ent.immersion.patch.shape), metric)

    a64, a128 = area(64), area(128)
    assert abs(a64 - want) < 5e-3
    assert abs(a128 - want) < 1.3e-3
    assert abs(a128 - want) < 0.3 * abs(a64 - want)  # ~ 1/4 per halving
    assert abs((4.0 * a128 - a64) / 3.0 - want) < 1e-5


def test_sphere_chart_avoids_poles():
    ent = veronese_sphere(16)
    t = ent.immersion.patch.u_coords()
    h = math.pi / 16
    assert abs(t[0] - h / 2) < 1e-15
    assert abs(t[-1] - (math.pi - h / 2)) < 1e-15
    assert not ent.immersion.patch.periodic_u
    assert ent.immersion.patch.periodic_v


def test_geodesic_sphere_spans_three_dims():
    ent = geodesic_sphere(16)
    assert np.abs(ent.immersion.position[..., 3:]).max() == 0.0


@pytest.mark.parametrize("n", [16, 256])
def test_geodesic_sphere_jets_are_the_whole_grid_unit_sphere_jets(n):
    # built one block of u rows at a time (n = 16 is one partial block),
    # the jets equal the unit-sphere jets taken on the whole chart at once
    jets = _unit_sphere_jets(*_sphere_chart(n).mesh())
    imm = geodesic_sphere(n).immersion
    fields = (imm.position, imm.jet1[:, :, 0], imm.jet1[:, :, 1],
              *np.moveaxis(blocked(imm), 2, 0))
    for field, w in zip(fields, jets):
        assert np.array_equal(field[..., :3], np.moveaxis(w, 0, -1))
        assert not field[..., 3:].any()


def test_perturbation_reproducible_and_seed_sensitive():
    ent = clifford_torus(32)
    a = perturb_immersion(ent.immersion, 1e-3, seed=11)
    b = perturb_immersion(ent.immersion, 1e-3, seed=11)
    c = perturb_immersion(ent.immersion, 1e-3, seed=12)
    assert np.array_equal(a.position, b.position)
    assert not np.array_equal(a.position, c.position)
    assert a.jet_source == "fd"
    drift = np.abs(np.linalg.norm(a.position, axis=2) - 1.0).max()
    assert drift < 1e-15
    assert np.abs(a.position - ent.immersion.position).max() < 2e-2


def _perturbed_position_oracle(imm, amplitude, seed):
    """The perturbed position as perturb_immersion built it when it still
    took the perturbed field's jets itself, with the source alive."""
    src = imm.with_jets()
    e3, e4 = normal_frame(src.patch, src.position, *tangent_frame(src)[:2])
    patch = imm.patch
    rng = np.random.default_rng(seed)
    U, V = patch.mesh()
    su = 2.0 * math.pi / (patch.u_range[1] - patch.u_range[0])
    sv = 2.0 * math.pi / (patch.v_range[1] - patch.v_range[0])

    def bump():
        out = np.zeros(patch.shape)
        for ku in (1, 2):
            for kv in (1, 2):
                c = rng.normal(size=4)
                out += (c[0] * np.cos(ku * su * U) + c[1] * np.sin(ku * su * U)) * \
                       (c[2] * np.cos(kv * sv * V) + c[3] * np.sin(kv * sv * V))
        return out

    g = imm.position + amplitude * (bump()[:, :, None] * e3 +
                                    bump()[:, :, None] * e4)
    return g / np.linalg.norm(g, axis=2)[:, :, None]


@pytest.mark.parametrize("name, n, jets, seed", [
    ("clifford", 32, "analytic", 11), ("veronese", 64, "analytic", 3),
    ("geodesic-sphere", 32, "none", 0)])
def test_perturbed_position_equals_the_oracle(name, n, jets, seed):
    # the perturbed field comes without jets, so a caller can let the
    # source's go before they are taken; the position is unchanged
    imm = load_catalog(name, n).immersion
    if jets == "none":
        imm = ImmersionField(imm.patch, imm.position)
    bent = perturb_immersion(imm, 1e-3, seed)
    assert np.array_equal(bent.position, _perturbed_position_oracle(imm, 1e-3, seed))
    assert bent.jet1 is None and bent.jet2 is None and bent.jet_source == "fd"
    filled = bent.with_jets()
    want = fd_jets(imm.patch, bent.position)
    assert np.array_equal(filled.jet1, want[0]) and np.array_equal(blocked(filled), want[1])


# ---------------------------------------------------------------------------
# manifests


def test_manifest_roundtrip_bitwise(tmp_path):
    ent = clifford_torus(32)
    path = write_manifest(ent.immersion, tmp_path)
    imm, drift = read_manifest(path)
    assert drift < 1e-15
    assert np.array_equal(imm.position, ent.immersion.position)
    assert np.array_equal(imm.jet1, ent.immersion.jet1)
    assert np.array_equal(blocked(imm), blocked(ent.immersion))
    assert imm.jet_source == "analytic"


def test_manifest_without_jets_uses_stencils(tmp_path):
    ent = clifford_torus(32)
    fd = ImmersionField(ent.immersion.patch, ent.immersion.position).with_jets()
    # finite-difference jets are not stored: stored jets read back as analytic
    path = write_manifest(fd, tmp_path)
    assert "jets" not in json.loads(path.read_text())
    imm, _ = read_manifest(path)
    assert imm.jet_source == "fd"
    assert np.array_equal(imm.jet1, fd.jet1) and np.array_equal(blocked(imm), blocked(fd))
    assert np.abs(imm.jet1 - ent.immersion.jet1).max() < 1e-4


def test_manifest_norm_tiers(tmp_path):
    ent = clifford_torus(16)

    def with_scale(s, sub):
        imm = ent.immersion
        d = tmp_path / sub
        path = write_manifest(ImmersionField(imm.patch, imm.position), d)
        raw = np.fromfile(d / "position.f64", dtype="<f8")
        (raw * s).astype("<f8").tofile(d / "position.f64")
        return path

    # drift above 1e-12 is renormalized and reported as it was read
    for scale, sub in ((5e-11, "tiny"), (5e-8, "mid")):
        imm, drift = read_manifest(with_scale(1.0 + scale, sub))
        assert 0.8 * scale < drift < 1.2 * scale
        assert np.abs(np.linalg.norm(imm.position, axis=2) - 1.0).max() < 1e-14
    with pytest.raises(InputError, match="refusing"):
        read_manifest(with_scale(1.0 + 5e-6, "bad"))


def test_manifest_malformed_inputs(tmp_path):
    ent = clifford_torus(16)
    path = write_manifest(ent.immersion, tmp_path)

    doc = json.loads(path.read_text())
    doc["kind"] = "other"
    bad = tmp_path / "bad_kind.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="kind"):
        read_manifest(bad)

    doc = json.loads(path.read_text())
    del doc["grid"]["nu"]
    bad = tmp_path / "bad_grid.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="malformed"):
        read_manifest(bad)

    doc = json.loads(path.read_text())
    doc["position"] = "missing.f64"
    bad = tmp_path / "bad_pos.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(InputError, match="not found"):
        read_manifest(bad)

    # truncated payload: expected element count must appear in the message
    (tmp_path / "position.f64").write_bytes(b"\x00" * 64)
    with pytest.raises(InputError, match="1280"):
        read_manifest(path)
