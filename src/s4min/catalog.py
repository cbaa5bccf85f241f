"""Built-in model surfaces, perturbations, and sampled-immersion manifests.

Every generator returns an ImmersionField with analytic jets plus a dict of
the surface's known exact values, so tests and the verification pipeline can
compare against ground truth rather than against the code under test.

Manifest format for externally sampled surfaces: a JSON file

    {
      "kind": "sampled",
      "grid": {"nu": .., "nv": .., "u_range": [a, b], "v_range": [a, b],
               "periodic_u": true, "periodic_v": true},
      "position": "position.f64",
      "jets": {"first": "jet1.f64", "second": "jet2.f64"},   # optional, analytic
      "endianness": "little",
      "layout": "row-major, v fastest"
    }

with raw little-endian float64 arrays of shape (nu, nv, 5), (nu, nv, 2, 5)
and (nu, nv, 3, 5) in C order, paths relative to the manifest.  Stored jets
are read as analytic, so only analytic jets are written; missing jets are
filled by finite differences.  On ingest the position is renormalized onto
the sphere when |position| drifts from 1 by more than 1e-12, and rejected
above 1e-6; the drift before renormalization is returned, and reported by
the CLI, as ``norm_drift``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .grid import GridPatch
from .surface import (UNIT_NORM_TOL, ImmersionField, SurfaceError, fd_jets, normal_frame,
                      tangent_frame)


class CatalogError(ValueError):
    """Raised for unknown catalog names or malformed manifests."""


@dataclass
class CatalogEntry:
    immersion: ImmersionField
    truth: dict


# ---------------------------------------------------------------------------
# flat minimal torus


def clifford_torus(n: int = 256) -> CatalogEntry:
    """The square flat minimal torus in S^4 (inside an equatorial S^3).

    f(u, v) = (cos a, sin a, cos b, sin b, 0)/sqrt(2) with a = sqrt(2) u,
    b = sqrt(2) v; the chart [0, sqrt(2) pi)^2 is isothermal with unit
    conformal factor and covers the torus exactly once.
    """
    L = math.sqrt(2.0) * math.pi
    patch = GridPatch(n, n, (0.0, L), (0.0, L), True, True)
    U, V = patch.mesh()
    r2 = math.sqrt(2.0)
    a = r2 * U
    b = r2 * V
    z = np.zeros_like(U)
    inv = 1.0 / r2

    f = np.stack([inv * np.cos(a), inv * np.sin(a),
                  inv * np.cos(b), inv * np.sin(b), z], axis=-1)
    fu = np.stack([-np.sin(a), np.cos(a), z, z, z], axis=-1)
    fv = np.stack([z, z, -np.sin(b), np.cos(b), z], axis=-1)
    fuu = np.stack([-r2 * np.cos(a), -r2 * np.sin(a), z, z, z], axis=-1)
    fuv = np.zeros_like(f)
    fvv = np.stack([z, z, -r2 * np.cos(b), -r2 * np.sin(b), z], axis=-1)

    imm = ImmersionField(patch, f,
                         np.stack([fu, fv], axis=2),
                         np.stack([fuu, fuv, fvv], axis=2))
    truth = {
        "name": "clifford",
        "topology": "torus",
        "K": 0.0,
        "K_N": 0.0,
        "norm_B2": 2.0,
        "kappa": 1.0,
        "mu": 0.0,
        "a_plus": 1.0,
        "a_minus": 1.0,
        "area": 2.0 * math.pi ** 2,
        "euler_surface": 0,
        "euler_normal": 0,
        "superminimal": False,
        "closing_angles": [0.0, math.pi / 2, math.pi, 3 * math.pi / 2],
    }
    return CatalogEntry(imm, truth)


# ---------------------------------------------------------------------------
# Veronese sphere


def _veronese_maps() -> np.ndarray:
    """Symmetric matrices A_k with f_k = w . A_k w for the quadric embedding."""
    r3 = math.sqrt(3.0)
    A = np.zeros((5, 3, 3))
    A[0, 0, 1] = A[0, 1, 0] = r3 / 2.0          # sqrt(3) x y
    A[1, 0, 2] = A[1, 2, 0] = r3 / 2.0          # sqrt(3) x z
    A[2, 1, 2] = A[2, 2, 1] = r3 / 2.0          # sqrt(3) y z
    A[3] = np.diag([r3 / 2.0, -r3 / 2.0, 0.0])  # sqrt(3)(x^2 - y^2)/2
    A[4] = np.diag([0.5, 0.5, -1.0])            # (x^2 + y^2 - 2 z^2)/2
    return A


def _sphere_chart(n: int) -> GridPatch:
    """Lat-long chart with the polar axis open and offset half a step.

    u = polar angle in (0, pi) sampled at h/2, 3h/2, ..., pi - h/2 with
    h = pi / n, so no sample sits on a pole; v = azimuth, periodic.
    """
    h = math.pi / n
    return GridPatch(n, n, (h / 2.0, math.pi - h / 2.0), (0.0, 2.0 * math.pi),
                     periodic_u=False, periodic_v=True, cap_u=True)


def _unit_sphere_jets(U, V):
    """w(t, phi) on S^2 and its jets; t = U, phi = V."""
    st, ct = np.sin(U), np.cos(U)
    sp, cp = np.sin(V), np.cos(V)
    z = np.zeros_like(U)
    w = np.stack([st * cp, st * sp, ct], axis=-1)
    wt = np.stack([ct * cp, ct * sp, -st], axis=-1)
    wp = np.stack([-st * sp, st * cp, z], axis=-1)
    wtt = -w
    wtp = np.stack([-ct * sp, ct * cp, z], axis=-1)
    wpp = np.stack([-st * cp, -st * sp, z], axis=-1)
    return w, wt, wp, wtt, wtp, wpp


def veronese_sphere(n: int = 128) -> CatalogEntry:
    """The Veronese minimal 2-sphere in S^4 (quadric embedding of S^2).

    Constant curvature K = 1/3, superminimal with K_N = 2/3 in the
    orientation produced by the chart below, round metric of radius
    sqrt(3): I = 3(dt^2 + sin^2 t dphi^2), area 12 pi.
    """
    patch = _sphere_chart(n)
    U, V = patch.mesh()
    w, wt, wp, wtt, wtp, wpp = _unit_sphere_jets(U, V)
    A = _veronese_maps()
    terms = np.argwhere(A)  # (k, p, q) of the nonzero entries, p then q per k

    # x . A_k y for every k, summed over the nonzero entries: bit for bit
    # the 3-operand einsum "uvp,kpq,uvq->uvk", at a third of its time
    def quad(x, y):
        out = np.zeros(x.shape[:-1] + (5,))
        for k, p, q in terms:
            out[..., k] += (x[..., p] * A[k, p, q]) * y[..., q]
        return out

    f = quad(w, w)
    ft = 2.0 * quad(wt, w)
    fp = 2.0 * quad(wp, w)
    ftt = 2.0 * (quad(wt, wt) + quad(wtt, w))
    ftp = 2.0 * (quad(wt, wp) + quad(wtp, w))
    fpp = 2.0 * (quad(wp, wp) + quad(wpp, w))

    imm = ImmersionField(patch, f,
                         np.stack([ft, fp], axis=2),
                         np.stack([ftt, ftp, fpp], axis=2))
    truth = {
        "name": "veronese",
        "topology": "sphere",
        "K": 1.0 / 3.0,
        "abs_K_N": 2.0 / 3.0,
        "norm_B2": 4.0 / 3.0,
        "kappa": 1.0 / math.sqrt(3.0),
        "mu": 1.0 / math.sqrt(3.0),
        "area": 12.0 * math.pi,
        "euler_surface": 2,
        "euler_normal_abs": 4,
        "superminimal": True,
    }
    return CatalogEntry(imm, truth)


# ---------------------------------------------------------------------------
# totally geodesic sphere


def geodesic_sphere(n: int = 128) -> CatalogEntry:
    """The equatorial 2-sphere, totally geodesic (B = 0) in S^4."""
    patch = _sphere_chart(n)
    U, V = patch.mesh()
    w, wt, wp, wtt, wtp, wpp = _unit_sphere_jets(U, V)
    z2 = np.zeros(U.shape + (2,))

    def pad(x):
        return np.concatenate([x, z2], axis=-1)

    imm = ImmersionField(patch, pad(w),
                         np.stack([pad(wt), pad(wp)], axis=2),
                         np.stack([pad(wtt), pad(wtp), pad(wpp)], axis=2))
    truth = {
        "name": "geodesic-sphere",
        "topology": "sphere",
        "K": 1.0,
        "K_N": 0.0,
        "norm_B2": 0.0,
        "area": 4.0 * math.pi,
        "euler_surface": 2,
        "euler_normal_abs": 0,
        "superminimal": True,
        "totally_geodesic": True,
    }
    return CatalogEntry(imm, truth)


_GENERATORS: dict[str, Callable[[int], CatalogEntry]] = {
    "clifford": clifford_torus,
    "veronese": veronese_sphere,
    "geodesic-sphere": geodesic_sphere,
}


def catalog_names() -> list[str]:
    return sorted(_GENERATORS)


def load_catalog(name: str, n: int = 256) -> CatalogEntry:
    try:
        gen = _GENERATORS[name]
    except KeyError:
        raise CatalogError(
            f"unknown catalog surface {name!r}; available: {', '.join(catalog_names())}"
        ) from None
    return gen(n)


# ---------------------------------------------------------------------------
# perturbation (for falsification runs)


def perturb_immersion(imm: ImmersionField, amplitude: float, seed: int) -> ImmersionField:
    """Push the surface off minimality by a smooth random normal bump.

    Adds amplitude * (b3 e3 + b4 e4) with low-frequency trigonometric random
    fields b3, b4, renormalizes onto the sphere, and recomputes jets by
    finite differences.  The result is a valid immersion into S^4 that is
    (deliberately) no longer minimal.
    """
    imm = imm.with_jets()
    e1, e2, _ = tangent_frame(imm)
    nf = normal_frame(imm, e1, e2)
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

    g = imm.position + amplitude * (bump()[:, :, None] * nf.e3 +
                                    bump()[:, :, None] * nf.e4)
    g = g / np.linalg.norm(g, axis=2)[:, :, None]
    jet1, jet2 = fd_jets(patch, g)
    return ImmersionField(patch, g, jet1, jet2, jet_source="fd")


# ---------------------------------------------------------------------------
# sampled-immersion manifests

DRIFT_REJECT = 1e-6


def write_manifest(imm: ImmersionField, directory) -> Path:
    """Write an immersion as manifest.json + raw float64 arrays (jets if analytic)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    patch = imm.patch

    def dump(name, arr):
        arr.astype("<f8").tofile(directory / name)
        return name

    doc = {
        "kind": "sampled",
        "grid": {
            "nu": patch.nu, "nv": patch.nv,
            "u_range": list(patch.u_range), "v_range": list(patch.v_range),
            "periodic_u": patch.periodic_u, "periodic_v": patch.periodic_v,
            "cap_u": patch.cap_u, "cap_v": patch.cap_v,
        },
        "position": dump("position.f64", imm.position),
        "endianness": "little",
        "layout": "row-major, v fastest",
    }
    if imm.jet1 is not None and imm.jet_source == "analytic":
        doc["jets"] = {
            "first": dump("jet1.f64", imm.jet1),
            "second": dump("jet2.f64", imm.jet2),
        }
    path = directory / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _read_array(base: Path, rel: str, shape: tuple, what: str) -> np.ndarray:
    path = (base / rel).resolve()
    if not path.is_file():
        raise CatalogError(f"manifest {what} file not found: {path}")
    expected = int(np.prod(shape))
    data = np.fromfile(path, dtype="<f8")
    if data.size != expected:
        raise CatalogError(
            f"manifest {what}: expected {expected} float64 values for shape "
            f"{shape}, file holds {data.size}"
        )
    return data.reshape(shape).astype(float)


def read_manifest(path) -> tuple[ImmersionField, float]:
    """Load and validate a sampled immersion; fill missing jets by stencils.

    Returns the immersion and the drift of its position norms from 1
    before renormalization.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CatalogError(f"cannot read manifest {path}: {exc}") from exc
    if doc.get("kind") != "sampled":
        raise CatalogError(f"manifest kind must be 'sampled', got {doc.get('kind')!r}")
    if doc.get("endianness", "little") != "little":
        raise CatalogError("only little-endian payloads are supported")
    try:
        g = doc["grid"]
        patch = GridPatch(int(g["nu"]), int(g["nv"]),
                          tuple(map(float, g["u_range"])),
                          tuple(map(float, g["v_range"])),
                          bool(g["periodic_u"]), bool(g["periodic_v"]),
                          bool(g.get("cap_u", False)), bool(g.get("cap_v", False)))
        position_rel = doc["position"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogError(f"malformed manifest {path}: {exc}") from exc

    base = path.parent
    pos = _read_array(base, position_rel, (patch.nu, patch.nv, 5), "position")
    norms = np.linalg.norm(pos, axis=2)
    if np.any(norms < 0.5):
        raise CatalogError("position contains near-zero vectors; not a sphere map")
    drift = float(np.abs(norms - 1.0).max())
    if drift > DRIFT_REJECT:
        raise CatalogError(
            f"position is off the unit sphere by {drift:.3e} "
            f"(> {DRIFT_REJECT:.0e}); refusing to renormalize"
        )
    if drift > UNIT_NORM_TOL:  # leave already-valid payloads bit-identical
        pos = pos / norms[:, :, None]

    jets = doc.get("jets")
    if jets is not None:
        jet1 = _read_array(base, jets["first"], (patch.nu, patch.nv, 2, 5), "first jet")
        jet2 = _read_array(base, jets["second"], (patch.nu, patch.nv, 3, 5), "second jet")
        imm = ImmersionField(patch, pos, jet1, jet2, jet_source="analytic")
    else:
        imm = ImmersionField(patch, pos).with_jets()

    return imm, drift
