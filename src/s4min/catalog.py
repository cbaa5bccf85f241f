"""Built-in model surfaces, perturbations, and sampled-immersion manifests.

Every generator returns an ImmersionField with analytic jets, the closed
form of a surface whose invariants are known exactly, so the tests check
the pipeline against them rather than against itself.  The position and
first jets are whole-grid arrays; the second jets are their closed form
as a row-block source, which makes each block of u rows as it is read
and never fills a whole-grid array.

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
from pathlib import Path
from typing import Callable

import numpy as np

from .grid import GridPatch, InputError, row_blocks
from .surface import ImmersionField, normal_frame, tangent_frame
from .thresholds import DRIFT_REJECT, NEAR_ZERO_NORM, PERTURB_MAX, UNIT_NORM_TOL


def _jet_arrays(n: int) -> tuple:
    """Zeroed position (n, n, 5) and jet1 (n, n, 2, 5)."""
    return np.zeros((n, n, 5)), np.zeros((n, n, 2, 5))


# ---------------------------------------------------------------------------
# flat minimal torus


def clifford_torus(n: int = 256) -> ImmersionField:
    """The square flat minimal torus in S^4 (inside an equatorial S^3).

    f(u, v) = (cos a, sin a, cos b, sin b, 0)/sqrt(2) with a = sqrt(2) u,
    b = sqrt(2) v; the chart [0, sqrt(2) pi)^2 is isothermal with unit
    conformal factor and covers the torus exactly once.  The second jets
    are formed from the angles of each block of u rows as it is read.
    """
    L = math.sqrt(2.0) * math.pi
    patch = GridPatch(n, n, (0.0, L), (0.0, L), True, True)
    r2 = math.sqrt(2.0)
    inv = 1.0 / r2

    def angles(rows):
        """cos and sin of sqrt(2) u and of sqrt(2) v on the u rows' block
        of patch.mesh()."""
        U, V = np.meshgrid(patch.u_coords()[rows], patch.v_coords(), indexing="ij")
        return np.cos(r2 * U), np.sin(r2 * U), np.cos(r2 * V), np.sin(r2 * V)

    def jet2(rows):
        """(f_uu, f_uv, f_vv) on the u rows' block; f_uv vanishes."""
        ca, sa, cb, sb = angles(rows)
        out = np.zeros(ca.shape + (3, 5))
        out[..., 0, 0], out[..., 0, 1] = -r2 * ca, -r2 * sa
        out[..., 2, 2], out[..., 2, 3] = -r2 * cb, -r2 * sb
        return out

    # each component is written into its place; the rest stays zero
    ca, sa, cb, sb = angles(slice(None))
    f, jet1 = _jet_arrays(n)
    f[..., 0], f[..., 1], f[..., 2], f[..., 3] = inv * ca, inv * sa, inv * cb, inv * sb
    jet1[..., 0, 0], jet1[..., 0, 1] = -sa, ca
    jet1[..., 1, 2], jet1[..., 1, 3] = -sb, cb
    del ca, sa, cb, sb  # before the unit-norm check of ImmersionField

    return ImmersionField(patch, f, jet1, jet2)


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
    """w(t, phi) on S^2 and its jets as (3, nu, nv) component planes; t = U, phi = V."""
    st, ct = np.sin(U), np.cos(U)
    sp, cp = np.sin(V), np.cos(V)
    z = np.zeros_like(U)
    w = np.stack([st * cp, st * sp, ct])
    wt = np.stack([ct * cp, ct * sp, -st])
    wp = np.stack([-st * sp, st * cp, z])
    wtt = -w
    wtp = np.stack([-ct * sp, ct * cp, z])
    wpp = np.stack([-st * cp, -st * sp, z])
    return w, wt, wp, wtt, wtp, wpp


def _sphere_block(patch: GridPatch, rows: slice):
    """_unit_sphere_jets on one block of u rows of the chart: the jets'
    planes exist for that block only.  The block mesh holds the values of
    patch.mesh()[rows]."""
    return _unit_sphere_jets(*np.meshgrid(patch.u_coords()[rows], patch.v_coords(),
                                          indexing="ij"))


def _planes(a: np.ndarray) -> np.ndarray:
    """View of a (..., 5) array with the component axis first."""
    return np.moveaxis(a, -1, 0)


def veronese_sphere(n: int = 128) -> ImmersionField:
    """The Veronese minimal 2-sphere in S^4 (quadric embedding of S^2).

    Constant curvature K = 1/3, superminimal with K_N = 2/3 in the
    orientation produced by the chart below, round metric of radius
    sqrt(3): I = 3(dt^2 + sin^2 t dphi^2), area 12 pi.  The position and
    first jets are formed one block of u rows at a time into whole-grid
    arrays; the second jets, from the sphere jets of each block of u rows
    as it is read.
    """
    patch = _sphere_chart(n)
    A = _veronese_maps()
    terms = np.argwhere(A)  # (k, p, q) of the nonzero entries, p then q per k

    # x . A_k y for every k on contiguous planes, summed over the nonzero
    # entries: bit for bit the 3-operand einsum "puv,kpq,quv->uvk"
    def quad(x, y):
        out = np.zeros((5,) + x.shape[1:])
        for k, p, q in terms:
            out[k] += (x[p] * A[k, p, q]) * y[q]
        return out

    def jet2(rows):
        """(f_uu, f_uv, f_vv) on the u rows' block."""
        w, wt, wp, wtt, wtp, wpp = _sphere_block(patch, rows)
        out = np.empty(w.shape[1:] + (3, 5))
        for i, (x, y, xy) in enumerate(((wt, wt, wtt), (wt, wp, wtp), (wp, wp, wpp))):
            s = quad(x, y)
            s += quad(xy, w)
            np.multiply(2.0, s, out=_planes(out[:, :, i]))
        return out

    f, jet1 = _jet_arrays(n)
    for rows in row_blocks(n):
        w, wt, wp = _sphere_block(patch, rows)[:3]
        _planes(f[rows])[...] = quad(w, w)
        for i, x in enumerate((wt, wp)):
            np.multiply(2.0, quad(x, w), out=_planes(jet1[rows, :, i]))
        del w, wt, wp  # before the next block's are made

    return ImmersionField(patch, f, jet1, jet2)


# ---------------------------------------------------------------------------
# totally geodesic sphere


def geodesic_sphere(n: int = 128) -> ImmersionField:
    """The equatorial 2-sphere, totally geodesic (B = 0) in S^4: the unit
    sphere's jets in the first three components, the second ones made
    one block of u rows at a time as they are read."""
    patch = _sphere_chart(n)

    def jet2(rows):
        """(f_uu, f_uv, f_vv) on the u rows' block: w_tt, w_tp, w_pp."""
        jets = _sphere_block(patch, rows)
        out = np.zeros(jets[0].shape[1:] + (3, 5))
        for i, w in enumerate(jets[3:]):
            _planes(out[:, :, i])[:3] = w
        return out

    f, jet1 = _jet_arrays(n)
    for rows in row_blocks(n):
        jets = _sphere_block(patch, rows)
        for target, w in zip((f, jet1[:, :, 0], jet1[:, :, 1]), jets):
            _planes(target[rows])[:3] = w
        del jets, w  # before the next block's are made

    return ImmersionField(patch, f, jet1, jet2)


_GENERATORS: dict[str, Callable[[int], ImmersionField]] = {
    "clifford": clifford_torus,
    "veronese": veronese_sphere,
    "geodesic-sphere": geodesic_sphere,
}


def catalog_names() -> list[str]:
    return sorted(_GENERATORS)


def load_catalog(name: str, n: int = 256) -> ImmersionField:
    try:
        gen = _GENERATORS[name]
    except KeyError:
        raise InputError(
            f"unknown catalog surface {name!r}; available: {', '.join(catalog_names())}"
        ) from None
    return gen(n)


# ---------------------------------------------------------------------------
# perturbation (for falsification runs)


def perturb_immersion(imm: ImmersionField, amplitude: float, seed: int) -> ImmersionField:
    """Push the surface off minimality by a smooth random normal bump.

    Adds amplitude * (b3 e3 + b4 e4) with low-frequency trigonometric random
    fields b3, b4 and renormalizes onto the sphere.  The result is a valid
    immersion into S^4 that is (deliberately) no longer minimal.  It has
    no jets yet, and jet_source "fd": with_jets takes them by finite
    differences once the caller has let the source's jets go.  The
    amplitude lies in (0, 1], 1 the sphere's radius; the seed is >= 0.
    """
    if not 0.0 < amplitude <= PERTURB_MAX:
        raise InputError(f"perturbation amplitude must be in (0, {PERTURB_MAX:g}], got {amplitude}")
    if seed < 0:
        raise InputError(f"perturbation seed must be non-negative, got {seed}")
    src = imm.with_jets()
    e3, e4 = normal_frame(src.patch, src.position, *tangent_frame(src)[:2])
    del src  # only e3, e4 feed the bump
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
    del e3, e4
    g = g / np.linalg.norm(g, axis=2)[:, :, None]
    return ImmersionField(patch, g, jet_source="fd")


# ---------------------------------------------------------------------------
# sampled-immersion manifests


def write_manifest(imm: ImmersionField, directory) -> Path:
    """Write an immersion as manifest.json + raw float64 arrays (jets if
    analytic).  The second jets are written from their row-block source
    one block of u rows at a time, as the same bytes a whole-grid array
    gives."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    patch = imm.patch

    def dump(name, blocks):
        with open(directory / name, "wb") as out:
            for block in blocks:
                np.asarray(block, dtype="<f8").tofile(out)
        return name

    doc = {
        "kind": "sampled",
        "grid": {
            "nu": patch.nu, "nv": patch.nv,
            "u_range": list(patch.u_range), "v_range": list(patch.v_range),
            "periodic_u": patch.periodic_u, "periodic_v": patch.periodic_v,
            "cap_u": patch.cap_u, "cap_v": patch.cap_v,
        },
        "position": dump("position.f64", [imm.position]),
        "endianness": "little",
        "layout": "row-major, v fastest",
    }
    if imm.jet1 is not None and imm.jet_source == "analytic":
        doc["jets"] = {
            "first": dump("jet1.f64", [imm.jet1]),
            "second": dump("jet2.f64", map(imm.jet2, row_blocks(patch.nu))),
        }
    path = directory / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _read_array(base: Path, rel: str, shape: tuple, what: str) -> np.ndarray:
    path = (base / rel).resolve()
    if not path.is_file():
        raise InputError(f"manifest {what} file not found: {path}")
    expected = int(np.prod(shape))
    data = np.fromfile(path, dtype="<f8")
    if data.size != expected:
        raise InputError(
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
        raise InputError(f"cannot read manifest {path}: {exc}") from exc
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind != "sampled":
        raise InputError(f"manifest kind must be 'sampled', got {kind!r}")
    if doc.get("endianness", "little") != "little":
        raise InputError("only little-endian payloads are supported")
    try:
        g = doc["grid"]
        u0, u1 = g["u_range"]
        v0, v1 = g["v_range"]
        fields = {key: g[key] for key in ("nu", "nv", "periodic_u", "periodic_v")}
        fields.update((key, g.get(key, False)) for key in ("cap_u", "cap_v"))
        for key, value in fields.items():
            kind = int if key in ("nu", "nv") else bool
            if type(value) is not kind:  # bool is a subclass of int
                raise TypeError(f"grid {key} must be a JSON "
                                f"{'integer' if kind is int else 'boolean'}, got {value!r}")
        for key, end in (("u_range", u0), ("u_range", u1), ("v_range", v0), ("v_range", v1)):
            if type(end) not in (int, float):
                raise TypeError(f"grid {key} ends must be JSON numbers, got {end!r}")
        patch = GridPatch(fields["nu"], fields["nv"], (float(u0), float(u1)),
                          (float(v0), float(v1)), fields["periodic_u"], fields["periodic_v"],
                          fields["cap_u"], fields["cap_v"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed manifest {path}: {exc}") from exc
    jets = doc.get("jets")
    files = {"position": doc.get("position")}
    if jets is not None:
        if not isinstance(jets, dict):
            raise InputError(f"malformed manifest {path}: jets must be an object, got {jets!r}")
        files.update({"first jet": jets.get("first"), "second jet": jets.get("second")})
    for what, rel in files.items():
        if not isinstance(rel, str):
            raise InputError(f"malformed manifest {path}: {what} must name a file, got {rel!r}")

    base = path.parent
    pos = _read_array(base, files["position"], (patch.nu, patch.nv, 5), "position")
    norms = np.linalg.norm(pos, axis=2)
    if np.any(norms < NEAR_ZERO_NORM):
        raise InputError("position contains near-zero vectors; not a sphere map")
    drift = float(np.abs(norms - 1.0).max())
    if drift > DRIFT_REJECT:
        raise InputError(
            f"position is off the unit sphere by {drift:.3e} "
            f"(> {DRIFT_REJECT:.0e}); refusing to renormalize"
        )
    if drift > UNIT_NORM_TOL:  # leave already-valid payloads bit-identical
        pos = pos / norms[:, :, None]

    if jets is not None:
        jet1 = _read_array(base, files["first jet"], (patch.nu, patch.nv, 2, 5), "first jet")
        jet2 = _read_array(base, files["second jet"], (patch.nu, patch.nv, 3, 5), "second jet")
        imm = ImmersionField(patch, pos, jet1, jet2, jet_source="analytic")
    else:
        imm = ImmersionField(patch, pos).with_jets()

    return imm, drift
