"""Test-side oracles and references that the library code is compared with.

No command runs any of these.  They hold the whole "uv" sweep and march
the "vu" sweep as well, which the library does not, take a member's
curvatures through two whole shape stages, build radius fields with
prescribed zeros and read their winding orders, rotate or flip the normal
gauge, measure how orthonormal the built frames are, and assemble the
source's connection from a shape report in one call.
"""

import math
from dataclasses import dataclass

import numpy as np

from s4min.family import ConnectionData, coframe, connection_data, march_frames
from s4min.grid import GridPatch, InputError
from s4min.surface import ImmersionField, _rotate_pair, shape_report

WINDING_SAMPLES = 64


def connection(pack):
    """The source's connection data from shape_report's 7-tuple
    (imm, e1, e2, metric, e3, e4, rep)."""
    imm, e1, e2, _, e3, e4, rep = pack
    return connection_data(imm.patch, imm.position, coframe(imm.jet1, e1, e2), e1, e2,
                           e3, e4, rep.H3, rep.H4)


def sweep_frames(conn):
    """The "uv" sweep held whole: the u spine from the origin frame, then
    every v column from it.  Returns the (nu + pu, nv + pv, 5, 5) frames
    over the unwrapped fundamental domain."""
    p = conn.patch
    spine = march_frames(conn.forms[:, 0, 0][:, None], p.hu, conn.origin[None],
                         p.periodic_u)[:, 0]
    lines = np.moveaxis(conn.forms[:, :, 1], 1, 0)[:, p.unwrap_index(0)]
    sheet = march_frames(lines, p.hv, spine, p.periodic_v)
    return np.moveaxis(sheet, 1, 0)


def two_sweep_path_dependence(conn):
    """Path dependence from both sweeps held whole: the largest Frobenius
    distance between the "uv" sweep and the "vu" sweep, which is the "uv"
    sweep of the transposed chart."""
    p = conn.patch
    transposed = ConnectionData(
        GridPatch(p.nv, p.nu, p.v_range, p.u_range, p.periodic_v, p.periodic_u,
                  p.cap_v, p.cap_u),
        conn.origin, conn.forms.transpose(1, 0, 2, 3)[:, :, ::-1])
    D = np.ascontiguousarray(np.swapaxes(sweep_frames(transposed), 0, 1))
    D -= sweep_frames(conn)
    D *= D
    return float(np.sqrt(np.add.reduce(D, axis=(-2, -1))).max())


def curvature_deviation(imm, member):
    """Max deviation of K and of |K_N| of the member, an immersion on
    imm.patch.unwrapped(), from those of the source imm replayed onto that
    chart, both through shape_report with finite-difference jets."""
    p = imm.patch
    replay = imm.position[np.ix_(p.unwrap_index(0), p.unwrap_index(1))]
    rep0 = shape_report(ImmersionField(member.patch, replay))[-1]
    rep1 = shape_report(member)[-1]
    return {"K": float(np.abs(rep1.K - rep0.K).max()),
            "K_N": float(np.abs(np.abs(rep1.K_N) - np.abs(rep0.K_N)).max())}


def rotate_normal_frame(e3, e4, angle) -> tuple[np.ndarray, np.ndarray]:
    """Rotate (e3, e4) by a constant or per-point angle; orientation kept."""
    angle = np.broadcast_to(np.asarray(angle, dtype=float), e3.shape[:2])
    return _rotate_pair(e3, e4, angle)


def flip_normal_orientation(e3, e4) -> tuple[np.ndarray, np.ndarray]:
    return e3.copy(), -e4


def frame_orthonormality_residual(imm: ImmersionField, e1, e2, e3, e4) -> float:
    """Max deviation of (f, e1, e2, e3, e4) from an orthonormal 5-frame."""
    cols = np.stack([imm.position, e1, e2, e3, e4], axis=2)  # (nu, nv, 5, 5)
    gram = np.einsum("uvik,uvjk->uvij", cols, cols)
    return float(np.abs(gram - np.eye(5)).max())


def synthetic_zero_field(patch: GridPatch, zeros, smooth=None):
    """Nonnegative field with prescribed isolated zeros, plus a complex witness.

    ``zeros`` is a sequence of ``(u0, v0, order)``.  The field is the product
    of ``rho**order`` factors, where ``rho`` is the chordal distance to
    ``(u0, v0)`` (periodic axes use ``2 sin(delta/2)`` so the modulus is
    periodic), optionally times a strictly positive ``smooth(u, v)`` factor.
    The returned complex field has winding ``order`` around each zero for
    cross-checking counts against winding numbers; it is faithful near the
    zeros but not globally periodic, so windings should be measured on small
    circles only.
    """
    uu = patch.u_coords()[:, None] + np.zeros((1, patch.nv))
    vv = np.zeros((patch.nu, 1)) + patch.v_coords()[None, :]
    a = np.ones(patch.shape)
    w = np.ones(patch.shape, dtype=complex)
    for u0, v0, order in zeros:
        du = 2.0 * np.sin(0.5 * (uu - u0)) if patch.periodic_u else uu - u0
        dv = 2.0 * np.sin(0.5 * (vv - v0)) if patch.periodic_v else vv - v0
        z = du + 1j * dv
        a *= np.abs(z) ** order
        w *= z ** int(order)
    if smooth is not None:
        s = np.asarray(smooth(uu, vv), dtype=float)
        if np.any(s <= 0):
            raise InputError("smooth factor must be strictly positive")
        a *= s
        w *= s
    return a, w


@dataclass
class ZeroOrder:
    location: tuple[int, int]  # grid index of the candidate cell
    order: int
    gap: float  # |winding - order| before rounding
    flagged: bool  # True when the rounding gap is unreliable (> 0.2)


def _sample_bilinear(patch: GridPatch, values: np.ndarray,
                     u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear interpolation at parameter points, wrapping periodic axes."""
    nodes = []
    for axis, (x, start) in enumerate(((u, patch.u_range[0]), (v, patch.v_range[0]))):
        (h, periodic), n = patch.axis(axis), patch.shape[axis]
        s = (x - start) / h
        i0 = np.floor(s).astype(int)
        if not periodic and ((i0 < 0).any() or (i0 > n - 2).any()):
            raise InputError(f"sample circle leaves the open {'uv'[axis]}-axis")
        nodes.append((i0 % n, (i0 + 1) % n, s - i0))
    (i0, i1, fu), (j0, j1, fv) = nodes
    return (values[i0, j0] * (1 - fu) * (1 - fv) + values[i1, j0] * fu * (1 - fv)
            + values[i0, j1] * (1 - fu) * fv + values[i1, j1] * fu * fv)


def winding_number(patch: GridPatch, values: np.ndarray, center_uv,
                   radius: float) -> float:
    """(1/2pi) * total argument increment of a complex field around a circle."""
    ang = 2.0 * math.pi * np.arange(WINDING_SAMPLES + 1) / WINDING_SAMPLES
    u = center_uv[0] + radius * np.cos(ang)
    v = center_uv[1] + radius * np.sin(ang)
    c = _sample_bilinear(patch, values.astype(complex), u, v)
    if np.any(np.abs(c) == 0.0):
        raise InputError("winding circle passes through a zero")
    inc = np.angle(c[1:] * np.conj(c[:-1]))
    return float(np.sum(inc) / (2.0 * math.pi))


def zero_orders(patch: GridPatch, values: np.ndarray,
                candidates: list[tuple[int, int]]) -> list[ZeroOrder]:
    """Integer winding order around each candidate zero, with rounding gap.

    The winding circle has radius four grid spacings.
    """
    radius = 4.0 * max(patch.hu, patch.hv)
    uc = patch.u_coords()
    vc = patch.v_coords()
    out = []
    for (i, j) in candidates:
        w = winding_number(patch, values, (uc[i], vc[j]), radius)
        order = int(np.round(w))
        gap = abs(w - order)
        # flagged: ambiguous rounding, or not a positive-order zero at all
        out.append(ZeroOrder((i, j), order, gap, gap > 0.2 or order < 1))
    return out
