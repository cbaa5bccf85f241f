"""Structured parameter grids and finite-difference calculus on them.

Fields live on a rectangular (u, v) grid and are stored as arrays indexed
``values[iu, iv, ...]`` (u is axis 0, v is axis 1; any trailing axes are
per-point components).  Periodic axes store no duplicated seam row; index
nu is identified with index 0.

Conventions used throughout the package:

* derivatives: one 4th-order rule, the central stencil on periodic axes
  (indices wrapped) and in the interior of open axes, one-sided or offset
  stencils at the two rows on each end of an open axis,
* quadrature: rectangle rule on periodic axes (exact below Nyquist),
  midpoint rule over the closed interval on capped axes, composite
  Simpson on other open axes (3/8 tail when the interval count is odd),
* reductions are plain ``np.sum`` in fixed array order, so repeated runs
  are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class GridError(ValueError):
    """Raised for malformed grids, fields or paths."""


@dataclass(frozen=True)
class GridPatch:
    """Rectangular parameter grid, possibly periodic per axis.

    For a periodic axis the stored points are u_min + i*hu, i = 0..nu-1
    with hu = (u_max - u_min)/nu and u_max identified with u_min.  For an
    open axis the points include both endpoints and hu = span/(nu - 1).

    cap_u / cap_v mark an open axis whose samples are cell centers of a
    closed physical interval extending half a step beyond both ends (the
    lat-long chart of a sphere, offset so no sample sits on a pole).
    Derivative stencils are unaffected; quadrature covers the extended
    interval with midpoint weights so that integrals over such a chart
    are integrals over the closed surface.
    """

    nu: int
    nv: int
    u_range: tuple[float, float]
    v_range: tuple[float, float]
    periodic_u: bool
    periodic_v: bool
    cap_u: bool = False
    cap_v: bool = False

    def __post_init__(self) -> None:
        if self.nu < 8 or self.nv < 8:
            raise GridError(f"grid needs at least 8 points per axis, got {self.nu}x{self.nv}")
        if not (self.u_range[1] > self.u_range[0]) or not (self.v_range[1] > self.v_range[0]):
            raise GridError("parameter ranges must be increasing")
        if (self.cap_u and self.periodic_u) or (self.cap_v and self.periodic_v):
            raise GridError("a capped axis must be open, not periodic")

    @property
    def hu(self) -> float:
        span = self.u_range[1] - self.u_range[0]
        return span / self.nu if self.periodic_u else span / (self.nu - 1)

    @property
    def hv(self) -> float:
        span = self.v_range[1] - self.v_range[0]
        return span / self.nv if self.periodic_v else span / (self.nv - 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nu, self.nv)

    def u_coords(self) -> np.ndarray:
        return self.u_range[0] + self.hu * np.arange(self.nu)

    def v_coords(self) -> np.ndarray:
        return self.v_range[0] + self.hv * np.arange(self.nv)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(nu, nv) coordinate arrays, indexing='ij'."""
        return np.meshgrid(self.u_coords(), self.v_coords(), indexing="ij")

    @property
    def closed(self) -> bool:
        """True when the samples cover a closed surface without boundary."""
        return (self.periodic_u or self.cap_u) and (self.periodic_v or self.cap_v)


def check_field(patch: GridPatch, values: np.ndarray, name: str = "field") -> np.ndarray:
    """Validate leading shape and finiteness; returns the array unchanged."""
    values = np.asarray(values)
    if values.shape[:2] != patch.shape:
        raise GridError(f"{name}: leading shape {values.shape[:2]} != grid {patch.shape}")
    bad = ~np.isfinite(values)
    if bad.any():
        iu, iv = np.argwhere(bad.reshape(patch.nu, patch.nv, -1).any(axis=2))[0]
        raise GridError(f"{name}: non-finite entry at grid index ({iu}, {iv})")
    return values


# ---------------------------------------------------------------------------
# finite differences


# The one 4th-order rule, as weights of f over 12 h (first derivative) or
# 12 h^2 (second).  _CENTRAL[order][k] weighs f[i + k - 2].  _EDGE[order][r]
# gives row r = 0, 1 of an open axis as weights of f[0], f[1], ...; the
# far end mirrors it, with the weights negated for the first derivative.
# A row sums its nonzero terms in the order listed (central terms in
# reverse on periodic axes).
_CENTRAL = {
    1: (1.0, -8.0, 0.0, 8.0, -1.0),
    2: (-1.0, 16.0, -30.0, 16.0, -1.0),
}
_EDGE = {
    1: ((-25.0, 48.0, -36.0, 16.0, -3.0), (-3.0, -10.0, 18.0, -6.0, 1.0)),
    2: ((45.0, -154.0, 214.0, -156.0, 61.0, -10.0), (10.0, -15.0, -4.0, 14.0, -6.0, 1.0)),
}


def _take(f: np.ndarray, idx, axis: int) -> np.ndarray:
    sl = [slice(None)] * f.ndim
    sl[axis] = idx
    return f[tuple(sl)]


def _weighted_sum(out: np.ndarray, terms) -> None:
    """out = the sum of w * x over the (x, w) terms, in order, in place.

    Weights of +-1 are applied without a multiplication, and later terms
    add or subtract |w| * x, so each entry rounds as the sum written out
    left to right does, signed zeros of complex fields included.
    """
    (x, w), tmp = terms[0], np.empty_like(out)
    if abs(w) == 1.0:
        (np.positive if w > 0 else np.negative)(x, out=out)
    else:
        np.multiply(x, w, out=out)
    for x, w in terms[1:]:
        if abs(w) != 1.0:
            x = np.multiply(x, abs(w), out=tmp)
        if w > 0:
            out += x
        else:
            out -= x


def _stencil(f: np.ndarray, axis: int, order: int, periodic: bool) -> np.ndarray:
    """The stencil sums of f along axis, 12 h^order times its derivative.

    Every row is a weighted sum of rows of f itself (wrapped indices at the
    ends of a periodic axis), so only the result and one scratch array of
    the interior's size are allocated.
    """
    n = f.shape[axis]
    out = np.empty_like(f)
    row = lambda a, i: _take(a, i, axis)  # noqa: E731
    central = [(k - 2, w) for k, w in enumerate(_CENTRAL[order]) if w]
    if periodic:
        central.reverse()
        rows = [(i, [(row(f, (i + k) % n), w) for k, w in central])
                for i in (0, 1, n - 2, n - 1)]
    else:
        sign = -1.0 if order == 1 else 1.0
        rows = []
        for r, weights in enumerate(_EDGE[order]):
            rows.append((r, [(row(f, k), w) for k, w in enumerate(weights)]))
            rows.append((n - 1 - r, [(row(f, n - 1 - k), sign * w)
                                     for k, w in enumerate(weights)]))
    rows.append((slice(2, n - 2), [(row(f, slice(2 + k, n - 2 + k)), w) for k, w in central]))
    for i, terms in rows:
        _weighted_sum(row(out, i), terms)
    return out


def diff(patch: GridPatch, values: np.ndarray, axis: int, order: int = 1) -> np.ndarray:
    """Partial derivative along a grid axis (0 = u, 1 = v)."""
    if axis not in (0, 1):
        raise GridError(f"axis must be 0 or 1, got {axis}")
    h = patch.hu if axis == 0 else patch.hv
    periodic = patch.periodic_u if axis == 0 else patch.periodic_v
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.inexact):
        values = values.astype(float)
    if order not in (1, 2):
        raise GridError(f"order must be 1 or 2, got {order}")
    out = _stencil(values, axis, order, periodic)
    out /= 12.0 * h if order == 1 else 12.0 * h * h
    return out


# ---------------------------------------------------------------------------
# metric


@dataclass
class MetricField:
    """First fundamental form in coordinates plus cached derived fields.

    E = <f_u, f_u>, F = <f_u, f_v>, G = <f_v, f_v>; dA = sqrt(EG - F^2);
    inv_uu/inv_uv/inv_vv are the entries of the inverse metric.
    """

    patch: GridPatch
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    dA: np.ndarray = field(init=False)
    inv_uu: np.ndarray = field(init=False)
    inv_uv: np.ndarray = field(init=False)
    inv_vv: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        for name in ("E", "F", "G"):
            check_field(self.patch, getattr(self, name), name)
        det = self.E * self.G - self.F**2
        bad = (self.E <= 0) | (det <= 0)
        if bad.any():
            iu, iv = np.argwhere(bad)[0]
            raise GridError(
                f"metric degenerate at grid index ({iu}, {iv}): "
                f"E={self.E[iu, iv]:.3e}, det={det[iu, iv]:.3e}"
            )
        self.dA = np.sqrt(det)
        self.inv_uu = self.G / det
        self.inv_uv = -self.F / det
        self.inv_vv = self.E / det


def frame_coefficients(metric: MetricField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram-Schmidt coefficients (a, b, c) with e1 = a*d_u, e2 = b*d_u + c*d_v."""
    E, F = metric.E, metric.F
    det = metric.dA**2
    a = 1.0 / np.sqrt(E)
    c = np.sqrt(E / det)
    b = -F / np.sqrt(E * det)
    return a, b, c


def laplace_beltrami(patch: GridPatch, values: np.ndarray, metric: MetricField) -> np.ndarray:
    """Laplace-Beltrami in divergence form, (1/sqrt g) d_i(sqrt g g^{ij} d_j f)."""
    check_field(patch, values, "laplace operand")
    fu = diff(patch, values, 0)
    fv = diff(patch, values, 1)
    flux_u = metric.dA * (metric.inv_uu * fu + metric.inv_uv * fv)
    flux_v = metric.dA * (metric.inv_uv * fu + metric.inv_vv * fv)
    return (diff(patch, flux_u, 0) + diff(patch, flux_v, 1)) / metric.dA


def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n >= 5 points spaced h (3/8 tail if needed).

    GridPatch holds at least 8 points per axis, and the 3/8 split
    recurses on n - 3 >= 5 points.
    """
    w = np.zeros(n)
    intervals = n - 1
    if intervals % 2 == 0:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= h / 3.0
    else:
        # Simpson on the first n-4 intervals (even count), 3/8 on the last 3
        m = n - 3
        w[:m] = _simpson_weights(m, h)
        w[m - 1 :] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    return w


def _axis_weights(n: int, h: float, periodic: bool, cap: bool) -> np.ndarray:
    # periodic: rectangle rule (spectrally accurate below Nyquist);
    # capped: midpoint rule over the extended closed interval;
    # open: composite Simpson
    if periodic or cap:
        return np.full(n, h)
    return _simpson_weights(n, h)


def quadrature_weights(patch: GridPatch) -> tuple[np.ndarray, np.ndarray]:
    wu = _axis_weights(patch.nu, patch.hu, patch.periodic_u, patch.cap_u)
    wv = _axis_weights(patch.nv, patch.hv, patch.periodic_v, patch.cap_v)
    return wu, wv


def integrate(patch: GridPatch, values: np.ndarray, metric: MetricField) -> float:
    """Integral of a scalar field against the metric area element."""
    values = check_field(patch, np.asarray(values, dtype=float), "integrand")
    if values.ndim != 2:
        raise GridError("integrate expects a scalar field")
    wu, wv = quadrature_weights(patch)
    return float(np.sum(values * metric.dA * wu[:, None] * wv[None, :]))


# ---------------------------------------------------------------------------
# grid paths


@dataclass(frozen=True)
class LoopPath:
    """Closed axis-aligned path through grid nodes.

    ``points`` holds integer node indices (k, 2), consecutive entries
    differing by one step along exactly one axis (in index space; steps
    may run off the stored index range on periodic axes, i.e. indices are
    taken modulo nu/nv when sampling fields).  ``winding`` is the net
    number of periods traversed per axis.
    """

    patch: GridPatch
    points: np.ndarray
    winding: tuple[int, int]

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=int)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise GridError("path needs an (k, 2) index array with k >= 2")
        steps = np.diff(pts, axis=0)
        if not np.all(np.abs(steps).sum(axis=1) == 1):
            raise GridError("path steps must move one node along one axis")
        du = pts[-1, 0] - pts[0, 0]
        dv = pts[-1, 1] - pts[0, 1]
        wu, wv = self.winding
        if (wu and not self.patch.periodic_u) or (wv and not self.patch.periodic_v):
            raise GridError("nonzero winding requires a periodic axis")
        if du != wu * self.patch.nu or dv != wv * self.patch.nv:
            raise GridError("path endpoints do not close up modulo the stated winding")
        object.__setattr__(self, "points", pts)


def u_generator(patch: GridPatch, j0: int = 0, i0: int = 0) -> LoopPath:
    """Deck-generator loop once around the u period, along row v = v_j0."""
    if not patch.periodic_u:
        raise GridError("u axis is not periodic")
    idx = i0 + np.arange(patch.nu + 1)
    pts = np.stack([idx, np.full(patch.nu + 1, j0)], axis=1)
    return LoopPath(patch, pts, (1, 0))


def v_generator(patch: GridPatch, i0: int = 0, j0: int = 0) -> LoopPath:
    """Deck-generator loop once around the v period, along column u = u_i0."""
    if not patch.periodic_v:
        raise GridError("v axis is not periodic")
    idx = j0 + np.arange(patch.nv + 1)
    pts = np.stack([np.full(patch.nv + 1, i0), idx], axis=1)
    return LoopPath(patch, pts, (0, 1))


def rectangle_loop(patch: GridPatch, i0: int, j0: int, di: int, dj: int) -> LoopPath:
    """Contractible counter-clockwise rectangle; corners in index space."""
    right = np.stack([i0 + np.arange(di + 1), np.full(di + 1, j0)], axis=1)
    up = np.stack([np.full(dj, i0 + di), j0 + 1 + np.arange(dj)], axis=1)
    left = np.stack([i0 + di - 1 - np.arange(di), np.full(di, j0 + dj)], axis=1)
    down = np.stack([np.full(dj, i0), j0 + dj - 1 - np.arange(dj)], axis=1)
    pts = np.concatenate([right, up, left, down], axis=0)
    return LoopPath(patch, pts, (0, 0))


def concatenate_loops(a: LoopPath, b: LoopPath) -> LoopPath:
    """Compose two loops based at the same node (a first, then b)."""
    ea = a.points[-1] % [a.patch.nu, a.patch.nv]
    sb = b.points[0] % [b.patch.nu, b.patch.nv]
    if a.patch is not b.patch or not np.array_equal(ea, sb):
        raise GridError("loops must share the basepoint (modulo periods)")
    shift = a.points[-1] - b.points[0]
    pts = np.concatenate([a.points, b.points[1:] + shift], axis=0)
    return LoopPath(a.patch, pts, (a.winding[0] + b.winding[0], a.winding[1] + b.winding[1]))
