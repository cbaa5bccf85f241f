"""Structured parameter grids and finite-difference calculus on them.

Fields live on a rectangular (u, v) grid and are stored as arrays indexed
``values[iu, iv, ...]`` (u is axis 0, v is axis 1; any trailing axes are
per-point components).  Periodic axes store no duplicated seam row; index
nu is identified with index 0.

Conventions used throughout the package:

* derivatives: one 4th-order rule, the central stencil on periodic axes
  (indices wrapped) and in the interior of open axes, one-sided or offset
  stencils at the two rows on each end of an open axis,
* quadrature: over closed charts only, the rectangle rule on periodic
  axes (exact below Nyquist) and the midpoint rule over the closed
  interval on capped axes,
* reductions are plain ``np.sum`` in fixed array order, so repeated runs
  are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class InputError(ValueError):
    """Raised for any input the package cannot process: an unknown catalog
    name, a malformed manifest, a grid, field, immersion, axis or chart
    that the requested computation does not accept."""


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

    The chart's topology is decided here only: ``closed``, ``deck_axes``
    and the simply connected ``unwrapped`` chart (``unwrap_index`` maps
    it back).
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
            raise InputError(f"grid needs at least 8 points per axis, got {self.nu}x{self.nv}")
        if not (self.u_range[1] > self.u_range[0]) or not (self.v_range[1] > self.v_range[0]):
            raise InputError("parameter ranges must be increasing")
        if not all(map(math.isfinite, (*self.u_range, *self.v_range, self.hu, self.hv))):
            raise InputError("parameter ranges and their steps must be finite")
        if (self.cap_u and self.periodic_u) or (self.cap_v and self.periodic_v):
            raise InputError("a capped axis must be open, not periodic")

    def axis(self, axis: int) -> tuple[float, bool]:
        """(step, periodic) of axis 0 (u) or 1 (v)."""
        n, (lo, hi), periodic = ((self.nu, self.u_range, self.periodic_u),
                                 (self.nv, self.v_range, self.periodic_v))[axis]
        return (hi - lo) / (n if periodic else n - 1), periodic

    hu = property(lambda self: self.axis(0)[0])
    hv = property(lambda self: self.axis(1)[0])

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

    @property
    def deck_axes(self) -> tuple[int, ...]:
        """The periodic axes whose transverse axis is not capped: their lines
        through the origin generate the deck group.  A periodic line across
        a capped axis shrinks to a pole, so a capped sphere chart has none."""
        transverse_cap = (self.cap_v, self.cap_u)
        return tuple(axis for axis in (0, 1) if self.axis(axis)[1] and not transverse_cap[axis])

    def unwrap_index(self, axis: int) -> np.ndarray:
        """Index along ``axis`` of this chart of each line of the unwrapped
        chart: a periodic axis repeats line 0 as its duplicated seam line."""
        n = self.shape[axis]
        return np.arange(n + 1) % n if self.axis(axis)[1] else np.arange(n)

    def unwrapped(self) -> GridPatch:
        """The open chart of the fundamental domain: one duplicated seam line
        per periodic axis, which shows a seam mismatch rather than hiding it.
        Caps are kept."""
        nu, nv = self.nu + self.periodic_u, self.nv + self.periodic_v
        return GridPatch(nu, nv, (self.u_range[0], self.u_range[0] + (nu - 1) * self.hu),
                         (self.v_range[0], self.v_range[0] + (nv - 1) * self.hv),
                         False, False, self.cap_u, self.cap_v)


# u rows of the grid that the blocked stages form at a time: whole-grid
# outputs are written block by block, so no whole-grid temporary is made
BLOCK_ROWS = 32


def row_blocks(nu: int):
    """Slices of BLOCK_ROWS u rows that cover a grid of nu rows in order."""
    return (slice(start, start + BLOCK_ROWS) for start in range(0, nu, BLOCK_ROWS))


def check_field(patch: GridPatch, values: np.ndarray, name: str = "field",
                rows: slice = slice(None)) -> np.ndarray:
    """Validate leading shape and finiteness of a field on the grid, or of
    the block of its u rows ``rows``; returns the array unchanged.  A
    non-finite entry is reported by its index on the whole grid."""
    values = np.asarray(values)
    index = range(patch.nu)[rows]
    shape = (len(index), patch.nv)
    if values.shape[:2] != shape:
        raise InputError(f"{name}: leading shape {values.shape[:2]} != grid {shape}")
    bad = ~np.isfinite(values)
    if bad.any():
        iu, iv = np.argwhere(bad.reshape(*shape, -1).any(axis=2))[0]
        raise InputError(f"{name}: non-finite entry at grid index ({index[iu]}, {iv})")
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
        raise InputError(f"axis must be 0 or 1, got {axis}")
    h, periodic = patch.axis(axis)
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.inexact):
        values = values.astype(float)
    if order not in (1, 2):
        raise InputError(f"order must be 1 or 2, got {order}")
    out = _stencil(values, axis, order, periodic)
    out /= 12.0 * h if order == 1 else 12.0 * h * h
    return out


# ---------------------------------------------------------------------------
# metric


@dataclass
class MetricField:
    """First fundamental form in coordinates and its area element.

    E = <f_u, f_u>, F = <f_u, f_v>, G = <f_v, f_v>; dA = sqrt(EG - F^2).
    laplace_beltrami forms the inverse metric where it needs it.
    """

    patch: GridPatch
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    dA: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        for name in ("E", "F", "G"):
            check_field(self.patch, getattr(self, name), name)
        det = self.E * self.G - self.F**2
        bad = (self.E <= 0) | (det <= 0)
        if bad.any():
            iu, iv = np.argwhere(bad)[0]
            raise InputError(
                f"metric degenerate at grid index ({iu}, {iv}): "
                f"E={self.E[iu, iv]:.3e}, det={det[iu, iv]:.3e}"
            )
        self.dA = np.sqrt(det)


def frame_coefficients(E: np.ndarray, F: np.ndarray,
                       dA: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram-Schmidt coefficients (a, b, c) with e1 = a*d_u, e2 = b*d_u + c*d_v,
    from the metric's E, F and dA on the whole grid or on a block of it."""
    det = dA**2
    a = 1.0 / np.sqrt(E)
    c = np.sqrt(E / det)
    b = -F / np.sqrt(E * det)
    return a, b, c


def laplace_beltrami(patch: GridPatch, values: np.ndarray, metric: MetricField):
    """Laplace-Beltrami in divergence form, (1/sqrt g) d_i(sqrt g g^{ij} d_j f),
    as ``(flux_u, flux_v, laplacian)`` with the flux densities sqrt g g^{ij} d_j f
    it takes the divergence of: grad f leaves a counterclockwise contour
    through the integral of ``flux_u dv - flux_v du``."""
    check_field(patch, values, "laplace operand")
    fu = diff(patch, values, 0)
    fv = diff(patch, values, 1)
    det = metric.E * metric.G - metric.F**2
    inv_uu, inv_uv, inv_vv = metric.G / det, -metric.F / det, metric.E / det
    flux_u = metric.dA * (inv_uu * fu + inv_uv * fv)
    flux_v = metric.dA * (inv_uv * fu + inv_vv * fv)
    del fu, fv, det, inv_uu, inv_uv, inv_vv  # the divergence needs only the fluxes
    return flux_u, flux_v, (diff(patch, flux_u, 0) + diff(patch, flux_v, 1)) / metric.dA


def integrate(patch: GridPatch, values: np.ndarray, metric: MetricField) -> float:
    """Integral of a scalar field against the metric area element over a
    closed chart, where every quadrature weight is the grid step."""
    if not patch.closed:
        raise InputError("integrate needs a closed chart (each axis periodic or capped)")
    values = check_field(patch, np.asarray(values, dtype=float), "integrand")
    if values.ndim != 2:
        raise InputError("integrate expects a scalar field")
    return float(np.sum(values * metric.dA * patch.hu * patch.hv))

