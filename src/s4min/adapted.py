"""Curvature-ellipse invariants: circle locus, Hopf field, zero orders.

Everything here is read off the shape report in the one transported normal
gauge of ``surface.normal_frame``; no ellipse-aligned frame is built.

* The circle locus: points where the curvature ellipse degenerates to a
  circle (kappa = mu, so one of the radii a_+, a_- vanishes), and the
  superminimality verdict that classifies a patch as circle everywhere,
  circle at isolated points, or generic.
* The Hopf field: the coefficient (conj(H3)^2 + conj(H4)^2)/4 of the quartic
  differential, whose modulus a_+ a_- / 4 is gauge invariant, with its
  Cauchy-Riemann residual on an isothermal chart.
* Zero candidates of a field (isolated small local minima of its modulus)
  and the integer winding order of a complex field around each of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridPatch, InputError, MetricField, diff
from .surface import ShapeReport

EPS_SUPERMINIMAL = 1e-6
CIRCLE_FLOOR = 1e-14
WINDING_SAMPLES = 64


# ---------------------------------------------------------------------------
# circle locus and superminimality


def _clusters(mask: np.ndarray, periodic_u: bool, periodic_v: bool) -> list[list]:
    """Connected components (8-neighbourhood) of a boolean grid mask.

    Periodic axes wrap.  Each component lists its (i, j) cells in
    discovery order; components come in row-major order of their first cell.
    """
    seen = np.zeros(mask.shape, dtype=bool)
    nu, nv = mask.shape
    out = []
    for start in zip(*np.nonzero(mask)):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = [start]
        while stack:
            i, j = stack.pop()
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ii, jj = i + di, j + dj
                    if periodic_u:
                        ii %= nu
                    if periodic_v:
                        jj %= nv
                    if 0 <= ii < nu and 0 <= jj < nv and mask[ii, jj] and not seen[ii, jj]:
                        seen[ii, jj] = True
                        stack.append((ii, jj))
                        members.append((ii, jj))
        out.append(members)
    return out


@dataclass
class SuperminimalityReport:
    verdict: str  # "superminimal" | "isolated-circle-points" | "generic"
    circle_point_count: int
    reason: str
    # radius branches ("+" for a_plus, "-" for a_minus) that vanish
    # identically; empty unless the verdict is "superminimal"
    vanishing: tuple[str, ...] = ()


def superminimality_test(report: ShapeReport) -> SuperminimalityReport:
    """Classify the patch: circle everywhere, isolated circle points, or neither.

    This is the one place that decides what vanishes identically.  Both
    radii do when |B|^2 stays below 1e-12; when the ellipse is a circle at
    every point (a_plus * a_minus / 4 below EPS_SUPERMINIMAL of |B|^2), the
    smaller of a_plus and a_minus does; otherwise neither.  The Hopf
    residual, the Laplace identities and the zero counts take the verdict
    and these branches from the report instead of deciding again.
    """
    quarter = 0.25 * report.a_plus * report.a_minus
    max_q = float(quarter.max())
    max_b = float(report.norm_B2.max())
    # circle points: kappa - mu below 1e-4 of the largest semi-axis
    mask = (report.kappa - report.mu) < 1e-4 * float(report.kappa.max()) + CIRCLE_FLOOR
    n_pts = int(mask.sum())
    if max_b < 1e-12:
        return SuperminimalityReport("superminimal", n_pts, "second fundamental form vanishes",
                                     ("+", "-"))
    if max_q < EPS_SUPERMINIMAL * max_b:
        smaller = "+" if report.a_plus.max() < report.a_minus.max() else "-"
        return SuperminimalityReport("superminimal", n_pts, "ellipse is a circle at every point",
                                     (smaller,))
    if n_pts:
        if n_pts / mask.size < 0.05:
            clusters = len(_clusters(mask, report.patch.periodic_u, report.patch.periodic_v))
            return SuperminimalityReport("isolated-circle-points", n_pts,
                                         f"{clusters} isolated circle cluster(s)")
        return SuperminimalityReport("generic", n_pts, "large circle locus; treating as generic")
    return SuperminimalityReport("generic", 0, "no circle points")


# ---------------------------------------------------------------------------
# Hopf field


ISOTHERMAL_RTOL = 1e-8


def _is_isothermal(metric: MetricField) -> bool:
    scale = float(metric.E.max())
    return (np.abs(metric.E - metric.G).max() < ISOTHERMAL_RTOL * scale
            and np.abs(metric.F).max() < ISOTHERMAL_RTOL * scale)


def hopf_coefficient(report: ShapeReport) -> np.ndarray:
    """Quartic-differential coefficient (conj(H3)^2 + conj(H4)^2)/4 against
    the orthonormal coframe; its modulus a_plus * a_minus / 4 is gauge
    invariant."""
    return 0.25 * (np.conj(report.H3) ** 2 + np.conj(report.H4) ** 2)


def hopf_differential(report: ShapeReport, metric: MetricField, phi: np.ndarray,
                      sup: SuperminimalityReport) -> np.ndarray:
    """Holomorphy residual of the quartic differential's coefficient,
    phi = hopf_coefficient(report), given sup = superminimality_test(report).

    On an isothermal chart this is the Cauchy-Riemann residual
    |d(coefficient)/d z-bar| of the chart coefficient.  On any other chart
    the coefficient is certified by a gradient bound of phi exactly when
    the verdict is superminimal (it vanishes identically, so it is
    holomorphic in any chart); otherwise the residual is undefined and
    InputError is raised.
    """
    patch = report.patch

    if _is_isothermal(metric):
        lam4 = metric.E**2  # conformal factor^2 squared: |dz|^2 coefficient
        c = lam4 * phi
        cu = diff(patch, c, 0)
        cv = diff(patch, c, 1)
        return 0.5 * np.abs(cu + 1j * cv)

    if sup.verdict == "superminimal":
        # certify flatness of the zero field directly
        return np.abs(diff(patch, phi, 0)) + np.abs(diff(patch, phi, 1))

    raise InputError(
        "chart is not isothermal and the coefficient does not vanish; "
        "use a conformal parametrization (catalog charts)"
    )


# ---------------------------------------------------------------------------
# zeros and winding orders


@dataclass
class ZeroOrder:
    location: tuple[int, int]  # grid index of the candidate cell
    order: int
    gap: float  # |winding - order| before rounding
    flagged: bool  # True when the rounding gap is unreliable (> 0.2)


def find_zero_candidates(patch: GridPatch, values: np.ndarray) -> list[tuple[int, int]]:
    """Grid cells where |values| has an isolated local minimum below 2 % of its maximum."""
    mag = np.abs(values)
    scale = mag.max()
    if scale == 0.0:
        return []
    small = mag < 0.02 * scale
    # cluster small cells and keep each cluster's minimum
    clusters = _clusters(small, patch.periodic_u, patch.periodic_v)
    return sorted(min(members, key=lambda p: mag[p]) for members in clusters)


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
