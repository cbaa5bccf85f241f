"""Curvature-ellipse invariants: circle locus, Hopf field, zero candidates.

Everything here is read off the shape report in the one transported normal
gauge of ``surface.normal_frame``; no ellipse-aligned frame is built.

* The circle locus: points where the curvature ellipse degenerates to a
  circle (kappa = mu, so one of the radii a_+, a_- vanishes), and the
  superminimality verdict (circle everywhere, circle at isolated points,
  or generic), both read off the radii against one floor.
* The Hopf field: the coefficient (conj(H3)^2 + conj(H4)^2)/4 of the quartic
  differential, whose modulus a_+ a_- / 4 is gauge invariant, with its
  Cauchy-Riemann residual on an isothermal chart.
* Zero candidates of a field: isolated small local minima of its modulus,
  which the zero counts of ``topology`` excise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridPatch, InputError, MetricField, diff
from .surface import ShapeReport
from .thresholds import ISOLATED_FRACTION, ISOTHERMAL_RTOL, VANISHING_RTOL, ZERO_CANDIDATE_FRACTION


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

    This is the one place that decides what vanishes identically, with the
    radii against one floor, 1e-4 * max(1, kappa_max), where 1 is the
    ambient curvature in a_pm^2 = 1 - K +- K_N.  A radius whose maximum lies
    below it vanishes identically, and the verdict is superminimal exactly
    when one does; circle points are where kappa - mu = min(a_plus, a_minus)
    lies below it.  The Hopf residual, the Laplace identities and the zero
    counts take the verdict and these branches from the report instead of
    deciding again.
    """
    floor = VANISHING_RTOL * max(1.0, float(report.kappa.max()))
    mask = (report.kappa - report.mu) < floor
    n_pts = int(mask.sum())
    vanishing = tuple(b for b, a in zip("+-", (report.a_plus, report.a_minus)) if a.max() < floor)
    if vanishing:
        reason = ("second fundamental form vanishes" if len(vanishing) == 2
                  else "ellipse is a circle at every point")
        return SuperminimalityReport("superminimal", n_pts, reason, vanishing)
    if n_pts:
        if n_pts / mask.size < ISOLATED_FRACTION:
            clusters = len(_clusters(mask, report.patch.periodic_u, report.patch.periodic_v))
            return SuperminimalityReport("isolated-circle-points", n_pts,
                                         f"{clusters} isolated circle cluster(s)")
        return SuperminimalityReport("generic", n_pts, "large circle locus; treating as generic")
    return SuperminimalityReport("generic", 0, "no circle points")


# ---------------------------------------------------------------------------
# Hopf field


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
# zero candidates


def find_zero_candidates(patch: GridPatch, values: np.ndarray) -> list[tuple[int, int]]:
    """Grid cells where |values| has an isolated local minimum below 2 % of its maximum."""
    mag = np.abs(values)
    scale = mag.max()
    if scale == 0.0:
        return []
    small = mag < ZERO_CANDIDATE_FRACTION * scale
    # cluster small cells and keep each cluster's minimum
    clusters = _clusters(small, patch.periodic_u, patch.periodic_v)
    return sorted(min(members, key=lambda p: mag[p]) for members in clusters)
