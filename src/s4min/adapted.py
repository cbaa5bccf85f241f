"""Curvature-ellipse-aligned frames, connection forms, and the Hopf field.

Off the locus where the curvature ellipse degenerates to a circle, writing
k_pm = conj(H3) +- i conj(H4) and rotating the tangent frame by chi and the
normal frame by psi with

    chi = -(arg k_+ + arg k_-) / 4,      psi = (arg k_+ - arg k_-) / 2,

turns both k_pm positive real, i.e. H3 = kappa1 > 0 and H4 = i mu1 with
|mu1| = mu: the frame vectors then point along the ellipse axes.  The branch
angles are unwrapped over the whole grid so the frame field is continuous;
the remaining quarter-turn ambiguity acts trivially on all H values, so
kappa1, mu1 and the connection forms below are insensitive to it.

In this frame the tangent and normal connection forms close over
(kappa1, mu1) alone:

    omega12 = -1/4 * d log(kappa1^2 - mu1^2)
    omega34 = *(kappa1 d mu1 - mu1 d kappa1) / (kappa1^2 - mu1^2)

which this module evaluates with the grid stencils (and cross-checks
against direct frame derivatives <D e1, e2>, <D e3, e4>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import (
    GridPatch,
    MetricField,
    diff,
    frame_coefficients,
    hodge_star_oneform,
    oneform_frame_components,
)
from .surface import ImmersionField, NormalFrameField, ShapeReport, SurfaceError

EPS_SUPERMINIMAL = 1e-6
CIRCLE_FLOOR = 1e-14
FORM_DENOM_FLOOR = 1e-10
WINDING_SAMPLES = 64


class AdaptedFrameError(ValueError):
    """Raised when an ellipse-aligned frame or chart cannot be built."""


class SuperminimalPatch(Exception):
    """The curvature ellipse is a circle on the whole patch.

    The ellipse-aligned frame is undefined; callers handle this branch by
    congruence-based methods instead of connection-form integration.
    """

    def __init__(self, verdict: "SuperminimalityReport"):
        self.verdict = verdict
        super().__init__(
            f"adapted frame undefined: ellipse is a circle on the whole patch "
            f"({verdict.reason})"
        )


# ---------------------------------------------------------------------------
# circle locus and superminimality


def circle_threshold(report: ShapeReport) -> float:
    """Threshold on kappa - mu below which a point counts as a circle point."""
    return 1e-4 * float(report.kappa.max()) + CIRCLE_FLOOR


def circle_mask(report: ShapeReport) -> np.ndarray:
    return (report.kappa - report.mu) < circle_threshold(report)


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
    max_quarter_product: float  # max of a_plus * a_minus / 4 (= |Hopf coefficient|)
    max_norm_B2: float
    circle_point_count: int
    cluster_count: int
    reason: str


def superminimality_test(report: ShapeReport) -> SuperminimalityReport:
    """Classify the patch: circle everywhere, isolated circle points, or neither."""
    quarter = 0.25 * report.a_plus * report.a_minus
    max_q = float(quarter.max())
    max_b = float(report.norm_B2.max())
    mask = circle_mask(report)
    n_pts = int(mask.sum())
    if max_b < 1e-12:
        return SuperminimalityReport("superminimal", max_q, max_b, n_pts,
                                     1 if n_pts else 0, "second fundamental form vanishes")
    if max_q < EPS_SUPERMINIMAL * max_b:
        return SuperminimalityReport("superminimal", max_q, max_b, n_pts,
                                     1 if n_pts else 0,
                                     "ellipse is a circle at every point")
    clusters = len(_clusters(mask, report.patch.periodic_u, report.patch.periodic_v))
    if n_pts:
        frac = n_pts / mask.size
        if frac < 0.05:
            return SuperminimalityReport("isolated-circle-points", max_q, max_b,
                                         n_pts, clusters,
                                         f"{clusters} isolated circle cluster(s)")
        return SuperminimalityReport("generic", max_q, max_b, n_pts, clusters,
                                     "large circle locus; treating as generic")
    return SuperminimalityReport("generic", max_q, max_b, 0, 0, "no circle points")


# ---------------------------------------------------------------------------
# adapted frame


def _unwrap2d(angles: np.ndarray) -> np.ndarray:
    """Continuous branch of an angle field: unwrap column 0, then each row."""
    col0 = np.unwrap(angles[:, 0])
    out = np.unwrap(angles, axis=1)
    return out + (col0 - out[:, 0])[:, None]


def _seam_windings(patch: GridPatch, k: np.ndarray, alpha: np.ndarray) -> dict:
    """Integer winding of arg(k) around each periodic axis of the grid."""
    out = {}
    if patch.periodic_u:
        step = np.angle(k[0, :] * np.conj(k[-1, :]))
        m = (alpha[-1, :] + step - alpha[0, :]) / (2.0 * math.pi)
        out["u"] = int(np.round(np.median(m)))
    if patch.periodic_v:
        step = np.angle(k[:, 0] * np.conj(k[:, -1]))
        m = (alpha[:, -1] + step - alpha[:, 0]) / (2.0 * math.pi)
        out["v"] = int(np.round(np.median(m)))
    return out


@dataclass
class AdaptedFrameField:
    """Ellipse-aligned frames and the data of the connection forms.

    kappa1 > 0 is the major semi-axis, mu1 the signed minor semi-axis
    (sign of the normal curvature).  omega*_u / omega*_v are coordinate
    components of the connection 1-forms from the closed formulas;
    omega*_direct_* are the same forms from frame derivatives (stored for
    cross-checking).  omega*_E are values on E = e1 - i e2 of the adapted
    frame.  seam_winding records the integer winding of arg k_pm around
    periodic axes (nonzero winding means the frame field closes up only
    modulo a quarter/half turn, which no invariant below depends on).
    """

    patch: GridPatch
    metric: MetricField
    kappa1: np.ndarray
    mu1: np.ndarray
    chi: np.ndarray
    psi: np.ndarray
    circle_mask: np.ndarray
    gauge_sign: np.ndarray
    e1: Optional[np.ndarray] = None
    e2: Optional[np.ndarray] = None
    e3: Optional[np.ndarray] = None
    e4: Optional[np.ndarray] = None
    seam_winding: dict = field(default_factory=dict)
    omega12_u: Optional[np.ndarray] = None
    omega12_v: Optional[np.ndarray] = None
    omega34_u: Optional[np.ndarray] = None
    omega34_v: Optional[np.ndarray] = None
    omega12_E: Optional[np.ndarray] = None
    omega34_E: Optional[np.ndarray] = None
    omega12_direct_u: Optional[np.ndarray] = None
    omega12_direct_v: Optional[np.ndarray] = None
    omega34_direct_u: Optional[np.ndarray] = None
    omega34_direct_v: Optional[np.ndarray] = None

    def excluded(self, widen: int = 2) -> np.ndarray:
        """circle_mask dilated by `widen` cells (stencil contamination zone)."""
        mask = self.circle_mask.copy()
        for axis in (0, 1):
            for shift in range(1, widen + 1):
                mask |= np.roll(self.circle_mask, shift, axis=axis)
                mask |= np.roll(self.circle_mask, -shift, axis=axis)
        return mask


def build_adapted_frame(imm: ImmersionField, e1: np.ndarray, e2: np.ndarray,
                        metric: MetricField, nf: NormalFrameField,
                        report: ShapeReport) -> AdaptedFrameField:
    """Rotate (e1, e2) and (e3, e4) onto the curvature-ellipse axes.

    Raises SuperminimalPatch when the ellipse is a circle everywhere (the
    alignment is then undefined).  Isolated circle points are allowed and
    recorded in circle_mask; fields within stencil reach of them should be
    judged via .excluded().
    """
    verdict = superminimality_test(report)
    mask = circle_mask(report)
    if verdict.verdict == "superminimal" or mask.all():
        raise SuperminimalPatch(verdict)

    k_plus = np.conj(report.H3) + 1j * np.conj(report.H4)
    k_minus = np.conj(report.H3) - 1j * np.conj(report.H4)
    alpha_p = _unwrap2d(np.angle(k_plus))
    alpha_m = _unwrap2d(np.angle(k_minus))
    chi = -(alpha_p + alpha_m) / 4.0
    psi = (alpha_p - alpha_m) / 2.0

    cc, sc = np.cos(chi)[:, :, None], np.sin(chi)[:, :, None]
    e1a = cc * e1 + sc * e2
    e2a = -sc * e1 + cc * e2
    cp, sp = np.cos(psi)[:, :, None], np.sin(psi)[:, :, None]
    e3a = cp * nf.e3 + sp * nf.e4
    e4a = -sp * nf.e3 + cp * nf.e4

    kappa1 = 0.5 * (report.a_plus + report.a_minus)
    mu1 = 0.5 * (report.a_plus - report.a_minus)

    seam = {}
    for tag, k, alpha in (("plus", k_plus, alpha_p), ("minus", k_minus, alpha_m)):
        for ax, m in _seam_windings(imm.patch, k, alpha).items():
            seam[f"{tag}_{ax}"] = m

    aff = AdaptedFrameField(imm.patch, metric, kappa1, mu1, chi, psi,
                            mask, np.ones(imm.patch.shape), e1a, e2a, e3a, e4a,
                            seam)
    connection_forms(aff)
    return aff


# ---------------------------------------------------------------------------
# connection forms


def _coordinate_from_frame(metric: MetricField, g1: np.ndarray, g2: np.ndarray):
    """Coordinate components (on du, dv) of a 1-form given its frame values."""
    a, b, c = frame_coefficients(metric)
    alpha_u = g1 / a
    alpha_v = (g2 - b * alpha_u) / c
    return alpha_u, alpha_v


def _frame_is_periodic(aff: AdaptedFrameField, axis: str, pair: str) -> bool:
    """Whether the adapted frame field closes exactly around a periodic axis.

    The branch angle of k_pm gains 2 pi * winding around the cycle; the
    tangent frame is periodic iff the combined winding is 0 mod 4, the
    normal frame iff the winding difference is 0 mod 2.
    """
    mp = aff.seam_winding.get(f"plus_{axis}", 0)
    mm = aff.seam_winding.get(f"minus_{axis}", 0)
    if pair == "tangent":
        return (mp + mm) % 4 == 0
    return (mp - mm) % 2 == 0


def connection_forms(aff: AdaptedFrameField):
    """Evaluate both connection 1-forms from the (kappa1, mu1) formulas.

    Stores coordinate components, values on E = e1 - i e2, and (when the
    frame fields are present) the direct frame-derivative versions.
    Returns (omega12_E, omega34_E).
    """
    patch, metric = aff.patch, aff.metric
    den = aff.kappa1**2 - aff.mu1**2
    den_safe = np.maximum(den, FORM_DENOM_FLOOR)

    # omega12 = -1/4 * d log(kappa1^2 - mu1^2)
    g = np.log(den_safe)
    g1, g2 = oneform_frame_components(metric, diff(patch, g, 0), diff(patch, g, 1))
    s1, s2 = hodge_star_oneform(g1, g2)
    w12_1, w12_2 = -0.25 * s1, -0.25 * s2

    # omega34 = *(kappa1 d mu1 - mu1 d kappa1) / (kappa1^2 - mu1^2)
    nu_u = aff.kappa1 * diff(patch, aff.mu1, 0) - aff.mu1 * diff(patch, aff.kappa1, 0)
    nu_v = aff.kappa1 * diff(patch, aff.mu1, 1) - aff.mu1 * diff(patch, aff.kappa1, 1)
    n1, n2 = oneform_frame_components(metric, nu_u, nu_v)
    t1, t2 = hodge_star_oneform(n1, n2)
    w34_1, w34_2 = t1 / den_safe, t2 / den_safe

    aff.omega12_u, aff.omega12_v = _coordinate_from_frame(metric, w12_1, w12_2)
    aff.omega34_u, aff.omega34_v = _coordinate_from_frame(metric, w34_1, w34_2)

    # values on E = e1 - i e2 of the adapted frame: the frame components
    # above are against the unrotated frame, so multiply by exp(i chi)
    phase = np.exp(1j * aff.chi)
    aff.omega12_E = phase * (w12_1 - 1j * w12_2)
    aff.omega34_E = phase * (w34_1 - 1j * w34_2)

    if aff.e1 is not None:
        def direct(fa, fb, pair):
            per_u = patch.periodic_u and _frame_is_periodic(aff, "u", pair)
            per_v = patch.periodic_v and _frame_is_periodic(aff, "v", pair)
            du = diff(patch, fa, 0, periodic=per_u)
            dv = diff(patch, fa, 1, periodic=per_v)
            return (np.einsum("uvk,uvk->uv", du, fb),
                    np.einsum("uvk,uvk->uv", dv, fb))

        aff.omega12_direct_u, aff.omega12_direct_v = direct(aff.e1, aff.e2, "tangent")
        aff.omega34_direct_u, aff.omega34_direct_v = direct(aff.e3, aff.e4, "normal")

    return aff.omega12_E, aff.omega34_E


def connection_form_agreement(aff: AdaptedFrameField) -> dict:
    """Max formula-vs-direct discrepancy per form, off the widened mask."""
    ok = ~aff.excluded()
    return {
        "omega12": float(max(np.abs(aff.omega12_u - aff.omega12_direct_u)[ok].max(),
                             np.abs(aff.omega12_v - aff.omega12_direct_v)[ok].max())),
        "omega34": float(max(np.abs(aff.omega34_u - aff.omega34_direct_u)[ok].max(),
                             np.abs(aff.omega34_v - aff.omega34_direct_v)[ok].max())),
    }


def frame_derivative_identity_residual(aff: AdaptedFrameField) -> float:
    """Residual of the two derivative identities tying d kappa1, d mu1 to the forms.

        E(kappa1) = -2 i kappa1 omega12(E) + i mu1 omega34(E)
        E(mu1)    = -2 i mu1 omega12(E) + i kappa1 omega34(E)

    evaluated with stencil derivatives; max over both, off the widened mask.
    """
    patch, metric = aff.patch, aff.metric

    def E_of(scalar):
        g1, g2 = oneform_frame_components(metric, diff(patch, scalar, 0),
                                          diff(patch, scalar, 1))
        return np.exp(1j * aff.chi) * (g1 - 1j * g2)

    r1 = E_of(aff.kappa1) + 2j * aff.kappa1 * aff.omega12_E - 1j * aff.mu1 * aff.omega34_E
    r2 = E_of(aff.mu1) + 2j * aff.mu1 * aff.omega12_E - 1j * aff.kappa1 * aff.omega34_E
    ok = ~aff.excluded()
    return float(max(np.abs(r1)[ok].max(), np.abs(r2)[ok].max()))


def synthetic_adapted_frame(patch: GridPatch, metric: MetricField,
                            kappa1: np.ndarray, mu1: np.ndarray) -> AdaptedFrameField:
    """Frame-free adapted data from prescribed (kappa1, mu1) fields.

    For oracle tests: the connection forms and derivative identities are
    functions of (kappa1, mu1, metric) alone, so synthetic fields with
    hand-integrable closed forms exercise them without any surface.
    """
    zeros = np.zeros(patch.shape)
    mask = (kappa1 - np.abs(mu1)) < 1e-12
    aff = AdaptedFrameField(patch, metric, kappa1, mu1, zeros, zeros,
                            mask, np.ones(patch.shape))
    connection_forms(aff)
    return aff


# ---------------------------------------------------------------------------
# Hopf field


@dataclass
class ZeroOrder:
    location: tuple[int, int]  # grid index of the candidate cell
    order: int
    gap: float  # |winding - order| before rounding
    flagged: bool  # True when the rounding gap is unreliable (> 0.2)


@dataclass
class HopfField:
    """Quartic-differential coefficient and its holomorphy residual.

    phi_coeff = (conj(H3)^2 + conj(H4)^2)/4 against the orthonormal
    coframe; |phi_coeff| = a_plus * a_minus / 4 in any gauge.  On an
    isothermal chart holo_residual is the Cauchy-Riemann residual
    |d(coefficient)/d z-bar| of the chart coefficient; identically-zero
    coefficients (circle everywhere) are certified by a gradient bound
    instead.
    """

    patch: GridPatch
    phi_coeff: np.ndarray
    holo_residual: np.ndarray
    zero_list: list
    chart: str  # "isothermal" | "degenerate-zero"


ISOTHERMAL_RTOL = 1e-8


def _is_isothermal(metric: MetricField) -> bool:
    scale = float(metric.E.max())
    return (np.abs(metric.E - metric.G).max() < ISOTHERMAL_RTOL * scale
            and np.abs(metric.F).max() < ISOTHERMAL_RTOL * scale)


def hopf_differential(report: ShapeReport, metric: MetricField) -> HopfField:
    """Coefficient of the quartic differential and its holomorphy check."""
    patch = report.patch
    phi = 0.25 * (np.conj(report.H3) ** 2 + np.conj(report.H4) ** 2)
    scale = float(np.abs(phi).max())

    if _is_isothermal(metric):
        lam4 = metric.E**2  # conformal factor^2 squared: |dz|^2 coefficient
        c = lam4 * phi
        cu = diff(patch, c, 0)
        cv = diff(patch, c, 1)
        holo = 0.5 * np.abs(cu + 1j * cv)
        zeros = []
        if scale > 0:
            cands = find_zero_candidates(patch, c)
            zeros = zero_orders(patch, c, cands)
        return HopfField(patch, phi, holo, zeros, "isothermal")

    if scale < 1e-10 * max(float(report.norm_B2.max()), 1e-30) or scale < 1e-14:
        # coefficient vanishes identically: holomorphic in any chart; certify
        # flatness of the zero field directly
        holo = np.abs(diff(patch, phi, 0)) + np.abs(diff(patch, phi, 1))
        return HopfField(patch, phi, holo, [], "degenerate-zero")

    raise AdaptedFrameError(
        "chart is not isothermal and the coefficient does not vanish; "
        "use a conformal parametrization (catalog charts)"
    )


# ---------------------------------------------------------------------------
# zeros and winding orders


def find_zero_candidates(patch: GridPatch, values: np.ndarray,
                         rel_threshold: float = 0.02) -> list[tuple[int, int]]:
    """Grid cells where |values| has an isolated small local minimum."""
    mag = np.abs(values)
    scale = mag.max()
    if scale == 0.0:
        return []
    small = mag < rel_threshold * scale
    # cluster small cells and keep each cluster's minimum
    clusters = _clusters(small, patch.periodic_u, patch.periodic_v)
    return sorted(min(members, key=lambda p: mag[p]) for members in clusters)


def _sample_bilinear(patch: GridPatch, values: np.ndarray,
                     u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bilinear interpolation at parameter points, wrapping periodic axes."""
    su = (u - patch.u_range[0]) / patch.hu
    sv = (v - patch.v_range[0]) / patch.hv
    nu, nv = patch.shape
    i0 = np.floor(su).astype(int)
    j0 = np.floor(sv).astype(int)
    fu = su - i0
    fv = sv - j0
    if patch.periodic_u:
        i0 %= nu
        i1 = (i0 + 1) % nu
    else:
        if (i0 < 0).any() or (i0 > nu - 2).any():
            raise AdaptedFrameError("sample circle leaves the open u-axis")
        i1 = i0 + 1
    if patch.periodic_v:
        j0 %= nv
        j1 = (j0 + 1) % nv
    else:
        if (j0 < 0).any() or (j0 > nv - 2).any():
            raise AdaptedFrameError("sample circle leaves the open v-axis")
        j1 = j0 + 1
    return (values[i0, j0] * (1 - fu) * (1 - fv) + values[i1, j0] * fu * (1 - fv)
            + values[i0, j1] * (1 - fu) * fv + values[i1, j1] * fu * fv)


def winding_number(patch: GridPatch, values: np.ndarray, center_uv, radius: float,
                   samples: int = WINDING_SAMPLES) -> float:
    """(1/2pi) * total argument increment of a complex field around a circle."""
    ang = 2.0 * math.pi * np.arange(samples + 1) / samples
    u = center_uv[0] + radius * np.cos(ang)
    v = center_uv[1] + radius * np.sin(ang)
    c = _sample_bilinear(patch, values.astype(complex), u, v)
    if np.any(np.abs(c) == 0.0):
        raise AdaptedFrameError("winding circle passes through a zero")
    inc = np.angle(c[1:] * np.conj(c[:-1]))
    return float(np.sum(inc) / (2.0 * math.pi))


def zero_orders(patch: GridPatch, values: np.ndarray,
                candidates: list[tuple[int, int]],
                radius: float = None) -> list[ZeroOrder]:
    """Integer winding order around each candidate zero, with rounding gap."""
    if radius is None:
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
