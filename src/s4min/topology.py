"""Global integral identities for closed immersed surfaces in the 4-sphere.

Everything here reduces pointwise curvature data to integers and checks the
balances that tie them together:

* Euler characteristics by quadrature: ``chi_M`` from the Gauss curvature and
  ``chi_Nf`` from the normal curvature, each as ``(1/2pi) * integral``.
* Zero counts ``N(a)`` of the curvature-ellipse radii ``a+`` and ``a-`` by
  excised integrals of ``laplace(log a)`` in boundary-flux form.
* The balance ``2*chi_M + chi_Nf = -N(a-)`` and ``2*chi_M - chi_Nf = -N(a+)``
  relating the two, valid when the ellipse is not a circle everywhere.
* The pointwise identities ``laplace(log a+-) = 2K -+ K_N`` off the zero set
  and the curvature test ``laplace(log(1-K)) = 4K`` that detects surfaces
  lying in a totally geodesic 3-sphere.

Integer-valued quantities are always reported as the raw quadrature value
together with the nearest integer and the rounding gap; nothing is rounded
silently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapted import find_zero_candidates, superminimality_test
from .grid import GridPatch, MetricField, integrate, laplace_beltrami, diff
from .surface import ShapeReport

# Excision radius for zero counting, in units of the larger grid spacing.
# The integrand is log-singular at a zero; the flux contour must clear the
# derivative stencil reach (5 nodes) around the singular node.
EXCISION_FACTOR = 6.0
# A radius field whose maximum falls below this is treated as identically
# zero: its zero set is not isolated points and no count is defined.
IDENTICALLY_ZERO_FLOOR = 1e-10
# The 3-sphere curvature test is evaluated where 1 - K exceeds this floor.
RICCI_FLOOR = 1e-6


class TopologyError(ValueError):
    """Raised when a global integral is requested on unsuitable data."""


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class IntegerVerdict:
    """A quadrature value expected to be an integer, reported unrounded."""

    value: float
    rounded: int
    gap: float

    @staticmethod
    def of(value: float) -> "IntegerVerdict":
        r = int(np.round(value))
        return IntegerVerdict(float(value), r, abs(float(value) - r))


@dataclass(frozen=True)
class ZeroCount:
    """Zero count of a nonnegative field from excised boundary fluxes.

    ``value`` is the sum of the per-zero contour fluxes of ``grad(log a)``
    divided by ``2pi``; for an isolated zero of order ``m`` the flux is
    ``2pi m`` up to quadrature error.  ``excised_integral`` is the same count
    computed as ``-(1/2pi)`` times the quadrature of ``laplace(log a)`` over
    the chart with the excision rectangles removed; on a closed chart the two
    agree up to discretization and their difference is a consistency
    diagnostic, not an independent quantity.
    """

    value: float
    rounded: int
    gap: float
    per_zero: tuple[IntegerVerdict, ...]
    locations: tuple[tuple[int, int], ...]
    excised_integral: float


@dataclass(frozen=True)
class BalanceCheck:
    """Residuals of the Euler-number / zero-count balance.

    ``residual_plus`` is ``|2 chi_M - chi_Nf + N(a+)|`` and
    ``residual_minus`` is ``|2 chi_M + chi_Nf + N(a-)|``.  The balance
    assumes the curvature ellipse is not a circle everywhere; superminimal
    input is skipped with the reason recorded.
    """

    skipped: bool
    reason: str
    residual_plus: float | None
    residual_minus: float | None


@dataclass(frozen=True)
class RicciCheck:
    """Max residual of ``laplace(log(1-K)) = 4K`` where ``1-K`` is positive.

    A closed surface satisfies the identity exactly when it is locally a
    minimal surface of a totally geodesic 3-sphere; the residual is the
    numerical detector.  When ``1 - K`` vanishes on the whole chart (totally
    geodesic 2-sphere) there is nothing to evaluate and the check is skipped.
    """

    residual: float | None
    skipped: bool
    reason: str


@dataclass(frozen=True)
class TopologyReport:
    """Global invariants and identity residuals of one closed surface."""

    chi_M: IntegerVerdict
    chi_Nf: IntegerVerdict
    count_plus: ZeroCount | None  # None when a+ is identically zero
    count_minus: ZeroCount | None
    superminimality: str  # verdict string from the ellipse classification
    balance: BalanceCheck
    ricci: RicciCheck


# ---------------------------------------------------------------------------
# Euler numbers


def _require_closed(patch: GridPatch, what: str) -> None:
    if not patch.closed:
        raise TopologyError(
            f"{what} needs a closed chart (each axis periodic or capped); "
            f"got periodic=({patch.periodic_u}, {patch.periodic_v}), "
            f"cap=({patch.cap_u}, {patch.cap_v})"
        )


def euler_numbers(report: ShapeReport, metric: MetricField) -> tuple[IntegerVerdict, IntegerVerdict]:
    """Euler characteristics of the surface and of its normal bundle.

    ``chi_M = (1/2pi) * integral(K dA)`` and
    ``chi_Nf = (1/2pi) * integral(K_N dA)``, both by quadrature on a closed
    chart.  The raw values are returned with rounding verdicts; the caller
    decides whether the gap is acceptable.
    """
    patch = report.patch
    _require_closed(patch, "Euler-number quadrature")
    chi_m = integrate(patch, report.K, metric) / (2.0 * math.pi)
    chi_n = integrate(patch, report.K_N, metric) / (2.0 * math.pi)
    return IntegerVerdict.of(chi_m), IntegerVerdict.of(chi_n)


# ---------------------------------------------------------------------------
# zero counting


def _index_gap(a: int, b: int, n: int, periodic: bool) -> int:
    d = abs(a - b)
    return min(d, n - d) if periodic else d


def _contour_indices(center: int, half: int, n: int, periodic: bool, axis: str) -> np.ndarray:
    lo, hi = center - half, center + half
    if periodic:
        if 2 * half + 1 > n:
            raise TopologyError(
                f"excision rectangle spans the whole periodic {axis}-axis "
                f"(half-width {half}, {n} samples)"
            )
        return np.arange(lo, hi + 1) % n
    if lo < 0 or hi > n - 1:
        raise TopologyError(
            f"excision rectangle crosses the open {axis}-axis boundary "
            f"(center {center}, half-width {half}, {n} samples)"
        )
    return np.arange(lo, hi + 1)


def _edge_sum(values: np.ndarray, h: float) -> float:
    """Composite trapezoid along one contour edge."""
    w = np.full(values.shape, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return float(np.sum(values * w))


def zero_count_excised(
    patch: GridPatch,
    a_field: np.ndarray,
    metric: MetricField,
    zeros,
) -> ZeroCount:
    """Count zeros of a nonnegative field, with orders, by boundary fluxes.

    Each entry of ``zeros`` is a grid index pair ``(i, j)``.  Around each
    zero an excision rectangle of half-width ``EXCISION_FACTOR`` times the
    larger grid spacing is placed on-grid, and the outward flux of
    ``grad(log a_field)`` through its boundary is accumulated; an isolated
    zero of order ``m`` contributes ``2pi m``.  The total divided by ``2pi``
    is the count.  ``laplace(log a_field)`` is log-singular at the
    zeros, so this flux form replaces naive quadrature across them.

    Rectangles must not overlap and must clear open chart boundaries.
    """
    a = np.asarray(a_field, dtype=float)
    if a.shape != patch.shape:
        raise TopologyError(f"field shape {a.shape} does not match the {patch.shape} grid")
    if np.any(a < 0):
        raise TopologyError("zero counting expects a nonnegative field")
    radius = EXCISION_FACTOR * max(patch.hu, patch.hv)
    locations = [(int(i), int(j)) for i, j in zeros]
    ki = max(1, int(round(radius / patch.hu)))
    kj = max(1, int(round(radius / patch.hv)))

    for r, (ia, ja) in enumerate(locations):
        if not (0 <= ia < patch.nu and 0 <= ja < patch.nv):
            raise TopologyError(f"zero location ({ia}, {ja}) is off the grid")
        for ib, jb in locations[r + 1:]:
            close_u = _index_gap(ia, ib, patch.nu, patch.periodic_u) <= 2 * ki
            close_v = _index_gap(ja, jb, patch.nv, patch.periodic_v) <= 2 * kj
            if close_u and close_v:
                raise TopologyError(
                    f"overlapping excision rectangles around ({ia}, {ja}) and ({ib}, {jb})"
                )

    # Clamp before taking logs: the log is -inf at the zeros themselves, but
    # every node within stencil reach of a zero lies inside its excision
    # rectangle, so the clamped values never touch the reported fluxes.
    log_a = np.log(np.maximum(a, 1e-300))
    p = diff(patch, log_a, 0)
    q = diff(patch, log_a, 1)
    # flux densities of the metric gradient, in divergence-theorem form:
    # outward flux of a counterclockwise contour is sum(Fu dv - Fv du)
    flux_u = metric.dA * (metric.inv_uu * p + metric.inv_uv * q)
    flux_v = metric.dA * (metric.inv_uv * p + metric.inv_vv * q)

    per_zero = []
    for ia, ja in locations:
        ii = _contour_indices(ia, ki, patch.nu, patch.periodic_u, "u")
        jj = _contour_indices(ja, kj, patch.nv, patch.periodic_v, "v")
        bottom, top = jj[0], jj[-1]
        left, right = ii[0], ii[-1]
        flux = (
            -_edge_sum(flux_v[ii, bottom], patch.hu)
            + _edge_sum(flux_u[right, jj], patch.hv)
            + _edge_sum(flux_v[ii, top], patch.hu)
            - _edge_sum(flux_u[left, jj], patch.hv)
        )
        per_zero.append(IntegerVerdict.of(flux / (2.0 * math.pi)))

    # consistency diagnostic: quadrature of the Laplacian outside the
    # rectangles; on a closed chart it equals minus the flux total
    outside = np.ones(patch.shape, dtype=bool)
    iu = np.arange(patch.nu)
    iv = np.arange(patch.nv)
    for ia, ja in locations:
        du = np.abs(iu - ia)
        dv = np.abs(iv - ja)
        if patch.periodic_u:
            du = np.minimum(du, patch.nu - du)
        if patch.periodic_v:
            dv = np.minimum(dv, patch.nv - dv)
        outside &= (du[:, None] > ki) | (dv[None, :] > kj)
    if bool(((a < 1e-13 * a.max()) & outside).any()):
        raise TopologyError(
            "the field vanishes outside the excision rectangles; "
            "the zero list is incomplete"
        )
    lap = laplace_beltrami(patch, log_a, metric)
    excised = -integrate(patch, np.where(outside, lap, 0.0), metric) / (2.0 * math.pi)

    total = IntegerVerdict.of(float(sum(v.value for v in per_zero)))
    return ZeroCount(
        value=total.value,
        rounded=total.rounded,
        gap=total.gap,
        per_zero=tuple(per_zero),
        locations=tuple(locations),
        excised_integral=float(excised),
    )


# ---------------------------------------------------------------------------
# Euler/zero balance


def balance_residuals(
    chi_m: float, chi_n: float, n_plus: float, n_minus: float
) -> tuple[float, float]:
    """Residuals ``|2 chi_M - chi_Nf + N(a+)|`` and ``|2 chi_M + chi_Nf + N(a-)|``."""
    return (
        abs(2.0 * chi_m - chi_n + n_plus),
        abs(2.0 * chi_m + chi_n + n_minus),
    )


def _balance(
    chi_m: IntegerVerdict,
    chi_n: IntegerVerdict,
    count_plus: ZeroCount | None,
    count_minus: ZeroCount | None,
    superminimal: bool,
    reason: str,
) -> BalanceCheck:
    if superminimal:
        return BalanceCheck(True, f"superminimal surface: {reason}", None, None)
    if count_plus is None or count_minus is None:
        return BalanceCheck(
            True, "a zero count is unavailable (a radius field vanishes identically)",
            None, None,
        )
    rp, rm = balance_residuals(chi_m.value, chi_n.value, count_plus.value, count_minus.value)
    return BalanceCheck(False, "", rp, rm)


# ---------------------------------------------------------------------------
# pointwise identities


def _log_laplace_residual(patch: GridPatch, w: np.ndarray, metric: MetricField,
                          target: np.ndarray, valid: np.ndarray) -> float:
    """Max of |laplace(log w) - target| over the valid points."""
    lap = laplace_beltrami(patch, np.log(np.maximum(w, 1e-300)), metric)
    return float(np.abs(lap - target)[valid].max())


def laplace_identity_residual(
    report: ShapeReport,
    metric: MetricField,
    branch: str = "+",
) -> float | None:
    """Max residual of ``laplace(log a+) = 2K - K_N`` or ``laplace(log a-) = 2K + K_N``.

    Evaluated only where the chosen radius exceeds one tenth of its maximum;
    the identity holds off the zero set and the log is singular on it.
    None when the radius vanishes identically.
    """
    if branch not in ("+", "-"):
        raise TopologyError(f"branch must be '+' or '-', got {branch!r}")
    a = report.a_plus if branch == "+" else report.a_minus
    if float(a.max()) < IDENTICALLY_ZERO_FLOOR:
        return None  # identically zero branch: the identity has no domain
    valid = a > 0.1 * float(a.max())  # holds at the maximum, so never empty
    target = 2.0 * report.K - report.K_N if branch == "+" else 2.0 * report.K + report.K_N
    return _log_laplace_residual(report.patch, a, metric, target, valid)


def ricci_condition_residual(report: ShapeReport, metric: MetricField) -> RicciCheck:
    """Max residual of ``laplace(log(1-K)) = 4K`` where ``1 - K > RICCI_FLOOR``.

    The identity characterizes surfaces locally congruent to minimal
    surfaces of a totally geodesic 3-sphere.  ``1 - K`` identically zero
    (a totally geodesic 2-sphere) leaves nothing to evaluate.
    """
    w = 1.0 - report.K
    valid = w > RICCI_FLOOR
    if not valid.any():
        return RicciCheck(None, True, "1 - K vanishes on the whole chart")
    residual = _log_laplace_residual(report.patch, w, metric, 4.0 * report.K, valid)
    return RicciCheck(residual, False, "")


# ---------------------------------------------------------------------------
# synthetic oracle fields


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
            raise TopologyError("smooth factor must be strictly positive")
        a *= s
        w *= s
    return a, w


# ---------------------------------------------------------------------------
# assembled report


def topology_report(report: ShapeReport, metric: MetricField) -> TopologyReport:
    """Assemble Euler numbers, zero counts, and the 3-sphere test.

    Zeros are located by grid search with ``find_zero_candidates``.  A
    radius field whose maximum is below ``IDENTICALLY_ZERO_FLOOR`` has no
    isolated-zero count and its count is None; a superminimal surface
    skips the Euler/zero balance.  The Laplace identities of the radii
    are not part of the report: ``laplace_identity_residual`` evaluates
    them on any chart, closed or not.
    """
    patch = report.patch
    chi_m, chi_n = euler_numbers(report, metric)
    sup = superminimality_test(report)

    counts: list[ZeroCount | None] = []
    for a in (report.a_plus, report.a_minus):
        if float(a.max()) < IDENTICALLY_ZERO_FLOOR:
            counts.append(None)
        else:
            counts.append(zero_count_excised(patch, a, metric, find_zero_candidates(patch, a)))

    balance = _balance(chi_m, chi_n, counts[0], counts[1],
                       sup.verdict == "superminimal", sup.reason)
    ricci = ricci_condition_residual(report, metric)
    return TopologyReport(
        chi_M=chi_m,
        chi_Nf=chi_n,
        count_plus=counts[0],
        count_minus=counts[1],
        superminimality=sup.verdict,
        balance=balance,
        ricci=ricci,
    )
