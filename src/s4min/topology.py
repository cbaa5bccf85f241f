"""Identities of the curvature-ellipse radii and the global invariants they balance.

``topology_report`` checks all of them, differentiating each of log a+,
log a- and log(1 - K) once and reading every identity from that result:

* Euler characteristics by quadrature: ``chi_M`` from the Gauss curvature and
  ``chi_Nf`` from the normal curvature, each as ``(1/2pi) * integral``.
* Zero counts ``N(a)`` of the curvature-ellipse radii ``a+`` and ``a-`` by
  excised integrals of ``laplace(log a)`` in boundary-flux form.
* The balance ``2*chi_M + chi_Nf = -N(a-)`` and ``2*chi_M - chi_Nf = -N(a+)``
  relating the two, valid when the ellipse is not a circle everywhere.
* The pointwise identities ``laplace(log a+-) = 2K -+ K_N`` off the zero set,
  on any chart, and the curvature test ``laplace(log(1-K)) = 4K`` that
  detects surfaces lying in a totally geodesic 3-sphere.

Integer-valued quantities are always reported as the raw quadrature value
together with the nearest integer and the rounding gap; nothing is rounded
silently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapted import SuperminimalityReport, find_zero_candidates
from .grid import GridPatch, InputError, MetricField, check_field, integrate, laplace_beltrami
from .surface import ShapeReport
from .thresholds import EXCISION_FACTOR, LAPLACE_DOMAIN_FRACTION, RICCI_FLOOR, ZERO_LIST_RTOL


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
    assumes the curvature ellipse is not a circle everywhere; on a
    superminimal surface it does not run, both residuals are None and
    ``reason`` says why.
    """

    reason: str
    residual_plus: float | None
    residual_minus: float | None


@dataclass(frozen=True)
class TopologyReport:
    """Laplace residuals of the radii, on any chart, and the global part,
    whose fields are all None where ``unavailable`` says why it cannot run."""

    laplace_plus: float | None  # None when superminimality_test names a+ as vanishing
    laplace_minus: float | None
    unavailable: str | None = None  # InputError text: open chart, refused zero count
    chi_M: IntegerVerdict | None = None
    chi_Nf: IntegerVerdict | None = None
    count_plus: ZeroCount | None = None  # also None when a+ vanishes identically
    count_minus: ZeroCount | None = None
    balance: BalanceCheck | None = None
    ricci: float | None = None  # ricci_condition_residual; also None when 1 - K vanishes


# ---------------------------------------------------------------------------
# Euler numbers


def euler_numbers(report: ShapeReport, metric: MetricField) -> tuple[IntegerVerdict, IntegerVerdict]:
    """Euler characteristics of the surface and of its normal bundle.

    ``chi_M = (1/2pi) * integral(K dA)`` and
    ``chi_Nf = (1/2pi) * integral(K_N dA)``, both by quadrature on a closed
    chart.  The raw values are returned with rounding verdicts; the caller
    decides whether the gap is acceptable.
    """
    patch = report.patch
    if not patch.closed:
        raise InputError(
            "Euler-number quadrature needs a closed chart (each axis periodic or capped); "
            f"got periodic=({patch.periodic_u}, {patch.periodic_v}), "
            f"cap=({patch.cap_u}, {patch.cap_v})"
        )
    chi_m = integrate(patch, report.K, metric) / (2.0 * math.pi)
    chi_n = integrate(patch, report.K_N, metric) / (2.0 * math.pi)
    return IntegerVerdict.of(chi_m), IntegerVerdict.of(chi_n)


# ---------------------------------------------------------------------------
# zero counting


def _index_gap(a, b, n: int, periodic: bool):
    """Index distance along one axis, the shorter way round a periodic one."""
    d = np.abs(a - b)
    return np.minimum(d, n - d) if periodic else d


def _contour_indices(center: int, half: int, n: int, periodic: bool, axis: str) -> np.ndarray:
    lo, hi = center - half, center + half
    if periodic:
        if 2 * half + 1 > n:
            raise InputError(
                f"excision rectangle spans the whole periodic {axis}-axis "
                f"(half-width {half}, {n} samples)"
            )
        return np.arange(lo, hi + 1) % n
    if lo < 0 or hi > n - 1:
        raise InputError(
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


def zero_count_excised(patch: GridPatch, a_field: np.ndarray, metric: MetricField,
                       zeros, log_fields=None) -> ZeroCount:
    """Count zeros of a nonnegative field, with orders, by boundary fluxes.

    Each entry of ``zeros`` is a grid index pair ``(i, j)``.  Around each
    zero an excision rectangle of half-width ``EXCISION_FACTOR`` times the
    larger grid spacing is placed on-grid, and the outward flux of
    ``grad(log a_field)`` through its boundary is accumulated; an isolated
    zero of order ``m`` contributes ``2pi m``.  The total divided by ``2pi``
    is the count.  ``laplace(log a_field)`` is log-singular at the
    zeros, so this flux form replaces naive quadrature across them.

    Rectangles must not overlap and must clear open chart boundaries; the
    chart must be closed, since the excised integral is a quadrature over it.
    ``log_fields``, when given, is ``_log_laplacian`` of ``a_field``.
    """
    a = np.asarray(a_field, dtype=float)
    if a.shape != patch.shape:
        raise InputError(f"field shape {a.shape} does not match the {patch.shape} grid")
    check_field(patch, a, "zero-count field")
    if np.any(a < 0):
        raise InputError("zero counting expects a nonnegative field")
    radius = EXCISION_FACTOR * max(patch.hu, patch.hv)
    locations = [(int(i), int(j)) for i, j in zeros]
    ki = max(1, int(round(radius / patch.hu)))
    kj = max(1, int(round(radius / patch.hv)))

    for r, (ia, ja) in enumerate(locations):
        if not (0 <= ia < patch.nu and 0 <= ja < patch.nv):
            raise InputError(f"zero location ({ia}, {ja}) is off the grid")
        for ib, jb in locations[r + 1:]:
            close_u = _index_gap(ia, ib, patch.nu, patch.periodic_u) <= 2 * ki
            close_v = _index_gap(ja, jb, patch.nv, patch.periodic_v) <= 2 * kj
            if close_u and close_v:
                raise InputError(
                    f"overlapping excision rectangles around ({ia}, {ja}) and ({ib}, {jb})"
                )

    # every node within stencil reach of a zero lies inside its excision
    # rectangle, so the clamped logs never touch the reported fluxes;
    # outward flux of a counterclockwise contour is sum(Fu dv - Fv du)
    flux_u, flux_v, lap = log_fields or _log_laplacian(patch, a, metric)

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
        du = _index_gap(iu, ia, patch.nu, patch.periodic_u)
        dv = _index_gap(iv, ja, patch.nv, patch.periodic_v)
        outside &= (du[:, None] > ki) | (dv[None, :] > kj)
    if bool(((a < ZERO_LIST_RTOL * a.max()) & outside).any()):
        raise InputError(
            "the field vanishes outside the excision rectangles; "
            "the zero list is incomplete"
        )
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


# ---------------------------------------------------------------------------
# pointwise identities


def _log_laplacian(patch: GridPatch, w: np.ndarray, metric: MetricField):
    """``laplace_beltrami`` of the log of a nonnegative field, clamped at 1e-300:
    the one place a log field is differentiated."""
    return laplace_beltrami(patch, np.log(np.maximum(w, 1e-300)), metric)


def _radius_residual(report: ShapeReport, branch: str, lap: np.ndarray) -> float:
    """Max of ``|laplace(log a) - (2K -+ K_N)|`` where the radius a of
    ``branch`` exceeds a tenth of its maximum, away from its zeros."""
    a = report.a_plus if branch == "+" else report.a_minus
    valid = a > LAPLACE_DOMAIN_FRACTION * float(a.max())  # holds at the maximum, so never empty
    target = 2.0 * report.K - report.K_N if branch == "+" else 2.0 * report.K + report.K_N
    return float(np.abs(lap - target)[valid].max())


def laplace_identity_residual(report: ShapeReport, metric: MetricField, branch: str,
                              sup: SuperminimalityReport) -> float | None:
    """Max residual of ``laplace(log a+) = 2K - K_N`` or ``laplace(log a-) = 2K + K_N``.

    The one-radius reference for ``topology_report``'s ``laplace_plus`` and
    ``laplace_minus``, on any chart.  None exactly when
    ``sup = superminimality_test(report)`` names the branch as vanishing
    identically: the identity then has no domain.
    """
    if branch not in ("+", "-"):
        raise InputError(f"branch must be '+' or '-', got {branch!r}")
    if branch in sup.vanishing:
        return None
    a = report.a_plus if branch == "+" else report.a_minus
    return _radius_residual(report, branch, _log_laplacian(report.patch, a, metric)[2])


def ricci_condition_residual(report: ShapeReport, metric: MetricField) -> float | None:
    """Max residual of ``laplace(log(1-K)) = 4K`` where ``1 - K > RICCI_FLOOR``.

    The identity characterizes surfaces locally congruent to minimal
    surfaces of a totally geodesic 3-sphere; the residual is the
    numerical detector.  None when ``1 - K`` vanishes on the whole chart
    (a totally geodesic 2-sphere): there is nothing to evaluate.
    """
    w = 1.0 - report.K
    valid = w > RICCI_FLOOR
    if not valid.any():
        return None
    lap = _log_laplacian(report.patch, w, metric)[2]
    return float(np.abs(lap - 4.0 * report.K)[valid].max())


# ---------------------------------------------------------------------------
# assembled report


def topology_report(report: ShapeReport, metric: MetricField,
                    sup: SuperminimalityReport) -> TopologyReport:
    """Laplace identities of the radii, Euler numbers, zero counts, their
    balance and the 3-sphere test.

    ``sup = superminimality_test(report)`` decides what vanishes: a radius
    it names as vanishing identically has no Laplace residual and no zero
    count, and a superminimal surface skips the Euler/zero balance.  Zeros
    of the other radii are located by ``find_zero_candidates``.  Each radius
    is differentiated once; its residual and its zero count read that.
    The residuals are taken on any chart, the global part where it can run.
    """
    patch = report.patch
    laplace, counts, unavailable = [None, None], [None, None], None
    try:
        chi_m, chi_n = euler_numbers(report, metric)
    except InputError as exc:  # an open chart
        unavailable = str(exc)
    for k, (branch, a) in enumerate((("+", report.a_plus), ("-", report.a_minus))):
        if branch in sup.vanishing:
            continue
        log_fields = _log_laplacian(patch, a, metric)
        laplace[k] = _radius_residual(report, branch, log_fields[2])
        if unavailable is None:
            try:
                counts[k] = zero_count_excised(patch, a, metric,
                                               find_zero_candidates(patch, a), log_fields)
            except InputError as exc:
                unavailable = str(exc)
        del log_fields  # the next radius's fields are made without these
    if unavailable is not None:
        return TopologyReport(*laplace, unavailable=unavailable)

    if sup.verdict == "superminimal":
        balance = BalanceCheck(f"superminimal surface: {sup.reason}", None, None)
    else:  # only a superminimal surface has a vanishing radius, so both counts exist
        balance = BalanceCheck("", *balance_residuals(chi_m.value, chi_n.value,
                                                      counts[0].value, counts[1].value))
    return TopologyReport(*laplace, chi_M=chi_m, chi_Nf=chi_n, count_plus=counts[0],
                          count_minus=counts[1], balance=balance,
                          ricci=ricci_condition_residual(report, metric))
