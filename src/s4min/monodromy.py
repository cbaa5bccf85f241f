"""Deck-group monodromy of the deformation family and the closing set.

For a non-simply-connected domain the deformed frame field need not close
up around the deck generators; the mismatch is an ambient isometry per
generator, and the set of angles where every mismatch is the identity is
the closing set.  Its structure is a dichotomy: either finitely many
angles or the whole circle.  The identity distance used throughout is
the Frobenius norm of M - I, which is invariant under orthogonal
conjugation, so it does not depend on the basepoint of the loops.

The deck generators are the grid lines through the grid origin along
GridPatch.deck_axes.  A chart with none (a capped sphere chart, an open
rectangle) is simply connected, so every member closes by topology and
nothing is marched.  Otherwise every monodromy comes from one transport,
generator_monodromy: it packs Omega_theta on that line only and marches
it once with the periodic stencil, batched over the angles.
scan_profile calls it at a few dozen angles of the quarter circle only:
members a quarter turn apart are congruent, and M(theta) is analytic in
exp(2i theta), so a trigonometric interpolant of those samples gives the
profile, the closing classes and the CIRCLE certificate to roundoff.
No member is integrated: congruence is read off the connection too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .family import (
    ConnectionData,
    IntegrabilityBroken,
    MaurerCartanField,
    congruence_residual,
    flatness_residual,
    march_frames,
    rotating_forms,
)
from .grid import InputError

FLATNESS_CEILING = 1e-3
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
QUARTER = 0.5 * math.pi
# angles of [0, pi/2) at which a CIRCLE verdict is checked for congruence
CONGRUENCE_SAMPLES = 4


# ---------------------------------------------------------------------------
# generator transport


def generator_monodromy(conn: ConnectionData, axis: int,
                        theta: float | np.ndarray) -> np.ndarray:
    """Ambient isometries picked up by the frame once around a deck generator.

    The generator is the grid line along ``axis`` (0 = u, 1 = v) through
    node (0, 0); the axis must be one of the chart's deck axes, since a
    loop along any other axis contracts or is not closed.  theta is a
    scalar or a 1-D array of angles; the result is one 5x5 orthogonal
    matrix per angle, shaped theta.shape + (5, 5).  The frame is integrated once around the line
    from the stored frame at the origin, and M carries the start
    configuration to the end one (identity exactly when the deformed
    surface closes around this generator).  Omega_theta is packed on that
    line only, its rotating part formed by rotating_forms, and marched
    once with the periodic (wrap) stencil, batched over the angles.
    """
    if axis not in conn.patch.deck_axes:
        raise InputError(f"{'uv'[axis]} axis is not a deck generator")
    h = conn.patch.axis(axis)[0]
    theta = np.asarray(theta, dtype=float)
    c = np.cos(2.0 * theta)[..., None]
    s = np.sin(2.0 * theta)[..., None]
    per_node = (-1,) + (1,) * theta.ndim + (4,)
    at = lambda C: np.moveaxis(C, axis, 0)[:, 0, axis].reshape(per_node)  # noqa: E731
    rotating = rotating_forms(at(conn.C1), c, s)
    line = np.concatenate([np.broadcast_to(at(conn.C0), rotating.shape), rotating], axis=-1)
    F = march_frames(line, h, np.broadcast_to(conn.origin, theta.shape + (5, 5)), True)[-1]
    return np.swapaxes(F, -1, -2) @ conn.origin


@dataclass
class MonodromyProfile:
    """Identity-distance profile of the deck monodromy over the angle circle."""

    thetas: np.ndarray
    d: np.ndarray
    commutator_defect: np.ndarray | None
    roots: list[float]
    classes: list[float]
    verdict: str
    tol_close: float
    flatness: float
    circle_coefficient_max: float
    spectral_tail: float
    congruence_thetas: np.ndarray | None = None
    congruence_residuals: np.ndarray | None = None
    generators: tuple[int, ...] = field(default=())


def _golden_min(fn, a: np.ndarray, b: np.ndarray,
                width: float) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section minimisation on every bracket [a[i], b[i]] at once.

    fn maps an array of angles to an array of values.  Each iteration
    makes one fn call holding the new interior point of every bracket
    still wider than ``width``; each bracket takes exactly the steps of
    the scalar search.  Returns the final bracket midpoints and fn there.
    """
    a, b = a.copy(), b.copy()
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = np.split(fn(np.concatenate([x1, x2])), 2)
    active = (b - a) > width
    while active.any():
        left = active & (f1 <= f2)
        right = active & ~left
        b[left], x2[left], f2[left] = x2[left], x1[left], f1[left]
        x1[left] = b[left] - GOLDEN * (b[left] - a[left])
        a[right], x1[right], f1[right] = x1[right], x2[right], f2[right]
        x2[right] = a[right] + GOLDEN * (b[right] - a[right])
        new = fn(np.where(left, x1, x2)[active])
        f1[left] = new[left[active]]
        f2[right] = new[right[active]]
        active = (b - a) > width
    x = 0.5 * (a + b)
    return x, fn(x)


def _interpolate(coef: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The trigonometric interpolant sum_k coef[k] exp(2ik theta), theta mod pi/2."""
    k = np.fft.fftfreq(len(coef), 1.0 / len(coef))
    wave = np.exp(2j * np.multiply.outer(np.mod(theta, QUARTER), k))
    return (wave @ coef.reshape(len(coef), -1)).real.reshape(theta.shape + (5, 5))


def scan_profile(conn: ConnectionData, n_theta: int = 256) -> MonodromyProfile:
    """Monodromy profile d(theta) from a spectral solve on the quarter circle.

    Omega_(theta + pi/2) = D Omega_theta D with D = diag(1, 1, 1, -1, -1),
    so M(theta + pi/2) = P M(theta) P with P = F0^T D F0 (F0 the frame
    at the grid origin): members a quarter turn apart are congruent.  Each
    generator is marched at N angles k pi / (2N), N = 16 first; with P M P
    they give M on [0, pi), where it is analytic in exp(2i theta), and an
    FFT gives its Fourier coefficients.  N doubles, reusing the samples,
    until ``spectral_tail`` (the largest coefficient Frobenius norm with
    N/2 <= |k| <= N) is below max(1e-3 d(0), 1e-14), or until one more
    doubling would march more than n_theta / 2 angles.

    d and the commutator defect come from the interpolant at n_theta
    uniform angles of [0, 2pi), taken at theta mod pi/2: both are
    invariant under conjugation by P, so d is exactly pi/2-periodic.
    The verdict is CIRCLE when ``circle_coefficient_max``, the largest
    coefficient with k != 0, is below tol_close; else FINITE, and every
    local minimum of d at the profile angles mod pi/2 is refined together by
    golden-section search on the interpolant to width 1e-8.  A refined
    d < tol_close is a closing class in [0, pi/2) (within 1e-7 of 0 or
    pi/2 it is exactly 0); ``roots`` holds the classes and their three
    quarter-turn images.  CIRCLE gets family.congruence_residual at
    CONGRUENCE_SAMPLES angles of [0, pi/2).

    tol_close is max(1e-6, 10 * flatness, 10 * d(0)): theta = 0 closes
    by construction, so d(0) is the error floor of the identity test.
    A flatness residual above FLATNESS_CEILING means the input is not
    minimal to working accuracy, and the scan refuses to classify it.

    The generators are the chart's deck axes.  With none, the profile
    after the flatness check is CIRCLE by topology: d = 0, both
    coefficient norms 0, no generator marched, and tol_close is
    max(1e-6, 10 * flatness).
    """
    if n_theta < 64:
        raise InputError(f"need at least 64 angle samples, got {n_theta}")
    gens = conn.patch.deck_axes
    # the connection's buffer is laid out as Omega_0: an assembled copy
    # differs from it at most in the sign of a zero, which the residual's
    # squares drop, so the buffer is read as it is
    flat0 = float(flatness_residual(MaurerCartanField(conn.patch, conn.forms)).max())
    if flat0 > FLATNESS_CEILING:
        raise IntegrabilityBroken(
            f"connection is not flat (residual {flat0:.3e} > "
            f"{FLATNESS_CEILING:.1e}); refusing to classify the monodromy "
            "of a non-minimal input")
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    ct = np.linspace(0.0, QUARTER, CONGRUENCE_SAMPLES, endpoint=False)
    if not gens:  # simply connected: every loop contracts, so every member closes
        return MonodromyProfile(thetas, np.zeros(n_theta), None, [], [], "CIRCLE",
                                max(1e-6, 10.0 * flat0), flat0, 0.0, 0.0, ct,
                                congruence_residual(conn, ct))

    P = conn.origin.T @ np.diag([1.0, 1.0, 1.0, -1.0, -1.0]) @ conn.origin

    def distance(Ms: list[np.ndarray]) -> np.ndarray:
        return np.max([np.linalg.norm(M - np.eye(5), axis=(-2, -1)) for M in Ms], axis=0)

    n = 16
    samples = [generator_monodromy(conn, axis, QUARTER * np.arange(n) / n) for axis in gens]
    floor = max(1e-3 * float(distance([S[0] for S in samples])), 1e-14)
    while True:
        coefs = [np.fft.fft(np.concatenate([S, P @ S @ P]), axis=0) / (2 * n) for S in samples]
        k = np.abs(np.fft.fftfreq(2 * n, 1.0 / (2 * n)))
        sizes = np.max([np.linalg.norm(c, axis=(-2, -1)) for c in coefs], axis=0)
        tail = float(sizes[k >= n / 2].max())
        if tail <= floor or 4 * n > n_theta:
            break
        odd = QUARTER * (np.arange(n) + 0.5) / n
        samples = [np.stack([S, generator_monodromy(conn, axis, odd)], axis=1).reshape(-1, 5, 5)
                   for S, axis in zip(samples, gens)]
        n *= 2

    # theta_j mod pi/2 = (pi/2) ((4 j) mod n_theta) / n_theta, taken on
    # integers so that angles a quarter turn apart share one float
    steps, fold = np.unique(4 * np.arange(n_theta) % n_theta, return_inverse=True)
    grid = QUARTER * steps / n_theta
    Mq = [_interpolate(c, grid) for c in coefs]
    dq = distance(Mq)
    defect = None
    if len(Mq) == 2:
        A, B = Mq
        defect = np.linalg.norm(A @ B - B @ A, axis=(-2, -1))[fold]
    tol_close = max(1e-6, 10.0 * flat0, 10.0 * float(dq[0]))

    circle_max = float(sizes[k > 0].max())
    verdict = "CIRCLE" if circle_max < tol_close else "FINITE"
    classes: list[float] = []
    # local minima of the pi/2-periodic profile; the strict right
    # comparison keeps one candidate of two equal neighbours
    cand = np.flatnonzero((dq <= np.roll(dq, 1)) & (dq < np.roll(dq, -1)))
    if verdict == "FINITE" and cand.size:
        step = QUARTER / len(grid)
        theta_star, d_star = _golden_min(
            lambda t: distance([_interpolate(c, t) for c in coefs]),
            grid[cand] - step, grid[cand] + step, 1e-8)
        # a root at 0 refined from below lands just under pi/2
        classes = sorted(0.0 if min(t, QUARTER - t) < 1e-7 else float(t)
                         for t in np.mod(theta_star[d_star < tol_close], QUARTER))
    roots = sorted(t + q * QUARTER for t in classes for q in range(4))

    circle = verdict == "CIRCLE"
    return MonodromyProfile(thetas, dq[fold], defect, roots, classes, verdict, tol_close,
                            flat0, circle_max, tail, ct if circle else None,
                            congruence_residual(conn, ct) if circle else None, gens)


def dichotomy_report(profile: MonodromyProfile) -> dict:
    """Machine-readable summary of the closing-set dichotomy evidence."""
    report = {
        "verdict": profile.verdict,
        "roots": [float(r) for r in profile.roots],
        "n_theta": int(len(profile.thetas)),
        "tol_close": float(profile.tol_close),
        "flatness": float(profile.flatness),
        "d_min": float(profile.d.min()),
        "d_max": float(profile.d.max()),
        "d_at_zero": float(profile.d[0]),
        "classes": [float(t) for t in profile.classes],
        "circle_coefficient_max": float(profile.circle_coefficient_max),
        "spectral_tail": float(profile.spectral_tail),
        "generators": list(profile.generators),
        "basepoint_invariance": (
            "d is basepoint independent: moving the loop basepoint "
            "conjugates the monodromy by an orthogonal matrix, and "
            "the Frobenius distance to the identity is conjugation "
            "invariant"),
    }
    if profile.commutator_defect is not None:
        report["commutator_defect_max"] = float(profile.commutator_defect.max())
    if profile.congruence_residuals is not None:
        report["congruence_thetas"] = [float(t) for t in profile.congruence_thetas]
        report["congruence_residuals"] = [float(r) for r in profile.congruence_residuals]
        report["congruence_max"] = float(profile.congruence_residuals.max())
    return report
