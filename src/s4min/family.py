"""Isometric deformation family by moving-frame integration.

The surface's frame bundle data is packed into a one-parameter family of
flat so(5)-valued connection matrices: the fundamental 1-forms and the
tangent/normal connection forms stay fixed while the second-fundamental-
form block rotates as H_alpha -> exp(-2 i theta) H_alpha.  Integrating
the frame system dF = Omega_theta F over the unwrapped fundamental
domain produces the deformed immersion f_theta as the first frame row;
the seam mismatch of the result is exactly the monodromy and is never
averaged away.

The connection is stored as packed 1-form entries in one (nu, nv, 2, 8)
buffer, at fixed upper-triangle slots of the 5x5 block; C0 and C1 are
views of its first and last four:

    C0   (0, 1) w1   (0, 2) w2   (1, 2) omega12   (3, 4) omega34
    C1   (1, 3)      (2, 3)      (1, 4)           (2, 4)

w1 and w2, the coframe, are taken by ``coframe`` from the first jets
right after the tangent frame, so that the jets can go before the
normal frame is built.  C1 holds two (sym, alt) pairs, one per normal
direction.  C2 is C1 turned a quarter, each pair to (alt, -sym), so it
is derived and never stored: rotating_forms builds
cos(2 theta) C1 + sin(2 theta) C2 from C1 with the same roundings.
Omega_theta is member theta's connection: the coframe and the tangent
and normal connection forms stay and only C1 turns, so
assemble_maurer_cartan returns it as a ConnectionData in the same
layout, with the same origin, in a new buffer.  The source's own
connection is Omega_0 (the assembled one differs from it at most in the
sign of a zero), and every reader of Omega takes a ConnectionData.
Only this module knows the slot table.  The structure equations
are evaluated on the packed entries, one (nu, nv) plane per slot:
flatness_residual takes the commutator from a product table derived
from the slots, and frame_reconstruction_residual applies Omega_0 to
one frame row at a time.
_so5 scatters packed entries into antisymmetric 5x5 blocks only for the
matrix products of one march_frames step, so no whole-grid 5x5
connection block is ever built.  congruence_residual reads whether a
member is congruent to the source off C1, without integrating it.

No whole-grid frame array is held.  Only the caller holds the frame
fields; march_frames interpolates each step's midpoint from the four
samples around it; integrate_frame keeps only the first row of each
column of its one "uv" sweep, the member's position, and
frame_source_deviation compares its one sweep with the source frame as
it marches; and the sweeps read their lines as views of the packed
forms, a periodic seam repeating the first line through _march's
lanes.  A member is checked by what the theorem says of it, not by a
second sweep of the same Omega: deformation_invariant_deviation compares
its induced metric with the source's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridPatch, InputError, diff
from .surface import ImmersionField


class IntegrabilityBroken(RuntimeError):
    """The structure equations do not hold to working accuracy.

    Either the input surface is not minimal (the assembled connection is
    genuinely curved) or the resolution is too coarse to integrate it.
    """


# Bound of the two frame checks, both O(h^4) on exact input.  The distance
# of the theta = 0 sweep from the source frame: 1e-5 to 7e-5 on the catalog
# surfaces at the verify floors, versus 6e-2 for a 1e-3 normal
# perturbation.  The metric deviation of a member from the source: 2.7e-5
# (Clifford n = 64, theta = pi/4) and 3.7e-5 (Veronese n = 128, theta =
# 0.5), versus 2.1e-4 and 2.1e-2 for perturbations of 1e-5 and 1e-3
# (Clifford n = 128).
PATH_DEPENDENCE_TOL = 1e-4

@dataclass
class ConnectionData:
    """theta-independent decomposition Omega_theta = C0 + cos(2 theta) C1 + sin(2 theta) C2.

    forms is the one (nu, nv, 2, 8) buffer of packed entries at the slots
    of the module table, index 0/1 of the third axis the du/dv component:
    C0 is the view of its first four slots and C1 of its last four, the
    pairs (sym3, alt3, sym4, alt4).  The buffer is laid out as Omega_0:
    assemble_maurer_cartan(conn, theta) is member theta's connection, with
    the same origin.  C2 is derived, not stored.  origin is the (5, 5)
    frame (f, e1, e2, e3, e4) at node (0, 0), the seed of every
    integration.
    """

    patch: GridPatch
    origin: np.ndarray
    forms: np.ndarray

    @property
    def C0(self) -> np.ndarray:
        return self.forms[..., :4]

    @property
    def C1(self) -> np.ndarray:
        return self.forms[..., 4:]

    @property
    def C2(self) -> np.ndarray:
        """C1 turned a quarter, each (sym, alt) pair to (alt, -sym); built on each read."""
        return self.C1[..., [1, 0, 3, 2]] * np.array([1.0, -1.0, 1.0, -1.0])


# upper-triangle (row, column) of each packed entry: C0's slots, then C1/C2's
_SLOTS = np.array([(0, 1), (0, 2), (1, 2), (3, 4),
                   (1, 3), (2, 3), (1, 4), (2, 4)]).T


# packed index of each slot, and the ten upper-triangle entries of a 5x5 block
_SLOT = {(int(i), int(j)): k for k, (i, j) in enumerate(_SLOTS.T)}
_UPPER = [(i, j) for i in range(5) for j in range(i + 1, 5)]


def _bracket_table() -> list:
    """Product terms of the commutator of two packed so(5) fields.

    For each entry (i, j) of _UPPER, the pairs (p, q) of packed indices
    with [A, B]_ij = sum over the pairs of a_p b_q - b_p a_q: one pair
    per m for which (i, m) and (m, j) are both slots, its order chosen
    to carry the sign of A_im B_mj.  19 pairs, 38 products in all.
    """
    def signed(i, j):  # A_ij = sign * a[index]; index None off the slots
        return (1, _SLOT[i, j]) if (i, j) in _SLOT else (-1, _SLOT.get((j, i)))

    table = []
    for i, j in _UPPER:
        terms = []
        for m in range(5):
            (s, p), (t, q) = signed(i, m), signed(m, j)
            if p is not None and q is not None:
                terms.append((p, q) if s * t > 0 else (q, p))
        table.append(terms)
    return table


_BRACKET = _bracket_table()


def _bracket(a: np.ndarray, b: np.ndarray):
    """Upper-triangle entries of [A, B] for packed fields a, b of shape
    (..., 8): one (...) array per entry of _UPPER, in that order."""
    for terms in _BRACKET:
        yield sum(a[..., p] * b[..., q] - b[..., p] * a[..., q] for p, q in terms)


def _so5(entries: np.ndarray) -> np.ndarray:
    """Antisymmetric (..., 5, 5) blocks from (..., 8) packed entries."""
    out = np.zeros(entries.shape[:-1] + (5, 5))
    i, j = _SLOTS
    out[..., i, j] = entries
    out[..., j, i] = -entries
    return out


def coframe(jet1: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """The coframe w1 = <df, e1>, w2 = <df, e2> as (nu, nv, 2, 2) entries,
    index 0/1 of the third axis the du/dv component: connection_data's C0
    slots (0, 1) and (0, 2), its only reading of the first jets."""
    w = np.empty(jet1.shape[:3] + (2,))
    for axis in (0, 1):
        for k, e in enumerate((e1, e2)):
            np.einsum("uvk,uvk->uv", jet1[:, :, axis], e, out=w[:, :, axis, k])
    return w


def connection_data(patch: GridPatch, position: np.ndarray, w: np.ndarray,
                    e1: np.ndarray, e2: np.ndarray, e3: np.ndarray, e4: np.ndarray,
                    H3: np.ndarray, H4: np.ndarray) -> ConnectionData:
    """Connection decomposition in the transported normal gauge.

    position, e1..e4 are the (nu, nv, 5) frame rows and w the coframe of
    ``coframe``; H3, H4 are the complex second-fundamental-form entries
    h11 + i h12 in the normal gauge e3, e4, so they must come from a
    ShapeReport built with that normal frame.  That gauge is defined
    everywhere (circle points included), so the whole grid integrates
    without masking; ellipse-aligned quantities are diagnostics only and
    never enter here.  Only these arrays are read, so a caller can release
    every other field before the call.
    """
    rotation = np.empty(w.shape)  # omega12 and omega34
    for axis in (0, 1):
        np.einsum("uvk,uvk->uv", diff(patch, e1, axis), e2, out=rotation[:, :, axis, 0])
        np.einsum("uvk,uvk->uv", diff(patch, e3, axis), e4, out=rotation[:, :, axis, 1])
    forms = np.empty(patch.shape + (2, 8))  # after the difference fields are freed
    C0, C1 = forms[..., :4], forms[..., 4:]
    C0[..., :2] = w
    C0[..., 2:] = rotation
    del rotation
    w1, w2 = C0[..., 0], C0[..., 1]
    product = np.empty(w1.shape)
    for k, H in ((0, H3), (2, H4)):  # (sym, alt) pairs: slots (1|2, 3) and (1|2, 4)
        h11, h12 = H.real[..., None], H.imag[..., None]
        sym, alt = C1[..., k], C1[..., k + 1]
        np.multiply(h11, w1, out=sym)
        sym += np.multiply(h12, w2, out=product)
        np.multiply(h12, w1, out=alt)
        alt -= np.multiply(h11, w2, out=product)
    origin = np.stack([row[0, 0] for row in (position, e1, e2, e3, e4)])
    return ConnectionData(patch, origin, forms)


def rotating_forms(C1: np.ndarray, c, s, out: np.ndarray | None = None) -> np.ndarray:
    """cos(2 theta) C1 + sin(2 theta) C2 from C1 alone, for c = cos(2 theta)
    and s = sin(2 theta) broadcasting against C1 (..., 4).

    C2 turns each (sym, alt) pair of C1 a quarter, to (alt, -sym), so the
    pair becomes (c sym + s alt, c alt - s sym): the roundings of
    c C1 + s C2 exactly, since x + (-y) is x - y.  Writes into out when
    given.
    """
    out = np.multiply(c, C1, out=out)
    out[..., 0::2] += s * C1[..., 1::2]
    out[..., 1::2] -= s * C1[..., 0::2]
    return out


def congruence_residual(conn: ConnectionData, theta) -> np.ndarray:
    """r(theta), 0 exactly when f_theta is congruent to f; theta is a
    scalar or an array, and r is shaped like it.

    r^2 is the least-squares misfit of rotating_forms(C1, c, s), c, s =
    cos, sin 2 theta, from C1 turned by one constant rotation of (e3, e4),
    over S = sum dA |C1|^2.  With P3, P4 = C1[..., 0:2], C1[..., 2:4],
    J (sym, alt) = (alt, -sym), beta = sum dA <J P3, P4> and
    g = 1 - 2 |beta| / S, r^2 = 2 - 2 sqrt(c^2 + (1 - g)^2 s^2), taken as
    2 q / (1 + sqrt(1 - q)), q = s^2 g (2 - g), free of cancellation.
    """
    C0, C1 = conn.C0, conn.C1
    dA = np.abs(C0[..., 0, 0] * C0[..., 1, 1] - C0[..., 1, 0] * C0[..., 0, 1])
    S = float(np.einsum("uv,uvai,uvai->", dA, C1, C1))
    beta = float(np.einsum("uv,uva->", dA, C1[..., 1] * C1[..., 2] - C1[..., 0] * C1[..., 3]))
    # g lies in [0, 1], clipped against roundoff; C1 = 0 is congruent at every theta
    g = max(0.0, 1.0 - 2.0 * abs(beta) / S) if S > 0.0 else 0.0
    # r has period pi/2; reduced first, theta = k pi/2 gives s = 0 exactly
    s = np.sin(2.0 * np.mod(theta, 0.5 * math.pi))
    q = s * s * (g * (2.0 - g))
    return np.sqrt(2.0 * q / (1.0 + np.sqrt(1.0 - q)))


def assemble_maurer_cartan(conn: ConnectionData, theta: float) -> ConnectionData:
    """Member theta's connection, packed Omega_theta = C0 + cos(2 theta) C1
    + sin(2 theta) C2: C0 and the origin are conn's, C1 is turned."""
    forms = np.empty(conn.forms.shape)
    forms[..., :4] = conn.C0
    rotating_forms(conn.C1, math.cos(2.0 * theta), math.sin(2.0 * theta), out=forms[..., 4:])
    return ConnectionData(conn.patch, conn.origin, forms)


def flatness_residual(conn: ConnectionData) -> np.ndarray:
    """Per-point zero-curvature defect |dOmega - Omega ^ Omega|.

    Computes || d_u Omega_v - d_v Omega_u - [Omega_u, Omega_v] ||_F, which
    vanishes identically for the connection of a minimal immersion; the
    discrete value measures stencil truncation plus any violation of the
    Gauss-Codazzi-Ricci system.  Everything stays packed: the exterior
    derivative is taken on the packed entries and the commutator one
    upper-triangle entry at a time, so the antisymmetric defect's norm is
    sqrt(2 sum of its ten upper entries squared).
    """
    d_omega = diff(conn.patch, conn.forms[:, :, 1], 0) - diff(conn.patch, conn.forms[:, :, 0], 1)
    total = np.zeros(d_omega.shape[:-1])
    for (i, j), defect in zip(_UPPER, _bracket(conn.forms[:, :, 0], conn.forms[:, :, 1])):
        if (i, j) in _SLOT:
            defect -= d_omega[..., _SLOT[i, j]]
        total += defect * defect
    total *= 2.0
    return np.sqrt(total)


def frame_reconstruction_residual(rows: tuple, conn: ConnectionData) -> float:
    """max |d_X F - Omega_0(X) F| over the grid: the source's connection
    Omega_0 must reproduce the finite-difference derivatives of the frame
    F whose rows are the (nu, nv, 5) fields f, e1, e2, e3, e4 of rows.

    Works one axis and one frame row at a time: row r of Omega F gains
    omega F_j for each slot (r, j) and loses omega F_i for each slot (i, r).
    """
    worst = 0.0
    for axis in (0, 1):
        omega = np.moveaxis(conn.forms[:, :, axis], -1, 0).copy()[..., None]  # (8, nu, nv, 1)
        total = np.zeros(conn.patch.shape)
        for r, row in enumerate(rows):
            d = diff(conn.patch, row, axis)
            product = np.empty_like(d)
            for (i, j), k in _SLOT.items():
                if i == r:
                    d -= np.multiply(omega[k], rows[j], out=product)
                elif j == r:
                    d += np.multiply(omega[k], rows[i], out=product)
            total += np.multiply(d, d, out=product).sum(axis=-1)  # 5 terms, added in order
            del d, product  # the next row's difference is taken without them
        worst = max(worst, float(np.sqrt(total.max())))
    return worst


# ---------------------------------------------------------------------------
# frame transport


def polar_reorthonormalize(F: np.ndarray) -> np.ndarray:
    """Nearest orthogonal matrix (batched): Newton-Schulz, SVD fallback.

    The iteration X <- X (3I - X^T X)/2 converges cubically for drift
    below ~1; integration steps leave O(h^5) drift, so a couple of
    sweeps reach machine precision.  Far-from-orthogonal input (never
    produced by the integrator, but guarded) goes through an SVD.  Every
    decision is taken per frame, so a frame's result does not depend on
    the other frames of its batch.
    """
    n = F.shape[-1]
    eye = np.eye(n)
    G = np.ascontiguousarray(np.swapaxes(F, -1, -2)) @ F
    err = np.abs(G - eye).max(axis=(-2, -1))
    far = err > 0.2
    X = F
    for _ in range(4):
        todo = ~far & (err >= 5e-16 * n)
        if not todo.any():
            break
        X = np.where(todo[..., None, None], X @ (1.5 * eye - 0.5 * G), X)
        G = np.ascontiguousarray(np.swapaxes(X, -1, -2)) @ X
        err = np.abs(G - eye).max(axis=(-2, -1))
    if far.any():
        U, _, Vt = np.linalg.svd(F[far])
        X = X.copy()
        X[far] = U @ Vt
    return X


def _step_midpoint(line: np.ndarray, k: int, periodic: bool) -> np.ndarray:
    """Cubic-order value midway between samples k and k + 1 of a line
    (axis 0), from the four samples around that step.

    Periodic lines interpolate across the wrap; open lines, which have
    at least the 8 samples of a GridPatch axis, use one-sided cubics at
    the two end steps.
    """
    n = line.shape[0]
    if periodic or 0 < k < n - 2:
        return (-line[k - 1] + 9.0 * line[k] + 9.0 * line[(k + 1) % n]
                - line[(k + 2) % n]) / 16.0
    if k == 0:
        return (5.0 * line[0] + 15.0 * line[1] - 5.0 * line[2] + line[3]) / 16.0
    return (line[-4] - 5.0 * line[-3] + 15.0 * line[-2] + 5.0 * line[-1]) / 16.0


def _march(omega_line: np.ndarray, h: float, seeds: np.ndarray, periodic: bool,
           lanes=slice(None)):
    """The steps of march_frames: yields the frames after each step.  Each
    step's entries and midpoint are gathered through lanes, an index of
    the axis after the line's, so seeds may repeat a lane (a periodic
    seam) without a whole copy of the lines."""
    n = omega_line.shape[0]
    F = seeds
    A1 = _so5(omega_line[0][lanes])
    for k in range(n if periodic else n - 1):
        A0, Am = A1, _so5(_step_midpoint(omega_line, k, periodic)[lanes])
        A1 = _so5(omega_line[(k + 1) % n][lanes])
        k1 = A0 @ F
        k2 = Am @ (F + (0.5 * h) * k1)
        k3 = Am @ (F + (0.5 * h) * k2)
        k4 = A1 @ (F + h * k3)
        F = F + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        F = polar_reorthonormalize(F)
        yield F


def march_frames(omega_line: np.ndarray, h: float, seeds: np.ndarray,
                 periodic: bool) -> np.ndarray:
    """Path-ordered integration of F' = Omega(t) F along one grid line.

    omega_line: (n, ..., 8) packed connection entries (the layout of
    ConnectionData.forms) at the grid points of the line; seeds:
    (..., 5, 5) start frames (rows are frame vectors).  RK4 with
    cubic-interpolated midpoints, orthogonality restored every step;
    each step interpolates its midpoint on the packed entries of the
    four samples around it and assembles only its own three 5x5 blocks.
    Returns (steps + 1, ..., 5, 5) frames at the sample points; when
    periodic the final entry is the transport over the full period
    (seam mismatch = holonomy, kept explicit).
    """
    steps = omega_line.shape[0] - (0 if periodic else 1)
    out = np.empty((steps + 1,) + seeds.shape)
    out[0] = seeds
    for k, F in enumerate(_march(omega_line, h, seeds, periodic), 1):
        out[k] = F
    return out


def _sweep(conn: ConnectionData):
    """The "uv" sweep from the origin frame: the u spine, then every v
    column from it, over the unwrapped fundamental domain.

    Returns the lanes, the u axis's unwrap_index, through which _march
    picks the N unwrapped spine frames' entries from each step's nu; and
    an iterator over the (N, 5, 5) frames of each unwrapped v column,
    marched as it is read, a periodic v's duplicated seam column last.
    """
    patch = conn.patch
    spine = march_frames(conn.forms[:, 0, 0][:, None], patch.hu, conn.origin[None],
                         patch.periodic_u)[:, 0]
    lines = np.moveaxis(conn.forms[:, :, 1], 1, 0)  # (nv, nu, 8), a view
    lanes = patch.unwrap_index(0)
    return lanes, itertools.chain([spine], _march(lines, patch.hv, spine, patch.periodic_v, lanes))


def frame_source_deviation(conn: ConnectionData, rows: tuple) -> float:
    """Max Frobenius distance between the "uv" sweep of the source's
    connection Omega_0 from its origin frame and the source frame whose
    rows are the (nu, nv, 5) fields f, e1, e2, e3, e4 of rows.

    At theta = 0 the member is the source itself, so the sweep must give
    back its frame: the distance measures the truncation of Omega and the
    error of the march together, which two sweeps of the same Omega do
    not see when they share it.  Each v step's frames are compared with
    the source column as they are marched, a duplicated seam line with
    the source's first line, so no whole-grid frame array is held.
    """
    lanes, columns = _sweep(conn)
    worst = 0.0
    for k, column in zip(conn.patch.unwrap_index(1), columns):
        D = column - np.stack([row[lanes, k] for row in rows], axis=-2)
        D *= D  # the squared distance, in place
        worst = max(worst, float(np.sqrt(np.add.reduce(D, axis=(-2, -1))).max()))
    return worst


def integrate_frame(conn: ConnectionData) -> np.ndarray:
    """The member's position f_theta, (nu + pu, nv + pv, 5) on
    conn.patch.unwrapped(): the first frame row of the "uv" sweep of the
    frame system from the origin frame.

    That chart repeats each periodic axis's first line as a duplicated
    seam line, so position[-1] vs position[0] along the axis exhibits the
    monodromy rather than hiding it; a capped axis stays capped.  Only the
    first row of each v column's frames is kept as the column is marched,
    so no whole-grid frame array is held.  Nothing is checked here: a
    member is checked against the source by
    deformation_invariant_deviation, which sees the march error too.
    """
    lanes, columns = _sweep(conn)
    position = np.empty((len(lanes), len(conn.patch.unwrap_index(1)), 5))
    for k, column in enumerate(columns):
        position[:, k] = column[:, 0]
    return position


def deformed_immersion(patch: GridPatch, position: np.ndarray) -> ImmersionField:
    """The member at integrate_frame's position, for a connection on
    patch, as an immersion over patch.unwrapped(), without jets:
    ``with_jets`` fills them by finite differences."""
    return ImmersionField(patch.unwrapped(),
                          position / np.linalg.norm(position, axis=-1, keepdims=True),
                          jet_source="fd")


def deformation_invariant_deviation(patch: GridPatch, position: np.ndarray,
                                    member: ImmersionField) -> float:
    """Max deviation of the induced metric (E, F and G) of the member
    f_theta from the source's.

    The deformation is isometric, so the deviation should vanish to
    truncation accuracy; it measures the truncation of Omega and the
    error of the march, and a curved Omega, together.  member lies on
    patch.unwrapped(), and the source position, on patch, is replayed
    onto that chart.  Both metrics come from the same first-jet finite
    differences there, so the comparison measures what the deformation
    changed, not how finite differences compare with exact jets.
    """
    chart = member.patch
    replay = position[np.ix_(patch.unwrap_index(0), patch.unwrap_index(1))]
    metrics = []
    for f in (replay, member.position):
        fu, fv = diff(chart, f, 0), diff(chart, f, 1)
        metrics.append([np.einsum("uvk,uvk->uv", a, b) for a, b in ((fu, fu), (fu, fv), (fv, fv))])
        del fu, fv  # before the next surface's differences are taken
    return float(max(np.abs(a - b).max() for a, b in zip(*metrics)))


# ---------------------------------------------------------------------------
# congruence


@dataclass
class CongruenceFit:
    """Best ambient isometry A minimizing sum |A a - b|^2 over O(5);
    residual is the RMS misfit."""

    isometry: np.ndarray
    residual: float


def congruence_test(pos_a: np.ndarray, pos_b: np.ndarray,
                    weights: np.ndarray | None = None) -> CongruenceFit:
    """Orthogonal Procrustes alignment of two sampled position fields."""
    a = np.asarray(pos_a, dtype=float).reshape(-1, 5)
    b = np.asarray(pos_b, dtype=float).reshape(-1, 5)
    if a.shape != b.shape:
        raise InputError(f"position fields differ in shape: {a.shape} vs {b.shape}")
    if weights is None:
        w = np.ones(a.shape[0])
    else:
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.shape[0] != a.shape[0]:
            raise InputError("weights do not match the number of samples")
    U, _, Vt = np.linalg.svd(np.einsum("n,ni,nj->ij", w, b, a))
    A = U @ Vt
    misfit = a @ A.T - b
    return CongruenceFit(A, math.sqrt(float((w * (misfit**2).sum(axis=1)).sum() / w.sum())))
