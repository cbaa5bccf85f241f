"""Isometric deformation family by moving-frame integration.

The surface's frame bundle data is packed into a one-parameter family of
flat so(5)-valued connection matrices: the fundamental 1-forms and the
tangent/normal connection forms stay fixed while the second-fundamental-
form block rotates as H_alpha -> exp(-2 i theta) H_alpha.  Integrating
the frame system dF = Omega_theta F over the unwrapped fundamental
domain produces the deformed immersion f_theta as the first frame row;
the seam mismatch of the result is exactly the monodromy and is never
averaged away.

The connection is stored as packed 1-form entries, (nu, nv, 2, 4) per
component, at fixed upper-triangle slots of the 5x5 block:

    C0       (0, 1) w1   (0, 2) w2   (1, 2) omega12   (3, 4) omega34
    C1, C2   (1, 3)      (2, 3)      (1, 4)           (2, 4)

Omega_theta stays packed too: its (nu, nv, 2, 8) entries are C0's four
slots followed by cos(2 theta) C1 + sin(2 theta) C2.  Only this module
knows the slot table.  The structure equations are evaluated on the
packed entries, one (nu, nv) plane per slot: flatness_residual takes
the commutator from a product table derived from the slots, and
frame_reconstruction_residual applies the Omega_0 its caller already
assembled to one frame row at a time.
_so5 scatters packed entries into antisymmetric 5x5 blocks only for the
matrix products of one march_frames step, so no whole-grid 5x5
connection block is ever built.

Each whole-grid frame array is held once.  ConnectionData keeps the
input frames component-major, as (5, 5, nu, nv) planes behind its
(nu, nv, 5, 5) frames view; march_frames interpolates each step's
midpoint from the four samples around it; and integrate_frame compares
its second sweep with the stored first one row by row as it marches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridPatch, MetricField, diff
from .surface import ImmersionField, NormalFrameField, ShapeReport, shape_report


class FamilyError(ValueError):
    """Invalid input to the deformation-family machinery."""


class IntegrabilityBroken(RuntimeError):
    """Frame integration is path dependent beyond tolerance.

    Either the input surface is not minimal (the assembled connection is
    genuinely curved) or the resolution is too coarse to integrate it.
    """


# Row-then-column vs column-then-row integration discrepancy above this
# means the connection is not flat to working accuracy.  Measured sweep
# discrepancies are O(h^4): ~1e-8 on exact inputs at n = 64, versus
# ~1e-2 for a 1e-3 normal perturbation (genuine curvature ~ amplitude).
PATH_DEPENDENCE_TOL = 1e-4

@dataclass
class ConnectionData:
    """theta-independent decomposition Omega_theta = C0 + cos(2 theta) C1 + sin(2 theta) C2.

    Components are packed upper-triangle entries of shape (nu, nv, 2, 4);
    index 0/1 of the third axis is the du/dv component.  C0[..., k] holds
    w1, w2, omega12, omega34 for k = 0..3 (slots (0, 1), (0, 2), (1, 2),
    (3, 4)); C1 and C2 hold the second-fundamental-form entries at slots
    (1, 3), (2, 3), (1, 4), (2, 4).  Every assembled Omega is exactly
    so(5)-valued.  frames carries the rows (f, e1, e2, e3, e4) used to
    build the data: it seeds the integration and anchors the theta = 0
    reconstruction.  connection_data stores them component-major, so
    frames is a (nu, nv, 5, 5) view of contiguous (5, 5, nu, nv) planes
    (np.moveaxis(frames, (2, 3), (0, 1)) gives the planes without a copy),
    and the fields they came from need not be kept.
    """

    patch: GridPatch
    frames: np.ndarray
    C0: np.ndarray
    C1: np.ndarray
    C2: np.ndarray


@dataclass
class MaurerCartanField:
    """Connection 1-form Omega_theta of the deformed frame system, packed.

    forms has shape (nu, nv, 2, 8); index 0/1 of the third axis is the
    du/dv component.  forms[..., :4] is C0 and forms[..., 4:] is
    cos(2 theta) C1 + sin(2 theta) C2, at the slots of _SLOTS.
    """

    patch: GridPatch
    forms: np.ndarray


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


def connection_data(imm: ImmersionField, e1: np.ndarray, e2: np.ndarray,
                    nf: NormalFrameField, report: ShapeReport) -> ConnectionData:
    """Connection decomposition in the transported normal gauge.

    Uses nf.e3, nf.e4 and report.H3, report.H4 exactly as given, so the
    report must have been built with nf.  That gauge is defined
    everywhere (circle points included), so the whole grid integrates
    without masking; ellipse-aligned quantities are diagnostics only and
    never enter here.
    """
    patch = imm.patch

    def form(pair):  # (nu, nv, 2): du and dv components of <a, b>
        return np.stack([np.einsum("uvk,uvk->uv", *pair(axis)) for axis in (0, 1)],
                        axis=-1)

    w1 = form(lambda axis: (imm.jet1[:, :, axis], e1))
    w2 = form(lambda axis: (imm.jet1[:, :, axis], e2))
    om12 = form(lambda axis: (diff(patch, e1, axis), e2))
    om34 = form(lambda axis: (diff(patch, nf.e3, axis), nf.e4))
    h11_3, h12_3 = report.H3.real[..., None], report.H3.imag[..., None]
    h11_4, h12_4 = report.H4.real[..., None], report.H4.imag[..., None]
    sym3 = h11_3 * w1 + h12_3 * w2
    alt3 = h12_3 * w1 - h11_3 * w2
    sym4 = h11_4 * w1 + h12_4 * w2
    alt4 = h12_4 * w1 - h11_4 * w2
    planes = np.empty((5, 5) + patch.shape)  # planes[r, c]: component c of row r
    for r, row in enumerate((imm.position, e1, e2, nf.e3, nf.e4)):
        planes[r] = np.moveaxis(row, -1, 0)
    return ConnectionData(patch, np.moveaxis(planes, (0, 1), (2, 3)),
                          np.stack([w1, w2, om12, om34], axis=-1),
                          np.stack([sym3, alt3, sym4, alt4], axis=-1),
                          np.stack([alt3, -sym3, alt4, -sym4], axis=-1))


def assemble_maurer_cartan(conn: ConnectionData, theta: float) -> MaurerCartanField:
    """Packed Omega_theta = C0 + cos(2 theta) C1 + sin(2 theta) C2."""
    rotating = math.cos(2.0 * theta) * conn.C1 + math.sin(2.0 * theta) * conn.C2
    return MaurerCartanField(conn.patch, np.concatenate([conn.C0, rotating], axis=-1))


def flatness_residual(mc: MaurerCartanField) -> np.ndarray:
    """Per-point zero-curvature defect |dOmega - Omega ^ Omega|.

    Computes || d_u Omega_v - d_v Omega_u - [Omega_u, Omega_v] ||_F, which
    vanishes identically for the connection of a minimal immersion; the
    discrete value measures stencil truncation plus any violation of the
    Gauss-Codazzi-Ricci system.  Everything stays packed: the exterior
    derivative is taken on the packed entries and the commutator one
    upper-triangle entry at a time, so the antisymmetric defect's norm is
    sqrt(2 sum of its ten upper entries squared).
    """
    d_omega = diff(mc.patch, mc.forms[:, :, 1], 0) - diff(mc.patch, mc.forms[:, :, 0], 1)
    total = np.zeros(d_omega.shape[:-1])
    for (i, j), defect in zip(_UPPER, _bracket(mc.forms[:, :, 0], mc.forms[:, :, 1])):
        if (i, j) in _SLOT:
            defect -= d_omega[..., _SLOT[i, j]]
        total += defect * defect
    total *= 2.0
    return np.sqrt(total)


def frame_reconstruction_residual(conn: ConnectionData, mc0: MaurerCartanField) -> float:
    """max |d_X F - Omega_0(X) F| over the grid: mc0, Omega at theta = 0
    as assembled from conn, must reproduce the finite-difference
    derivatives of the original frame.

    Works one axis and one frame row at a time, on contiguous (nu, nv)
    planes: row r of Omega F gains omega F_j for each slot (r, j) and
    loses omega F_i for each slot (i, r).
    """
    rows = np.moveaxis(conn.frames, (2, 3), (0, 1))  # rows[r, c]: one plane
    worst = 0.0
    for axis in (0, 1):
        omega = np.moveaxis(mc0.forms[:, :, axis], -1, 0).copy()  # (8, nu, nv)
        total = np.zeros(conn.frames.shape[:2])
        for r, row in enumerate(rows):
            d = np.stack([diff(conn.patch, plane, axis) for plane in row])
            for (i, j), k in _SLOT.items():
                if i == r:
                    d -= omega[k] * rows[j]
                elif j == r:
                    d += omega[k] * rows[i]
            total += np.einsum("cuv,cuv->uv", d, d)
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

    Periodic lines interpolate across the wrap; open lines use one-sided
    cubics at the two end steps, and open lines of 2 or 3 samples the
    linear or quadratic interpolant.
    """
    n = line.shape[0]
    if periodic or 0 < k < n - 2:
        return (-line[k - 1] + 9.0 * line[k] + 9.0 * line[(k + 1) % n]
                - line[(k + 2) % n]) / 16.0
    if n == 2:
        return 0.5 * (line[0] + line[1])
    if n == 3:
        if k == 0:
            return (3.0 * line[0] + 6.0 * line[1] - line[2]) / 8.0
        return (-line[0] + 6.0 * line[1] + 3.0 * line[2]) / 8.0
    if k == 0:
        return (5.0 * line[0] + 15.0 * line[1] - 5.0 * line[2] + line[3]) / 16.0
    return (line[-4] - 5.0 * line[-3] + 15.0 * line[-2] + 5.0 * line[-1]) / 16.0


def _march(omega_line: np.ndarray, h: float, seeds: np.ndarray, periodic: bool):
    """The steps of march_frames: yields the frames after each step."""
    n = omega_line.shape[0]
    F = seeds
    A1 = _so5(omega_line[0])
    for k in range(n if periodic else n - 1):
        A0, Am = A1, _so5(_step_midpoint(omega_line, k, periodic))
        A1 = _so5(omega_line[(k + 1) % n])
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
    MaurerCartanField.forms) at the grid points of the line; seeds:
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


@dataclass
class DeformedPatch:
    """Integrated frame field of one family member over the unwrapped domain.

    The grid extends each periodic axis by one duplicated seam line, so
    frame[-1] vs frame[0] along that axis exhibits the monodromy rather
    than hiding it.  position_theta is the first frame row.
    """

    patch: GridPatch  # source patch (periodicity flags refer to this)
    frame: np.ndarray  # (nu + pu, nv + pv, 5, 5)
    position_theta: np.ndarray  # (nu + pu, nv + pv, 5)
    path_dependence: float

    @property
    def extended_patch(self) -> GridPatch:
        """Open patch covering the unwrapped fundamental domain."""
        p = self.patch
        NU, NV = self.frame.shape[:2]
        return GridPatch(NU, NV,
                         (p.u_range[0], p.u_range[0] + (NU - 1) * p.hu),
                         (p.v_range[0], p.v_range[0] + (NV - 1) * p.hv),
                         periodic_u=False, periodic_v=False)


def _spine(mc: MaurerCartanField, seed: np.ndarray, axis: int):
    """Frames on the unwrapped spine along ``axis`` through the grid
    origin, marched from the seed, and the packed forms of the lines of
    the other axis through them.

    Returns the (N, 5, 5) start frames, N the unwrapped length of the
    spine, and the (n_other, N, 8) lines in march_frames' layout.
    """
    patch = mc.patch
    h, periodic = ((patch.hu, patch.periodic_u), (patch.hv, patch.periodic_v))[axis]
    forms = np.moveaxis(mc.forms, axis, 0)  # spine axis first
    spine = march_frames(forms[:, 0, axis][:, None], h, seed[None], periodic)
    src = np.arange(spine.shape[0]) % forms.shape[0]
    return spine[:, 0], np.moveaxis(forms[src, :, 1 - axis], 1, 0)


def sweep_frames(mc: MaurerCartanField, seed: np.ndarray) -> np.ndarray:
    """Frames over the unwrapped fundamental domain from the "uv" sweep:
    the u spine from the seed at the grid origin, then every v column
    from it.  Returns the (nu + pu, nv + pv, 5, 5) frame array.
    """
    starts, lines = _spine(mc, seed, 0)
    sheet = march_frames(lines, mc.patch.hv, starts, mc.patch.periodic_v)
    return np.moveaxis(sheet, 1, 0)  # (NU, NV, 5, 5)


def integrate_frame(mc: MaurerCartanField, seed_frame: np.ndarray,
                    tol_path: float = PATH_DEPENDENCE_TOL) -> DeformedPatch:
    """Integrate the frame system over the unwrapped fundamental domain.

    Marches row-then-column ("uv", kept as the result) and column-then-
    row ("vu") from the seed at the grid origin; the worst discrepancy
    between the two sweeps is the path-dependence diagnostic (zero-
    curvature transport is path independent on the simply connected
    unwrapped domain).  The "vu" sweep is compared with the stored
    frames one u row at a time as it marches, so only one whole-grid
    frame array is ever held.  Raises IntegrabilityBroken when the
    discrepancy exceeds tol_path.
    """
    seed = np.asarray(seed_frame, dtype=float)
    if seed.shape != (5, 5):
        raise FamilyError(f"seed frame must be 5x5, got {seed.shape}")
    F_rc = sweep_frames(mc, seed)
    starts, lines = _spine(mc, seed, 1)
    path_dep = 0.0
    rows = _march(lines, mc.patch.hu, starts, mc.patch.periodic_u)
    for stored, row in zip(F_rc, itertools.chain([starts], rows)):
        D = row - stored  # becomes the squared discrepancy in place
        D *= D
        path_dep = max(path_dep, float(np.sqrt(np.add.reduce(D, axis=(-2, -1))).max()))
    if path_dep > tol_path:
        flat = float(flatness_residual(mc).max())
        raise IntegrabilityBroken(
            f"frame transport is path dependent (discrepancy {path_dep:.3e} "
            f"> {tol_path:.1e}, flatness residual {flat:.3e}): "
            "the input is not minimal to working accuracy or the grid is "
            "too coarse")
    return DeformedPatch(mc.patch, F_rc, F_rc[..., 0, :], path_dep)


def deformed_immersion(dp: DeformedPatch) -> ImmersionField:
    """Deformed position as an immersion over the open unwrapped domain,
    without jets: ``with_jets`` fills them by finite differences."""
    pos = dp.position_theta
    return ImmersionField(dp.extended_patch, pos / np.linalg.norm(pos, axis=-1, keepdims=True),
                          jet_source="fd")


def deformation_invariant_deviation(imm: ImmersionField,
                                    dp: DeformedPatch) -> dict:
    """Max deviation of the induced metric and curvatures of f_theta
    from the input surface's.

    The deformation is isometric and preserves curvature up to the sign
    of the normal curvature, so every entry should vanish to truncation
    accuracy.  Both surfaces go through the identical jet pipeline on
    the unwrapped open domain (the input position replayed periodically
    onto it), so the comparison measures what the deformation changed,
    not how finite differences compare with exact jets.
    """
    ext = dp.extended_patch
    src_u = np.arange(ext.nu) % imm.patch.nu
    src_v = np.arange(ext.nv) % imm.patch.nv
    replay = imm.position[np.ix_(src_u, src_v)]
    _, _, _, g0, _, rep0 = shape_report(ImmersionField(ext, replay))
    _, _, _, g1, _, rep1 = shape_report(deformed_immersion(dp))
    return {
        "metric": float(max(np.abs(g1.E - g0.E).max(),
                            np.abs(g1.F - g0.F).max(),
                            np.abs(g1.G - g0.G).max())),
        "K": float(np.abs(rep1.K - rep0.K).max()),
        "K_N": float(np.abs(np.abs(rep1.K_N) - np.abs(rep0.K_N)).max()),
    }


# ---------------------------------------------------------------------------
# congruence


@dataclass
class CongruenceFit:
    """Best ambient isometry A minimizing sum |A a - b|^2 over O(5).

    residual is the RMS misfit; rank is the rank of the cross-covariance
    (below 5 the fit is unique only on the spanned subspace and
    `restricted` is set, e.g. for surfaces inside a great 3-sphere).
    """

    isometry: np.ndarray
    residual: float
    determinant: float
    rank: int
    restricted: bool


def congruence_test(pos_a: np.ndarray, pos_b: np.ndarray,
                    weights: np.ndarray | None = None) -> CongruenceFit:
    """Orthogonal Procrustes alignment of two sampled position fields."""
    a = np.asarray(pos_a, dtype=float).reshape(-1, 5)
    b = np.asarray(pos_b, dtype=float).reshape(-1, 5)
    if a.shape != b.shape:
        raise FamilyError(f"position fields differ in shape: {a.shape} vs {b.shape}")
    if weights is None:
        w = np.ones(a.shape[0])
    else:
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.shape[0] != a.shape[0]:
            raise FamilyError("weights do not match the number of samples")
    M = np.einsum("n,ni,nj->ij", w, b, a)
    U, S, Vt = np.linalg.svd(M)
    A = U @ Vt
    smax = float(S[0]) if S.size else 0.0
    rank = int((S > 1e-12 * smax).sum()) if smax > 0 else 0
    misfit = a @ A.T - b
    residual = math.sqrt(float((w * (misfit**2).sum(axis=1)).sum() / w.sum()))
    return CongruenceFit(A, residual, float(np.linalg.det(A)), rank, rank < 5)
