"""Surface kernel: frames along an immersed surface in the unit 4-sphere.

An immersion is a grid of unit vectors f in R^5 together with first and
second parameter jets.  The kernel builds the orthonormal tangent frame
(e1, e2), a smooth oriented normal frame (e3, e4) of the normal bundle
inside TS^4, and the second fundamental form taken with respect to the
sphere: since e3, e4 are orthogonal to both f and the tangent plane, the
normal components of the flat second jets already exclude the ambient
-<df(X),Y> f correction.

Complex shorthand from the classical structure equations is used for the
pointwise invariants: H_a = h^a_11 + i h^a_12 for a in {3, 4},

    |B|^2 = 2(|H3|^2 + |H4|^2),   K = 1 - |B|^2 / 2,
    K_N   = i(H3 conj(H4) - conj(H3) H4),
    a_pm  = sqrt(1 - K +- K_N) = |conj(H3) +- i conj(H4)|,

and the curvature-ellipse semi-axes are kappa = (a+ + a-)/2,
mu = |a+ - a-|/2.  K_N flips sign with the orientation of either the
tangent or the normal frame; all other invariants are gauge independent.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import (
    GridPatch,
    InputError,
    MetricField,
    check_field,
    diff,
    frame_coefficients,
    row_blocks,
)

UNIT_NORM_TOL = 1e-12


@dataclass
class ImmersionField:
    """Sampled immersion into S^4 with optional analytic jets.

    position: (nu, nv, 5) unit vectors.
    jet1: (nu, nv, 2, 5) holding (f_u, f_v), or None.
    jet2: (nu, nv, 3, 5) holding (f_uu, f_uv, f_vv), or None.
    jet_source: "analytic" or "fd".
    norm_drift: max | |f| - 1 | over the grid, set on construction and
        carried over by with_jets and with_fd_jets, which keep the position.
    """

    patch: GridPatch
    position: np.ndarray
    jet1: Optional[np.ndarray] = None
    jet2: Optional[np.ndarray] = None
    jet_source: str = "analytic"
    norm_drift: float = field(init=False)

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float)
        check_field(self.patch, self.position, "position")
        if self.position.shape[2:] != (5,):
            raise InputError(f"position must be (nu, nv, 5), got {self.position.shape}")
        # one block of u rows at a time: a whole-grid norm and its
        # temporaries would set the load's high-water mark
        self.norm_drift = float(np.max([
            np.abs(np.linalg.norm(self.position[rows], axis=2) - 1.0).max()
            for rows in row_blocks(self.patch.nu)]))
        if self.norm_drift > UNIT_NORM_TOL:
            raise InputError(
                f"position not on the unit sphere: max | |f|-1 | = {self.norm_drift:.3e} "
                f"(renormalize before constructing the field)"
            )
        if (self.jet1 is None) != (self.jet2 is None):
            raise InputError("provide both jet orders or neither")
        if self.jet1 is not None:
            check_field(self.patch, self.jet1, "jet1")
            check_field(self.patch, self.jet2, "jet2")
            if self.jet1.shape[2:] != (2, 5) or self.jet2.shape[2:] != (3, 5):
                raise InputError("jet shapes must be (nu, nv, 2, 5) and (nu, nv, 3, 5)")
        if self.jet_source not in ("analytic", "fd"):
            raise InputError(f"unknown jet source {self.jet_source!r}")

    def with_jets(self) -> "ImmersionField":
        """Return self if jets are present, else fill them by finite differences."""
        return self if self.jet1 is not None else self.with_fd_jets()

    def with_fd_jets(self) -> "ImmersionField":
        """The same position with jets taken by finite differences.  The
        position and its checked norm_drift are carried over, not checked
        again."""
        return self._carrying(*fd_jets(self.patch, self.position), "fd")

    def _carrying(self, jet1, jet2, jet_source) -> "ImmersionField":
        out = copy.copy(self)
        out.jet1, out.jet2, out.jet_source = jet1, jet2, jet_source
        return out


def fd_jets(patch: GridPatch, position: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second parameter jets by stencils, each derivative written
    into its slot of the jets as it is taken."""
    # jet1 is taken below jet2: the command line lets it go first, and the
    # normal frame reuses its memory; jet2, freed after, joins the free
    # memory above it, where the tangent frame's metric was, into a hole
    # that the connection's packed forms fit
    jet1 = np.empty(patch.shape + (2, 5))
    jet2 = np.empty(patch.shape + (3, 5))
    jet1[:, :, 0] = diff(patch, position, 0)
    jet1[:, :, 1] = diff(patch, position, 1)
    jet2[:, :, 0] = diff(patch, position, 0, order=2)
    jet2[:, :, 1] = diff(patch, jet1[:, :, 0], 1)
    jet2[:, :, 2] = diff(patch, position, 1, order=2)
    return jet1, jet2


# ---------------------------------------------------------------------------
# frames


def tangent_frame(imm: ImmersionField) -> tuple[np.ndarray, np.ndarray, MetricField]:
    """Oriented orthonormal tangent frame by Gram-Schmidt on (f_u, f_v).

    e1 and e2 are formed one block of grid.BLOCK_ROWS u rows at a time
    into their preallocated outputs, elementwise as on the whole grid.
    """
    if imm.jet1 is None:
        raise InputError("immersion has no jets; call with_jets() first")
    fu = imm.jet1[:, :, 0, :]
    fv = imm.jet1[:, :, 1, :]
    E = np.einsum("uvk,uvk->uv", fu, fu)
    F = np.einsum("uvk,uvk->uv", fu, fv)
    G = np.einsum("uvk,uvk->uv", fv, fv)
    metric = MetricField(imm.patch, E, F, G)  # raises on degenerate rank
    e1 = np.empty(fu.shape)
    e2 = np.empty(fu.shape)
    for rows in row_blocks(imm.patch.nu):
        e1[rows] = fu[rows] / np.sqrt(E[rows])[:, :, None]
        w = fv[rows] - (F[rows] / E[rows])[:, :, None] * fu[rows]
        e2[rows] = w / np.linalg.norm(w, axis=2)[:, :, None]
    return e1, e2, metric


@dataclass
class NormalFrameField:
    """Smooth oriented orthonormal frame (e3, e4) of the normal bundle,
    built by normal_frame."""

    patch: GridPatch
    e3: np.ndarray
    e4: np.ndarray


def _normal_projector_apply(f, e1, e2, vec):
    """Project ambient vectors onto the normal space at each point."""
    out = vec - np.einsum("...k,...k->...", vec, f)[..., None] * f
    out = out - np.einsum("...k,...k->...", out, e1)[..., None] * e1
    out = out - np.einsum("...k,...k->...", out, e2)[..., None] * e2
    return out


def _transport_pair(f, e1, e2, p3, p4):
    """One step of discrete normal transport: project the pair onto the
    normal space at the new point and re-orthonormalize by Gram-Schmidt."""
    q3 = _normal_projector_apply(f, e1, e2, p3)
    n3 = np.linalg.norm(q3, axis=-1)
    if np.any(n3 < 1e-8):
        raise InputError("normal frame: transported frame degenerated")
    q3 = q3 / n3[..., None]
    q4 = _normal_projector_apply(f, e1, e2, p4)
    q4 = q4 - np.einsum("...k,...k->...", q4, q3)[..., None] * q3
    n4 = np.linalg.norm(q4, axis=-1)
    if np.any(n4 < 1e-8):
        raise InputError("normal frame: transported frame degenerated")
    return q3, q4 / n4[..., None]


def _seed_normal_basis(f, e1, e2):
    """Deterministic normal basis at one point from projected ambient axes."""
    taken = []
    # preferred axes first (the last two coordinate directions), then the rest
    for k in (3, 4, 2, 1, 0):
        a = np.zeros(5)
        a[k] = 1.0
        q = _normal_projector_apply(f, e1, e2, a)
        for t in taken:
            q = q - np.dot(q, t) * t
        n = np.linalg.norm(q)
        if n > 0.3:
            taken.append(q / n)
            if len(taken) == 2:
                return taken[0], taken[1]
    raise InputError("could not seed a normal frame from ambient axes")


def _seam_turn(angle: np.ndarray, n: int, cyclic_lanes: bool) -> tuple:
    """The closing turn of n-step periodic lines from their closure angles.

    angle holds one closure angle per lane, the normal holonomy around
    its cycle.  The angles are unwrapped across the lanes and the whole
    turns they share are dropped (a full turn closes by itself), so the
    gauge winds no more than the holonomy forces.  The rest is spread as
    the turn -angle * k / n of entry k, which makes every step, the seam
    step included, turn by the same share.  Returned as its two factors,
    -angle per lane and k / n per entry, whose np.multiply.outer is the
    (lanes, n) turn: a caller forms it one block of lanes at a time.
    When the lanes themselves form a cycle (cyclic_lanes), an angle that
    winds around it admits no periodic gauge of this form and raises
    InputError.
    """
    angle = np.unwrap(angle)
    if cyclic_lanes and abs(angle[-1] - angle[0]) > np.pi:
        raise InputError(
            "seam mismatch angle winds around the transverse cycle; "
            "no periodic normal gauge of this form exists"
        )
    # the median as np.median takes it, without the numpy.ma import it costs
    ranked, mid = np.sort(angle), len(angle) // 2
    median = ranked[mid] if len(angle) % 2 else (ranked[mid - 1] + ranked[mid]) / 2
    turns = 2.0 * np.pi * np.round(median / (2.0 * np.pi))
    return -(angle - turns), np.arange(n) / n


def _transport_lines(f, e1, e2, e3, e4, periodic, cyclic_lanes):
    """March the normal pair in place along the first axis of (n, lanes, 5)
    line views from its first entry, batched over the lanes.

    Returns the factors of _seam_turn's closing turn on a periodic axis,
    from each lane's closure angle: the last pair carried one step across
    the seam, read against the first.  None on an open axis.
    """
    n = f.shape[0]
    for k in range(1, n):
        e3[k], e4[k] = _transport_pair(f[k], e1[k], e2[k], e3[k - 1], e4[k - 1])
    if not periodic:
        return None
    t3 = _normal_projector_apply(f[0], e1[0], e2[0], e3[-1])
    angle = np.arctan2(np.einsum("...k,...k->...", t3, e4[0]),
                       np.einsum("...k,...k->...", t3, e3[0]))
    return _seam_turn(angle, n, cyclic_lanes)


def _rotate_pair(e3, e4, angle):
    c = np.cos(angle)[..., None]
    s = np.sin(angle)[..., None]
    return c * e3 + s * e4, -s * e3 + c * e4


def normal_frame(patch: GridPatch, position: np.ndarray, e1: np.ndarray,
                 e2: np.ndarray) -> NormalFrameField:
    """Smooth oriented completion of the tangent frame by normal transport.

    Seeded at grid index (0, 0) by projecting fixed ambient axes, oriented
    so that det[e1 e2 e3 e4 f] > 0, then carried by _transport_lines along
    the u spine at v = 0 (one lane) and up every column along v (one lane
    per u).  Each step projects the previous pair onto the new normal
    space and applies Gram-Schmidt, which approximates parallel transport
    in the normal bundle, so the gauge rotates no faster than the normal
    curvature forces it to.  Both periodic seams close by the one rule of
    _seam_turn; on a torus whose normal bundle is nontrivial the column
    closure winds around the u cycle and InputError is raised.  The
    column seam's turn is formed and applied to (e3, e4) in place, block
    by block, so no whole-grid turn is held.
    It reads only the position and the tangent frame, so a caller that
    holds no other reference lets them go once it returns.
    """
    f = position
    e3 = np.empty_like(f)
    e4 = np.empty_like(f)

    s3, s4 = _seed_normal_basis(f[0, 0], e1[0, 0], e2[0, 0])
    # ambient orientation convention: det[e1 e2 e3 e4 f] > 0
    M = np.stack([e1[0, 0], e2[0, 0], s3, s4, f[0, 0]], axis=1)
    if np.linalg.det(M) < 0:
        s4 = -s4
    e3[0, 0], e4[0, 0] = s3, s4

    spine = [a[:, :1] for a in (f, e1, e2, e3, e4)]
    turn = _transport_lines(*spine, patch.periodic_u, False)
    if turn is not None:
        e3[:, :1], e4[:, :1] = _rotate_pair(e3[:, :1], e4[:, :1], np.multiply.outer(*turn).T)

    columns = [np.swapaxes(a, 0, 1) for a in (f, e1, e2, e3, e4)]
    turn = _transport_lines(*columns, patch.periodic_v, 0 in patch.deck_axes)
    if turn is not None:  # turned in place, one block of u rows at a time
        lane_turn, steps = turn
        for rows in row_blocks(patch.nu):
            e3[rows], e4[rows] = _rotate_pair(e3[rows], e4[rows],
                                              np.multiply.outer(lane_turn[rows], steps))
    return NormalFrameField(patch, e3, e4)


def rotate_normal_frame(nf: NormalFrameField, angle) -> NormalFrameField:
    """Rotate (e3, e4) by a constant or per-point angle; orientation kept."""
    ang = np.broadcast_to(np.asarray(angle, dtype=float), nf.patch.shape)
    e3, e4 = _rotate_pair(nf.e3, nf.e4, ang)
    return NormalFrameField(nf.patch, e3, e4)


def flip_normal_orientation(nf: NormalFrameField) -> NormalFrameField:
    return NormalFrameField(nf.patch, nf.e3.copy(), -nf.e4)


def frame_orthonormality_residual(imm: ImmersionField, e1, e2, nf: NormalFrameField) -> float:
    """Max deviation of (f, e1, e2, e3, e4) from an orthonormal 5-frame."""
    cols = np.stack([imm.position, e1, e2, nf.e3, nf.e4], axis=2)  # (nu, nv, 5, 5)
    gram = np.einsum("uvik,uvjk->uvij", cols, cols)
    return float(np.abs(gram - np.eye(5)).max())


# ---------------------------------------------------------------------------
# second fundamental form


@dataclass
class ShapeReport:
    """Pointwise invariants of the second fundamental form.

    H3, H4 are complex fields tied to the frames the report was built
    with; everything from norm_B2 on is frame independent except for the
    sign of K_N (orientation).  minimality is the per-point |trace B|,
    maximized over the two normal directions.
    """

    patch: GridPatch
    H3: np.ndarray
    H4: np.ndarray
    norm_B2: np.ndarray
    K: np.ndarray
    K_N: np.ndarray
    kappa: np.ndarray
    mu: np.ndarray
    a_plus: np.ndarray
    a_minus: np.ndarray
    minimality: np.ndarray


def _normal_components(vec: np.ndarray, e3: np.ndarray,
                       e4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (e3, e4) components of a field of ambient vectors."""
    return np.einsum("uvk,uvk->uv", vec, e3), np.einsum("uvk,uvk->uv", vec, e4)


def second_fundamental_entries(jet2: np.ndarray, metric: MetricField,
                               nf: NormalFrameField) -> tuple:
    """The second fundamental form in the orthonormal frames: H3, H4 and
    the per-point |trace B| of ShapeReport.

    jet2 holds the (nu, nv, 3, 5) second jets (f_uu, f_uv, f_vv) on the
    metric's chart, and is read nowhere else, so a caller that holds it no
    longer can let it go before shape_invariants allocates its fields.
    The tangent frame enters only through the metric's Gram-Schmidt
    coefficients (grid.frame_coefficients), and the position not at all.
    Each field is formed one block of grid.BLOCK_ROWS u rows at a time into
    its preallocated output, so no whole-grid ambient vector or product
    temporary is made.
    """
    patch = metric.patch
    H3 = np.empty(patch.shape, dtype=complex)
    H4 = np.empty(patch.shape, dtype=complex)
    minimality = np.empty(patch.shape)
    for rows in row_blocks(patch.nu):
        fuu, fuv, fvv = (jet2[rows, :, k, :] for k in range(3))
        a, b, c = frame_coefficients(metric.E[rows], metric.F[rows], metric.dA[rows])
        e3, e4 = nf.e3[rows], nf.e4[rows]
        # B(e1,e1), B(e1,e2), B(e2,e2) as ambient vectors before projection,
        # one at a time; taking components against e3/e4 kills the f- and
        # tangent parts.
        h11_3, h11_4 = _normal_components((a * a)[:, :, None] * fuu, e3, e4)
        h12_3, h12_4 = _normal_components(
            (a * b)[:, :, None] * fuu + (a * c)[:, :, None] * fuv, e3, e4)
        h22_3, h22_4 = _normal_components(
            (b * b)[:, :, None] * fuu + (2.0 * b * c)[:, :, None] * fuv
            + (c * c)[:, :, None] * fvv, e3, e4)
        H3[rows] = h11_3 + 1j * h12_3
        H4[rows] = h11_4 + 1j * h12_4
        minimality[rows] = np.maximum(np.abs(h11_3 + h22_3), np.abs(h11_4 + h22_4))
    return H3, H4, minimality


def shape_invariants(patch: GridPatch, H3: np.ndarray, H4: np.ndarray,
                     minimality: np.ndarray) -> ShapeReport:
    """The ShapeReport of second_fundamental_entries' fields: every
    invariant but K_N is formed one block of u rows at a time into its
    preallocated output, elementwise as on the whole grid."""
    # K_N stays a whole-grid expression: numpy elides the temporary of
    # H3 * conj(H4) only above about 256 KB, and the elided product runs as
    # conj(H4) * H3, whose fused complex multiply rounds differently
    K_N = (1j * (H3 * np.conj(H4) - np.conj(H3) * H4)).real.copy()

    norm_B2, K, a_plus, a_minus, kappa, mu = (np.empty(patch.shape) for _ in range(6))
    for rows in row_blocks(patch.nu):
        h3, h4 = H3[rows], H4[rows]
        norm_B2[rows] = 2.0 * (np.abs(h3) ** 2 + np.abs(h4) ** 2)
        K[rows] = 1.0 - norm_B2[rows] / 2.0
        # |H3 -+ i H4| equals sqrt(1 - K +- K_N) exactly, so the radicand
        # needs no sign check, and avoids its cancellation near a_pm = 0
        a_plus[rows] = np.abs(h3 - 1j * h4)
        a_minus[rows] = np.abs(h3 + 1j * h4)
        kappa[rows] = 0.5 * (a_plus[rows] + a_minus[rows])
        mu[rows] = 0.5 * np.abs(a_plus[rows] - a_minus[rows])

    return ShapeReport(patch, H3, H4, norm_B2, K, K_N, kappa, mu,
                       a_plus, a_minus, minimality)


def second_fundamental_form(jet2: np.ndarray, metric: MetricField,
                            nf: NormalFrameField) -> ShapeReport:
    """Second fundamental form in the orthonormal frames and its
    invariants: second_fundamental_entries, then shape_invariants."""
    return shape_invariants(metric.patch, *second_fundamental_entries(jet2, metric, nf))


def shape_report(imm: ImmersionField):
    """Frames, metric, normal frame and report in one call.

    The returned field is imm with its position, norm_drift and first jets
    but without its second jets, which nothing past this stage reads: a
    caller that rebinds its field to it lets them go.  imm itself is not
    changed.  The command line runs these steps as stages instead, and
    drops each field after its last reader.
    """
    imm = imm.with_jets()
    e1, e2, metric = tangent_frame(imm)
    nf = normal_frame(imm.patch, imm.position, e1, e2)
    rep = second_fundamental_form(imm.jet2, metric, nf)
    return imm._carrying(imm.jet1, None, imm.jet_source), e1, e2, metric, nf, rep
