"""Whole-array references that tests compare the streamed library code with.

The library marches one "uv" sweep and keeps only what it reads of it.
These helpers hold the whole sweep, march the "vu" sweep as well, which
the library does not, and take a member's curvatures through two whole
shape stages.
"""

import numpy as np

from s4min.family import ConnectionData, march_frames
from s4min.grid import GridPatch
from s4min.surface import ImmersionField, shape_report


def sweep_frames(conn):
    """The "uv" sweep held whole: the u spine from the origin frame, then
    every v column from it.  Returns the (nu + pu, nv + pv, 5, 5) frames
    over the unwrapped fundamental domain."""
    p = conn.patch
    spine = march_frames(conn.forms[:, 0, 0][:, None], p.hu, conn.origin[None],
                         p.periodic_u)[:, 0]
    lines = np.moveaxis(conn.forms[:, :, 1], 1, 0)[:, p.unwrap_index(0)]
    sheet = march_frames(lines, p.hv, spine, p.periodic_v)
    return np.moveaxis(sheet, 1, 0)


def two_sweep_path_dependence(conn):
    """Path dependence from both sweeps held whole: the largest Frobenius
    distance between the "uv" sweep and the "vu" sweep, which is the "uv"
    sweep of the transposed chart."""
    p = conn.patch
    transposed = ConnectionData(
        GridPatch(p.nv, p.nu, p.v_range, p.u_range, p.periodic_v, p.periodic_u,
                  p.cap_v, p.cap_u),
        conn.origin, conn.forms.transpose(1, 0, 2, 3)[:, :, ::-1])
    D = np.ascontiguousarray(np.swapaxes(sweep_frames(transposed), 0, 1))
    D -= sweep_frames(conn)
    D *= D
    return float(np.sqrt(np.add.reduce(D, axis=(-2, -1))).max())


def curvature_deviation(imm, member):
    """Max deviation of K and of |K_N| of the member, an immersion on
    imm.patch.unwrapped(), from those of the source imm replayed onto that
    chart, both through shape_report with finite-difference jets."""
    p = imm.patch
    replay = imm.position[np.ix_(p.unwrap_index(0), p.unwrap_index(1))]
    rep0 = shape_report(ImmersionField(member.patch, replay))[-1]
    rep1 = shape_report(member)[-1]
    return {"K": float(np.abs(rep1.K - rep0.K).max()),
            "K_N": float(np.abs(np.abs(rep1.K_N) - np.abs(rep0.K_N)).max())}
