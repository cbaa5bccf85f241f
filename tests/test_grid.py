"""Grid calculus: stencils, Laplace-Beltrami, quadrature, paths."""

import math
import tracemalloc

import numpy as np
import pytest

from s4min.grid import (
    GridError,
    GridPatch,
    LoopPath,
    MetricField,
    concatenate_loops,
    diff,
    integrate,
    laplace_beltrami,
    rectangle_loop,
    u_generator,
    v_generator,
)

TWO_PI = 2.0 * np.pi


def periodic_patch(n: int = 64) -> GridPatch:
    return GridPatch(n, n, (0.0, TWO_PI), (0.0, TWO_PI), True, True)


def open_patch(n: int = 64) -> GridPatch:
    return GridPatch(n, n, (0.0, 1.0), (0.0, 1.0), False, False)


# ---------------------------------------------------------------------------
# derivatives


def test_periodic_first_derivative_sin_frozen_bound():
    # Exact symbol of the 5-point stencil on sin(u) is 1 - h^4/30, so the
    # worst-case error at nu = 256 is h^4/30 = 1.209e-8.
    patch = GridPatch(256, 8, (0.0, TWO_PI), (0.0, 1.0), True, False)
    u = patch.u_coords()[:, None] * np.ones((1, patch.nv))
    df = diff(patch, np.sin(u), 0)
    err = np.abs(df - np.cos(u)).max()
    assert err < 1.3e-8, f"4th-order stencil error {err:.3e} above frozen Taylor bound"
    assert err > 1e-9, "error suspiciously small; stencil order changed?"


def test_periodic_second_derivative_sin():
    patch = GridPatch(256, 8, (0.0, TWO_PI), (0.0, 1.0), True, False)
    u = patch.u_coords()[:, None] * np.ones((1, patch.nv))
    d2 = diff(patch, np.sin(u), 0, order=2)
    # 4th-order second-derivative stencil symbol error: h^4/90 * f^(6)
    assert np.abs(d2 + np.sin(u)).max() < 5e-9


def test_open_axis_polynomial_exactness():
    patch = open_patch(16)
    u, v = patch.mesh()
    # first derivative: one-sided and central 2nd order are exact on quadratics
    f = 3.0 * u**2 - 2.0 * u + 1.0 + 0.0 * v
    assert np.abs(diff(patch, f, 0) - (6.0 * u - 2.0)).max() < 1e-12
    # second derivative: exact on cubics, including the boundary stencils
    g = u**3 - u**2 + 0.5 * u
    assert np.abs(diff(patch, g, 0, order=2) - (6.0 * u - 2.0)).max() < 1e-11


def test_mixed_partial_symmetry():
    patch = periodic_patch(64)
    u, v = patch.mesh()
    f = np.sin(u) * np.cos(2.0 * v)
    fuv = diff(patch, diff(patch, f, 0), 1)
    assert np.abs(fuv - (-2.0 * np.cos(u) * np.sin(2.0 * v))).max() < 3e-4
    fvu = diff(patch, diff(patch, f, 1), 0)
    assert np.abs(fuv - fvu).max() < 1e-12, "mixed partials must commute on smooth fields"


def test_derivative_linearity_random():
    rng = np.random.default_rng(11)
    patch = periodic_patch(32)
    u, v = patch.mesh()
    a = np.sin(u + 2 * v) + 0.3 * np.cos(3 * u)
    b = np.cos(2 * u - v)
    lam = rng.standard_normal()
    lhs = diff(patch, a + lam * b, 0)
    rhs = diff(patch, a, 0) + lam * diff(patch, b, 0)
    assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("shape", [(33, 64), (64, 33, 5, 5)])
def test_periodic_stencils_match_rolled_expression(shape):
    # oracle: the stencils written out with np.roll; the wrap-padded
    # in-place accumulation must reproduce them bit for bit
    rng = np.random.default_rng(5)
    f = rng.standard_normal(shape)
    for axis in (0, 1):
        n = shape[axis]
        patch = GridPatch(shape[0], shape[1], (0.0, TWO_PI), (0.0, TWO_PI), True, True)
        h = TWO_PI / n
        r = {k: np.roll(f, -k, axis=axis) for k in (-2, -1, 1, 2)}
        d1 = (-r[2] + 8.0 * r[1] - 8.0 * r[-1] + r[-2]) / (12.0 * h)
        d2 = (-r[2] + 16.0 * r[1] - 30.0 * f + 16.0 * r[-1] - r[-2]) / (12.0 * h * h)
        assert diff(patch, f, axis).tobytes() == d1.tobytes()
        assert diff(patch, f, axis, order=2).tobytes() == d2.tobytes()


def _open_oracle(f, h, axis, order):
    """The open-axis stencils written out term by term, as sums of slices."""
    n = f.shape[axis]

    def g(i):
        return np.take(f, i, axis=axis)

    def s(a, b):
        return np.take(f, np.arange(a, b), axis=axis)

    if order == 1:
        rows = [
            (-25.0 * g(0) + 48.0 * g(1) - 36.0 * g(2) + 16.0 * g(3) - 3.0 * g(4)) / (12.0 * h),
            (-3.0 * g(0) - 10.0 * g(1) + 18.0 * g(2) - 6.0 * g(3) + g(4)) / (12.0 * h),
            (s(0, n - 4) - 8.0 * s(1, n - 3) + 8.0 * s(3, n - 1) - s(4, n)) / (12.0 * h),
            (3.0 * g(n - 1) + 10.0 * g(n - 2) - 18.0 * g(n - 3) + 6.0 * g(n - 4)
             - g(n - 5)) / (12.0 * h),
            (25.0 * g(n - 1) - 48.0 * g(n - 2) + 36.0 * g(n - 3) - 16.0 * g(n - 4)
             + 3.0 * g(n - 5)) / (12.0 * h),
        ]
    else:
        rows = [
            (45.0 * g(0) - 154.0 * g(1) + 214.0 * g(2) - 156.0 * g(3) + 61.0 * g(4)
             - 10.0 * g(5)) / (12.0 * h * h),
            (10.0 * g(0) - 15.0 * g(1) - 4.0 * g(2) + 14.0 * g(3) - 6.0 * g(4)
             + g(5)) / (12.0 * h * h),
            (-s(0, n - 4) + 16.0 * s(1, n - 3) - 30.0 * s(2, n - 2) + 16.0 * s(3, n - 1)
             - s(4, n)) / (12.0 * h * h),
            (10.0 * g(n - 1) - 15.0 * g(n - 2) - 4.0 * g(n - 3) + 14.0 * g(n - 4)
             - 6.0 * g(n - 5) + g(n - 6)) / (12.0 * h * h),
            (45.0 * g(n - 1) - 154.0 * g(n - 2) + 214.0 * g(n - 3) - 156.0 * g(n - 4)
             + 61.0 * g(n - 5) - 10.0 * g(n - 6)) / (12.0 * h * h),
        ]
    rows = [r if r.ndim == f.ndim else np.expand_dims(r, axis) for r in rows]
    return np.concatenate(rows, axis=axis)


def _stencil_fields(rng, n):
    """Float, complex with signed zeros, float32 and int fields of n x 11."""
    z = rng.standard_normal((n, 11, 3)) + 1j * rng.standard_normal((n, 11, 3))
    z.real[rng.random(z.shape) < 0.3] = -0.0
    z.imag[rng.random(z.shape) < 0.3] = 0.0
    z.imag[rng.random(z.shape) < 0.3] = -0.0
    return [rng.standard_normal((n, 11)), z,
            rng.standard_normal((n, 11)).astype(np.float32),
            rng.integers(-9, 10, (n, 11))]


@pytest.mark.parametrize("n", [8, 9, 33])
def test_open_stencils_match_written_out_expression(n):
    rng = np.random.default_rng(n)
    for f in _stencil_fields(rng, n):
        for g in (f, np.swapaxes(f, 0, 1).copy()):
            patch = GridPatch(g.shape[0], g.shape[1], (0.0, 1.5), (0.0, 2.5), False, False)
            oracle = g.astype(float) if g.dtype.kind == "i" else g
            for axis, order in ((0, 1), (1, 1), (0, 2), (1, 2)):
                h = patch.hu if axis == 0 else patch.hv
                got = diff(patch, g, axis, order)
                want = _open_oracle(oracle, h, axis, order)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (g.dtype, axis, order)


@pytest.mark.parametrize("periodic", [True, False])
def test_diff_peaks_at_two_field_copies(periodic):
    # the result plus one interior-sized scratch array: no padded or
    # shifted copy of the field
    f = np.random.default_rng(2).standard_normal((256, 256, 5))
    patch = GridPatch(256, 256, (0.0, TWO_PI), (0.0, TWO_PI), periodic, periodic)
    for axis in (0, 1):
        tracemalloc.start()
        try:
            out = diff(patch, f, axis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del out
        assert peak <= 2.1 * f.nbytes, f"axis {axis}: {peak / f.nbytes:.2f} field copies"


def test_periodic_diff_commutes_with_roll():
    rng = np.random.default_rng(7)
    for f in _stencil_fields(rng, 32):
        patch = GridPatch(32, 11, (0.0, TWO_PI), (0.0, 1.0), True, True)
        for axis, n in ((0, 32), (1, 11)):
            for order in (1, 2):
                shift = int(rng.integers(1, n))
                rolled = diff(patch, np.roll(f, shift, axis=axis), axis, order)
                assert rolled.tobytes() == np.roll(diff(patch, f, axis, order), shift,
                                                   axis=axis).tobytes()


def test_vector_field_derivative_shape():
    patch = periodic_patch(16)
    u, v = patch.mesh()
    f = np.stack([np.sin(u), np.cos(v), u * 0.0], axis=-1)
    df = diff(patch, f, 0)
    assert df.shape == f.shape


# ---------------------------------------------------------------------------
# laplace-beltrami


def flat_metric(patch: GridPatch) -> MetricField:
    one = np.ones(patch.shape)
    return MetricField(patch, one, np.zeros(patch.shape), one)


def test_laplace_flat_eigenfunction():
    patch = periodic_patch(256)
    u, _ = patch.mesh()
    lap = laplace_beltrami(patch, np.cos(u), flat_metric(patch))
    assert np.abs(lap + np.cos(u)).max() < 1e-3  # spec bound; actual ~1e-8


def test_laplace_round_sphere_eigenfunction():
    # colatitude/longitude chart of the unit sphere, poles offset half a step;
    # cos(t) is a degree-1 spherical harmonic: Laplacian eigenvalue -2
    n = 128
    h = np.pi / n
    patch = GridPatch(n, n, (h / 2.0, np.pi - h / 2.0), (0.0, TWO_PI), False, True)
    t, _ = patch.mesh()
    metric = MetricField(patch, np.ones(patch.shape), np.zeros(patch.shape), np.sin(t) ** 2)
    lap = laplace_beltrami(patch, np.cos(t), metric)
    err = np.abs(lap + 2.0 * np.cos(t)).max()
    assert err < 15.0 * h**2, f"round-metric Laplacian error {err:.3e} not O(h^2)"


def test_laplace_divergence_closure_on_torus():
    # integral of a Laplacian over a closed surface vanishes; the discrete
    # divergence form telescopes exactly on periodic axes
    patch = periodic_patch(64)
    u, v = patch.mesh()
    E = 2.0 + 0.3 * np.cos(u + v)
    F = 0.2 * np.sin(u)
    G = 1.5 + 0.2 * np.sin(v)
    metric = MetricField(patch, E, F, G)
    f = np.sin(2 * u) * np.cos(v) + 0.7 * np.cos(u)
    total = integrate(patch, laplace_beltrami(patch, f, metric), metric)
    assert abs(total) < 1e-10 * np.abs(f).max()


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_trig_polynomial_exact_below_nyquist():
    patch = periodic_patch(32)
    u, v = patch.mesh()
    f = 1.0 + np.cos(5 * u) + np.sin(13 * v) + np.cos(3 * u) * np.sin(7 * v)
    # every oscillatory term sums to zero exactly; the constant gives (2 pi)^2
    assert abs(integrate(patch, f, flat_metric(patch)) - TWO_PI**2) < 1e-12 * TWO_PI**2


def test_quadrature_simpson_open_axis():
    patch = GridPatch(9, 10, (0.0, 1.0), (0.0, 1.0), False, False)
    u, v = patch.mesh()
    # Simpson (and the 3/8 tail on the odd-interval axis) is exact on cubics
    f = u**3 + v**3
    assert abs(integrate(patch, f, flat_metric(patch)) - 0.5) < 1e-14


def test_metric_weighted_area():
    patch = periodic_patch(64)
    u, _ = patch.mesh()
    metric = MetricField(patch, (2.0 + np.cos(u)) ** 2, np.zeros(patch.shape),
                         np.ones(patch.shape))
    # dA = 2 + cos(u); integral over the torus = 2 * (2 pi)^2
    area = integrate(patch, np.ones(patch.shape), metric)
    assert abs(area - 2.0 * TWO_PI**2) < 1e-10


# ---------------------------------------------------------------------------
# validation and paths


def test_metric_rejects_degenerate_with_location():
    patch = open_patch(8)
    E = np.ones(patch.shape)
    G = np.ones(patch.shape)
    F = np.zeros(patch.shape)
    F[3, 4] = 2.0  # det < 0 there
    with pytest.raises(GridError, match=r"\(3, 4\)"):
        MetricField(patch, E, F, G)


def test_grid_rejects_tiny_axes():
    with pytest.raises(GridError):
        GridPatch(4, 64, (0.0, 1.0), (0.0, 1.0), False, False)


def test_loop_generators_close_with_winding():
    patch = periodic_patch(16)
    lu = u_generator(patch, j0=3)
    lv = v_generator(patch, i0=5)
    assert lu.winding == (1, 0) and len(lu.points) == patch.nu + 1
    assert lv.winding == (0, 1)


def test_loop_rejects_open_winding_and_jumps():
    patch = open_patch(16)
    with pytest.raises(GridError):
        u_generator(patch)
    pp = periodic_patch(16)
    pts = np.array([[0, 0], [2, 0], [2, 1]])  # step of length 2
    with pytest.raises(GridError):
        LoopPath(pp, pts, (0, 0))


def test_rectangle_loop_closes():
    patch = periodic_patch(16)
    loop = rectangle_loop(patch, 2, 3, 4, 5)
    assert loop.winding == (0, 0)
    assert np.array_equal(loop.points[0], loop.points[-1])


def test_concatenate_loops_adds_winding():
    patch = periodic_patch(16)
    ab = concatenate_loops(u_generator(patch), v_generator(patch))
    assert ab.winding == (1, 1)


def test_capped_axis_midpoint_quadrature():
    # cell-centered samples of sin over (0, pi): midpoint weights cover the
    # closed interval including both half-cell caps; error is h^2/12 exactly
    n = 64
    h = math.pi / n
    patch = GridPatch(n, 8, (h / 2, math.pi - h / 2), (0.0, 1.0),
                      periodic_u=False, periodic_v=False, cap_u=True)
    vals = np.sin(patch.u_coords())[:, None] * np.ones((1, 8))
    got = integrate(patch, vals, flat_metric(patch))
    want = 2.0  # integral of sin over [0, pi]
    exact_err = h / math.sin(h / 2.0) - 2.0  # closed-form midpoint-rule error
    assert abs((got - want) - exact_err) < 1e-12
    assert abs(got - want) < 1.05 * h * h / 12.0


def test_capped_axis_must_be_open():
    with pytest.raises(GridError, match="capped"):
        GridPatch(8, 8, (0.0, 1.0), (0.0, 1.0), True, False, cap_u=True)
