import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricmaps
from toricmaps.dirichlet import (BoundaryData, DiscDomain, HarmonicField, IntervalDomain,
                                 MaxPrincipleError, RectangleDomain, Window, _d1, _d2,
                                 boundary_weights, harmonic_extend,
                                 harmonic_extend_disc_fourier,
                                 laplace_residual, make_disc, make_interval,
                                 make_rectangle, poisson_kernel)
from toricmaps.harness import loop_family
from toricmaps.potentials import _blocks

SRC = str(Path(toricmaps.__file__).resolve().parents[1])


def test_poisson_kernel_values():
    assert poisson_kernel(0.0, 1.3) == pytest.approx(1 / (2 * math.pi), abs=1e-15)
    assert poisson_kernel(0.5, 0.0) == pytest.approx(3 / (2 * math.pi), abs=1e-15)


def test_poisson_kernel_normalization():
    th = 2 * np.pi * np.arange(512) / 512
    total = (2 * np.pi / 512) * np.sum(poisson_kernel(0.9, th))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_poisson_kernel_domain():
    with pytest.raises(ValueError):
        poisson_kernel(1.0, 0.0)
    with pytest.raises(ValueError):
        poisson_kernel(-0.1, 0.0)
    assert np.all(poisson_kernel(np.linspace(0, 0.99, 50),
                                 np.linspace(0, 6, 50)) > 0)


def test_interval_extension_is_linear():
    dom = make_interval(11)
    f = harmonic_extend(dom, BoundaryData(np.array([2.0, 6.0])))
    np.testing.assert_allclose(f.values, 2.0 + 4.0 * dom.nodes, rtol=1e-15)
    assert f.values[5] == pytest.approx(4.0, abs=1e-15)
    # boundary restriction is exact
    assert f.values[0] == 2.0 and f.values[-1] == 6.0
    assert laplace_residual(dom, f) < 1e-12


def test_disc_extension_harmonic_polynomial():
    dom = make_disc(9, 256)
    g = BoundaryData(np.cos(dom.angles))
    f = harmonic_extend(dom, g)
    exact = dom.radii[:, None] * np.cos(dom.angles)[None, :]
    assert np.max(np.abs(f.values - exact)) < 1e-9
    # value at (r, gamma) = (0.5, 0) through the kernel weights
    w = (2 * np.pi / 256) * poisson_kernel(0.5, -dom.angles)
    assert w @ g.values == pytest.approx(0.5, abs=1e-10)


def test_disc_extension_constant():
    dom = make_disc(9, 256)
    f = harmonic_extend(dom, BoundaryData(np.full(256, 5.0)))
    np.testing.assert_allclose(f.values, 5.0, atol=1e-9)


def test_disc_residual_second_order():
    # for r cos(gamma) the radial differences are exact, so halving the angular
    # spacing at fixed radii isolates the O(h^2) truncation: ratio ~ 4
    # (>= 128 angles so the quadrature aliasing stays below the truncation)
    sups = []
    for ng in (128, 256):
        dom = make_disc(9, ng)
        f = harmonic_extend(dom, BoundaryData(np.cos(dom.angles)))
        sups.append(laplace_residual(dom, f))
    assert 3.0 < sups[0] / sups[1] < 5.0


def test_rectangle_harmonic_polynomial():
    dom = make_rectangle(17, 13)
    X, Y = np.meshgrid(dom.x_nodes, dom.y_nodes, indexing="ij")
    mask = dom.boundary_mask()
    f = harmonic_extend(dom, BoundaryData((X * X - Y * Y)[mask]))
    assert np.max(np.abs(f.values - (X * X - Y * Y))) < 1e-10
    assert laplace_residual(dom, f) < 1e-10
    # boundary restriction is exact
    np.testing.assert_array_equal(f.values[mask], (X * X - Y * Y)[mask])


@settings(max_examples=20, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_extension_linearity(a, b):
    dom = make_disc(5, 64)
    g1 = np.cos(dom.angles)
    g2 = np.sin(2 * dom.angles) + 0.5
    lhs = harmonic_extend(dom, BoundaryData(a * g1 + b * g2)).values
    rhs = (a * harmonic_extend(dom, BoundaryData(g1)).values
           + b * harmonic_extend(dom, BoundaryData(g2)).values)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_extension_positivity():
    dom = make_disc(7, 128)
    g = 1.0 + np.cos(dom.angles)          # nonnegative boundary data
    f = harmonic_extend(dom, BoundaryData(g))
    assert f.values.min() >= -1e-12


def test_convexity_transfer():
    # boundary data convex in an auxiliary variable x at every boundary node
    # extends to a field convex in x at every interior node
    dom = make_disc(6, 64)
    x = np.linspace(-1, 1, 21)
    profiles = np.stack([(1.5 + np.cos(th)) * x**2 + np.sin(th) * x
                         for th in dom.angles], axis=0)   # (n_theta, nx)
    fields = np.stack([harmonic_extend(dom, BoundaryData(profiles[:, j])).values
                       for j in range(x.size)], axis=-1)  # (nr, ntheta, nx)
    second = np.diff(fields, 2, axis=-1)
    assert second.min() > 0


def test_fourier_path_matches_poisson():
    dom = make_disc(9, 256)
    g = BoundaryData(np.exp(np.cos(dom.angles)))   # smooth, all harmonics
    a = harmonic_extend(dom, g).values
    b = harmonic_extend_disc_fourier(dom, g).values
    assert np.max(np.abs(a - b)) < 1e-10


def test_boundary_weights_match_extension():
    dom = make_disc(6, 64)
    g = np.cos(3 * dom.angles) + 2.0
    f = harmonic_extend(dom, BoundaryData(g))
    w = boundary_weights(dom, (3, 5))
    assert w.min() >= 0
    assert w.sum() == pytest.approx(1.0, abs=1e-6)
    assert w @ g == pytest.approx(f.values[3, 5], abs=1e-12)
    iv = make_interval(9)
    w = boundary_weights(iv, (4,))
    np.testing.assert_allclose(w, [0.5, 0.5])


def test_rectangle_boundary_weights_are_the_discrete_harmonic_measure():
    dom = make_rectangle(9, 7)
    g = np.cos(np.arange(dom.n_boundary)) + 2.0
    f = harmonic_extend(dom, BoundaryData(g))
    for where in ((4, 3), (1, 1), (7, 5), (0, 2)):
        w = boundary_weights(dom, where)
        assert w.min() >= 0
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert w @ g == pytest.approx(f.values[where], abs=1e-14)


@pytest.mark.parametrize("shape", [(3, 3), (9, 7), (17, 13), (17, 17)])
def test_rectangle_weights_are_convex(shape):
    # the discrete maximum principle of the module docstring: W >= 0, rows sum to 1
    weights = make_rectangle(*shape).dirichlet_weights
    assert weights.min() >= 0
    assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 16 * np.spacing(1.0)


def test_rectangle_weights_do_not_depend_on_blas_threads():
    # einsums, not a LAPACK solve: the same bits under any BLAS thread count
    code = ("import hashlib; from toricmaps.dirichlet import make_rectangle; print(hashlib"
            ".sha256(make_rectangle(33, 33).dirichlet_weights.tobytes()).hexdigest())")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        digests.add(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True, timeout=120).stdout)
    assert len(digests) == 1


def _sparse_lu_extension(dom, values):
    """The rectangle's extension by a sparse LU solve of the 5-point Laplacian
    assembled from Kronecker products: an independent oracle."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    def second_difference(n, h):       # interior rows of an n-node axis
        return sp.diags([1.0, -2.0, 1.0], [0, 1, 2], shape=(n - 2, n)) / h**2

    (nx, ny), (hx, hy) = dom.shape, dom.spacings.values()
    lap = (sp.kron(second_difference(nx, hx), sp.eye(ny - 2, ny, k=1))
           + sp.kron(sp.eye(nx - 2, nx, k=1), second_difference(ny, hy))).tocsc()
    on_boundary = dom.boundary_mask().ravel()
    columns = values.reshape(values.shape[0], -1)
    out = np.empty((on_boundary.size, columns.shape[1]))
    out[on_boundary] = columns
    lu = spla.splu(lap[:, np.flatnonzero(~on_boundary)].tocsc())
    out[~on_boundary] = lu.solve(-(lap[:, np.flatnonzero(on_boundary)] @ columns))
    return out.reshape(dom.shape + values.shape[1:])


@pytest.mark.parametrize("shape", [(9, 7), (17, 13), (17, 17)])
@pytest.mark.parametrize("trailing", [(), (5,), (3, 4)])
def test_rectangle_extension_is_the_sparse_lu_solve(shape, trailing):
    dom = make_rectangle(*shape)
    g = np.random.default_rng(11).standard_normal((dom.n_boundary,) + trailing)
    np.testing.assert_allclose(dom.extend(g), _sparse_lu_extension(dom, g),
                               rtol=0, atol=1e-14 * np.abs(g).max())
    # one read-only weight array per domain
    assert dom.dirichlet_weights is dom.dirichlet_weights
    assert not dom.dirichlet_weights.flags.writeable


@pytest.mark.parametrize("dom", [make_interval(7), make_disc(5, 64), make_rectangle(9, 7)],
                         ids=["interval", "disc", "rectangle"])
def test_stacked_extension_is_the_column_by_column_one(dom):
    rng = np.random.default_rng(3)
    g = rng.uniform(-1.0, 2.0, size=(dom.n_boundary, 4, 3))
    stacked = harmonic_extend(dom, BoundaryData(g))
    assert stacked.values.shape == dom.shape + (4, 3)
    residuals = []
    for j in np.ndindex(4, 3):
        column = harmonic_extend(dom, BoundaryData(g[(slice(None),) + j]))
        residuals.append(laplace_residual(dom, column))
        # interval: the two-term form; disc, rectangle: einsum sums each column alone
        np.testing.assert_array_equal(stacked.values[(...,) + j], column.values)
    assert laplace_residual(dom, stacked) == pytest.approx(max(residuals), rel=1e-12)


def test_domain_validation():
    with pytest.raises(ValueError):
        make_disc(5, 63)          # odd angular count
    with pytest.raises(ValueError):
        make_disc(5, 32)          # too few angles
    with pytest.raises(ValueError):
        DiscDomain(radii=np.array([0.0, 0.5, 0.9]),      # no boundary ring
                   angles=2 * np.pi * np.arange(64) / 64)
    with pytest.raises(ValueError):
        BoundaryData(np.array([1.0, np.inf]))


def test_domains_reject_grids_their_stencils_cannot_honour():
    with pytest.raises(ValueError, match="interval nodes must be uniformly spaced"):
        IntervalDomain(np.array([0.0, 0.1, 0.3, 1.0]))
    angles = 2 * np.pi * np.arange(64) / 64
    with pytest.raises(ValueError, match=r"radii\[:-1\] must be uniformly spaced"):
        DiscDomain(radii=np.array([0.0, 0.2, 0.3, 0.9, 1.0]), angles=angles)
    with pytest.raises(ValueError, match="y_nodes must be uniformly spaced"):
        RectangleDomain(np.linspace(0, 1, 5), np.array([0.0, 0.1, 0.5, 1.0]))
    # the boundary ring keeps its own spacing
    DiscDomain(radii=np.array([0.0, 0.3, 0.6, 0.9, 1.0]), angles=angles)


def test_disc_rejects_angles_off_the_grid_by_a_relative_error():
    # 2e-6 relative is 1.2e-5 absolute at the last angle; such a grid is no
    # trapezoid rule, and its spectral and einsum extensions part by ~4e-5
    disc = make_disc(5, 64)
    with pytest.raises(ValueError, match="angles must be the uniform grid"):
        DiscDomain(disc.radii, disc.angles * (1 + 2e-6))


def test_uniform_axis_tolerance_scales_with_the_axis():
    # steps 1e-9, 2e-9, 3e-9 are all within an absolute 1e-8 of each other
    with pytest.raises(ValueError, match="interval nodes must be uniformly spaced"):
        IntervalDomain(np.array([0.0, 1e-9, 3e-9, 6e-9]))
    # rounding of the node values is not a step change
    for nodes in (np.linspace(-4.0, 4.0, 801), np.linspace(0.0, 1000.0, 10**6 + 1),
                  np.linspace(1e6, 1e6 + 1.0, 1001)):
        IntervalDomain(nodes)


def test_rejects_mismatched_boundary_data():
    dom = make_disc(5, 64)
    with pytest.raises(ValueError):
        harmonic_extend(dom, BoundaryData(np.zeros(65)))
    iv = make_interval(5)
    with pytest.raises(ValueError):
        harmonic_extend(iv, BoundaryData(np.zeros(3)))


def _forge_violation(monkeypatch, columns, node=2):
    """Make IntervalDomain.extend overshoot the boundary range at one node of
    each listed column, the later columns by more."""
    extend = IntervalDomain.extend

    def forged(self, values):
        out = extend(self, values)
        for i, column in enumerate(columns):
            out[(node,) + column] += (1 + i) * (1.0 + np.abs(values).max())
        return out

    monkeypatch.setattr(IntervalDomain, "extend", forged)


def test_max_principle_failure_names_the_worst_column(monkeypatch):
    dom = make_interval(5)
    g = np.arange(8.0).reshape(2, 4)
    harmonic_extend(dom, BoundaryData(g))
    _forge_violation(monkeypatch, [(0,), (2,)])
    with pytest.raises(MaxPrincipleError,
                       match=r"column \(2,\): .*excess 14 \(slack 1.1e-11\)") as exc:
        harmonic_extend(dom, BoundaryData(g))
    assert exc.value.index == (2,)
    monkeypatch.undo()
    _forge_violation(monkeypatch, [()])
    with pytest.raises(MaxPrincipleError, match=r"column \(\)"):
        harmonic_extend(dom, BoundaryData(g[:, 2]))


def test_max_principle_failure_names_alpha_level_and_fiber_node(monkeypatch):
    from toricmaps.bergman import harmonic_norming
    from toricmaps.harness import solve_harmonic_map
    from toricmaps.polytope import preset_polytope
    from toricmaps.potentials import make_polytope_grid, product_potential
    dom = make_interval(5)
    log_q = np.stack([-np.arange(5.0)] * 2)       # level 4, alphas 0..4 at both ends
    P = preset_polytope("interval")
    xg = make_polytope_grid(P, 21, 1e-2)
    u = product_potential(P, grid=xg)
    _forge_violation(monkeypatch, [(3,)])
    with pytest.raises(MaxPrincipleError,
                       match=r"column \(3,\).* alpha = \(3,\) at level k = 4"):
        harmonic_norming(dom, 4, np.arange(5)[:, None], log_q)
    with pytest.raises(MaxPrincipleError,
                       match=r"column \(3,\).* at fiber node \(3,\), x = 0.157$"):
        solve_harmonic_map(dom, xg, [u, u])


@pytest.mark.parametrize("n_nodes,start,stop,budget,blocks", [
    # 2560 nodes (the 9 x 256 disc), 2^16 values: 25 columns with the halo
    (2560, 2, 599, 2 ** 16, [(lo, min(lo + 23, 599)) for lo in range(2, 599, 23)]),
    (17, 1, 320, 2 ** 16, [(1, 320)]),
    # a budget below three columns still moves one inner column per block
    (100, 5, 8, 10, [(5, 6), (6, 7), (7, 8)]),
])
def test_halo_blocks_cover_the_columns_within_the_budget(n_nodes, start, stop, budget,
                                                         blocks):
    # the halo walk of error_report and flows._fiber_window: the budget less
    # the two halo columns gives the inner columns' share
    got = _blocks(start, stop, n_nodes, budget - 2 * n_nodes)
    assert [(s.start, s.stop) for s in got] == blocks
    widths = [hi - lo + 2 for lo, hi in blocks]
    assert all(n_nodes * w <= budget for w in widths) or widths == [3] * len(blocks)


def test_disc_extension_writes_the_ring_after_the_einsum():
    dom = make_disc(5, 64)
    values = np.random.default_rng(3).standard_normal((64, 2, 3))
    out = dom.extend(values)
    assert out.shape == (6, 64, 2, 3) and out.flags.c_contiguous
    np.testing.assert_array_equal(out[-1], values)
    np.testing.assert_array_equal(
        out[:-1], np.einsum("ilj,j...->il...", dom.poisson_weights, values))


def _einsum_extension(dom, values):
    return np.einsum("ilj,j...->il...", dom.poisson_weights, values)


@pytest.mark.parametrize("n_angles", [64, 128, 256])
def test_wide_disc_data_take_the_ring_spectrum(n_angles):
    # more trailing columns than boundary nodes: one rfft, one irfft per ring,
    # the same operator as the einsum to rounding
    dom = make_disc(9, n_angles)
    rng = np.random.default_rng(n_angles)
    for trailing in ((n_angles + 1,), (801,), (3, n_angles // 2)):
        values = rng.uniform(-1.0, 2.0, size=(n_angles,) + trailing)
        out = dom.extend(values)
        assert out.shape == dom.shape + trailing and out.flags.c_contiguous
        np.testing.assert_array_equal(out[-1], values)
        gap = np.max(np.abs(out[:-1] - _einsum_extension(dom, values)))
        assert gap <= 1e-14 * np.max(np.abs(values)), (trailing, gap)
        # the centre ring r = 0 holds only the mean, mode 0
        np.testing.assert_allclose(out[0], np.broadcast_to(values.mean(axis=0), out[0].shape),
                                   rtol=0, atol=1e-15 * np.max(np.abs(values)))


@pytest.mark.parametrize("n_angles", [64, 256])
def test_a_families_f_is_the_einsum_extension_to_rounding(n_angles):
    f = loop_family(a=0.05, n_radii=9, n_angles=n_angles).f
    gap = np.max(np.abs(f[:-1] - _einsum_extension(make_disc(9, n_angles), f[-1])))
    assert gap <= 1e-14 * np.max(np.abs(f))


def test_disc_data_as_wide_as_the_grid_stay_on_the_einsum():
    dom = make_disc(5, 64)
    rng = np.random.default_rng(4)
    for trailing in ((64,), (8, 8), (1,), ()):
        values = rng.standard_normal((64,) + trailing)
        np.testing.assert_array_equal(dom.extend(values)[:-1], _einsum_extension(dom, values))


def test_laplace_residual_rejects_a_field_of_another_domain():
    # same shape (10, 256), another kind of domain: no Laplacian of one
    # domain says anything about a field sampled on the other
    disc, rect = make_disc(9, 256), make_rectangle(10, 256)
    field = HarmonicField(rect, np.zeros(rect.shape))
    with pytest.raises(ValueError, match=r"^the field's domain \(RectangleDomain, shape "
                       r"\(10, 256\), spacings .*\) does not match the domain "
                       r"\(DiscDomain, shape \(10, 256\), spacings .*\)$"):
        laplace_residual(disc, field)
    # same type and shape, other spacings
    with pytest.raises(ValueError, match="'h_r'"):
        other = DiscDomain(np.append(np.linspace(0.0, 0.8, 9), 1.0), disc.angles)
        laplace_residual(disc, HarmonicField(other, np.zeros(disc.shape)))
    # an equal domain built apart is the same domain
    assert laplace_residual(disc, HarmonicField(make_disc(9, 256), np.zeros(disc.shape))) == 0


# -- window-only stencils ---------------------------------------------------------

def _roll_d1(v, h, axis):
    return (np.roll(v, -1, axis=axis) - np.roll(v, 1, axis=axis)) / (2.0 * h)


def _roll_d2(v, h, axis):
    return (np.roll(v, -1, axis=axis) - 2.0 * v + np.roll(v, 1, axis=axis)) / h**2


def test_whole_grid_differences_are_the_wrapped_ones():
    v = np.random.default_rng(5).standard_normal((5, 64, 7))
    for axis in range(3):
        np.testing.assert_array_equal(_d1(v, 0.3, axis), _roll_d1(v, 0.3, axis))
        np.testing.assert_array_equal(_d2(v, 0.3, axis), _roll_d2(v, 0.3, axis))


# the disc's own window: rings n_r - 3 and n_r - 2, the three-point ring
# next to r = 1, where the Laplacian takes unequal weights
RING = (slice(7, 9), slice(None))


@pytest.mark.parametrize("dom,margin", [
    (make_interval(11), 1), (make_interval(11), 2),
    (make_rectangle(9, 8), 1), (make_rectangle(9, 8), 2),
    (make_disc(9, 64), 1), (make_disc(9, 64), 2), (make_disc(9, 64), RING),
], ids=["interval-1", "interval-2", "rectangle-1", "rectangle-2", "disc-1", "disc-2",
        "disc-ring"])
def test_window_stencils_are_bitwise_the_whole_grid_ones(dom, margin):
    v = np.random.default_rng(7).standard_normal(dom.shape + (12,))
    nodes = margin if isinstance(margin, tuple) else dom.interior(margin)
    cols = (slice(None),) * len(dom.shape) + (slice(1, -1),)
    whole = {"gradient": list(dom.gradient(v)), "hessian": list(dom.hessian(v)),
             "laplacian": [dom.laplacian(v)]}
    if isinstance(dom, DiscDomain):
        # every angle is in the window, the wrapped columns 0 and n - 1 too
        assert Window(v, nodes).values.shape[1] == dom.angles.size
    for at in (nodes, nodes + cols[-1:]):
        fresh = {"gradient": list(dom.gradient(Window(v, at))),
                 "hessian": list(dom.hessian(Window(v, at))),
                 "laplacian": [dom.laplacian(Window(v, at))]}
        for kind, arrays in whole.items():
            assert len(fresh[kind]) == len(arrays)
            for a, b in zip(arrays, fresh[kind]):
                np.testing.assert_array_equal(a[Window(v, at).nodes], b)
    if margin is RING:
        # the ring next to r = 1 against the three-point weights written out
        r, h_g = dom.radii, dom.spacings["h_gamma"]
        hm, hp = r[8] - r[7], r[9] - r[8]
        d_rr = 2.0 * (hp * v[7] - (hm + hp) * v[8] + hm * v[9]) / (hm * hp * (hm + hp))
        d_r = (-hp / (hm * (hm + hp)) * v[7] + (hp - hm) / (hm * hp) * v[8]
               + hm / (hp * (hm + hp)) * v[9])
        np.testing.assert_array_equal(dom.laplacian(Window(v, RING))[-1],
                                      d_rr + d_r / r[8] + _roll_d2(v, h_g, 1)[8] / r[8] ** 2)
    # a window inside the gradient's reads its first differences: still bitwise
    outer = Window(v, dom.interior(0 if isinstance(margin, tuple) else 1))
    grads = list(dom.gradient(outer))
    inner = outer.sub(nodes + cols[-1:])
    assert inner.first and all(np.shares_memory(d, outer.first[key])
                               for key, d in inner.first.items())
    at = inner.nodes
    for a, b in zip(whole["hessian"] + whole["laplacian"] + whole["gradient"],
                    list(dom.hessian(inner)) + [dom.laplacian(inner)]
                    + list(dom.gradient(inner))):
        np.testing.assert_array_equal(a[at], b)
    # the rho differences at the inner columns, every node
    h, ax = 0.05, v.ndim - 1
    np.testing.assert_array_equal(_d1(Window(v, cols), h, ax), _roll_d1(v, h, ax)[cols])
    np.testing.assert_array_equal(_d2(Window(v, cols), h, ax), _roll_d2(v, h, ax)[cols])
    np.testing.assert_array_equal(_d1(Window(grads[0], cols), h, ax),
                                  _roll_d1(whole["gradient"][0], h, ax)[outer.nodes][cols])


def test_a_windows_first_differences_are_a_read_only_memo():
    dom = make_disc(9, 64)
    h_r = dom.spacings["h_r"]
    v = np.random.default_rng(3).standard_normal(dom.shape + (4,))
    with pytest.raises(TypeError):
        Window(v, dom.interior(1), first={})
    w = Window(v, dom.interior(1))
    d_r, _ = dom.gradient(w)
    assert d_r is w.first[0, h_r]
    with pytest.raises(ValueError, match="read-only"):
        d_r += 1.0
    inner = w.sub(dom.interior(2))
    assert inner.first and not any(d.flags.writeable for d in inner.first.values())
    np.testing.assert_array_equal(next(dom.gradient(inner)), _d1(v, h_r, 0)[inner.nodes])
