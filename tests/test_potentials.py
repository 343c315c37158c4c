import math
import tracemalloc

import numpy as np
import pytest

from toricmaps import potentials
from toricmaps.polytope import preset_polytope
from toricmaps.potentials import (ClosedForm, ConvexityError, KahlerPotential,
                                  NewtonError, SymplecticPotential, _blocks, _convex_slices,
                                  _invert_monotone_1d, abreu_delta,
                                  default_margin, guillemin_hessian, guillemin_potential,
                                  make_polytope_grid, fubini_study,
                                  product_potential, to_kahler, to_symplectic)

P = preset_polytope("interval")


def golden_max(fn, lo, hi, tol=1e-11):
    """Golden-section maximization, the independent conjugate oracle."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


# -- Guillemin canonical potential ---------------------------------------------

def test_guillemin_interval_center():
    assert guillemin_potential(P, 0.5) == pytest.approx(-math.log(2), abs=1e-14)


def test_guillemin_near_boundary_limit():
    # x log x -> 0: the exact value at 1e-8 (both facet terms)
    x = 1e-8
    expected = x * math.log(x) + (1 - x) * math.log1p(-x)
    val = guillemin_potential(P, x)
    assert val == pytest.approx(expected, rel=1e-12)
    assert abs(val) < 2.2e-7


def test_guillemin_simplex():
    S = preset_polytope("simplex2")
    assert guillemin_potential(S, (1 / 3, 1 / 3)) == pytest.approx(-math.log(3), abs=1e-13)


def test_guillemin_rejects_boundary():
    with pytest.raises(ValueError):
        guillemin_potential(P, 0.0)
    with pytest.raises(ValueError):
        guillemin_potential(P, 1.2)


# -- Legendre transform ----------------------------------------------------------

def quad_phi():
    rho = np.linspace(0.05, 0.95, 201)
    closed = ClosedForm(value=lambda r: np.asarray(r, dtype=float) ** 2 / 2.0,
                        grad=lambda r: np.asarray(r, dtype=float),
                        hess=lambda r: np.ones_like(np.asarray(r, dtype=float)))
    return KahlerPotential(rho, closed=closed)


def test_to_symplectic_self_dual_quadratic():
    phi = quad_phi()
    xg = make_polytope_grid(P, 101, 0.06)
    u = to_symplectic(phi, P, xg)
    # between nodes the sampled smooth part carries cubic-spline error
    assert float(u.value(np.asarray(0.3))) == pytest.approx(0.045, abs=1e-8)
    x = xg.axes[0]
    np.testing.assert_allclose(np.asarray(u.value(x)), x**2 / 2.0, atol=1e-10)


def test_to_symplectic_fs_gives_canonical():
    phi = fubini_study()
    xg = make_polytope_grid(P, 801, default_margin(64))
    u = to_symplectic(phi, P, xg)
    assert float(u.value(np.asarray(0.5))) == pytest.approx(-math.log(2), abs=1e-12)
    assert np.max(np.abs(u.f_values)) < 1e-12
    # independent oracle: golden-section maximization of x*rho - phi(rho)
    for x in np.linspace(0.05, 0.95, 10):
        rho_star = golden_max(lambda r: x * r - float(phi.value(np.asarray(r))),
                              -30.0, 30.0)
        u_oracle = x * rho_star - float(phi.value(np.asarray(rho_star)))
        assert float(u.value(np.asarray(x))) == pytest.approx(u_oracle, abs=1e-9)


def test_to_symplectic_constant_shift():
    phi = fubini_study()
    xg = make_polytope_grid(P, 201, 0.01)
    u = to_symplectic(phi, P, xg)
    phi_shift = KahlerPotential(phi.rho, closed=ClosedForm(
        lambda r: np.asarray(phi.closed.value(r)) + 2.0, phi.closed.grad, phi.closed.hess))
    u_shift = to_symplectic(phi_shift, P, xg)
    np.testing.assert_allclose(u_shift.f_values, u.f_values - 2.0, atol=1e-11)


def test_to_kahler_canonical_gives_fs():
    u = product_potential(P)
    rho = np.linspace(-4.0, 4.0, 401)
    phi = to_kahler(u, rho)
    assert float(phi.value(np.asarray(0.0))) == pytest.approx(math.log(2), abs=1e-12)
    np.testing.assert_allclose(phi.values, np.logaddexp(0.0, rho), atol=1e-11)


def test_to_kahler_quadratic():
    f = ClosedForm(
        value=lambda x: np.asarray(x) ** 2 / 2.0 - guillemin_potential(P, np.asarray(x)),
        grad=lambda x: np.asarray(x) - (np.log(np.asarray(x)) - np.log1p(-np.asarray(x))),
        hess=lambda x: 1.0 - 1.0 / (np.asarray(x) * (1.0 - np.asarray(x))),
    )
    xg = make_polytope_grid(P, 201, 0.02)
    u = SymplecticPotential(P, xg, f_closed=f)
    rho = np.linspace(0.1, 0.9, 101)
    phi = to_kahler(u, rho)
    np.testing.assert_allclose(phi.values, rho ** 2 / 2.0, atol=1e-10)


def test_involution_perturbed_round_trip():
    u = product_potential(P, 0.1)
    phi = to_kahler(u, np.linspace(-6.0, 6.0, 801))
    xg = make_polytope_grid(P, 801, default_margin(64))
    u_back = to_symplectic(phi, P, xg)
    x = xg.axes[0][50:-50]
    np.testing.assert_allclose(np.asarray(u_back.value(x)), np.asarray(u.value(x)),
                               atol=1e-9)


def test_moment_map():
    phi = fubini_study()
    assert float(phi.grad(np.asarray(0.0))) == pytest.approx(0.5, abs=1e-14)
    assert float(phi.grad(np.asarray(-20.0))) < 1e-8
    phi_q = quad_phi()
    assert float(phi_q.grad(np.asarray(0.7))) == pytest.approx(0.7, abs=1e-14)


def test_gradient_and_hessian_duality_at_nodes():
    u = product_potential(P, 0.1)
    # fine grid: the value-spline second derivative carries O(h_grid^2) error
    phi = to_kahler(u, np.linspace(-2.4, 2.4, 1001))
    rho = phi.rho[100:-100:10]
    x = phi.grad_values[100:-100:10]
    # gradient duality at the solved pairs
    assert np.max(np.abs(np.asarray(u.grad(x)) - rho)) < 1e-6
    # Hessian duality through finite differences of the value evaluators
    h = 3e-4
    hess_phi = (np.asarray(phi.value(rho + h)) - 2 * np.asarray(phi.value(rho))
                + np.asarray(phi.value(rho - h))) / h**2
    hess_u = (np.asarray(u.value(x + h)) - 2 * np.asarray(u.value(x))
              + np.asarray(u.value(x - h))) / h**2
    assert np.max(np.abs(1.0 / hess_phi - hess_u)) < 1e-4


def test_abreu_delta_canonical_is_one():
    u = product_potential(P)
    xg = u.grid
    x = xg.axes[0]
    vals = np.asarray(abreu_delta(u, x))
    assert np.max(np.abs(vals - 1.0)) < 1e-4   # includes the margin nodes
    assert abreu_delta(u, 0.3) == pytest.approx(1.0, abs=1e-10)


def test_abreu_delta_sampled_potential_at_margin():
    # grid-sampled smooth part, evaluated down to ell = margin
    phi = fubini_study()
    xg = make_polytope_grid(P, 801, default_margin(64))
    u = to_symplectic(phi, P, xg)
    x = np.array([default_margin(64), 0.5, 1.0 - default_margin(64)])
    np.testing.assert_allclose(np.asarray(abreu_delta(u, x)), 1.0, atol=1e-4)


def test_abreu_delta_perturbed():
    u = product_potential(P, 0.1)
    assert abreu_delta(u, 0.5) == pytest.approx(1.0 / (3.8 * 0.25), rel=1e-10)


def test_abreu_delta_positive_everywhere():
    for a in (0.0, 0.1, -0.2):
        u = product_potential(P, a)
        assert np.min(np.asarray(abreu_delta(u, u.grid.axes[0]))) > 0


def test_convexity_rejected():
    rho = np.linspace(-1.0, 1.0, 51)
    with pytest.raises(ConvexityError, match="potential is not discretely convex at rho="):
        KahlerPotential(rho, values=-rho ** 2)
    xg = make_polytope_grid(P, 101, 0.01)
    with pytest.raises(ConvexityError):
        # f'' = -10 beats the canonical curvature (minimum 4) in the middle
        SymplecticPotential(P, xg, f_values=-5.0 * xg.axes[0] ** 2)


@pytest.mark.parametrize("rho", [np.linspace(-1.0, 1.0, 3), np.linspace(1.0, -1.0, 51),
                                 np.zeros((9, 2)), np.linspace(-1.0, 1.0, 50).reshape(5, 10)],
                         ids=["3-nodes", "decreasing", "constant-2d", "2d"])
def test_kahler_potential_takes_one_increasing_rho_axis(rho):
    with pytest.raises(ValueError, match="rho must be a strictly increasing 1D array"):
        KahlerPotential(rho, closed=fubini_study().closed)


def test_sampled_grid_outside_moment_image_rejected():
    rho = np.linspace(-2.0, 2.0, 101)
    phi = KahlerPotential(rho, values=np.logaddexp(0, rho))  # sampled only
    xg = make_polytope_grid(P, 101, 1e-3)   # wants x down to 1e-3, image stops at 0.119
    with pytest.raises(ValueError, match="moment image"):
        to_symplectic(phi, P, xg)


def test_to_kahler_rejects_dim_two_up_front(monkeypatch):
    # the square's canonical potential has closed-form derivatives, but the
    # one gradient inverter is one-dimensional: no bracket or Newton step runs
    def no_inversion(*args, **kwargs):
        raise AssertionError("an inversion ran")

    monkeypatch.setattr(potentials, "_x_bracket", no_inversion)
    monkeypatch.setattr(potentials, "_invert_monotone_1d", no_inversion)
    S = preset_polytope("square")
    u = product_potential(S, grid=make_polytope_grid(S, 33, 0.01))
    with pytest.raises(NotImplementedError, match="to_kahler in dim 2: .* only in dim 1"):
        to_kahler(u, np.linspace(-2.0, 2.0, 9))


def test_to_symplectic_rejects_dim_two_up_front():
    # the transform's smooth part would be sampled only, and sampled f has no
    # evaluator in dim 2: the square is refused before any inversion
    S = preset_polytope("square")
    with pytest.raises(NotImplementedError, match="to_symplectic in dim 2: .* only in dim 1"):
        to_symplectic(fubini_study(), S, make_polytope_grid(S, 9, 0.1))


def test_polytope_grid_margin_and_flags():
    S = preset_polytope("simplex2")
    g = make_polytope_grid(S, 21, 0.02)
    assert g.mask.any() and not g.mask.all()
    ell = S.ell(g.nodes())
    assert np.all(ell.min(axis=-1)[g.mask] >= 0.02 * (1 - 1e-9))
    assert g.mask is g.mask and not g.mask.flags.writeable
    assert default_margin(64) == pytest.approx(1.0 / 256.0)


def test_polytope_grid_nodes_and_u0_hessian_are_built_once(monkeypatch):
    # every SymplecticPotential on a grid shares its nodes and the u0 Hessian
    # at its in-mask nodes, each read-only and bitwise what it replaces
    calls = []
    hessian = potentials.guillemin_hessian
    monkeypatch.setattr(potentials, "guillemin_hessian",
                        lambda *a: calls.append(1) or hessian(*a))
    for name in ("interval", "square", "simplex2"):
        S = preset_polytope(name)
        g = make_polytope_grid(S, 21, 0.02)
        calls.clear()
        us = [product_potential(S, a, g) for a in (0.0, 0.01, 0.02)]
        nodes, hess = g.nodes(), g.u0_hess
        assert len(calls) == 1      # one per grid, however many potentials
        assert nodes is g.nodes() and hess is g.u0_hess
        assert not nodes.flags.writeable and not hess.flags.writeable
        assert np.array_equal(nodes, np.stack(np.meshgrid(*g.axes, indexing="ij"), axis=-1))
        pts = nodes[g.mask]
        assert hess.shape == (len(pts), S.dim, S.dim)
        assert np.array_equal(hess, hessian(S, pts))
        for u in us:
            assert np.array_equal(hess + potentials._closed_at(u.f_hess, pts, 2), u.hess(pts))
    # a non-convex f: the text of the potential's own Hessian's ConvexityError
    xg = make_polytope_grid(P, 101, 0.01)
    f = -5.0 * xg.axes[0] ** 2
    pts = xg.nodes()[xg.mask]
    with pytest.raises(ConvexityError) as expected:
        potentials._positive_det(SymplecticPotential(P, xg, f, check=False).hess(pts),
                                 "symplectic potential not strictly convex at x", pts)
    with pytest.raises(ConvexityError) as raised:
        SymplecticPotential(P, xg, f)
    assert str(raised.value) == str(expected.value)


def test_abreu_delta_reports_convexity_failure():
    xg = make_polytope_grid(P, 101, 0.01)
    from toricmaps.potentials import ConvexityError, SymplecticPotential
    bad = SymplecticPotential(P, xg, f_values=-5.0 * xg.axes[0] ** 2, check=False)
    with pytest.raises(ConvexityError):
        abreu_delta(bad, 0.5)


def test_newton_failure_names_the_worst_target(monkeypatch):
    # one iteration leaves most of a 2-D target array unconverged
    monkeypatch.setattr(potentials, "NEWTON_MAX_ITER", 1)
    u = product_potential(P, 0.1, make_polytope_grid(P, 201, 1e-3))
    targets = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    with pytest.raises(NewtonError) as info:
        _invert_monotone_1d(u.grad, u.hess, targets, 1e-3, 1.0 - 1e-3)
    index = info.value.index
    assert len(index) == 2 and 0 <= index[0] < 3 and 0 <= index[1] < 4
    assert f"target index {index}" in str(info.value)
    assert f"at target = {targets[index]:.6g}" in str(info.value)


def where_form_newton(grad_fn, hess_fn, t, lo, hi, s0):
    """A frozen copy of `_invert_monotone_1d`'s iteration, a fresh np.where
    array for every update: the kernel's iterates are pinned against it."""
    a, b = np.full(t.shape, lo), np.full(t.shape, hi)
    if s0 is None:
        s = 0.5 * (a + b)
    else:
        s = np.clip(np.broadcast_to(s0, t.shape).copy(), np.nextafter(lo, hi),
                    np.nextafter(hi, lo))
    err = np.asarray(grad_fn(s)) - t
    eps = np.finfo(float).eps
    done = np.zeros(t.shape, dtype=bool)
    for it in range(potentials.NEWTON_MAX_ITER):
        below = err <= 0
        a = np.where(below & ~done, s, a)
        b = np.where(below | done, b, s)
        done |= (np.abs(err) < potentials.NEWTON_TOL) | (
            b - a <= 4 * eps * np.maximum(np.abs(a), np.abs(b)))
        if done.all():
            return s
        with np.errstate(divide="ignore", invalid="ignore"):
            s_new = s - err / np.asarray(hess_fn(s))
        w = b - a
        if it % 2 == 0:
            fallback = np.clip(s_new, a + 0.01 * w, b - 0.01 * w)
            fallback = np.where(np.isfinite(fallback), fallback, 0.5 * (a + b))
        else:
            fallback = 0.5 * (a + b)
        bad = ~np.isfinite(s_new) | (s_new <= a) | (s_new >= b)
        s = np.where(done, s, np.where(bad, fallback, s_new))
        err = np.where(done, err, np.asarray(grad_fn(s)) - t)
    raise AssertionError("the oracle did not converge")


@pytest.mark.parametrize("s0", [None, 0.5])
def test_newton_is_bitwise_the_frozen_where_form(s0):
    # targets out to |rho| = 30, seeded at the midpoint (given, or the default
    # start that to_symplectic takes): steps that leave the bracket take the
    # clipped (even) and the bisection (odd) fallbacks, and the targets near
    # the facets end on the machine-width bracket
    u = product_potential(P, 0.1, make_polytope_grid(P, 201, 1e-3))
    targets = np.linspace(-30.0, 30.0, 240).reshape(3, 80)
    lo, hi = 1e-14, 1.0 - 1e-14
    got = _invert_monotone_1d(u.grad, u.hess, targets, lo, hi, s0=s0)
    np.testing.assert_array_equal(got, where_form_newton(u.grad, u.hess, targets, lo, hi, s0))


# -- one evaluator per potential: the closed form or splines of the samples --------

def random_points(lo, hi):
    return np.random.default_rng(11).uniform(lo, hi, size=(3, 40))


def test_sampled_symplectic_potential_is_its_splines_bitwise():
    from scipy.interpolate import CubicSpline
    xg = make_polytope_grid(P, 201, 0.01)
    x = xg.axes[0]
    u = SymplecticPotential(P, xg, f_values=0.1 * x * (1.0 - x) + 0.02 * np.sin(3.0 * x))
    spline = CubicSpline(x, u.f_values)
    pts = random_points(x[0], x[-1])
    assert np.array_equal(u.f_value(pts), spline(pts))
    assert np.array_equal(u.f_grad(pts), spline.derivative()(pts))
    assert np.array_equal(u.f_hess(pts), spline.derivative(2)(pts))


@pytest.mark.parametrize("with_grad", [False, True], ids=["values", "values-and-grad"])
def test_sampled_kahler_potential_is_its_splines_bitwise(with_grad):
    from scipy.interpolate import CubicSpline
    r = np.linspace(-3.0, 3.0, 121)
    grad_values = 1.0 / (1.0 + np.exp(-r)) if with_grad else None
    phi = KahlerPotential(r, np.logaddexp(0.0, r), grad_values)
    value = CubicSpline(r, phi.values)
    grad = CubicSpline(r, grad_values) if with_grad else value.derivative()
    pts = random_points(r[0], r[-1])
    assert np.array_equal(phi.value(pts), value(pts))
    assert np.array_equal(phi.grad(pts), grad(pts))
    assert np.array_equal(phi.hess(pts), grad.derivative()(pts))
    # the gradient samples, when given, are what the gradient reads
    assert np.array_equal(phi.grad(pts), value.derivative()(pts)) != with_grad


def product_ell_by_facets(Q, a):
    """a prod_r ell_r by its facet-axis reductions and normal products on any
    polytope: the formula the segment's plain-value form must round as."""
    from toricmaps.polytope import _as_given, _as_points
    keep_one, keep_two, outer = Q._other_facets

    def value(x):
        return a * np.multiply.reduce(Q.ell(_as_points(Q.dim, x, True)[0]), -1)

    def grad(x):
        pts, plain = _as_points(Q.dim, x, True)
        others = np.multiply.reduce(Q.ell(pts)[..., keep_one], -1)
        return _as_given(a * (others @ Q._normals_f), plain, 1)

    def hess(x):
        pts, plain = _as_points(Q.dim, x, True)
        others = np.multiply.reduce(Q.ell(pts)[..., keep_two], -1)
        return _as_given(a * (others @ outer).reshape(pts.shape + (Q.dim,)), plain, 2)

    return ClosedForm(value, grad, hess)


@pytest.mark.parametrize("name,points", [
    ("interval", lambda rng: np.linspace(0.0, 1.0, 801)),
    ("interval", lambda rng: rng.uniform(-0.5, 1.5, (7, 13))),
    ("interval", lambda rng: rng.uniform(0.0, 1.0, (5, 1))),
    ("interval", lambda rng: 0.5),
    ("interval", lambda rng: np.float64(0.3)),
    ("square", lambda rng: rng.uniform(0.0, 1.0, (7, 13, 2))),
    ("square", lambda rng: np.array([0.25, 0.75])),
])
@pytest.mark.parametrize("a", [0.1, np.float64(0.0731), -1.7, 0.0])
def test_product_ell_closed_is_bitwise_its_facet_formula(name, points, a):
    Q = preset_polytope(name)
    x = points(np.random.default_rng(3))
    form, reference = potentials._product_ell_closed(Q, a), product_ell_by_facets(Q, a)
    for method in ("value", "grad", "hess"):
        got, want = getattr(form, method)(x), getattr(reference, method)(x)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), method


# -- the block walker, and slice convexity of a family in its blocks --------------

@pytest.mark.parametrize("start,stop,size,budget,blocks", [
    # 2560 rows of 64 values in 2^16: 1024 rows each, the last block short
    (0, 2560, 64, 2 ** 16, [(0, 1024), (1024, 2048), (2048, 2560)]),
    (3, 10, 4, 8, [(3, 5), (5, 7), (7, 9), (9, 10)]),
    # a budget under one row still moves one row per block
    (0, 3, 100, 99, [(0, 1), (1, 2), (2, 3)]),
    (2, 4, 100, 0, [(2, 3), (3, 4)]),
    (0, 3, 100, 1000, [(0, 3)]),
    (5, 5, 10, 100, []),
    # rows of no values (an empty rho axis) count as one value each
    (0, 3, 0, 100, [(0, 3)]),
])
def test_blocks_are_budget_rows_covering_the_range(start, stop, size, budget, blocks):
    got = _blocks(start, stop, size, budget)
    assert [(s.start, s.stop) for s in got] == blocks
    assert [i for s in got for i in range(s.start, s.stop)] == list(range(start, stop))


def unblocked_convex_slices(xgrid, f):
    """The flags from one family-sized f'' buffer: the reference for the blocked
    `_convex_slices`."""
    x = xgrid.axes[0]
    h = x[1] - x[0]
    u0pp = guillemin_hessian(xgrid.polytope, x[:, None])[:, 0, 0]
    fpp = (f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]) / h**2
    return (((fpp + u0pp[1:-1]).min(axis=-1) > 0) & (u0pp[0] + fpp[..., 0] > 0)
            & (u0pp[-1] + fpp[..., -1] > 0))


@pytest.mark.parametrize("budget", [None, 3 * 101, 1], ids=["one-block", "12-blocks", "row-by-row"])
def test_convex_slices_blocked_flags_equal_the_unblocked(monkeypatch, budget):
    xg = make_polytope_grid(P, 101, 0.01)
    x = xg.axes[0]
    rng = np.random.default_rng(5)
    # c > 2 breaks convexity at the centre; a bump at x[1] breaks it at the edge
    c = rng.uniform(-3.0, 3.0, size=(5, 7))
    f = c[..., None] * x * (1.0 - x)
    f[..., 1] += rng.uniform(0.0, 0.005, size=(5, 7))
    if budget is not None:
        monkeypatch.setattr(potentials, "LSE_BLOCK", budget)
    flags = _convex_slices(xg, f)
    expected = unblocked_convex_slices(xg, f)
    assert flags.shape == (5, 7) and flags.dtype == bool
    assert np.array_equal(flags, expected)
    assert 0 < flags.sum() < flags.size
    assert not np.array_equal(flags, c <= 2.0)  # some slices fail at the edge only


def test_convex_slices_peak_memory_is_a_few_blocks():
    # the bench disc's family shape: 10 x 256 slices of 801 x nodes (16.4 MB)
    xg = make_polytope_grid(P, 801, default_margin(32))
    x = xg.axes[0]
    f = np.broadcast_to(0.05 * x * (1.0 - x), (10, 256, x.size)).copy()
    tracemalloc.start()
    try:
        flags = _convex_slices(xg, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert flags.all()
    # one f'' buffer of at most LSE_BLOCK doubles (measured: 0.6 MB in all)
    # and small change, not the 16.4 MB family-sized one
    assert peak <= 8 * potentials.LSE_BLOCK + 256 * 1024
