import math

import numpy as np
import pytest

from toricmaps.polytope import preset_polytope
from toricmaps.potentials import (ClosedForm, ConvexityError, KahlerPotential,
                                  NewtonError, SymplecticPotential,
                                  _invert_monotone_1d, abreu_delta,
                                  default_margin, guillemin_potential,
                                  load_potential, make_polytope_grid,
                                  make_radial_grid, preset_kahler,
                                  preset_symplectic, save_potential, to_kahler,
                                  to_symplectic)

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
    grid = make_radial_grid([0.05], [0.95], [201])
    closed = ClosedForm(value=lambda r: np.asarray(r, dtype=float) ** 2 / 2.0,
                        grad=lambda r: np.asarray(r, dtype=float),
                        hess=lambda r: np.ones_like(np.asarray(r, dtype=float)))
    return KahlerPotential(grid, closed=closed)


def test_to_symplectic_self_dual_quadratic():
    phi = quad_phi()
    xg = make_polytope_grid(P, 101, 0.06)
    u = to_symplectic(phi, P, xg)
    # between nodes the sampled smooth part carries cubic-spline error
    assert float(u.value(np.asarray(0.3))) == pytest.approx(0.045, abs=1e-8)
    x = xg.axes[0]
    np.testing.assert_allclose(np.asarray(u.value(x)), x**2 / 2.0, atol=1e-10)


def test_to_symplectic_fs_gives_canonical():
    phi = preset_kahler("fubini-study")
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
    phi = preset_kahler("fubini-study")
    xg = make_polytope_grid(P, 201, 0.01)
    u = to_symplectic(phi, P, xg)
    u_shift = to_symplectic(phi.shift(2.0), P, xg)
    np.testing.assert_allclose(u_shift.f_values, u.f_values - 2.0, atol=1e-11)


def test_to_kahler_canonical_gives_fs():
    u = preset_symplectic("guillemin", P)
    grid = make_radial_grid([-4.0], [4.0], [401])
    phi = to_kahler(u, grid)
    assert float(phi.value(np.asarray(0.0))) == pytest.approx(math.log(2), abs=1e-12)
    rho = grid.axes[0]
    np.testing.assert_allclose(phi.values, np.logaddexp(0.0, rho), atol=1e-11)


def test_to_kahler_quadratic():
    f = ClosedForm(
        value=lambda x: np.asarray(x) ** 2 / 2.0 - guillemin_potential(P, np.asarray(x)),
        grad=lambda x: np.asarray(x) - (np.log(np.asarray(x)) - np.log1p(-np.asarray(x))),
        hess=lambda x: 1.0 - 1.0 / (np.asarray(x) * (1.0 - np.asarray(x))),
    )
    xg = make_polytope_grid(P, 201, 0.02)
    u = SymplecticPotential(P, xg, f_closed=f)
    grid = make_radial_grid([0.1], [0.9], [101])
    phi = to_kahler(u, grid)
    np.testing.assert_allclose(phi.values, grid.axes[0] ** 2 / 2.0, atol=1e-10)


def test_involution_perturbed_round_trip():
    u = preset_symplectic("perturbed(0.1)", P)
    grid = make_radial_grid([-6.0], [6.0], [801])
    phi = to_kahler(u, grid)
    xg = make_polytope_grid(P, 801, default_margin(64))
    u_back = to_symplectic(phi, P, xg)
    x = xg.axes[0][50:-50]
    np.testing.assert_allclose(np.asarray(u_back.value(x)), np.asarray(u.value(x)),
                               atol=1e-9)


def test_moment_map():
    phi = preset_kahler("fubini-study")
    assert float(phi.grad(np.asarray(0.0))) == pytest.approx(0.5, abs=1e-14)
    assert float(phi.grad(np.asarray(-20.0))) < 1e-8
    phi_q = quad_phi()
    assert float(phi_q.grad(np.asarray(0.7))) == pytest.approx(0.7, abs=1e-14)


def test_gradient_and_hessian_duality_at_nodes():
    u = preset_symplectic("perturbed(0.1)", P)
    # fine grid: the value-spline second derivative carries O(h_grid^2) error
    grid = make_radial_grid([-2.4], [2.4], [1001])
    phi = to_kahler(u, grid)
    rho = grid.axes[0][100:-100:10]
    x = phi.grad_values[100:-100:10, 0]
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
    u = preset_symplectic("guillemin", P)
    xg = u.grid
    x = xg.axes[0]
    vals = np.asarray(abreu_delta(u, x))
    assert np.max(np.abs(vals - 1.0)) < 1e-4   # includes the margin nodes
    assert abreu_delta(u, 0.3) == pytest.approx(1.0, abs=1e-10)


def test_abreu_delta_sampled_potential_at_margin():
    # grid-sampled smooth part, evaluated down to ell = margin
    phi = preset_kahler("fubini-study")
    xg = make_polytope_grid(P, 801, default_margin(64))
    u = to_symplectic(phi, P, xg)
    x = np.array([default_margin(64), 0.5, 1.0 - default_margin(64)])
    np.testing.assert_allclose(np.asarray(abreu_delta(u, x)), 1.0, atol=1e-4)


def test_abreu_delta_perturbed():
    u = preset_symplectic("perturbed(0.1)", P)
    assert abreu_delta(u, 0.5) == pytest.approx(1.0 / (3.8 * 0.25), rel=1e-10)


def test_abreu_delta_positive_everywhere():
    for name in ("guillemin", "perturbed(0.1)", "perturbed(-0.2)"):
        u = preset_symplectic(name, P)
        assert np.min(np.asarray(abreu_delta(u, u.grid.axes[0]))) > 0


def test_convexity_rejected():
    grid = make_radial_grid([-1.0], [1.0], [51])
    with pytest.raises(ConvexityError):
        KahlerPotential(grid, values=-grid.axes[0] ** 2)
    xg = make_polytope_grid(P, 101, 0.01)
    with pytest.raises(ConvexityError):
        # f'' = -10 beats the canonical curvature (minimum 4) in the middle
        SymplecticPotential(P, xg, f_values=-5.0 * xg.axes[0] ** 2)


def test_sampled_grid_outside_moment_image_rejected():
    grid = make_radial_grid([-2.0], [2.0], [101])
    phi = KahlerPotential(grid, values=np.logaddexp(0, grid.axes[0]))  # sampled only
    xg = make_polytope_grid(P, 101, 1e-3)   # wants x down to 1e-3, image stops at 0.119
    with pytest.raises(ValueError, match="moment image"):
        to_symplectic(phi, P, xg)


def test_square_canonical_splits():
    # canonical potential of the square transforms to the product of
    # one-dimensional standard potentials
    S = preset_polytope("square")
    u = preset_symplectic("guillemin", S, make_polytope_grid(S, 33, 0.01))
    grid = make_radial_grid([-2.0, -2.0], [2.0, 2.0], [9, 9])
    phi = to_kahler(u, grid)
    nodes = grid.nodes()
    expected = np.logaddexp(0, nodes[..., 0]) + np.logaddexp(0, nodes[..., 1])
    np.testing.assert_allclose(phi.values, expected, atol=1e-10)


def test_polytope_grid_margin_and_flags():
    S = preset_polytope("simplex2")
    g = make_polytope_grid(S, 21, 0.02)
    assert g.mask.any() and not g.mask.all()
    ell = S.ell(g.nodes())
    assert np.all(ell.min(axis=-1)[g.mask] >= 0.02 * (1 - 1e-9))
    # boundary-adjacent nodes are valid nodes next to the outside
    assert np.all(g.mask[g.boundary_adjacent])
    assert g.mask is g.mask and not g.mask.flags.writeable
    assert default_margin(64) == pytest.approx(1.0 / 256.0)


def test_serialization_round_trip(tmp_path):
    u = preset_symplectic("perturbed(0.05)", P, make_polytope_grid(P, 101, 0.01))
    path = tmp_path / "u.txt"
    save_potential(u, path)
    back = load_potential(path)
    assert np.array_equal(back.f_values, u.f_values)
    assert np.array_equal(back.grid.axes[0], u.grid.axes[0])
    grid = make_radial_grid([-1.0], [1.0], [51])
    phi = to_kahler(u, grid)
    path2 = tmp_path / "phi.txt"
    save_potential(phi, path2)
    back2 = load_potential(path2)
    assert np.array_equal(back2.values, phi.values)
    assert np.array_equal(back2.grad_values, phi.grad_values)


def test_abreu_delta_reports_convexity_failure():
    xg = make_polytope_grid(P, 101, 0.01)
    from toricmaps.potentials import ConvexityError, SymplecticPotential
    bad = SymplecticPotential(P, xg, f_values=-5.0 * xg.axes[0] ** 2, check=False)
    with pytest.raises(ConvexityError):
        abreu_delta(bad, 0.5)


def test_newton_failure_names_the_worst_target():
    # max_iter=1 leaves most of a 2-D target array unconverged
    u = preset_symplectic("perturbed(0.1)", P, make_polytope_grid(P, 201, 1e-3))
    targets = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    with pytest.raises(NewtonError) as info:
        _invert_monotone_1d(u.grad, u.hess, targets, 1e-3, 1.0 - 1e-3, max_iter=1)
    index = info.value.index
    assert len(index) == 2 and 0 <= index[0] < 3 and 0 <= index[1] < 4
    assert f"target index {index}" in str(info.value)
    assert f"at target = {targets[index]:.6g}" in str(info.value)
