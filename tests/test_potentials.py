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
                                  load_potential, make_polytope_grid,
                                  fubini_study, make_radial_grid,
                                  product_potential, save_potential, to_kahler,
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
    u_shift = to_symplectic(phi.shift(2.0), P, xg)
    np.testing.assert_allclose(u_shift.f_values, u.f_values - 2.0, atol=1e-11)


def test_to_kahler_canonical_gives_fs():
    u = product_potential(P)
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
    u = product_potential(P, 0.1)
    grid = make_radial_grid([-6.0], [6.0], [801])
    phi = to_kahler(u, grid)
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
    u = product_potential(S, grid=make_polytope_grid(S, 33, 0.01))
    grid = make_radial_grid([-2.0, -2.0], [2.0, 2.0], [9, 9])
    phi = to_kahler(u, grid)
    nodes = grid.nodes()
    expected = np.logaddexp(0, nodes[..., 0]) + np.logaddexp(0, nodes[..., 1])
    np.testing.assert_allclose(phi.values, expected, atol=1e-10)


def test_to_symplectic_rejects_dim_two_up_front():
    # the square's Fubini-Study product potential has closed-form derivatives,
    # but the transform's smooth part would be sampled only, and sampled f has
    # no evaluator in dim 2
    S = preset_polytope("square")
    grid = make_radial_grid([-2.0, -2.0], [2.0, 2.0], [9, 9])
    phi = KahlerPotential(grid, closed=ClosedForm(
        value=lambda r: np.logaddexp(0, r).sum(axis=-1),
        grad=lambda r: 1.0 / (1.0 + np.exp(-r)),
        hess=lambda r: np.einsum("...i,ij->...ij", np.exp(-r) / (1.0 + np.exp(-r)) ** 2,
                                 np.eye(2))))
    with pytest.raises(NotImplementedError, match="to_symplectic in dim 2: .* only in dim 1"):
        to_symplectic(phi, S, make_polytope_grid(S, 9, 0.1))


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
    u = product_potential(P, 0.05, make_polytope_grid(P, 101, 0.01))
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


def test_text_loader_skips_blank_lines_and_names_a_bad_line(tmp_path):
    u = product_potential(P, 0.05, make_polytope_grid(P, 21, 0.01))
    path = tmp_path / "u.txt"
    save_potential(u, path)
    text = path.read_text()
    lines = text.splitlines()
    # an appended newline, and blank lines between and inside blocks
    blanks = tmp_path / "blanks.txt"
    blanks.write_text("\n" + "\n".join(lines[:3] + ["", "  "] + lines[3:6] + [""] + lines[6:])
                      + "\n\n")
    appended = tmp_path / "appended.txt"
    appended.write_text(text + "\n")
    for p in (appended, blanks):
        back = load_potential(p)
        np.testing.assert_array_equal(back.f_values, u.f_values)
        np.testing.assert_array_equal(back.grid.axes[0], u.grid.axes[0])
    # a value that is no number, a truncated block, an unknown line
    value_at = lines.index("values shape 21") + 3
    for bad, lineno, match in (
            (lines[:value_at] + ["0.1x"] + lines[value_at + 1:], value_at + 1, "0.1x"),
            (lines[:-1], lines.index("values shape 21") + 1, "ends after 20 of 21"),
            (lines + ["extra stuff"], len(lines) + 1, "unrecognized")):
        p = tmp_path / "bad.txt"
        p.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match=rf"bad\.txt, line {lineno}: .*{match}"):
            load_potential(p)
    # a file cut before its values block
    p.write_text("\n".join(lines[:lines.index("values shape 21")]) + "\n")
    with pytest.raises(ValueError, match=r"bad\.txt: no values block"):
        load_potential(p)


def test_symplectic_file_has_no_grad_block_and_old_files_still_load(tmp_path):
    u = to_symplectic(fubini_study(make_radial_grid([-6.0], [6.0], [121])), P,
                      make_polytope_grid(P, 101, 0.01))
    path = tmp_path / "u.txt"
    save_potential(u, path)
    text = path.read_text()
    assert "values shape 101" in text.splitlines()
    assert not any(line.startswith("grad ") for line in text.splitlines())
    # the older format followed f with a block of the gradient samples rho = u'(x)
    old = tmp_path / "old.txt"
    rho = u.grad(u.grid.axes[0])
    old.write_text(text + "grad shape 101 1\n" + "".join(f"{float(v)!r}\n" for v in rho))
    back = load_potential(old)
    assert np.array_equal(back.f_values, u.f_values)


def test_save_rejects_a_two_dimensional_symplectic_potential_before_writing(tmp_path):
    # reloaded, its f would be sampled, and sampled f has no evaluator in dim 2
    S = preset_polytope("square")
    u = product_potential(S, 0.1, make_polytope_grid(S, 9, 0.1))
    path = tmp_path / "u.txt"
    with pytest.raises(NotImplementedError, match="in dim 2: .* for dim 1"):
        save_potential(u, path)
    assert not path.exists()


def test_abreu_delta_reports_convexity_failure():
    xg = make_polytope_grid(P, 101, 0.01)
    from toricmaps.potentials import ConvexityError, SymplecticPotential
    bad = SymplecticPotential(P, xg, f_values=-5.0 * xg.axes[0] ** 2, check=False)
    with pytest.raises(ConvexityError):
        abreu_delta(bad, 0.5)


def test_newton_failure_names_the_worst_target():
    # max_iter=1 leaves most of a 2-D target array unconverged
    u = product_potential(P, 0.1, make_polytope_grid(P, 201, 1e-3))
    targets = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    with pytest.raises(NewtonError) as info:
        _invert_monotone_1d(u.grad, u.hess, targets, 1e-3, 1.0 - 1e-3, max_iter=1)
    index = info.value.index
    assert len(index) == 2 and 0 <= index[0] < 3 and 0 <= index[1] < 4
    assert f"target index {index}" in str(info.value)
    assert f"at target = {targets[index]:.6g}" in str(info.value)


def where_form_newton(grad_fn, hess_fn, t, lo, hi, s0):
    """`_invert_monotone_1d` with a fresh np.where array for every update, the
    oracle of the in-place iteration: same operations, same order."""
    a, b = np.full(t.shape, lo), np.full(t.shape, hi)
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


def test_newton_in_place_is_bitwise_the_where_form():
    # targets out to |rho| = 30, seeded at the midpoint: steps that leave the
    # bracket take the clipped (even) and the bisection (odd) fallbacks, and
    # the targets near the facets end on the machine-width bracket
    u = product_potential(P, 0.1, make_polytope_grid(P, 201, 1e-3))
    targets = np.linspace(-30.0, 30.0, 240).reshape(3, 80)
    lo, hi = 1e-14, 1.0 - 1e-14
    got = _invert_monotone_1d(u.grad, u.hess, targets, lo, hi, s0=0.5)
    np.testing.assert_array_equal(got, where_form_newton(u.grad, u.hess, targets, lo, hi, 0.5))


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
    grid = make_radial_grid([-3.0], [3.0], [121])
    r = grid.axes[0]
    grad_values = 1.0 / (1.0 + np.exp(-r[:, None])) if with_grad else None
    phi = KahlerPotential(grid, np.logaddexp(0.0, r), grad_values)
    value = CubicSpline(r, phi.values)
    grad = CubicSpline(r, grad_values[:, 0]) if with_grad else value.derivative()
    pts = random_points(r[0], r[-1])
    assert np.array_equal(phi.value(pts), value(pts))
    assert np.array_equal(phi.grad(pts), grad(pts))
    assert np.array_equal(phi.hess(pts), grad.derivative()(pts))
    # the gradient samples, when given, are what the gradient reads
    assert np.array_equal(phi.grad(pts), value.derivative()(pts)) != with_grad


def test_shift_of_a_closed_potential_moves_only_the_value():
    c = 0.37
    rho = random_points(-5.0, 5.0)
    phi = fubini_study(make_radial_grid([-6.0], [6.0], [121]))
    shifted = phi.shift(c)
    assert shifted.closed is not None
    assert np.array_equal(shifted.values, phi.values + c)
    assert np.array_equal(shifted.value(rho), np.asarray(phi.value(rho)) + c)
    assert np.array_equal(shifted.grad(rho), phi.grad(rho))
    assert np.array_equal(shifted.hess(rho), phi.hess(rho))
    u = product_potential(P, 0.1, make_polytope_grid(P, 101, 0.01))
    u_shifted = u.shift(c)
    x = random_points(0.01, 0.99)
    assert u_shifted.f_closed is not None
    assert np.array_equal(u_shifted.f_value(x), u.f_value(x) + c)
    assert np.array_equal(u_shifted.f_grad(x), u.f_grad(x))
    assert np.array_equal(u_shifted.f_hess(x), u.f_hess(x))
    np.testing.assert_allclose(u_shifted.value(x), u.value(x) + c, rtol=0, atol=1e-15)


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
