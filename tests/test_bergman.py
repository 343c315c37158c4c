import decimal
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from toricmaps import bergman
from toricmaps.bergman import (BergmanFamily, NormingTable, QuadratureError,
                               bargmann_fock_peak, harmonic_norming, delta_k,
                               load_norming_table, localization_gap,
                               log_normalized_monomial, normalized_monomial,
                               norming_constants, peak_asymptotics_check,
                               peak_value, ratio_report, save_norming_table,
                               szego_sum)
from toricmaps.dirichlet import make_disc, make_interval, make_rectangle
from toricmaps.polytope import lattice_points, near_facets, preset_polytope
from toricmaps.potentials import (ClosedForm, KahlerPotential, _closed_at, _positive_det,
                                  default_margin, fubini_study, make_polytope_grid,
                                  make_radial_grid, product_potential, to_kahler)

P = preset_polytope("interval")
XG = make_polytope_grid(P, 801, default_margin(64))
U0 = product_potential(P, grid=XG)
PHI_FS = fubini_study(make_radial_grid([-6.0], [6.0], [601]))


@pytest.fixture(scope="module")
def table_k2():
    return norming_constants(U0, 2)


@pytest.mark.parametrize("k", [np.float64(4.0), True, 2.5])
def test_norming_constants_take_integer_levels_only(k):
    with pytest.raises(TypeError, match="^level k must be an integer, got "):
        norming_constants(U0, k)


@pytest.mark.parametrize("k", [4.0, 2.5, True])
def test_norming_constants_check_the_level_with_alphas_given(monkeypatch, k):
    # given alphas, no lattice is enumerated: k is checked before any quadrature
    def no_quadrature(*args):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(bergman, "_log_q_quadrature", no_quadrature)
    with pytest.raises(TypeError, match=f"^level k must be an integer, got {k!r}$"):
        norming_constants(U0, k, alphas=[[0], [1], [2]])


@pytest.mark.parametrize("name,k,alpha", [("interval", 4, [5]), ("interval", 4, [-1]),
                                          ("square", 1, [2, 0])],
                         ids=["interval-5", "interval--1", "square-2,0"])
def test_norming_constants_reject_alphas_outside_kP(monkeypatch, name, k, alpha):
    # the norming integral of a monomial outside kP diverges at a facet, so
    # the alpha is named before any quadrature runs
    def no_quadrature(*args):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(bergman, "_log_q_quadrature", no_quadrature)
    Q = preset_polytope(name)
    u = product_potential(Q, 0.05, XG if name == "interval" else make_polytope_grid(Q, 9, 0.05))
    with pytest.raises(ValueError, match=rf"^alpha = {re.escape(str(tuple(alpha)))} is not a "
                       rf"lattice point of kP at level k = {k}$"):
        norming_constants(u, k, alphas=[[0] * len(alpha), alpha])


def beta_oracle(alpha: int, k: int) -> float:
    """Independent quadrature of int_0^inf t^alpha (1+t)^(-k-2) dt = B(alpha+1, k+1-alpha)."""
    val, err = quad(lambda t: t**alpha * (1 + t) ** (-k - 2), 0, np.inf)
    assert err < 1e-12
    return val


@pytest.mark.parametrize("k,alpha", [(1, 0), (2, 1), (3, 2), (5, 5), (8, 3)])
def test_norming_matches_independent_quadrature(k, alpha):
    table = norming_constants(U0, k)
    oracle = beta_oracle(alpha, k)
    assert math.exp(table.log_q_of([alpha])) == pytest.approx(oracle, rel=1e-9)
    # and the closed Beta form agrees with the quadrature oracle
    closed = math.exp(math.lgamma(alpha + 1) + math.lgamma(k - alpha + 1)
                      - math.lgamma(k + 2))
    assert oracle == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("c", [0.05, 0.1, 0.3])
@pytest.mark.parametrize("k", [8, 32])
def test_norming_matches_the_exact_integral_of_the_product_family(c, k):
    # u = u0 + c x(1-x): the integrand of Q_k(alpha) is exactly
    # x^alpha (1-x)^(k-alpha) exp(c (alpha (1-2x) + k x^2)), peaked at x = alpha/k
    table = norming_constants(product_potential(P, c, XG), k)
    for alpha, log_q in zip(table.alphas[:, 0], table.log_q):
        val, _ = quad(lambda x: x**alpha * (1 - x) ** (k - alpha)
                      * math.exp(c * (alpha * (1 - 2 * x) + k * x * x)),
                      0, 1, points=[alpha / k], epsabs=0, epsrel=1e-13, limit=200)
        assert abs(math.log(val) - log_q) <= 1e-12, (c, k, alpha)


def test_norming_k2_values(table_k2):
    np.testing.assert_allclose(np.exp(table_k2.log_q), [1 / 3, 1 / 6, 1 / 3],
                               rtol=1e-10)


def test_vertex_monomials_finite_any_metric():
    u = product_potential(P, 0.1, XG)
    t = norming_constants(u, 1)
    assert np.all(np.isfinite(t.log_q)) and np.all(np.exp(t.log_q) > 0)


def test_constant_shift_scales_norming():
    u = product_potential(P, 0.1, XG)
    k = 5
    base = norming_constants(u, k)
    shifted = norming_constants(u.shift(0.37), k)
    np.testing.assert_allclose(shifted.log_q, base.log_q + k * 0.37, atol=1e-10)


def test_quadrature_validation_reports_alpha(monkeypatch):
    # doubling moves this table by 3.6e-15 at every panel count, so a
    # tolerance below that fails every try and exercises the validator
    monkeypatch.setattr(bergman, "CHECK_TOL", 1e-16)
    u = product_potential(P, 0.1, XG)
    with pytest.raises(QuadratureError, match="panel"):
        norming_constants(u, 32)


@pytest.mark.parametrize("k", [8, 16, 32, 64, 128, 256])
@pytest.mark.parametrize("a", [0.0, 0.1, 0.3],
                         ids=["guillemin", "perturbed(0.1)", "perturbed(0.3)"])
def test_right_sized_panels_match_the_8k_rule(a, k):
    u = product_potential(P, a, XG)
    table = norming_constants(u, k)
    # the doubled rule of the 8k-panel cap
    reference = bergman._log_q_quadrature(u, k, table.alphas, 16 * k)
    np.testing.assert_allclose(table.log_q, reference, rtol=0, atol=1e-12)
    # the sqrt(k)-sized start already passes the doubling validation
    start = max(4, math.ceil(2 * math.sqrt(k)))
    assert f"panels={start}x2 " in table.provenance


def allocating_quadrature(u, k, alphas, n_panels):
    """The norming quadrature with a fresh array for every step, the oracle of
    the in-place kernel: same operations, same order."""
    pts, w, u0, grad_u0 = bergman._quad_rule(u.polytope, n_panels)
    grad = grad_u0 + _closed_at(u.f_grad, pts, 1)
    expo = k * (u0 + _closed_at(u.f_value, pts))
    for i in range(u.polytope.dim):
        expo = expo + (alphas[:, [i]] - k * pts[:, i]) * grad[:, i]
    peak = np.max(expo, axis=1, keepdims=True)
    return peak[:, 0] + np.log(np.sum(np.exp(expo - peak) * w[None, :], axis=1))


@pytest.mark.parametrize("name,a,k,n_panels", [
    ("interval", 0.1, 8, 6), ("interval", 0.1, 64, 16), ("interval", 0.3, 256, 64),
    ("square", 0.05, 4, 8),
])
def test_norming_quadrature_is_bitwise_the_allocating_formula(name, a, k, n_panels):
    # the square (m = 2) accumulates its pairing through the second buffer
    Q = preset_polytope(name)
    u = product_potential(Q, a, XG if name == "interval" else make_polytope_grid(Q, 9, 0.05))
    alphas = lattice_points(Q, k)
    got = bergman._log_q_quadrature(u, k, alphas, n_panels)
    expected = allocating_quadrature(u, k, alphas, n_panels)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_square_tables_are_products_of_two_beta_values(k):
    # u0 of the square is the sum of two interval ones, so every norming
    # integral is the product of two one-dimensional Beta values
    S = preset_polytope("square")
    u = product_potential(S, grid=make_polytope_grid(S, 9, 0.05))
    table = norming_constants(u, k)
    exact = [sum(math.lgamma(a + 1) + math.lgamma(k - a + 1) - math.lgamma(k + 2) for a in alpha)
             for alpha in table.alphas.tolist()]
    assert table.count == (k + 1) ** 2
    np.testing.assert_allclose(np.exp(table.log_q), np.exp(exact), rtol=1e-12, atol=0)


def test_simplex_tables_fail_panel_doubling_by_name():
    # the masked tensor rule integrates an integrand cut off at the diagonal
    # facet, so doubling cannot converge: a known limit of the masked rule
    S = preset_polytope("simplex2")
    u = product_potential(S, grid=make_polytope_grid(S, 9, 0.05))
    with pytest.raises(QuadratureError, match=r"^panel doubling 16 -> 32 panels moved"):
        norming_constants(u, 2)


def test_right_sizing_doubles_to_the_cap_then_raises(monkeypatch):
    panels = []
    quadrature = bergman._log_q_quadrature

    def counted(u, k, alphas, n_panels):
        panels.append(n_panels)
        return quadrature(u, k, alphas, n_panels)

    monkeypatch.setattr(bergman, "_log_q_quadrature", counted)
    monkeypatch.setattr(bergman, "CHECK_TOL", 1e-16)
    u = product_potential(P, 0.1, XG)
    with pytest.raises(QuadratureError, match=r"64 -> 128 panels.*\(\(\d+,\)"):
        norming_constants(u, 8)
    # start 6, doubling (each doubled rule reused as the next coarse one), cap 64
    assert panels == [6, 12, 24, 48, 96, 64, 128]


def test_normalized_monomial_value(table_k2):
    val = normalized_monomial(table_k2, PHI_FS, [1], np.asarray(0.0))
    assert float(val) == pytest.approx(1.5, rel=1e-10)
    assert np.all(normalized_monomial(table_k2, PHI_FS, [1],
                                      np.linspace(-3, 3, 11)) > 0)


def test_normalized_monomial_scaling(table_k2):
    doubled = NormingTable(level=2, alphas=table_k2.alphas,
                           log_q=table_k2.log_q + math.log(2))
    a = normalized_monomial(table_k2, PHI_FS, [1], np.asarray(0.3))
    b = normalized_monomial(doubled, PHI_FS, [1], np.asarray(0.3))
    assert b == pytest.approx(a / 2, rel=1e-12)


def test_peak_value_duality_and_brute_force(table_k2):
    # duality route
    assert peak_value(table_k2, U0, [1]) == pytest.approx(1.5, rel=1e-10)
    # independent oracle: brute-force maximization over a fine rho grid
    rho = np.linspace(-8, 8, 20001)
    vals = normalized_monomial(table_k2, PHI_FS, [1], rho)
    assert float(np.max(vals)) == pytest.approx(1.5, rel=1e-6)
    # the grid argmax sits at the moment-map preimage of alpha/k
    rho_star = float(np.asarray(U0.grad(np.asarray(0.5))))
    assert abs(rho[np.argmax(vals)] - rho_star) <= rho[1] - rho[0]


def test_peak_value_rejects_boundary(table_k2):
    with pytest.raises(ValueError):
        peak_value(table_k2, U0, [0])
    with pytest.raises(ValueError):
        peak_value(table_k2, U0, [2])


def test_duality_identity_direct(table_k2):
    # log Q + log P = k u(alpha/k) with P evaluated directly at grad u(alpha/k)
    rho_star = float(np.asarray(U0.grad(np.asarray(0.5))))
    log_p = log_normalized_monomial(table_k2, PHI_FS, [1], np.asarray(rho_star))
    lhs = table_k2.log_q_of([1]) + float(log_p)
    assert lhs == pytest.approx(2 * float(U0.value(np.asarray(0.5))), abs=1e-10)


def test_bargmann_fock_values():
    assert bargmann_fock_peak(5, 0) == pytest.approx(5.0, rel=1e-14)
    assert bargmann_fock_peak(5, 1) == pytest.approx(5 / math.e, rel=1e-14)
    stirling = 5 / math.sqrt(2 * math.pi * 400)
    assert bargmann_fock_peak(5, 400) == pytest.approx(stirling, rel=1e-3)
    with pytest.raises(ValueError):
        bargmann_fock_peak(0, 1)
    with pytest.raises(ValueError):
        bargmann_fock_peak(3, -1)


def test_bargmann_fock_peak_is_the_log_gamma_formula():
    from scipy.special import gammaln
    alpha = np.array([0.0, 0.5, 1.0, 3.0, 17.25, 100.0, 400.0, 1e4])
    k = 7
    term = np.where(alpha > 0, alpha * np.log(np.where(alpha > 0, alpha, 1.0)), 0.0)
    expected = np.exp(math.log(k) - alpha + term - gammaln(alpha + 1.0))
    got = bargmann_fock_peak(k, alpha)
    # from STIRLING_FROM on the value is the Stirling series, which the
    # decimal oracle below checks; this formula's own rounding is larger there
    small = alpha < bergman.STIRLING_FROM
    np.testing.assert_allclose(got[small], expected[small], rtol=1e-14, atol=0)
    # math.lgamma and gammaln may differ by one ulp of log Gamma(alpha + 1),
    # which the cancellation against alpha log alpha turns into a relative error
    ulp = np.spacing(gammaln(alpha + 1.0))
    assert np.all(np.abs(np.log(got) - np.log(expected))[small] <= ulp[small] + 1e-15)
    assert isinstance(bargmann_fock_peak(k, 3), float)
    assert bargmann_fock_peak(k, np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("alpha", [50, 100, 400, 2000, 10000])
def test_bargmann_fock_peak_is_exact_to_4_ulp(alpha):
    # k e^{-alpha} alpha^alpha / alpha! in 50-digit decimal arithmetic
    k = 7
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a = decimal.Decimal(alpha)
        exact = float((decimal.Decimal(k).ln() - a + a * a.ln()
                       - decimal.Decimal(math.factorial(alpha)).ln()).exp())
    got = bargmann_fock_peak(k, alpha)
    assert abs(got - exact) <= 4 * np.spacing(exact)
    assert bargmann_fock_peak(k, np.array([3.0, alpha]))[1] == got


@pytest.mark.parametrize("n", range(1, 41))
def test_legendre_rule_is_gauss(n):
    # the interval's rule of n panels, each a Gauss rule of GAUSS_ORDER nodes
    from scipy.special import roots_legendre
    order = bergman.GAUSS_ORDER
    x, w, *_ = bergman._quad_rule(preset_polytope("interval"), n)
    x = x[:, 0]
    # exact on every x^j, j <= 2 order - 1: the moments of [0, 1]
    for j in range(2 * order):
        assert abs(float(np.sum(w * x**j)) - 1.0 / (j + 1)) <= 1e-14
    xs, ws = roots_legendre(order)
    edges = np.linspace(0.0, 1.0, n + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    np.testing.assert_allclose(x, (mid[:, None] + half[:, None] * xs).ravel(), rtol=0, atol=1e-14)
    np.testing.assert_allclose(w, (half[:, None] * ws).ravel(), rtol=0, atol=1e-14)
    assert not x.flags.writeable and not w.flags.writeable


def test_szego_sum_small_levels():
    # fit the constant on k in {2,4,8}: k|sum-1| = 1 for the standard metric
    cs = []
    for k in (2, 4, 8):
        t = norming_constants(U0, k)
        dev = abs(szego_sum(t, PHI_FS, np.asarray(0.0)) - 1.0)
        cs.append(k * dev)
    c = max(cs)
    assert c == pytest.approx(1.0, rel=1e-10)
    for k in (16, 32):
        t = norming_constants(U0, k)
        dev = abs(szego_sum(t, PHI_FS, np.asarray(0.0)) - 1.0)
        assert dev <= 1.1 * c / k


def test_szego_shift_invariance():
    u = product_potential(P, 0.1, XG)
    k = 8
    grid = make_radial_grid([-4.0], [4.0], [401])
    phi = to_kahler(u, grid)
    phi_s = to_kahler(u.shift(0.2), grid)
    t = norming_constants(u, k)
    t_s = norming_constants(u.shift(0.2), k)
    a = szego_sum(t, phi, np.asarray(0.4))
    b = szego_sum(t_s, phi_s, np.asarray(0.4))
    assert b == pytest.approx(a, rel=1e-9)


def test_localization_gap_vacuous_and_bounded():
    t8 = norming_constants(U0, 8)
    # window radius 8^(delta - 1/2) with delta near 1/2 covers all of P
    assert localization_gap(t8, PHI_FS, np.asarray(0.0), 0.45) == 0.0
    rho = math.log(0.15 / 0.85)
    gap = localization_gap(t8, PHI_FS, np.asarray(rho), 0.25)
    assert 0 < gap <= szego_sum(t8, PHI_FS, np.asarray(rho))
    with pytest.raises(ValueError):
        localization_gap(t8, PHI_FS, np.asarray(0.0), 0.6)


def test_szego_sum_is_the_balanced_fubini_study_density():
    # Fubini-Study is balanced: sum_alpha P(alpha, rho) / k = (k + 1) / k at every rho,
    # and the tail outside any window is a part of that sum
    rho = np.linspace(-6.0, 6.0, 121)
    for k in range(1, 33):
        t = norming_constants(U0, k)
        np.testing.assert_allclose(szego_sum(t, PHI_FS, rho), (k + 1) / k, rtol=1e-12, atol=0)
        for r in rho:
            gap = localization_gap(t, PHI_FS, r, 0.25)
            assert 0.0 <= gap <= szego_sum(t, PHI_FS, r) * (1 + 1e-12), (k, r)


def test_szego_sum_on_the_square_is_the_product_density():
    # u0 of the square is the sum of two interval ones and phi the sum of two
    # Fubini-Study potentials, so the density is ((k + 1) / k)^2 at every rho
    S = preset_polytope("square")
    u0 = product_potential(S, 0.0, make_polytope_grid(S, 9, 0.05))
    sig = PHI_FS.grad
    phi = KahlerPotential(make_radial_grid([-4.0, -4.0], [4.0, 4.0], [21, 21]), closed=ClosedForm(
        value=lambda r: np.sum(np.logaddexp(0.0, r), axis=-1), grad=sig,
        hess=lambda r: np.eye(2) * (sig(r) * sig(-np.asarray(r)))[..., None]))
    rho = np.stack(np.meshgrid(np.linspace(-3, 3, 7), np.linspace(-3, 3, 5), indexing="ij"), -1)
    for k in (1, 2, 4, 8):
        t = norming_constants(u0, k)
        density = szego_sum(t, phi, rho)
        assert density.shape == (7, 5)
        np.testing.assert_allclose(density, ((k + 1) / k) ** 2, rtol=1e-12, atol=0)
        gap = localization_gap(t, phi, rho[1, 2], 0.25)
        assert 0.0 < gap <= szego_sum(t, phi, rho[1, 2])


def test_localization_gap_takes_one_rho():
    t8 = norming_constants(U0, 8)
    rho0 = math.log(0.15 / 0.85)
    gap = localization_gap(t8, PHI_FS, rho0, 0.25)
    # the direct sum of the normalized monomials outside the window
    outside = np.abs(t8.alphas[:, 0] / 8 - 0.15) > 8 ** -0.25
    direct = sum(normalized_monomial(t8, PHI_FS, a, rho0) for a in t8.alphas[outside]) / 8
    assert gap == pytest.approx(direct, rel=1e-12)
    assert gap == pytest.approx(2.726e-4, rel=1e-3)
    for rho in ([rho0, rho0], [rho0, 0.0], [[rho0]]):
        with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(rho)}")):
            localization_gap(t8, PHI_FS, np.array(rho), 0.25)
    square = NormingTable(level=2, alphas=lattice_points(preset_polytope("square"), 2),
                          log_q=np.zeros(9))
    for rho in (0.0, np.zeros((2, 2)), np.zeros(3)):
        with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(rho)}")):
            localization_gap(square, PHI_FS, rho, 0.25)


def test_harmonic_norming_interval():
    dom = make_interval(9)
    t2 = norming_constants(U0, 2)
    hn = harmonic_norming(dom, [t2, t2])
    assert np.max(np.abs(hn.lam - hn.lam[:, :1])) == 0.0     # constant in t
    # synthetic linear exponents
    base = NormingTable(level=2, alphas=t2.alphas, log_q=t2.log_q)
    bumped = NormingTable(level=2, alphas=t2.alphas, log_q=t2.log_q + 2.0)
    hn2 = harmonic_norming(dom, [base, bumped])
    assert hn2.lam[1, 4] == pytest.approx(-math.log(6) + 1.0, abs=1e-12)
    # exponents are exactly linear in t (term-for-term reduction to the segment formula)
    t = dom.nodes
    for i in range(hn2.count):
        expected = (1.0 - t) * base.log_q[i] + t * bumped.log_q[i]
        np.testing.assert_array_equal(hn2.lam[i], expected)
    # boundary restriction equals the boundary tables exactly
    np.testing.assert_array_equal(hn2.lam[:, 0], base.log_q)
    np.testing.assert_array_equal(hn2.lam[:, -1], bumped.log_q)


def test_harmonic_norming_fields_are_discretely_harmonic():
    from toricmaps.dirichlet import laplace_residual
    dom = make_interval(9)
    t2 = norming_constants(U0, 2)
    bumped = NormingTable(level=2, alphas=t2.alphas, log_q=t2.log_q + 1.3)
    hn = harmonic_norming(dom, [t2, bumped])
    for i in range(hn.count):
        assert laplace_residual(dom, hn.field(i)) < 1e-10


def test_harmonic_norming_disc_constant():
    dom = make_disc(5, 256)    # kernel aliasing ~ 2 * 0.9^n_angles
    t2 = norming_constants(U0, 2)
    hn = harmonic_norming(dom, [t2] * 256)
    assert np.max(np.abs(hn.lam - hn.lam[:, :1, :1])) < 1e-9


def test_harmonic_norming_rejects_mismatch():
    dom = make_interval(5)
    t2 = norming_constants(U0, 2)
    t3 = norming_constants(U0, 3)
    with pytest.raises(ValueError):
        harmonic_norming(dom, [t2, t3])
    sub = NormingTable(level=2, alphas=t2.alphas[:2], log_q=t2.log_q[:2])
    with pytest.raises(ValueError):
        harmonic_norming(dom, [t2, sub])


def test_bergman_potential_values(table_k2):
    dom = make_interval(9)
    hn = harmonic_norming(dom, [table_k2, table_k2])
    # log-sum-exp of the Beta values at rho = 0: (1/2) log(3 + 6 + 3)
    val = BergmanFamily(hn).field(np.asarray(0.0))[0]
    assert val == pytest.approx(0.5 * math.log(12.0), abs=1e-12)
    # equal endpoint tables: independent of t
    v_mid = BergmanFamily(hn).field(np.asarray(0.0))[4]
    assert v_mid == val
    # boundary consistency: identical floating-point expression
    rho = np.linspace(-2, 2, 17)
    direct = np.max(np.stack([t2a * rho - lq for t2a, lq in
                              zip(table_k2.alphas[:, 0], table_k2.log_q)]), axis=0)
    lse = BergmanFamily(hn).field(rho)[0]
    terms = np.stack([a * rho - lq for a, lq in
                      zip(table_k2.alphas[:, 0].astype(float), table_k2.log_q)])
    peak = terms.max(axis=0)
    expected = (peak + np.log(np.exp(terms - peak).sum(axis=0))) / 2
    np.testing.assert_array_equal(lse, expected)


def test_bergman_potential_single_alpha_affine():
    dom = make_interval(5)
    t = NormingTable(level=3, alphas=np.array([[2]]), log_q=np.array([0.7]))
    hn = harmonic_norming(dom, [t, t])
    rho = np.linspace(-1, 1, 9)
    vals = BergmanFamily(hn).field(rho)[2]
    np.testing.assert_allclose(vals, (2 * rho - 0.7) / 3, atol=1e-14)


def test_bergman_convexity_in_rho(table_k2):
    dom = make_interval(5)
    hn = harmonic_norming(dom, [table_k2, table_k2])
    rho = np.linspace(-3, 3, 101)
    vals = BergmanFamily(hn).field(rho)[2]
    assert np.min(np.diff(vals, 2)) > -1e-12


def lse_oracle(norming, rho):
    """The log-sum-exp field in np.longdouble, node by node: the accuracy reference."""
    lin = np.multiply.outer(norming.alphas[:, 0].astype(np.longdouble), rho)
    lam = norming.lam.reshape(norming.count, -1).astype(np.longdouble)
    val = np.empty((lam.shape[1], rho.size), dtype=np.longdouble)
    for y in range(lam.shape[1]):
        expo = lin - lam[:, y, None]
        peak = np.max(expo, axis=0)
        val[y] = (peak + np.log(np.sum(np.exp(expo - peak), axis=0))) / norming.level
    return val.reshape(norming.domain.shape + rho.shape)


needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63,
    reason="the oracle needs a long double with a 64-bit or wider mantissa")


def assert_within_4_ulp(field, oracle):
    """|Phi_k - oracle| within 4 ulp of the sup of |Phi_k| over the field."""
    err = float(np.max(np.abs(field - oracle)))
    assert err <= 4 * np.spacing(float(np.max(np.abs(oracle))))


def beta_table(k, bump):
    """Guillemin (Beta-function) table of level k with log Q moved by bump * sin(alpha)."""
    a = np.arange(k + 1)
    log_q = np.array([math.lgamma(i + 1) + math.lgamma(k - i + 1) for i in a]) \
        - math.lgamma(k + 2) + bump * np.sin(a)
    return NormingTable(level=k, alphas=a[:, None], log_q=log_q)


FIELD_CASES = [
    (make_interval(5), 256, 801),
    (make_disc(4, 64), 8, 801),
    (make_rectangle(9, 7), 8, 301),
    (make_interval(5), 1024, 801),
]


def beta_family(domain, k):
    tables = [beta_table(k, 0.3 * math.cos(i)) for i in range(domain.n_boundary)]
    return BergmanFamily(harmonic_norming(domain, tables))


@needs_long_double
@pytest.mark.parametrize("domain,k,n_rho", FIELD_CASES)
def test_field_is_the_log_sum_exp_to_4_ulp(domain, k, n_rho):
    fam = beta_family(domain, k)
    rho = np.linspace(-4.0, 4.0, n_rho)
    field = fam.field(rho)
    assert field.shape == domain.shape + (n_rho,)
    assert_within_4_ulp(field, lse_oracle(fam.norming, rho))


def assert_field_invariances(fam, rho, field):
    """A column subset and a scalar rho are bitwise the full field."""
    scalar = fam.field(rho[rho.size // 3])
    assert scalar.shape == field.shape[:-1]
    np.testing.assert_array_equal(scalar, field[..., rho.size // 3])
    for cols in (slice(rho.size // 3, rho.size // 3 + 7), slice(1, None, 5), slice(-1, None)):
        np.testing.assert_array_equal(fam.field(rho[cols]), field[..., cols])


@pytest.mark.parametrize("domain,k,n_rho", FIELD_CASES[:3])
def test_field_rows_columns_and_scalar_rho_are_bitwise_the_full_field(domain, k, n_rho):
    fam = beta_family(domain, k)
    rho = np.linspace(-4.0, 4.0, n_rho)
    assert_field_invariances(fam, rho, fam.field(rho))


def tilted_table(k, slope):
    """Guillemin (Beta-function) table of level k with log Q tilted by slope * alpha."""
    table = beta_table(k, 0.0)
    return NormingTable(level=k, alphas=table.alphas,
                        log_q=table.log_q + slope * table.alphas[:, 0])


# half the float exponent range: the spread over alpha of lam(reference) -
# lam(y) past which a node takes its own row as reference
SPREAD_BOUND = -0.5 * math.log(np.finfo(float).tiny)


@needs_long_double
@pytest.mark.parametrize("slope,own_rows", [
    # spreads 0, 192, 384, 576, 768 against the reference node 0
    (12.0, [2, 3, 4]),
    # spreads 0, 480, 960, 1440, 1920: every row but the reference
    (30.0, [1, 2, 3, 4]),
])
def test_field_rows_past_the_spread_bound_are_the_log_sum_exp(slope, own_rows):
    k = 64
    norming = harmonic_norming(make_interval(5), [tilted_table(k, 0.0), tilted_table(k, slope)])
    gap = norming.lam[:, :1] - norming.lam
    assert np.flatnonzero(np.ptp(gap, axis=0) > SPREAD_BOUND).tolist() == own_rows
    fam = BergmanFamily(norming)
    # the rho range carries the peak alpha from 0 to k at every node
    rho = np.linspace(-8.0, 40.0, 481)
    field = fam.field(rho)
    assert np.all(np.isfinite(field))
    assert_within_4_ulp(field, lse_oracle(norming, rho))
    assert_field_invariances(fam, rho, field)


def test_ratio_report_boundary_and_constant(table_k2):
    dom = make_interval(9)
    hn = harmonic_norming(dom, [table_k2, table_k2])
    rep = ratio_report(hn, table_k2, U0, [U0, U0], (0,))
    np.testing.assert_array_equal(rep.r_k, 1.0)        # boundary node: exact
    rep_mid = ratio_report(hn, table_k2, U0, [U0, U0], (4,))
    np.testing.assert_allclose(rep_mid.r_k, 1.0, atol=1e-12)
    np.testing.assert_allclose(rep_mid.r_inf, 1.0, atol=1e-12)
    assert rep_mid.bound_constant == pytest.approx(1.0, abs=1e-12)


def test_peak_asymptotics_fit():
    k = 64
    alphas = np.arange(24, 41)
    t = norming_constants(U0, k, alphas=alphas)
    fit = peak_asymptotics_check(t, U0)
    # leading constant of the peak law is 1/sqrt(2 pi) in one dimension
    assert fit.mean == pytest.approx(1 / math.sqrt(2 * math.pi), rel=0.02)
    assert fit.dispersion < 0.05
    near = norming_constants(U0, k, alphas=[[1]])
    with pytest.raises(ValueError, match="facet"):
        peak_asymptotics_check(near, U0)
    assert delta_k(64) == pytest.approx(1 / (8 * math.log(64)))


@pytest.mark.parametrize("name,a,k", [("interval", 0.0, 48), ("interval", 0.1, 200),
                                      ("square", 0.05, 12)])
def test_peak_asymptotics_is_bitwise_the_loop_over_alphas(name, a, k):
    Q = preset_polytope(name)
    u = product_potential(Q, a, XG if name == "interval" else make_polytope_grid(Q, 9, 0.05))
    inner = lattice_points(Q, k)
    inner = inner[np.all((inner >= 3 * k // 8) & (inner <= 5 * k // 8), axis=1)]
    table = norming_constants(u, k, alphas=inner)
    fit = peak_asymptotics_check(table, u)
    # the loop it replaced: one near-facet test, Hessian and peak value per alpha
    loop = []
    for alpha in table.alphas:
        x = alpha.astype(float) / k
        assert near_facets(Q, x, delta_k(k))[1] == 0
        det = float(_positive_det(u.hess(x), "not convex", x))
        loop.append(peak_value(table, u, alpha) * k ** (-u.dim / 2.0) / math.sqrt(det))
    np.testing.assert_array_equal(fit.alphas, table.alphas)
    np.testing.assert_array_equal(fit.constants, loop)


def test_peak_asymptotics_at_level_one_names_an_alpha():
    # delta_1 is infinite, so every alpha of a level-1 table is near a facet
    assert delta_k(1) == math.inf
    with pytest.raises(ValueError, match=re.escape("alpha=(0,) is within delta_k=inf")):
        peak_asymptotics_check(norming_constants(U0, 1), U0)


def test_peak_constant_metric_independent():
    k = 64
    alphas = np.arange(24, 41)
    u_p = product_potential(P, 0.1, XG)
    c_fs = peak_asymptotics_check(norming_constants(U0, k, alphas=alphas), U0).mean
    c_p = peak_asymptotics_check(norming_constants(u_p, k, alphas=alphas), u_p).mean
    assert c_p == pytest.approx(c_fs, rel=0.02)


def test_csv_round_trip(tmp_path, table_k2):
    path = tmp_path / "table.csv"
    save_norming_table(table_k2, path)
    back = load_norming_table(path)
    assert back.level == table_k2.level
    np.testing.assert_array_equal(back.alphas, table_k2.alphas)
    np.testing.assert_array_equal(back.log_q, table_k2.log_q)


def test_csv_loader_skips_blank_rows_and_names_a_bad_row(tmp_path, table_k2):
    path = tmp_path / "table.csv"
    save_norming_table(table_k2, path)
    text = path.read_text()
    header, *rows = text.splitlines()
    path.write_text(header + "\n\n" + "\n".join(rows[:1] + [""] + rows[1:]) + "\n\n")
    back = load_norming_table(path)
    np.testing.assert_array_equal(back.alphas, table_k2.alphas)
    np.testing.assert_array_equal(back.log_q, table_k2.log_q)
    path.write_text(header + "\n")
    with pytest.raises(ValueError, match=r"table\.csv has no rows"):
        load_norming_table(path)
    for bad, lineno in (([header] + rows[:1] + ["2,1,oops"] + rows[2:], 3),
                        ([header] + rows[:2] + ["2"], 4)):
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match=rf"table\.csv, line {lineno}: cannot read"):
            load_norming_table(path)


def test_csv_round_trip_2d(tmp_path):
    S = preset_polytope("simplex2")
    alphas = lattice_points(S, 2)
    t = NormingTable(level=2, alphas=alphas, log_q=np.linspace(-1, 1, len(alphas)))
    path = tmp_path / "t2.csv"
    save_norming_table(t, path)
    back = load_norming_table(path)
    np.testing.assert_array_equal(back.alphas, alphas)
    np.testing.assert_array_equal(back.log_q, t.log_q)


def test_family_constant_shift_equivariance():
    # shifting every u(y, .) by c shifts Phi_k and Phi by the same constant,
    # leaving the comparison invariant
    from toricmaps.harness import (build_approximants, kahler_field,
                                   solve_harmonic_map)
    dom = make_interval(5)
    c = 0.3
    u0 = product_potential(P, grid=XG)
    u1 = product_potential(P, 0.1, XG)
    fam = solve_harmonic_map(dom, XG, [u0, u1])
    fam_s = solve_harmonic_map(dom, XG, [u0.shift(c), u1.shift(c)])
    rho = np.linspace(-2, 2, 101)
    phi = kahler_field(fam, rho)
    phi_s = kahler_field(fam_s, rho)
    np.testing.assert_allclose(phi_s.values, phi.values - c, atol=1e-10)
    k = 4
    fk = build_approximants(fam, (k,))[k].field(rho)
    fk_s = build_approximants(fam_s, (k,))[k].field(rho)
    np.testing.assert_allclose(fk_s, fk - c, atol=1e-10)
    np.testing.assert_allclose(fk_s - phi_s.values, fk - phi.values, atol=1e-10)
