import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from toricmaps.dirichlet import (BoundaryData, harmonic_extend, make_disc, make_interval,
                                 make_rectangle)
from toricmaps.flows import (ResidualReport, eells_sampson_operator,
                             eells_sampson_residual, hcma_residual, heat_evolve, load_snapshot,
                             make_flow_state, save_snapshot)
from toricmaps.harness import (HarmonicPotentialFamily, kahler_field,
                               loop_family, solve_harmonic_map)
from toricmaps.polytope import preset_polytope
from toricmaps.potentials import ConvexityError, make_polytope_grid, preset_symplectic

P = preset_polytope("interval")


def bump(x):
    return x * (1.0 - x)


def make_state(n_t=33, n_x=41, coeff=None):
    dom = make_interval(n_t)
    xg = make_polytope_grid(P, n_x, 1e-3)
    t = dom.nodes
    c = coeff(t) if coeff is not None else 0.1 * t
    f = c[:, None] * bump(xg.axes[0])[None, :]
    return make_flow_state(dom, xg, f)


def test_cfl_rejected():
    state = make_state()
    h = state.domain.nodes[1] - state.domain.nodes[0]
    with pytest.raises(ValueError, match="CFL"):
        heat_evolve(state, h**2, 1)


def test_constant_in_y_is_stationary():
    dom = make_interval(17)
    xg = make_polytope_grid(P, 21, 1e-3)
    f = np.tile(0.2 * bump(xg.axes[0]), (17, 1))
    state = make_flow_state(dom, xg, f)
    out = heat_evolve(state, 1e-4, 50)
    np.testing.assert_array_equal(out.f, state.f)
    assert out.tau == pytest.approx(5e-3)


def test_sine_mode_decay_rate():
    # u(0,t,x) = sin(pi t) g(x): the fundamental mode decays like e^(-pi^2 tau)
    n_t = 201
    dom = make_interval(n_t)
    xg = make_polytope_grid(P, 21, 1e-3)
    t = dom.nodes
    g = -0.05 * bump(xg.axes[0])
    f0 = np.sin(np.pi * t)[:, None] * g[None, :]
    state = make_flow_state(dom, xg, f0)
    h = t[1] - t[0]
    dtau = h**2 / 2.0
    tau_target = 0.1
    steps = round(tau_target / dtau)
    out = heat_evolve(state, dtau, steps)
    j = 10
    amp0 = 2 * h * np.sum(f0[:, j] * np.sin(np.pi * t))
    amp1 = 2 * h * np.sum(out.f[:, j] * np.sin(np.pi * t))
    decay = amp1 / amp0
    assert decay == pytest.approx(math.exp(-np.pi**2 * steps * dtau), rel=0.01)
    assert not out.convexity_violations


def test_long_time_limit_is_harmonic_extension():
    state = make_state(n_t=33, n_x=21, coeff=lambda t: 0.1 * t + 0.2 * t * (1 - t))
    h = state.domain.nodes[1] - state.domain.nodes[0]
    dtau = h**2 / 2.0
    steps = round(3.0 / dtau)
    out = heat_evolve(state, dtau, steps)
    cols = np.stack([harmonic_extend(state.domain,
                                     BoundaryData(state.f[[0, -1], j])).values
                     for j in range(state.f.shape[1])], axis=-1)
    assert np.max(np.abs(out.f - cols)) < 1e-6


def test_initial_nonconvex_rejected():
    dom = make_interval(9)
    xg = make_polytope_grid(P, 31, 1e-3)
    f = np.tile(-5.0 * xg.axes[0] ** 2, (9, 1))
    with pytest.raises(ConvexityError):
        make_flow_state(dom, xg, f)


def test_heat_flow_preserves_convexity():
    state = make_state(n_t=33, n_x=31, coeff=lambda t: 0.1 * t + 0.3 * t * (1 - t))
    h = state.domain.nodes[1] - state.domain.nodes[0]
    out = heat_evolve(state, h**2 / 2.0, 500)
    assert not out.convexity_violations
    assert np.all(out.convexity_flags())


def test_boundary_slices_frozen():
    state = make_state(n_t=17, n_x=21, coeff=lambda t: 0.1 * t + 0.2 * t * (1 - t))
    h = state.domain.nodes[1] - state.domain.nodes[0]
    out = heat_evolve(state, h**2 / 4.0, 200)
    np.testing.assert_array_equal(out.f[0], state.f[0])
    np.testing.assert_array_equal(out.f[-1], state.f[-1])


# -- residual operators -----------------------------------------------------------

def test_eells_sampson_zero_for_y_independent():
    dom = make_interval(17)
    rho = np.linspace(-2, 2, 41)
    phi = np.tile(np.logaddexp(0, rho), (17, 1))
    rep = eells_sampson_residual(phi, dom, rho)
    assert rep.sup < 1e-13
    assert rep.mean <= rep.sup
    assert rep.fiber_hessian_min > 0


def test_eells_sampson_harmonic_family_order():
    # Legendre duals of a y-harmonic family satisfy the equation up to FD truncation
    sups = []
    for n_t, n_rho, margin in ((17, 201, 2), (33, 401, 4)):
        dom = make_interval(n_t)
        xg = make_polytope_grid(P, 401, 1e-3)
        u0 = preset_symplectic("guillemin", P, xg)
        u1 = preset_symplectic("perturbed(0.1)", P, xg)
        fam = solve_harmonic_map(dom, xg, [u0, u1])
        rho = np.linspace(-3, 3, n_rho)
        field = kahler_field(fam, rho)
        rep = eells_sampson_residual(field.values, dom, rho, margin=margin)
        sups.append(rep.sup)
    assert 2.5 < sups[0] / sups[1] < 6.0


def test_eells_sampson_equal_endpoints_zero():
    dom = make_interval(9)
    xg = make_polytope_grid(P, 201, 1e-3)
    u1 = preset_symplectic("perturbed(0.05)", P, xg)
    fam = solve_harmonic_map(dom, xg, [u1, u1])
    rho = np.linspace(-2, 2, 101)
    field = kahler_field(fam, rho)
    rep = eells_sampson_residual(field.values, dom, rho)
    assert rep.sup < 1e-9


def test_hcma_zero_for_disc_independent():
    dom = make_disc(7, 64)
    rho = np.linspace(-2, 2, 41)
    phi = np.broadcast_to(np.logaddexp(0, rho), dom.shape + rho.shape).copy()
    rep = hcma_residual(phi, dom, rho)
    assert rep.sup < 1e-12
    assert rep.fiber_hessian_min > 0


def test_hcma_zero_for_affine_in_disc_coordinates():
    # Phi = a q + b s + c rho: mixed terms vanish identically, and with the
    # fiber part affine the whole discrete residual is exactly zero
    dom = make_disc(9, 64)
    rho = np.linspace(-2, 2, 41)
    r = dom.radii[:, None, None]
    g = dom.angles[None, :, None]
    q = r * np.cos(g)
    s = r * np.sin(g)
    phi = 0.7 * q + 0.3 * s + 0.4 * rho[None, None, :]
    rep = hcma_residual(phi, dom, rho)
    assert rep.sup < 1e-14
    # a convex fiber part leaves only the angular FD truncation of the
    # Laplacian; it shrinks at second order
    sups = []
    for ng in (128, 256):
        dom = make_disc(9, ng)
        g = dom.angles[None, :, None]
        r = dom.radii[:, None, None]
        phi = (0.7 * r * np.cos(g) + 0.3 * r * np.sin(g)
               + np.logaddexp(0, rho)[None, None, :])
        sups.append(hcma_residual(phi, dom, rho).sup)
    assert 3.0 < sups[0] / sups[1] < 5.0


def test_hcma_agrees_with_harmonic_map_residual_pointwise():
    from toricmaps.flows import _d2, eells_sampson_operator, hcma_operator
    fam = loop_family(a=0.05, n_radii=7, n_angles=64, n_x=401, k_max=8)
    rho = np.linspace(-2.5, 2.5, 101)
    field = kahler_field(fam, rho)
    es, keep = eells_sampson_operator(field.values, fam.domain, rho)
    hc, keep2 = hcma_operator(field.values, fam.domain, rho)
    assert keep == keep2
    h_rho = rho[1] - rho[0]
    phi_rr = _d2(field.values, h_rho, field.values.ndim - 1)
    assert np.min(phi_rr[keep]) > 0
    # the two integrands agree pointwise up to the positive factor phi_rhorho
    np.testing.assert_allclose(hc[keep], (es * phi_rr)[keep], atol=1e-12)


def test_flow_duality_sign_relation():
    # d_tau u at fixed x matches -d_tau Phi at the corresponding rho
    state = make_state(n_t=33, n_x=201, coeff=lambda t: 0.1 * t + 0.2 * t * (1 - t))
    h = state.domain.nodes[1] - state.domain.nodes[0]
    dtau = h**2 / 4.0
    s1 = heat_evolve(state, dtau, 40)
    s2 = heat_evolve(s1, dtau, 1)
    rho = np.linspace(-3.0, 3.0, 401)
    fam1 = HarmonicPotentialFamily(domain=s1.domain, xgrid=s1.xgrid,
                                   boundary_potentials=(), f=s1.f)
    fam2 = HarmonicPotentialFamily(domain=s2.domain, xgrid=s2.xgrid,
                                   boundary_potentials=(), f=s2.f)
    phi1 = kahler_field(fam1, rho)
    phi2 = kahler_field(fam2, rho)
    du = (s2.f - s1.f) / dtau            # u0 cancels in the difference
    worst = 0.0
    x_nodes = s1.xgrid.axes[0][100:-100:25]
    for iy in range(1, 32, 6):
        pot = fam1.potential_at((iy,))
        rho_of_x = np.asarray(pot.grad(x_nodes))
        dphi = (CubicSpline(rho, phi2.values[iy]) (rho_of_x)
                - CubicSpline(rho, phi1.values[iy])(rho_of_x)) / dtau
        du_x = CubicSpline(s1.xgrid.axes[0], du[iy])(x_nodes)
        worst = max(worst, float(np.max(np.abs(du_x + dphi))))
    assert worst < 50 * dtau


def test_snapshot_round_trip(tmp_path):
    state = make_state(n_t=9, n_x=21)
    out = heat_evolve(state, 1e-4, 7)
    path = tmp_path / "snap.txt"
    save_snapshot(out, path)
    back = load_snapshot(path, out.domain)
    assert back.tau == out.tau
    np.testing.assert_array_equal(back.f, out.f)
    assert back.xgrid.polytope == out.xgrid.polytope
    assert back.xgrid.margin == out.xgrid.margin
    assert len(back.xgrid.axes) == len(out.xgrid.axes)
    for a, b in zip(back.xgrid.axes, out.xgrid.axes):
        np.testing.assert_array_equal(a, b)


def test_residual_report_rejects_negative():
    with pytest.raises(ValueError):
        ResidualReport(sup=-1.0, mean=0.0, spacings={}, count=1)


def test_eells_sampson_reports_bad_fiber_hessian():
    dom = make_interval(9)
    rho = np.linspace(-1, 1, 21)
    concave = np.tile(-(rho ** 2), (9, 1))
    with pytest.raises(ConvexityError):
        eells_sampson_residual(concave, dom, rho)


def test_eells_sampson_convexity_error_names_the_worst_node():
    # a dent at one (node, rho) makes phi_rhorho = 2 - 2 * 0.05 / 0.1^2 = -8 there
    rho = np.linspace(-1, 1, 21)
    for dom, node in ((make_interval(9), (4,)), (make_disc(9, 64), (3, 5))):
        phi = np.broadcast_to(rho**2, dom.shape + rho.shape).copy()
        phi[node + (13,)] += 0.05
        with pytest.raises(ConvexityError, match=(
                r"phi_rhorho = -8 at domain node \(" + ", ".join(map(str, node))
                + r",?\), rho = 0.3$")):
            eells_sampson_residual(phi, dom, rho)


@pytest.mark.parametrize("margin", [2, 4])
def test_residual_window_slices(margin):
    m = margin
    rho = np.linspace(-2, 2, 41)
    fiber = np.logaddexp(0, rho)
    expected = [
        (make_interval(17), (slice(m, 17 - m), slice(m, 41 - m))),
        (make_rectangle(13, 11), (slice(m, 13 - m), slice(m, 11 - m), slice(m, 41 - m))),
        # the uniform radial block stops one ring short of r = 1
        (make_disc(12, 64), (slice(m, 13 - 1 - m), slice(None), slice(m, 41 - m))),
    ]
    for dom, keep in expected:
        phi = np.broadcast_to(fiber, dom.shape + rho.shape)
        assert eells_sampson_operator(phi, dom, rho, margin=margin)[1] == keep
