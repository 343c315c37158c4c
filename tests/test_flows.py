import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from toricmaps import flows
from toricmaps.dirichlet import (BoundaryData, _d1, _d2, harmonic_extend, make_disc,
                                 make_interval, make_rectangle)
from toricmaps.flows import (ResidualReport, eells_sampson_operator,
                             eells_sampson_residual, hcma_operator, hcma_residual, heat_evolve,
                             load_snapshot, make_flow_state, save_snapshot)
from toricmaps.acceptance import flow_start
from toricmaps.harness import (_product_family, geodesic_family, kahler_field, loop_family,
                               solve_harmonic_map)
from toricmaps.polytope import preset_polytope
from toricmaps.potentials import (LSE_BLOCK, ConvexityError, _product_ell_closed,
                                  default_margin, make_polytope_grid, product_potential)

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


@pytest.mark.parametrize("dtau", [-1.0, math.nan, -math.inf])
def test_heat_evolve_rejects_a_negative_or_non_finite_dtau(dtau):
    state, step = flow_start(9, 41)
    dtau = dtau * step
    with pytest.raises(ValueError, match=rf"^dtau = {dtau:g} is not in \[0, "):
        heat_evolve(state, dtau, 3)
    # a zero step is a no-op
    out = heat_evolve(state, 0.0, 3)
    assert out.tau == state.tau
    np.testing.assert_array_equal(out.f, state.f)


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


def test_heat_evolve_drops_the_closed_forms_of_a_solved_family():
    # closed forms describe the start data, so the flowed family's potential_at
    # must read the flowed f; a closed form that disagrees with f (a zero
    # smooth part) shows which of the two it reads.  solve_harmonic_map rejects
    # such a closed form, so it is set on the solved family afterwards.
    dom = make_interval(9)
    xg = make_polytope_grid(P, 41, 1e-3)
    ends = [product_potential(P, a, xg) for a in (0.0, 0.1)]
    fam = replace(solve_harmonic_map(dom, xg, ends),
                  closed_forms=np.full(dom.shape, _product_ell_closed(P, 0.0), dtype=object))
    h = dom.nodes[1] - dom.nodes[0]
    out = heat_evolve(fam, h**2 / 4.0, 3)
    assert fam.closed_forms is not None and out.closed_forms is None
    pot = out.potential_at((4,))
    assert pot.f_closed is None
    assert np.max(np.abs(out.f[4])) > 1e-2
    np.testing.assert_allclose(pot.f_value(xg.axes[0]), out.f[4], rtol=1e-12, atol=0)


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
        u0 = product_potential(P, grid=xg)
        u1 = product_potential(P, 0.1, xg)
        fam = solve_harmonic_map(dom, xg, [u0, u1])
        rho = np.linspace(-3, 3, n_rho)
        field = kahler_field(fam, rho)
        rep = eells_sampson_residual(field.values, dom, rho, margin=margin)
        sups.append(rep.sup)
    assert 2.5 < sups[0] / sups[1] < 6.0


def test_eells_sampson_equal_endpoints_zero():
    dom = make_interval(9)
    xg = make_polytope_grid(P, 201, 1e-3)
    u1 = product_potential(P, 0.05, xg)
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


def rectangle_family(n):
    """u0 + q(y) prod ell on the n x n rectangle, q harmonic and quadratic, on
    201 x nodes (the shape of test_harness.rectangle_family at n = 9)."""
    dom = make_rectangle(n, n)
    y1, y2 = np.meshgrid(dom.x_nodes, dom.y_nodes, indexing="ij")
    q = 0.1 * (0.8 + 0.3 * y1 - 0.2 * y2 + 0.4 * (y1 * y1 - y2 * y2) - 0.3 * y1 * y2)
    return _product_family(dom, q[dom.boundary_mask()], 201, 8)


@pytest.mark.parametrize("family", [lambda: geodesic_family(n_t=9, n_x=401, k_max=8),
                                    lambda: rectangle_family(7)],
                         ids=["interval", "rectangle"])
def test_hcma_is_the_harmonic_map_residual_times_phi_rhorho_on_every_domain(family):
    # on the interval the complex-Hessian residual is the geodesic equation
    # phi_tt phi_rhorho - phi_trho^2; the disc case is the test below
    fam = family()
    rho = np.linspace(-2.5, 2.5, 101)
    phi = kahler_field(fam, rho).values
    es, keep = eells_sampson_operator(phi, fam.domain, rho)
    hc, keep2 = hcma_operator(phi, fam.domain, rho)
    assert keep == keep2
    phi_rr = _d2(phi, rho[1] - rho[0], phi.ndim - 1)
    assert np.min(phi_rr[keep]) > 0
    np.testing.assert_allclose(hc[keep], (es * phi_rr)[keep], atol=1e-12)


@pytest.mark.parametrize("fn", [hcma_residual, hcma_operator])
@pytest.mark.parametrize("dom", [make_interval(9), make_rectangle(7, 7)])
def test_hcma_on_another_domain_names_the_function_and_the_domain(fn, dom):
    # hcma_* run off the disc: a Phi that does not depend on y solves the
    # complex-Hessian equation exactly, and a window too small for the domain
    # raises the ValueError that names the domain and its shape
    rho = np.linspace(-1, 1, 21)
    phi = np.broadcast_to(rho**2, dom.shape + rho.shape)
    if fn is hcma_residual:
        rep = fn(phi, dom, rho)
        assert rep.sup == 0 and rep.count > 0 and rep.fiber_hessian_min > 0
    else:
        field, keep = fn(phi, dom, rho)
        assert field[keep].size > 0 and np.all(field[keep] == 0)
    with pytest.raises(ValueError, match=rf"^{type(dom).__name__} of shape "
                       rf"{re.escape(str(dom.shape))}, 21 rho: the residual window .* "
                       r"at margin 10 is empty$"):
        fn(phi, dom, rho, margin=10)


@pytest.mark.parametrize("family,n,span,n_rho", [
    (lambda n: geodesic_family(a=0.1, n_t=n, n_x=801, k_max=64), 17, 4.0, 401),
    (rectangle_family, 9, 3.0, 201),
], ids=["geodesic", "rectangle"])
def test_hcma_residual_second_order_off_the_disc(family, n, span, n_rho):
    sups = []
    for refine in (1, 2):
        fam = family(refine * (n - 1) + 1)
        rho = np.linspace(-span, span, refine * (n_rho - 1) + 1)
        # the margin doubles with the resolution, so both sups run over the
        # same physical window
        rep = hcma_residual(kahler_field(fam, rho).values, fam.domain, rho, margin=2 * refine)
        assert rep.fiber_hessian_min > 0
        sups.append(rep.sup)
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
    phi1 = kahler_field(s1, rho)
    phi2 = kahler_field(s2, rho)
    du = (s2.f - s1.f) / dtau            # u0 cancels in the difference
    worst = 0.0
    x_nodes = s1.xgrid.axes[0][100:-100:25]
    for iy in range(1, 32, 6):
        pot = s1.potential_at((iy,))
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


def test_snapshot_loader_skips_blank_lines_and_names_a_bad_tau_line(tmp_path):
    out = heat_evolve(make_state(n_t=5, n_x=11), 1e-4, 3)
    path = tmp_path / "snap.txt"
    save_snapshot(out, path)
    text = path.read_text()
    path.write_text("\n" + text + "\n")
    back = load_snapshot(path, out.domain)
    assert back.tau == out.tau
    np.testing.assert_array_equal(back.f, out.f)
    path.write_text("flow\n" + text.split("\n", 1)[1])
    with pytest.raises(ValueError, match=r"snap\.txt: cannot read the flow line 'flow'"):
        load_snapshot(path, out.domain)


def test_snapshot_loader_checks_the_domain_shape(tmp_path):
    out = heat_evolve(make_state(n_t=9, n_x=11), 1e-4, 3)
    path = tmp_path / "snap.txt"
    save_snapshot(out, path)
    with pytest.raises(ValueError, match=r"snap\.txt: the snapshot's domain shape is \(9,\), "
                       r"the domain's \(17,\)$"):
        load_snapshot(path, make_interval(17))
    flow_line, _, rest = path.read_text().split("\n", 2)
    path.write_text(f"{flow_line}\ndomain_shape nine\n{rest}")
    with pytest.raises(ValueError, match=r"snap\.txt: cannot read the domain_shape line "
                       r"'domain_shape nine'"):
        load_snapshot(path, out.domain)


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


# -- residuals in rho blocks ------------------------------------------------------

def one_shot_residual(phi, dom, rho, margin, hcma):
    """Reference: (sup, mean, count, fiber Hessian min) from full-grid
    derivative arrays of phi."""
    h, ax = rho[1] - rho[0], phi.ndim - 1
    cross = sum(_d1(g, h, ax) ** 2 for g in dom.gradient(phi))
    lap, phi_rr = dom.laplacian(phi), _d2(phi, h, ax)
    field = lap * phi_rr - cross if hcma else lap - cross / phi_rr
    keep = dom.interior(margin) + (slice(margin, rho.size - margin),)
    res = np.abs(field[keep])
    return np.max(res), np.mean(res), res.size, np.min(phi_rr[keep])


def counting_blocks(monkeypatch, n_nodes, n_columns):
    """Set an LSE_BLOCK that cuts n_columns into blocks of `width` >= 2
    columns and a one-column tail; return (width, the block widths read)."""
    width = next(w for w in range(2, n_columns) if n_columns % w == 1)
    assert n_columns // width >= 2
    monkeypatch.setattr(flows, "LSE_BLOCK", (width + 2) * n_nodes)
    read = []
    terms = flows._fiber_terms
    monkeypatch.setattr(flows, "_fiber_terms",
                        lambda phi, *a: read.append(phi.shape[-1]) or terms(phi, *a))
    return width, read


@pytest.fixture(scope="module")
def disc_fields():
    """A disc Kahler field, and a convex one with noise: its residuals spread
    over orders of magnitude, so a mean summed in another order shows."""
    fam = loop_family(a=0.05, n_radii=7, n_angles=64, n_x=401, k_max=8)
    rho = np.linspace(-2.5, 2.5, 101)
    noise = np.random.default_rng(0).standard_normal(fam.domain.shape + rho.shape)
    return fam.domain, rho, {"kahler": kahler_field(fam, rho).values,
                             "noisy": rho**2 + 1e-4 * noise}


@pytest.mark.parametrize("kind", ["kahler", "noisy"])
@pytest.mark.parametrize("residual,hcma,margin", [
    (hcma_residual, True, 2), (hcma_residual, True, 3),
    (eells_sampson_residual, False, 2), (eells_sampson_residual, False, 3),
], ids=["hcma", "hcma-margin-3", "es", "es-margin-3"])
def test_residual_in_blocks_is_bitwise_the_one_shot_report(monkeypatch, disc_fields,
                                                           residual, hcma, margin, kind):
    dom, rho, fields = disc_fields
    phi = fields[kind]
    sup, mean, count, hess_min = one_shot_residual(phi, dom, rho, margin, hcma)
    default = residual(phi, dom, rho, margin=margin)
    n_columns = rho.size - 2 * margin
    width, read = counting_blocks(monkeypatch, phi.size // rho.size, n_columns)
    blocked = residual(phi, dom, rho, margin=margin)
    # blocks of `width` window columns and a one-column tail, each with its
    # two halo columns
    assert read == [width + 2] * (n_columns // width) + [3]
    for rep in (default, blocked):
        assert (rep.sup, rep.mean, rep.count, rep.fiber_hessian_min) == (
            sup, mean, count, hess_min)


def test_eells_sampson_residual_in_blocks_on_the_interval(monkeypatch):
    dom = make_interval(17)
    xg = make_polytope_grid(P, 401, 1e-3)
    fam = solve_harmonic_map(dom, xg, [product_potential(P, grid=xg),
                                       product_potential(P, 0.1, xg)])
    rho = np.linspace(-3, 3, 201)
    phi = kahler_field(fam, rho).values
    counting_blocks(monkeypatch, 17, rho.size - 4)
    rep = eells_sampson_residual(phi, dom, rho)
    assert (rep.sup, rep.mean, rep.count, rep.fiber_hessian_min) == one_shot_residual(
        phi, dom, rho, 2, False)


def test_eells_sampson_convexity_error_in_blocks_names_the_first_worst_node(monkeypatch):
    # two equal dents phi_rhorho = -0.1 / 0.1^2 in different blocks of two
    # columns: the one at the smaller node, in the later block, comes first in
    # the window's C order, so one argmin over the window names it
    rho = np.linspace(-1, 1, 21)
    dom = make_interval(9)
    phi = np.zeros(dom.shape + rho.shape)
    phi[5, 4] = phi[3, 14] = 0.05
    with pytest.raises(ConvexityError) as one_shot:
        eells_sampson_operator(phi, dom, rho)
    monkeypatch.setattr(flows, "LSE_BLOCK", 4 * 9)
    message = r"phi_rhorho = -10 at domain node \(3,\), rho = 0.4$"
    with pytest.raises(ConvexityError, match=message) as blocked:
        eells_sampson_residual(phi, dom, rho)
    assert str(blocked.value) == str(one_shot.value)
    # a fiber Hessian of zero everywhere: the window's first node and rho
    with pytest.raises(ConvexityError, match=r"= 0 at domain node \(2,\), rho = -0.8$"):
        eells_sampson_residual(np.zeros_like(phi), dom, rho)


@pytest.mark.parametrize("fn", [hcma_residual, eells_sampson_residual,
                                hcma_operator, eells_sampson_operator])
def test_residuals_reject_a_non_uniform_rho_axis(fn):
    # rho = 4 t^3: the stencils would read rho[1] - rho[0] as the step
    family = geodesic_family(a=0.1, n_t=9, n_x=201, k_max=16)
    rho = 4.0 * np.linspace(-1.0, 1.0, 401) ** 3
    phi = kahler_field(family, rho).values
    with pytest.raises(ValueError, match="^rho axis must be uniformly spaced$"):
        fn(phi, family.domain, rho)


def test_residual_window_needs_a_margin_off_the_rho_ends_and_a_node():
    rho = np.linspace(-2, 2, 41)
    dom = make_disc(7, 64)
    phi = np.broadcast_to(np.logaddexp(0, rho), dom.shape + rho.shape)
    for residual in (hcma_residual, eells_sampson_residual):
        with pytest.raises(ValueError, match="^margin = 0: "):
            residual(phi, dom, rho, margin=0)
        assert residual(phi, dom, rho, margin=1).count == 5 * 64 * 39
        # 7 radii leave no ring 4 cells inside the uniform block
        with pytest.raises(ValueError, match=r"^DiscDomain of shape \(8, 64\), 41 rho: "
                           r"the residual window .* at margin 4 is empty$"):
            residual(phi, dom, rho, margin=4)


def test_hcma_residual_peak_memory_is_the_window_and_a_few_blocks():
    # a 9 x 256 disc with 601 rho, the bench disc's shape: the whole-grid
    # operator held ~74 MB above its input here, six full-grid arrays
    dom = make_disc(9, 256)
    rho = np.linspace(-4.0, 4.0, 601)
    r, g = dom.radii[:, None, None], dom.angles[None, :, None]
    phi = 0.7 * r * np.cos(g) + 0.3 * r * np.sin(g) + np.logaddexp(0, rho)
    tracemalloc.start()
    try:
        rep = hcma_residual(phi, dom, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # |res| on the window (5 x 256 x 597) and the operator's stencil
    # temporaries on one block of at most LSE_BLOCK values (measured: 8
    # blocks); one full-grid array (10 x 256 x 601) is 23.5 blocks
    window = 8 * rep.count
    assert peak <= window + 12 * 8 * LSE_BLOCK + 1024 * 1024


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
