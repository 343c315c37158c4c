import functools
import json
import math

import numpy as np
import pytest

from toricmaps import harness
from toricmaps.bergman import QuadratureError
from toricmaps.dirichlet import make_disc, make_interval, make_rectangle
from toricmaps.harness import (ERROR_COLUMNS, ExperimentConfig,
                               HarmonicPotentialFamily, build_approximants,
                               error_norms, error_report, geodesic_family,
                               kahler_field, loop_family, rate_fit,
                               run_experiment, solve_harmonic_map,
                               window_rho_bounds,
                               write_error_csv, write_error_dat)
from toricmaps.polytope import preset_polytope
from toricmaps.potentials import (ConvexityError, NewtonError,
                                  _canonical_inverse_guess,
                                  _invert_monotone_1d, _x_bracket,
                                  default_margin, guillemin_potential,
                                  make_polytope_grid, preset_symplectic)

P = preset_polytope("interval")


@pytest.fixture(scope="module")
def geo():
    family = geodesic_family(a=0.1, n_t=9, n_x=401, k_max=32)
    rho = np.linspace(-3.0, 3.0, 401)
    field = kahler_field(family, rho)
    approx = build_approximants(family, (4, 8, 16, 32))
    return family, rho, field, approx


def test_geodesic_cross_check(geo):
    # the solved family matches the segment formula u0 + t a prod(ell) nodewise
    family, _, _, _ = geo
    t = family.domain.nodes
    x = family.xgrid.axes[0]
    direct = t[:, None] * (0.1 * x * (1 - x))[None, :]
    assert np.max(np.abs(family.f - direct)) < 1e-10
    u_mid = family.potential_at((4,))
    expected = guillemin_potential(P, 0.3) + t[4] * 0.1 * 0.3 * 0.7
    assert float(u_mid.value(np.asarray(0.3))) == pytest.approx(expected, abs=1e-10)


def test_disc_family_closed_form():
    family = loop_family(a=0.05, n_radii=7, n_angles=256, n_x=201, k_max=8)
    dom = family.domain
    x = family.xgrid.axes[0]
    r = dom.radii[:, None, None]
    g = dom.angles[None, :, None]
    direct = 0.05 * (1.0 + r * np.cos(g)) * (x * (1 - x))[None, None, :]
    assert np.max(np.abs(family.f - direct)) < 1e-9


def test_rectangle_family_end_to_end():
    # a q(y) prod ell with q harmonic and quadratic: the 5-point Laplacian is
    # exact on it, so the solve reproduces the closed form to rounding
    from toricmaps.dirichlet import make_rectangle
    from toricmaps.potentials import SymplecticPotential, _product_ell_closed
    dom = make_rectangle(9, 9)
    y1, y2 = np.meshgrid(dom.x_nodes, dom.y_nodes, indexing="ij")
    coeff = 0.1 * (0.8 + 0.3 * y1 - 0.2 * y2 + 0.4 * (y1 * y1 - y2 * y2) - 0.3 * y1 * y2)
    xg = make_polytope_grid(P, 201, default_margin(8))
    bps = [SymplecticPotential(P, xg, f_closed=_product_ell_closed(P, float(c)))
           for c in coeff[dom.boundary_mask()]]
    family = solve_harmonic_map(dom, xg, bps,
                                lambda idx: _product_ell_closed(P, float(coeff[idx])))
    x = xg.axes[0]
    assert np.max(np.abs(family.f - coeff[..., None] * x * (1.0 - x))) < 1e-13
    rho = np.linspace(-3.0, 3.0, 201)
    field = kahler_field(family, rho)
    approx = build_approximants(family, (4, 8))
    report = error_report(family, field, approx, window=0.1)
    assert report.meta["ref_y_index"] == (0, 0)
    assert np.all(np.isfinite([report.column(c) for c in ERROR_COLUMNS]))
    assert np.all(np.diff(report.column("C0")) < 0)


def test_solve_harmonic_map_validation():
    dom = make_interval(5)
    xg = make_polytope_grid(P, 101, 1e-2)
    u = preset_symplectic("guillemin", P, xg)
    with pytest.raises(ValueError, match="boundary"):
        solve_harmonic_map(dom, xg, [u])
    other = make_polytope_grid(P, 99, 1e-2)
    u2 = preset_symplectic("guillemin", P, other)
    with pytest.raises(ValueError, match="common grid"):
        solve_harmonic_map(dom, xg, [u, u2])


def test_extension_convexity_guard():
    # boundary potentials convex, but a forged interior slice is flagged
    dom = make_interval(5)
    xg = make_polytope_grid(P, 101, 1e-2)
    u = preset_symplectic("guillemin", P, xg)
    fam = solve_harmonic_map(dom, xg, [u, u])
    from toricmaps.harness import HarmonicPotentialFamily, _assert_family_convexity
    bad_f = fam.f.copy()
    bad_f[2] = -5.0 * xg.axes[0] ** 2
    bad = HarmonicPotentialFamily(domain=dom, xgrid=xg,
                                  boundary_potentials=fam.boundary_potentials,
                                  f=bad_f)
    with pytest.raises(ConvexityError):
        _assert_family_convexity(bad)


def test_error_norms_zero_and_constant_shift(geo):
    family, rho, field, _ = geo
    bounds = window_rho_bounds(family.boundary_potentials[0], 0.1)
    mask = (rho >= bounds[0]) & (rho <= bounds[1])
    zeros = error_norms(np.zeros_like(field.values), family.domain, rho, mask, (0,))
    assert all(v == 0.0 for v in zeros.values())
    const = error_norms(np.full_like(field.values, 1.5), family.domain, rho,
                        mask, (0,))
    assert const["C0"] == 0.0
    assert const["C1_y"] == 0.0 and const["C2_rhorho"] == 0.0


def _linear_field(domain, b, c, swap=False):
    """L = 0.3 + b y1 + c y2 in Cartesian coordinates of N (the interval: 0.3 + b t)."""
    if hasattr(domain, "radii"):
        r, g = domain.radii[:, None], domain.angles[None, :]
        y1, y2 = r * np.cos(g), r * np.sin(g)
        if swap:
            y1, y2 = y2, y1
        return 0.3 + b * y1 + c * y2, math.hypot(b, c)
    if hasattr(domain, "x_nodes"):
        y1, y2 = np.meshgrid(domain.x_nodes, domain.y_nodes, indexing="ij")
        return 0.3 + b * y1 + c * y2, math.hypot(b, c)
    return 0.3 + b * domain.nodes, abs(b)


@pytest.mark.parametrize("domain", [make_interval(17), make_rectangle(13, 11),
                                    make_disc(9, 64)],
                         ids=["interval", "rectangle", "disc"])
def test_error_norms_of_a_linear_field_use_the_orthonormal_frame(domain):
    # E = L(y) psi(rho) with L linear in Cartesian coordinates: |grad_y E| =
    # |grad L| |psi| at every node and the y-Hessian vanishes, both up to the
    # O(h^2) angular truncation on the disc
    rho = np.linspace(-2.0, 2.0, 81)
    mask = np.abs(rho) <= 1.5
    psi = 1.0 + 0.5 * np.sin(rho)
    h2 = max(domain.spacings.values()) ** 2
    c1 = []
    for swap in (False, True):
        L, grad_norm = _linear_field(domain, 0.7, -0.4, swap)
        scale = grad_norm * np.max(psi[mask])
        norms = error_norms(L[..., None] * psi, domain, rho, mask, domain.reference_node)
        assert norms["C1_y"] == pytest.approx(scale, rel=h2)
        assert norms["C2_yy"] <= h2 * scale
        magnitude = np.sqrt(sum(g**2 for g in domain.gradient(L)))
        np.testing.assert_allclose(magnitude[domain.interior(1)], grad_norm, rtol=h2)
        c1.append(norms["C1_y"])
    assert c1[1] == pytest.approx(c1[0], rel=h2)


def test_error_report_monotone_window(geo):
    family, rho, field, approx = geo
    rep_narrow = error_report(family, field, approx, window=0.2)
    rep_wide = error_report(family, field, approx, window=0.1)
    for col in ERROR_COLUMNS:
        assert np.all(rep_narrow.column(col) <= rep_wide.column(col) * (1 + 1e-12))


def test_error_report_decreasing(geo):
    family, rho, field, approx = geo
    rep = error_report(family, field, approx, window=0.1)
    assert np.all(np.diff(rep.column("C0")) < 0)


def test_rate_fit_models():
    ks = (8, 16, 32, 64)
    logk = [math.log(k) / k for k in ks]
    fit = rate_fit(ks, logk)
    assert fit.statistic_spread < 1e-10
    fit2 = rate_fit(ks, [k ** -0.5 for k in ks])
    assert fit2.slope == pytest.approx(-0.5, abs=1e-10)
    fit3 = rate_fit(ks, [0.0, 0.0, 0.0, 0.0])
    assert fit3.exact_match
    with pytest.raises(ValueError):
        rate_fit((8, 16, 32), [1, 2, 3])


def test_measured_rate_slope(geo):
    family, rho, field, approx = geo
    rep = error_report(family, field, approx, window=0.1)
    fit = rate_fit(rep.levels, rep.column("C0"))
    assert fit.slope <= -0.8
    assert fit.power_model_rmse <= fit.logk_model_rmse * 10


def test_pipeline_determinism(tmp_path):
    outputs = []
    for run in range(2):
        family = geodesic_family(a=0.1, n_t=5, n_x=201, k_max=8)
        rho = np.linspace(-2.0, 2.0, 201)
        field = kahler_field(family, rho)
        approx = build_approximants(family, (4, 8))
        rep = error_report(family, field, approx, window=0.1)
        path = tmp_path / f"run{run}.csv"
        write_error_csv(rep, path)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_output_files(tmp_path, geo):
    family, rho, field, approx = geo
    rep = error_report(family, field, approx, window=0.1)
    csv_path = tmp_path / "errors.csv"
    dat_path = tmp_path / "errors.dat"
    write_error_csv(rep, csv_path)
    write_error_dat(rep, dat_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "k,C0,C1_y,C1_rho,C2_rhorho,C2_yrho,C2_yy"
    assert dat_path.read_text().startswith("# k C0")
    assert len(csv_path.read_text().splitlines()) == 1 + len(rep.levels)


def test_config_parsing():
    cfg = ExperimentConfig.from_json(json.dumps(
        {"levels": [8, 16, 32, 64], "n_x": 801, "window": 0.12}))
    assert cfg.levels == (8, 16, 32, 64)
    assert cfg.window == 0.12
    assert cfg.build_polytope().dim == 1
    with pytest.raises(ValueError, match="unknown config"):
        ExperimentConfig.from_json(json.dumps({"bogus": 1}))
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(levels=(8, 8))
    with pytest.raises(ValueError, match="coarse"):
        ExperimentConfig(levels=(8, 16, 32, 64), n_x=100)
    cfg2 = ExperimentConfig.from_json(json.dumps(
        {"polytope": {"dim": 1, "facets": [{"normal": [1], "offset": 0},
                                           {"normal": [-1], "offset": 2}]}}))
    assert cfg2.build_polytope().bounding_box()[1][0] == 2.0


def test_config_rejects_a_resolution_no_family_runs():
    with pytest.raises(ValueError, match="'rectangle'"):
        ExperimentConfig.from_json({"domain": "rectangle", "resolution": [9, 9]})


def test_config_rejects_a_resolution_of_the_wrong_length():
    with pytest.raises(ValueError, match="'disc' needs 2 value"):
        ExperimentConfig.from_json({"domain": "disc", "resolution": [9]})
    with pytest.raises(ValueError, match="'interval' needs 1 value"):
        ExperimentConfig.from_json({"resolution": [17, 256]})
    cfg = ExperimentConfig.from_json({"domain": "disc", "resolution": [5, 64]})
    assert (cfg.n_radii, cfg.n_angles) == (5, 64)


def test_run_experiment_rejects_what_no_family_runs():
    for cfg, field in ((ExperimentConfig(domain="disc"), "boundary_family"),
                       (ExperimentConfig(boundary_family="loop(0.05)"), "boundary_family"),
                       (ExperimentConfig(boundary_family="geodesic"), "boundary_family"),
                       (ExperimentConfig(domain="rectangle"), "domain"),
                       (ExperimentConfig(polytope="square"), "polytope")):
        with pytest.raises(ValueError, match=f"^{field}"):
            run_experiment(cfg)


def test_run_experiment_is_the_hand_built_pipeline(geo):
    family, rho, field, approx = geo
    res = run_experiment(ExperimentConfig(levels=(4, 8, 16, 32), n_y=9, n_x=401,
                                          n_rho=401, rho_span=3.0))
    assert np.array_equal(res.field.values, field.values)
    assert sorted(res.approximants) == [4, 8, 16, 32]
    rep = error_report(family, field, approx, window=0.1)
    for col in ERROR_COLUMNS:
        assert np.array_equal(res.report.column(col), rep.column(col))


def test_run_experiment_builds_the_disc_family_of_its_config():
    cfg = ExperimentConfig(domain="disc", boundary_family="loop(0.03)", levels=(4, 8),
                           n_radii=5, n_angles=64, n_x=201, n_rho=121)
    res = run_experiment(cfg)
    family = loop_family(a=0.03, n_radii=5, n_angles=64, n_x=201, k_max=8)
    assert res.family.domain.shape == family.domain.shape
    assert np.array_equal(res.family.f, family.f)
    assert res.report.levels == (4, 8)


def test_window_rho_bounds():
    u = preset_symplectic("guillemin", P)
    lo, hi = window_rho_bounds(u, 0.1)
    assert lo == pytest.approx(math.log(1 / 9), abs=1e-12)
    assert hi == pytest.approx(math.log(9), abs=1e-12)


def test_equal_endpoints_give_constant_family():
    dom = make_interval(7)
    xg = make_polytope_grid(P, 201, 1e-2)
    u = preset_symplectic("perturbed(0.05)", P, xg)
    fam = solve_harmonic_map(dom, xg, [u, u])
    # (1-t) v + t v re-rounds at the last ulp for generic t
    assert np.max(np.abs(fam.f - fam.f[:1])) < 1e-15
    rho = np.linspace(-2, 2, 51)
    field = kahler_field(fam, rho)
    assert np.max(np.abs(field.values - field.values[:1])) < 1e-11


# -- the batched Legendre inversion ----------------------------------------------

def per_node_field(family, rho):
    """Reference: one safeguarded Newton solve per domain node, as kahler_field
    did before it batched the nodes; same bracket, seed and evaluators."""
    x_nodes = family.xgrid.axes[0]
    h = x_nodes[1] - x_nodes[0]
    fgrad_bound = float(np.max(np.abs(np.gradient(family.f, h, axis=-1)))) + 1.0
    nodes = family.node_indices()
    a, b = _x_bracket(family.potential_at(nodes[0]), float(rho.min()) - 2 * fgrad_bound,
                      float(rho.max()) + 2 * fgrad_bound)
    guess = np.clip(_canonical_inverse_guess(family.xgrid.polytope, rho), a, b)
    values = np.empty(family.domain.shape + rho.shape)
    moment = np.empty_like(values)
    for idx in nodes:
        pot = family.potential_at(idx)
        x = _invert_monotone_1d(pot.grad, pot.hess, rho, a, b,
                                what="symplectic gradient", s0=guess)
        values[idx] = x * rho - np.asarray(pot.value(x))
        moment[idx] = x
    return values, moment


def sampled_interval_family():
    """Interval family without a closed form (spline evaluators), built like the
    flow-duality check's snapshots."""
    domain = make_interval(9)
    xgrid = make_polytope_grid(P, 201, 1e-3)
    t = domain.nodes
    x = xgrid.axes[0]
    f = (0.1 * t + 0.2 * t * (1.0 - t))[:, None] * (x * (1.0 - x))[None, :]
    return HarmonicPotentialFamily(domain=domain, xgrid=xgrid,
                                   boundary_potentials=(), f=f)


@pytest.mark.parametrize("make_family", [
    lambda: loop_family(a=0.05, n_radii=4, n_angles=64, n_x=201, k_max=8),
    sampled_interval_family,
], ids=["disc-closed-form", "interval-spline"])
def test_kahler_field_is_bitwise_the_per_node_solve(make_family):
    family = make_family()
    rho = np.linspace(-4.0, 4.0, 121)
    field = kahler_field(family, rho)
    values, moment = per_node_field(family, rho)
    assert np.array_equal(field.values, values)
    assert np.array_equal(field.moment, moment)


def test_kahler_field_failure_names_node_and_rho(monkeypatch):
    family = loop_family(a=0.05, n_radii=4, n_angles=64, n_x=201, k_max=8)
    rho = np.linspace(-4.0, 4.0, 31)
    monkeypatch.setattr(harness, "_invert_monotone_1d",
                        functools.partial(_invert_monotone_1d, max_iter=1))
    with pytest.raises(NewtonError) as info:
        kahler_field(family, rho)
    flat, j = info.value.__cause__.index
    node = family.node_indices()[flat]
    assert info.value.index == node + (j,)
    assert f"at domain node {node}, rho = {rho[j]:.6g}" in str(info.value)


def test_boundary_quadrature_failure_names_node_and_level():
    # one Gauss panel resolves k = 16 but not the narrower peaks of k = 32
    family = geodesic_family(a=0.1, n_t=5, n_x=201, k_max=32)
    build_approximants(family, (16,), n_panels=1)
    with pytest.raises(QuadratureError) as info:
        build_approximants(family, (16, 32), n_panels=1)
    assert str(info.value).endswith("for boundary node 0 at level k = 32")
    assert isinstance(info.value.__cause__, QuadratureError)
    assert str(info.value).startswith(str(info.value.__cause__))
