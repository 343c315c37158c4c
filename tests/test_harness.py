import contextlib
import ctypes
import json
import math
import os
import re
import signal
import threading
import time
import tracemalloc
import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricmaps import bergman, harness, polytope, potentials
from toricmaps.acceptance import flow_start
from toricmaps.bergman import BergmanFamily, QuadratureError, norming_constants
from toricmaps.dirichlet import _d1, _d2, make_disc, make_interval, make_rectangle
from toricmaps.flows import heat_evolve
from toricmaps.harness import (ERROR_COLUMNS, ExperimentConfig,
                               build_approximants, error_norms, error_report,
                               geodesic_family, kahler_field, loop_family, rate_fit,
                               run_experiment, solve_harmonic_map,
                               window_rho_bounds,
                               write_error_csv, write_error_dat)
from toricmaps.polytope import preset_polytope
from toricmaps.potentials import (LSE_BLOCK, ClosedForm, ConvexityError, NewtonError,
                                  SymplecticPotential, _canonical_inverse_guess,
                                  _product_ell_closed,
                                  _invert_monotone_1d, _x_bracket,
                                  default_margin, guillemin_potential,
                                  make_polytope_grid, product_potential)

P = preset_polytope("interval")
PR_SET_CHILD_SUBREAPER = 36     # prctl option, <linux/prctl.h>


def from_json(doc) -> ExperimentConfig:
    """The config a JSON document (a mapping or its text) sets, as the CLI builds it."""
    return ExperimentConfig(**ExperimentConfig.json_fields(doc))


@pytest.fixture(scope="module")
def geo():
    family = geodesic_family(a=0.1, n_t=9)
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
    family = loop_family(a=0.05, n_radii=7, n_angles=256)
    dom = family.domain
    x = family.xgrid.axes[0]
    r = dom.radii[:, None, None]
    g = dom.angles[None, :, None]
    direct = 0.05 * (1.0 + r * np.cos(g)) * (x * (1 - x))[None, None, :]
    assert np.max(np.abs(family.f - direct)) < 1e-9


@pytest.mark.parametrize("build", [
    lambda: geodesic_family(a=0.1, n_t=9),
    lambda: loop_family(a=0.05, n_radii=9, n_angles=64),
    lambda: loop_family(a=0.05, n_radii=9, n_angles=256),
], ids=["geodesic", "loop-9x64", "loop-9x256"])
def test_a_family_closed_forms_are_its_extension(build):
    # each node's closed form is read in place of the extended samples f, so
    # the two must be the same function on the grid, not two discretizations
    family = build()
    x = family.xgrid.axes[0]
    for idx in family.node_indices():
        gap = np.max(np.abs(family.closed_forms[idx].value(x) - family.f[idx]))
        assert gap <= 1e-15, (idx, gap)


def test_a_closed_form_that_is_not_the_extension_names_its_node():
    dom = make_interval(5)
    xg = make_polytope_grid(P, 101, default_margin(8))
    ends = [product_potential(P, c, xg) for c in (0.0, 0.1)]
    t = dom.nodes
    family = solve_harmonic_map(dom, xg, ends, lambda idx: _product_ell_closed(P, 0.1 * t[idx]))
    assert family.closed_forms is not None
    # twice the right coefficient: right at t = 0, off by 0.025 x (1 - x) at t = 1/4
    with pytest.raises(ValueError, match=(r"^the closed form of domain node \(1,\) differs from "
                                          r"the extended f by 0.00625 > 1e-10 at x = 0.5$")):
        solve_harmonic_map(dom, xg, ends, lambda idx: _product_ell_closed(P, 0.2 * t[idx]))


def rectangle_family():
    """The 9 x 9 rectangle family u0 + q(y) prod ell, q harmonic and quadratic;
    returns the family and q at the nodes."""
    from toricmaps.potentials import SymplecticPotential
    dom = make_rectangle(9, 9)
    y1, y2 = np.meshgrid(dom.x_nodes, dom.y_nodes, indexing="ij")
    coeff = 0.1 * (0.8 + 0.3 * y1 - 0.2 * y2 + 0.4 * (y1 * y1 - y2 * y2) - 0.3 * y1 * y2)
    xg = make_polytope_grid(P, 201, default_margin(8))
    bps = [SymplecticPotential(P, xg, f_closed=_product_ell_closed(P, float(c)))
           for c in coeff[dom.boundary_mask()]]
    family = solve_harmonic_map(dom, xg, bps,
                                lambda idx: _product_ell_closed(P, float(coeff[idx])))
    return family, coeff


def test_rectangle_family_end_to_end():
    # the 5-point Laplacian is exact on q, so the solve reproduces the closed
    # form to rounding
    family, coeff = rectangle_family()
    x = family.xgrid.axes[0]
    assert np.max(np.abs(family.f - coeff[..., None] * x * (1.0 - x))) < 1e-13
    rho = np.linspace(-3.0, 3.0, 201)
    field = kahler_field(family, rho)
    approx = build_approximants(family, (4, 8))
    report = error_report(family, field, approx, window=0.1)
    assert report.meta["ref_y_index"] == (0, 0)
    assert np.all(np.isfinite([report.column(c) for c in ERROR_COLUMNS]))
    assert np.all(np.diff(report.column("C0")) < 0)
    # Phi_k was evaluated on the window and one stencil column on each side
    on = np.flatnonzero(harness._rho_window_mask(rho, report.meta["rho_bounds"]))
    assert report.meta["n_rho_window"] == on.size
    assert report.meta["rho_eval_start"] == on[0] - 1
    assert report.meta["n_rho_eval"] == on.size + 2
    assert report.meta["rho_eval_bounds"] == (rho[on[0] - 1], rho[on[-1] + 1])


def test_solve_harmonic_map_validation():
    dom = make_interval(5)
    xg = make_polytope_grid(P, 101, 1e-2)
    u = product_potential(P, grid=xg)
    with pytest.raises(ValueError, match="boundary"):
        solve_harmonic_map(dom, xg, [u])
    other = make_polytope_grid(P, 99, 1e-2)
    u2 = product_potential(P, grid=other)
    with pytest.raises(ValueError, match="common grid"):
        solve_harmonic_map(dom, xg, [u, u2])


def test_extension_convexity_guard():
    # boundary potentials convex, but a forged interior slice is flagged
    dom = make_interval(5)
    xg = make_polytope_grid(P, 101, 1e-2)
    u = product_potential(P, grid=xg)
    fam = solve_harmonic_map(dom, xg, [u, u])
    bad_f = fam.f.copy()
    bad_f[2] = -5.0 * xg.axes[0] ** 2
    with pytest.raises(ConvexityError, match=r"domain nodes \[\[2\]\]$"):
        replace(fam, f=bad_f).check_convexity("harmonic extension")


def test_solved_family_rejects_a_wrongly_shaped_f():
    fam = geodesic_family(a=0.1, n_t=5)
    with pytest.raises(ValueError, match=r"shape \(5, 800\), expected \(5, 801\)"):
        replace(fam, f=fam.f[:, 1:])


def test_error_norms_zero_and_constant_shift(geo):
    family, rho, field, _ = geo
    bounds = window_rho_bounds(family.boundary_potentials[0], 0.1)
    mask = (rho >= bounds[0]) & (rho <= bounds[1])
    h_rho = rho[1] - rho[0]
    zeros = error_norms(np.zeros_like(field.values), family.domain, h_rho, mask, (0,))
    assert all(v == 0.0 for v in zeros.values())
    const = error_norms(np.full_like(field.values, 1.5), family.domain, h_rho,
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
        norms = error_norms(L[..., None] * psi, domain, rho[1] - rho[0], mask,
                            domain.reference_node)
        assert norms["C1_y"] == pytest.approx(scale, rel=h2)
        assert norms["C2_yy"] <= h2 * scale
        magnitude = np.sqrt(sum(g**2 for g in domain.gradient(L)))
        np.testing.assert_allclose(magnitude[domain.interior(1)], grad_norm, rtol=h2)
        c1.append(norms["C1_y"])
    assert c1[1] == pytest.approx(c1[0], rel=h2)


def test_empty_c2_interior_fails_before_any_phi_k(monkeypatch):
    # 4 radii and the boundary ring leave no node two steps inside the disc
    family = loop_family(a=0.05, n_radii=4, n_angles=64)
    rho = np.linspace(-3.0, 3.0, 61)
    field = kahler_field(family, rho)
    approx = build_approximants(family, (4, 8))
    message = r"^DiscDomain of shape \(5, 64\): interior\(2\) = .* is empty"
    with pytest.raises(ValueError, match=message):
        error_norms(field.values, family.domain, rho[1] - rho[0],
                    np.ones(rho.shape, dtype=bool), family.domain.reference_node)
    evaluated = []
    monkeypatch.setattr(BergmanFamily, "field", lambda self, r: evaluated.append(r))
    with pytest.raises(ValueError, match=message):
        error_report(family, field, approx, window=0.1)
    assert evaluated == []


def test_a_non_finite_norm_names_its_column_and_level(geo, monkeypatch):
    family, rho, field, approx = geo
    E = np.zeros_like(field.values)
    E[4, 200] = np.nan
    mask = np.ones(rho.shape, dtype=bool)
    with pytest.raises(ValueError, match=r"^error norm C0 = nan is not finite$"):
        error_norms(E, family.domain, rho[1] - rho[0], mask, (0,))
    monkeypatch.setattr(BergmanFamily, "field",
                        lambda self, r: np.full(family.domain.shape + r.shape, np.nan))
    with pytest.raises(ValueError, match=r"C0 = nan is not finite at level k = 4$"):
        error_report(family, field, approx, window=0.1)


def test_config_rejects_a_domain_without_c2_nodes():
    with pytest.raises(ValueError, match="^n_radii = 4 on domain 'disc'"):
        ExperimentConfig(domain="disc", a=0.03, levels=(4, 8),
                         n_radii=4, n_angles=64, n_rho=121)
    with pytest.raises(ValueError, match="^n_y = 4 on domain 'interval'"):
        from_json({"n_y": 4})
    assert ExperimentConfig(n_y=5).n_y == 5


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
    # machine-level errors have no log: the first level is named
    with pytest.raises(ValueError, match=r"level k = 8 has error 0\.0$"):
        rate_fit(ks, [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        rate_fit((8, 16, 32), [1, 2, 3])
    assert [f.name for f in dataclasses.fields(fit)] == [
        "slope", "statistic", "statistic_spread"]


def test_measured_rate_slope(geo):
    family, rho, field, approx = geo
    rep = error_report(family, field, approx, window=0.1)
    fit = rate_fit(rep.levels, rep.column("C0"))
    assert fit.slope <= -0.8


def test_pipeline_determinism(tmp_path):
    outputs = []
    for run in range(2):
        family = geodesic_family(a=0.1, n_t=5)
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
    cfg = from_json(json.dumps(
        {"levels": [8, 16, 32, 64], "window": 0.12}))
    assert cfg.levels == (8, 16, 32, 64)
    assert cfg.window == 0.12
    with pytest.raises(ValueError, match="unknown config"):
        from_json(json.dumps({"bogus": 1}))
    with pytest.raises(ValueError, match="^a config is a JSON object, not an array$"):
        from_json('[["a", 0.2]]')
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(levels=(8, 8))
    # the x-grid is no setting: the families sample f on one fixed grid
    with pytest.raises(ValueError, match=r"^unknown config keys: \['n_x'\]$"):
        from_json({"n_x": 801})


def test_config_has_one_spelling_per_field():
    assert [f for f in ExperimentConfig.__dataclass_fields__] == [
        "domain", "a", "levels", "n_y", "n_radii", "n_angles", "n_rho", "rho_span",
        "window"]
    # a disc config without `a` runs the loop family at the default amplitude
    assert ExperimentConfig(domain="disc").a == 0.1


def test_config_rejects_a_resolution_no_family_runs():
    with pytest.raises(ValueError, match="^domain 'rectangle': no experiment family"):
        ExperimentConfig(domain="rectangle")
    with pytest.raises(ValueError, match="^domain 'rectangle'"):
        from_json({"domain": "rectangle", "n_y": 9})


def test_config_rejects_a_resolution_of_the_wrong_length():
    # the compact `resolution` list is gone: each node count has one key
    for doc in ({"domain": "disc", "resolution": [9]}, {"resolution": [17, 256]},
                {"domain": "disc", "resolution": [5, 64]}):
        with pytest.raises(ValueError, match=r"^unknown config keys: \['resolution'\]$"):
            from_json(doc)
    cfg = from_json({"domain": "disc", "n_radii": 5, "n_angles": 64})
    assert (cfg.n_radii, cfg.n_angles) == (5, 64)


def test_run_experiment_rejects_what_no_family_runs():
    # every such config fails where it is built, before run_experiment
    for doc, message in (({"domain": "rectangle"}, "^domain 'rectangle'"),
                         ({"boundary_family": "loop(0.05)"},
                          r"^unknown config keys: \['boundary_family'\]$"),
                         ({"polytope": "square"}, r"^unknown config keys: \['polytope'\]$")):
        with pytest.raises(ValueError, match=message):
            from_json(doc)
    with pytest.raises(TypeError, match="polytope"):
        ExperimentConfig(polytope="interval")


@pytest.mark.parametrize("key,value,kind", [
    ("levels", 8, "a non-empty list of ints"),
    ("levels", [], "a non-empty list of ints"),
    ("levels", [8, 16.0], "a non-empty list of ints"),
    ("levels", [True, 2], "a non-empty list of ints"),
    ("n_angles", "64", "an int"),
    ("n_y", 9.0, "an int"),
    ("n_rho", True, "an int"),
    ("window", "0.1", "a number"),
    ("a", None, "a number"),
    ("rho_span", False, "a number"),
    ("domain", 1, "a string"),
])
def test_config_type_checks_every_field(key, value, kind):
    message = f"^{key}: {re.escape(repr(value))} is not {kind}$"
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{key: value})
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.check_types({key: value})


def test_config_float_fields_take_ints():
    cfg = ExperimentConfig(a=1, rho_span=3)
    assert (cfg.a, cfg.rho_span) == (1, 3)
    # no int lies in window's range (0, 1/2): the type check passes 0, the range check rejects it
    with pytest.raises(ValueError, match="^window = 0: the interior window"):
        ExperimentConfig(window=0)
    assert ExperimentConfig(levels=[4, 8]).levels == (4, 8)


@pytest.mark.parametrize("kwargs,message", [
    ({"levels": (0, 8)}, "levels = [0, 8]: every level k must be >= 1"),
    ({"levels": (-4,)}, "levels = [-4]: every level k must be >= 1"),
    ({"n_rho": 3}, "n_rho = 3, rho_span = 4.0: no rho node lies inside the window"),
    ({"a": 2.1}, "a = 2.1: the boundary potential u0 + c prod ell with c = 2.1 is not convex"),
    ({"rho_span": 35.0}, "rho_span = 35.0, a = 0.1: the Legendre inversion brackets"),
    ({"window": 1e-17}, "window = 1e-17: the interior window"),
    ({"rho_span": 1e-200}, "rho_span = 1e-200, n_rho = 801: the rho step 2.5e-203 squared"),
    ({"domain": "disc", "n_angles": 32}, "n_angles = 32 on domain 'disc': the angular"),
    ({"domain": "disc", "n_angles": 65}, "n_angles = 65 on domain 'disc': the angular"),
    ({"domain": "disc", "a": 1.05}, "a = 1.05: the boundary potential u0 + c prod ell "
                                    "with c = 2.1 is not convex"),
    ({"domain": "disc", "a": -8.0}, "rho_span = 4.0, a = -8.0: the Legendre inversion"),
], ids=["level-0", "level-negative", "n_rho-3", "a-2.1", "rho_span-35", "window-1e-17",
        "rho_span-1e-200", "disc-n_angles-32", "disc-n_angles-65", "disc-a-1.05",
        "disc-a-negative-reach"])
def test_config_rejects_a_run_it_cannot_honour_naming_the_key(kwargs, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        ExperimentConfig(**kwargs)


def test_config_convexity_bound_on_a_is_the_analytic_one():
    # u0'' >= 4 and (c prod ell)'' = -2c: the geodesic (c in {0, a}) is convex
    # for a < 2 and the loop (c up to 2a) for a < 1; a <= 0 is convex on both
    for domain, bound in (("interval", 2.0), ("disc", 1.0)):
        for a in (-1.0, 0.0, 0.95 * bound):
            assert ExperimentConfig(domain=domain, a=a).a == a
        with pytest.raises(ValueError, match=f"^a = {bound}: "):
            ExperimentConfig(domain=domain, a=bound)


_SIZES = {       # the tiny pipeline's resolutions, and values no run can honour
    "levels": st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True).map(sorted)
    | st.sampled_from([[0, 4], [4, 4], [8, 4], [], 8, [4.0], [-2]]),
    "n_y": st.integers(5, 9) | st.sampled_from([4, 0, 9.0, True]),
    "n_radii": st.integers(5, 6) | st.sampled_from([4, "5"]),
    "n_angles": st.just(64) | st.sampled_from([32, 65, 0, 64.0]),
    "n_rho": st.integers(5, 81) | st.sampled_from([3, 2, -1]),
}
_KNOBS = {       # the rest, drawn or left at their defaults
    "domain": st.sampled_from(["interval", "interval", "interval", "disc"])
    | st.sampled_from(["rectangle", 1]),
    "a": st.floats(-3.0, 2.5) | st.sampled_from([math.nan, math.inf, -math.inf, -40.0, "0.1"]),
    "rho_span": st.floats(1e-300, 36.0) | st.sampled_from([0.0, -1.0, math.nan, math.inf, False]),
    "window": st.floats(1e-12, 0.5) | st.sampled_from([0, 0.5, 1e-300, -0.1, math.nan]),
}


_TINY = {"levels": [4, 8], "n_y": 5, "n_radii": 5, "n_angles": 64, "n_rho": 41}


# the examples sit at the edge of each range check, so dropping any check fails here
@settings(max_examples=20, deadline=None)
@given(st.fixed_dictionaries(_SIZES, optional=_KNOBS))
@example(dict(_TINY, a=1.99))
@example(dict(_TINY, a=2.5))
@example(dict(_TINY, a=0.99, domain="disc"))
@example(dict(_TINY, a=-15.0))
@example(dict(_TINY, a=-25.0))
@example(dict(_TINY, a=math.inf))
@example(dict(_TINY, levels=[0, 4]))
@example(dict(_TINY, n_angles=62, domain="disc"))
@example(dict(_TINY, window=1e-300))
@example(dict(_TINY, n_rho=3))
@example(dict(_TINY, rho_span=1e-152))
@example(dict(_TINY, rho_span=1e-170))
def test_a_config_is_rejected_naming_a_field_or_runs_to_a_finite_report(doc):
    try:
        cfg = ExperimentConfig(**doc)
    except ValueError as exc:
        named = re.match(r"(\w+)( = |: | must | ')", str(exc))
        assert named and named.group(1) in ExperimentConfig.__dataclass_fields__, str(exc)
        return
    report = run_experiment(cfg).report
    assert all(np.all(np.isfinite(report.column(col))) for col in ERROR_COLUMNS)


@pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
def test_config_rejects_a_non_finite_amplitude(a):
    # inf times the family's 0 coefficient would read "c = nan"
    with pytest.raises(ValueError, match=rf"^a = {a}: the family's amplitude must be finite$"):
        ExperimentConfig(a=a)


def test_error_report_rejects_a_non_uniform_rho_axis():
    # rho = 4 t^3: the differences would read rho[1] - rho[0] as the step
    family = geodesic_family(a=0.1, n_t=9)
    field = kahler_field(family, 4.0 * np.linspace(-1.0, 1.0, 401) ** 3)
    with pytest.raises(ValueError, match="^rho axis must be uniformly spaced$"):
        error_report(family, field, build_approximants(family, (4, 8, 16)))


def test_error_report_rejects_a_rho_axis_of_another_length(monkeypatch):
    # a 201-node axis on the 401-rho field read C0 ~ 1.22 at every level
    family = geodesic_family(a=0.1, n_t=9)
    field = kahler_field(family, np.linspace(-4.0, 4.0, 401))
    approx = build_approximants(family, (4, 8, 16))
    solved = []
    monkeypatch.setattr(harness, "_solve_blocks", lambda *a: solved.append(a))
    with pytest.raises(ValueError, match="^the rho axis has 201 nodes, the field's "
                       "last axis 401$"):
        error_report(family, harness.KahlerFamilyField(
            family.domain, np.linspace(-4.0, 4.0, 201), field.values), approx)
    assert not solved


@pytest.mark.parametrize("shape", [(2, 2), ()], ids=["2x2", "0-d"])
def test_kahler_field_rejects_a_rho_that_is_not_1d(shape):
    family = geodesic_family(a=0.1, n_t=9)
    rho = np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape)
    with pytest.raises(ValueError, match=rf"^rho axis must be 1-D, got shape "
                       rf"{re.escape(str(shape))}$"):
        kahler_field(family, rho)


@pytest.mark.parametrize("errors,k,bad", [
    ([0.1, 0.05, 0.0, 0.01], 32, "0.0"),
    ([0.1, -0.05, 0.02, 0.01], 16, "-0.05"),
    ([0.1, 0.05, math.nan, 0.01], 32, "nan"),
    ([0.0, math.nan, 0.0, 0.0], 16, "nan"),       # max((0.0, nan, 0.0, 0.0)) is 0.0
    ([0.1, 0.05, 0.02, math.inf], 64, "inf"),
], ids=["zero", "negative", "nan", "nan-among-zeros", "inf"])
def test_rate_fit_rejects_an_error_without_a_finite_log(errors, k, bad):
    with pytest.raises(ValueError, match=rf"^rate fitting needs finite positive errors: "
                       rf"level k = {k} has error {re.escape(bad)}$"):
        rate_fit((8, 16, 32, 64), errors)


def test_run_experiment_is_the_hand_built_pipeline(geo):
    family, rho, field, approx = geo
    res = run_experiment(ExperimentConfig(levels=(4, 8, 16, 32), n_y=9, n_rho=401,
                                          rho_span=3.0))
    assert np.array_equal(res.field.values, field.values)
    assert sorted(res.approximants) == [4, 8, 16, 32]
    rep = error_report(family, field, approx, window=0.1)
    for col in ERROR_COLUMNS:
        assert np.array_equal(res.report.column(col), rep.column(col))


def test_run_experiment_builds_the_disc_family_of_its_config():
    # the config once spelled boundary_family="loop(0.03)"
    cfg = ExperimentConfig(domain="disc", a=0.03, levels=(4, 8),
                           n_radii=5, n_angles=64, n_rho=121)
    res = run_experiment(cfg)
    family = loop_family(a=0.03, n_radii=5, n_angles=64)
    assert res.family.domain.shape == family.domain.shape
    assert np.array_equal(res.family.f, family.f)
    assert res.report.levels == (4, 8)


def closed_family_on(domain, c_boundary, n_x, margin):
    """u0 + c prod ell with boundary coefficients `c_boundary`, each node's
    closed form taken from the extended coefficients as `_product_family`
    does, sampled on n_x x-nodes at `margin`."""
    xg = make_polytope_grid(P, n_x, margin)
    c = np.asarray(c_boundary, dtype=float)
    coeff = domain.extend(c)
    return solve_harmonic_map(domain, xg, [product_potential(P, b, xg) for b in c],
                              lambda idx: _product_ell_closed(P, coeff[idx]))


@pytest.mark.parametrize("domain,c_boundary,levels", [
    (make_interval(17), [0.0, 0.1], (8, 16, 32, 64)),
    (make_disc(9, 64), 0.05 * (1.0 + np.cos(make_disc(9, 64).angles)), (8, 16)),
], ids=["interval", "disc-9x64"])
def test_the_x_grid_of_a_closed_form_family_moves_no_reported_bit(domain, c_boundary, levels):
    # every stage reads the closed forms, so the sampled f (17 nodes at margin
    # 1/32 against 801 at 1/256) feeds only checks: were f read anywhere,
    # the Kahler field, the norming exponents or the error norms would move
    rho = np.linspace(-4.0, 4.0, 401)
    runs = []
    for n_x, margin in ((17, 1 / 32), (801, 1 / 256)):
        family = closed_family_on(domain, c_boundary, n_x, margin)
        field = kahler_field(family, rho)
        approx = build_approximants(family, levels)
        runs.append((field.values, [approx[k].norming.lam for k in levels],
                     error_report(family, field, approx).norms))
    (field_a, lams_a, norms_a), (field_b, lams_b, norms_b) = runs
    assert np.array_equal(field_a, field_b)
    for lam_a, lam_b in zip(lams_a, lams_b):
        assert np.array_equal(lam_a, lam_b)
    for col in ERROR_COLUMNS:
        assert np.array_equal(norms_a[col], norms_b[col]), col


# ROADMAP item 25's rectangle: u0 + c x(1 - x) with a boundary c of no symmetry
RECTANGLE = make_rectangle(9, 7)
RECTANGLE_C = np.random.default_rng(0).uniform(0.05, 0.15, RECTANGLE.n_boundary)


@pytest.mark.parametrize("family,levels", [
    (lambda: geodesic_family(0.1, 17), (8, 16, 32, 64)),
    (lambda: loop_family(0.05, 9, 64), (8, 16, 32)),
    (lambda: closed_family_on(RECTANGLE, RECTANGLE_C, 801, 1 / 256), (8, 16, 32)),
], ids=["geodesic", "disc", "rectangle"])
def test_a_symmetric_family_reflects_in_rho(family, levels):
    # u(1 - x) = u(x) for every u0 + c x(1 - x), so Phi(-rho) = Phi(rho) - rho,
    # log Q_k(alpha) = log Q_k(k - alpha), and Phi_k reflects as Phi does:
    # E_k = Phi_k - Phi is even in rho.  A one-sided error (a quadrature range
    # cut at one end, an x-odd term) breaks it; an alpha <-> k - alpha slip
    # does not, since both sides of the slip agree on a symmetric table
    fam = family()
    rho = np.linspace(-4.0, 4.0, 801)
    phi = kahler_field(fam, rho).values
    gate = 256 * np.finfo(float).eps * np.max(np.abs(phi))
    assert np.max(np.abs(phi[..., ::-1] - (phi - rho))) <= gate
    for k, phi_k in build_approximants(fam, levels).items():
        E = phi_k.field(rho) - phi
        assert np.max(np.abs(E[..., ::-1] - E)) <= gate, k


def gauged_family(domain, c_boundary, s, d):
    """u0 + c x(1 - x) with boundary coefficients `c_boundary`, plus s x + d,
    on `product_potential`'s grid: each node's closed form is
    `_product_ell_closed` of its extended coefficient plus the linear term."""
    xg = product_potential(P).grid
    c = np.asarray(c_boundary, dtype=float)
    coeff = domain.extend(c)

    def closed(a):
        f = _product_ell_closed(P, a)
        return ClosedForm(lambda x: np.asarray(f.value(x)) + s * np.asarray(x) + d,
                          lambda x: np.asarray(f.grad(x)) + s, f.hess)

    return solve_harmonic_map(domain, xg, [SymplecticPotential(P, xg, f_closed=closed(b))
                                           for b in c], lambda idx: closed(coeff[idx]))


GEODESIC_GAUGE = (make_interval(17), [0.0, 0.1], (8, 16, 32, 64))
RECTANGLE_GAUGE = (RECTANGLE, RECTANGLE_C, (8, 16, 32))


@pytest.mark.parametrize("case,s,d", [
    pytest.param(GEODESIC_GAUGE, 0.5, 0.3, id="0.5-0.3"),
    pytest.param(GEODESIC_GAUGE, 1.25, -0.7, id="1.25--0.7"),
    pytest.param(RECTANGLE_GAUGE, 0.5, 0.3, id="rectangle-0.5-0.3"),
    pytest.param(RECTANGLE_GAUGE, 1.25, -0.7, id="rectangle-1.25--0.7"),
])
def test_a_linear_gauge_term_moves_the_approximants_as_it_moves_phi(case, s, d):
    # u' = u + s x + d has phi'(rho) = phi(rho - s) - d, log Q'_k(alpha) =
    # log Q_k(alpha) + s alpha + k d, hence lam' = lam + s alpha + k d and
    # E'_k(rho) = E_k(rho - s).  The term is odd under x -> 1 - x, so an
    # alpha <-> k - alpha slip in the norming rows breaks both relations.
    # s is a whole number of rho steps, so the shifted columns are grid columns
    domain, c, levels = case
    rho = np.linspace(-4.0, 4.0, 801)
    steps = round(s / (rho[1] - rho[0]))
    assert steps * (rho[1] - rho[0]) == pytest.approx(s, abs=1e-12)
    base = closed_family_on(domain, c, 801, 1 / 256)
    gauged = gauged_family(domain, c, s, d)
    phi = kahler_field(base, rho).values
    phi_g = kahler_field(gauged, rho).values
    gate = 256 * np.finfo(float).eps * max(np.max(np.abs(phi)), np.max(np.abs(phi_g)))
    approx, approx_g = build_approximants(base, levels), build_approximants(gauged, levels)
    for k in levels:
        norming, norming_g = approx[k].norming, approx_g[k].norming
        assert np.array_equal(norming.alphas, norming_g.alphas)
        alpha = norming.alphas[:, 0].astype(float).reshape((-1,) + (1,) * len(domain.shape))
        gap = norming_g.lam - norming.lam - s * alpha - k * d
        assert np.max(np.abs(gap)) <= 256 * np.finfo(float).eps * np.max(
            np.abs(norming_g.lam)), k
        E = approx[k].field(rho) - phi
        E_g = approx_g[k].field(rho) - phi_g
        assert np.max(np.abs(E_g[..., steps:] - E[..., :-steps])) <= gate, k


def test_window_rho_bounds():
    u = product_potential(P)
    lo, hi = window_rho_bounds(u, 0.1)
    assert lo == pytest.approx(math.log(1 / 9), abs=1e-12)
    assert hi == pytest.approx(math.log(9), abs=1e-12)


def test_equal_endpoints_give_constant_family():
    dom = make_interval(7)
    xg = make_polytope_grid(P, 201, 1e-2)
    u = product_potential(P, 0.05, xg)
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
    for idx in nodes:
        pot = family.potential_at(idx)
        x = _invert_monotone_1d(pot.grad, pot.hess, rho, a, b,
                                what="symplectic gradient", s0=guess)
        values[idx] = x * rho - np.asarray(pot.value(x))
    return values


def sampled_interval_family(steps=0):
    """Interval family without a closed form (spline evaluators): the
    flow-duality check's start data after `steps` heat steps."""
    state, dtau = flow_start(9, 201)
    return heat_evolve(state, dtau, steps)


def small_disc_family():
    return loop_family(a=0.05, n_radii=4, n_angles=64)


@pytest.mark.parametrize("make_family,n_rho", [
    (small_disc_family, 121),
    # 320 nodes in blocks of LSE_BLOCK // 2049 = 31 rows: ten full, one of 10
    (small_disc_family, 2049),
    (sampled_interval_family, 121),
    (lambda: sampled_interval_family(steps=20), 121),
], ids=["disc-closed-form", "disc-closed-form-11-blocks", "interval-spline",
        "interval-heat-flow"])
def test_kahler_field_is_bitwise_the_per_node_solve(make_family, n_rho):
    family = make_family()
    rho = np.linspace(-4.0, 4.0, n_rho)
    field = kahler_field(family, rho)
    assert np.array_equal(field.values, per_node_field(family, rho))


def test_kahler_field_rejects_a_non_finite_f_at_any_node(geo):
    family, rho, _, _ = geo
    f = family.f.copy()
    f[5, f.shape[-1] // 2] = np.nan
    with pytest.raises(ValueError, match=r"^smooth part f must be finite on the grid: it is "
                                         r"nan at domain node \(5,\), x = 0\.5$"):
        kahler_field(replace(family, f=f), rho)


def test_kahler_field_of_an_empty_rho_axis_is_empty():
    family = small_disc_family()
    field = kahler_field(family, np.array([]))
    assert field.values.shape == family.domain.shape + (0,)
    assert field.rho_axis.shape == (0,)


def test_bergman_field_of_an_empty_rho_axis_is_empty():
    family = small_disc_family()
    phi_k = build_approximants(family, (8,))[8]
    assert phi_k.field(np.array([])).shape == family.domain.shape + (0,)


# -- the error report on the window span ---------------------------------------

def full_axis_norms(family, phi_field, approximants, window):
    """Reference: every level's norms with Phi_k and each rho stencil over the
    whole rho axis, as error_report computed them before it sliced the axis."""
    rho = phi_field.rho_axis
    mask = harness._rho_window_mask(
        rho, window_rho_bounds(family.boundary_potentials[0], window))
    return {k: error_norms(approximants[k].field(rho) - phi_field.values, family.domain,
                           rho[1] - rho[0], mask, family.domain.reference_node)
            for k in approximants}


def assert_report_is_the_full_axis_one(family, rho, levels, window=0.1):
    phi_field = kahler_field(family, rho)
    approx = build_approximants(family, levels)
    report = error_report(family, phi_field, approx, window=window)
    reference = full_axis_norms(family, phi_field, approx, window)
    assert report.levels == levels
    for i, k in enumerate(levels):
        for col in ERROR_COLUMNS:
            assert report.column(col)[i] == reference[k][col], (k, col)
    return report


@pytest.mark.parametrize("make_family,levels,rho", [
    (lambda: geodesic_family(a=0.1, n_t=9), (4, 8, 16),
     np.linspace(-4.0, 4.0, 801)),
    (lambda: loop_family(a=0.05, n_radii=9, n_angles=64), (4, 8),
     np.linspace(-4.0, 4.0, 401)),
    (lambda: rectangle_family()[0], (4, 8), np.linspace(-3.0, 3.0, 201)),
], ids=["interval", "disc", "rectangle"])
def test_error_report_is_bitwise_the_full_axis_report(make_family, levels, rho):
    report = assert_report_is_the_full_axis_one(make_family(), rho, levels)
    assert report.meta["n_rho_eval"] < rho.size


def test_error_report_span_starts_at_column_one_when_the_window_covers_the_axis():
    # the window bounds (-log 9, log 9) contain the whole axis, so the first
    # masked column is the guard column 2
    rho = np.linspace(-2.0, 2.0, 161)
    family = geodesic_family(a=0.1, n_t=5)
    report = assert_report_is_the_full_axis_one(family, rho, (4, 8))
    assert report.meta["rho_eval_start"] == 1
    assert report.meta["n_rho_eval"] == rho.size - 2
    assert report.meta["rho_eval_bounds"] == (rho[1], rho[-2])


# -- the error report in rho blocks ---------------------------------------------

def one_shot_norms(family, phi_field, approximants, window):
    """Reference: every level's norms from one Phi_k - Phi over the window and
    its two stencil columns, each derivative a full-size array."""
    rho = phi_field.rho_axis
    mask = harness._rho_window_mask(
        rho, window_rho_bounds(family.boundary_potentials[0], window))
    on = np.flatnonzero(mask)
    span = slice(on[0] - 1, on[-1] + 2)
    return {k: whole_grid_norms(phi_k.field(rho[span]) - phi_field.values[..., span],
                                family.domain, rho[1] - rho[0], mask[span])
            for k, phi_k in approximants.items()}


def whole_grid_norms(E, dom, h, m):
    """Reference: the norms of E over the columns m, each derivative a
    full-size array, the rho ones wrapping around at E's end columns."""
    ax = E.ndim - 1
    adjust = np.mean(E[dom.reference_node][m])
    grads = [g[dom.interior(1)] for g in dom.gradient(E)]
    grad_mag = 0.0
    for g in grads:
        grad_mag = np.hypot(grad_mag, g[..., m])
    return {
        "C0": np.max(np.abs(E[..., m] - adjust)),
        "C1_y": np.max(grad_mag),
        "C1_rho": np.max(np.abs(_d1(E, h, ax)[..., m])),
        "C2_rhorho": np.max(np.abs(_d2(E, h, ax)[..., m])),
        "C2_yrho": max(np.max(np.abs(_d1(g, h, ax)[..., m])) for g in grads),
        "C2_yy": max(np.max(np.abs(H[dom.interior(2)][..., m])) for H in dom.hessian(E)),
    }


@pytest.mark.parametrize("case", ["geo", "blocked_disc"])
@pytest.mark.parametrize("ends", [(0,), (-1,), (0, 1, 2, -3, -2, -1)],
                         ids=["first", "last", "both"])
def test_error_norms_read_every_masked_column_the_ends_too(request, case, ends):
    # the end columns count for every norm; their rho differences wrap around
    fixture = request.getfixturevalue(case)
    family, field, approx = fixture[0], fixture[-2], fixture[-1]
    rho = field.rho_axis
    E = approx[8].field(rho) - field.values
    E[..., 0] += 1.0            # the end columns set C0
    E[..., -1] -= 1.0
    mask = np.zeros(rho.shape, dtype=bool)
    mask[list(ends)] = True
    mask[rho.size // 2] = True
    norms = error_norms(E, family.domain, rho[1] - rho[0], mask, family.domain.reference_node)
    assert norms == whole_grid_norms(E, family.domain, rho[1] - rho[0], mask)


def tail_block_budget(n_nodes, n_columns):
    """(budget, width): an LSE_BLOCK that cuts n_columns into blocks of
    `width` >= 2 columns and a last block of one column."""
    width = next(w for w in range(2, n_columns) if n_columns % w == 1)
    assert n_columns // width >= 2
    return (width + 2) * n_nodes, width


@pytest.mark.parametrize("make_family,levels,rho", [
    (lambda: geodesic_family(a=0.1, n_t=9), (4, 8, 16),
     np.linspace(-4.0, 4.0, 201)),
    (lambda: loop_family(a=0.05, n_radii=5, n_angles=64), (4, 8),
     np.linspace(-4.0, 4.0, 121)),
], ids=["interval", "disc"])
def test_error_report_in_blocks_is_bitwise_the_one_shot_report(monkeypatch, logged_calls,
                                                               make_family, levels, rho):
    family = make_family()
    phi_field = kahler_field(family, rho)
    approx = build_approximants(family, levels)
    reference = one_shot_norms(family, phi_field, approx, 0.1)
    default = error_report(family, phi_field, approx, window=0.1)
    n_window = default.meta["n_rho_window"]
    budget, width = tail_block_budget(math.prod(family.domain.shape), n_window)
    monkeypatch.setattr(harness, "LSE_BLOCK", budget)
    evaluated = logged_calls(BergmanFamily, "field", lambda self, r: (
        self.level, np.searchsorted(rho, r[0]), r.size))
    blocked = error_report(family, phi_field, approx, window=0.1)
    # each level: blocks of `width` window columns and a one-column tail, each
    # with its two halo columns, each once, in whichever process solved it
    start = blocked.meta["rho_eval_start"]
    n_full = n_window // width
    assert sorted(call for _, call in evaluated()) == [
        (k, start + j * width, width + 2 if j < n_full else 3)
        for k in levels for j in range(n_full + 1)]
    for report in (default, blocked):
        for i, k in enumerate(levels):
            for col in ERROR_COLUMNS:
                assert report.column(col)[i] == reference[k][col], (k, col)


@pytest.fixture(scope="module")
def blocked_disc():
    family = loop_family(a=0.05, n_radii=5, n_angles=64)
    rho = np.linspace(-4.0, 4.0, 121)
    return family, kahler_field(family, rho), build_approximants(family, (4, 8))


@pytest.mark.parametrize("shift", [0.0, 1.0, -1.0],
                         ids=["kahler-field", "lo-sets-C0", "hi-sets-C0"])
def test_error_report_in_blocks_is_bitwise_error_norms_with_no_potential_call(
        monkeypatch, logged_calls, blocked_disc, shift):
    # Phi less `shift` off the reference node: C0 is then set by E's min
    # (shift 1) or its max (shift -1) against the reference row's mean
    family, phi_field, approx = blocked_disc
    rho, domain = phi_field.rho_axis, family.domain
    values = phi_field.values.copy()
    off_reference = np.ones(domain.shape, dtype=bool)
    off_reference[domain.reference_node] = False
    values[off_reference] += shift
    phi_field = harness.KahlerFamilyField(domain, rho, values)
    reference = full_axis_norms(family, phi_field, approx, 0.1)
    mask = harness._rho_window_mask(
        rho, window_rho_bounds(family.boundary_potentials[0], 0.1))
    budget, width = tail_block_budget(math.prod(domain.shape), int(mask.sum()))
    monkeypatch.setattr(harness, "LSE_BLOCK", budget)

    field = BergmanFamily.field
    evaluated = logged_calls(BergmanFamily, "field", lambda self, r: (r.size,))
    report = error_report(family, phi_field, approx, window=0.1)
    assert len(evaluated()) == len(approx) * (mask.sum() // width + 1)
    for i, k in enumerate(sorted(approx)):
        for col in ERROR_COLUMNS:
            assert report.column(col)[i] == reference[k][col], (k, col)
        E = (field(approx[k], rho) - values)[..., mask]
        adjust = np.mean(E[domain.reference_node])
        above, below = np.max(E) - adjust, adjust - np.min(E)
        assert report.column("C0")[i] == np.max(np.abs(E - adjust))
        if shift:
            assert (below > above) == (shift > 0), (k, above, below)


def error_report_peak():
    """The tracemalloc peak of the error report of a 9 x 256 disc with 601
    rho, the bench disc's shape, 28 column blocks over two levels."""
    family = loop_family(a=0.05, n_radii=9, n_angles=256)
    rho = np.linspace(-4.0, 4.0, 601)
    approx = build_approximants(family, (4, 8))
    values = np.broadcast_to(np.logaddexp(0.0, rho), family.domain.shape + rho.shape).copy()
    phi_field = harness.KahlerFamilyField(family.domain, rho, values)
    tracemalloc.start()
    try:
        error_report(family, phi_field, approx, window=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_error_report_peak_memory_is_a_few_blocks(force_workers):
    # the parent of the blocked report held ~50 MB here (Phi_k - Phi on the
    # window span, 6.5 MB, and its full-size derivatives)
    force_workers(0)
    peak = error_report_peak()
    # A block of at most LSE_BLOCK values: Phi_k - Phi and the stencil
    # temporaries of the six norms (measured: 7.5 blocks).  One array of the
    # window span's size (2560 x 319) is 12.5.
    assert peak <= 10 * 8 * LSE_BLOCK + 1024 * 1024


def test_error_report_peak_memory_with_a_worker_is_a_few_blocks(force_workers):
    # the output is a shared mapping, which tracemalloc does not trace, and
    # the worker's blocks are its own: the parent holds only its blocks'
    force_workers(1)
    assert error_report_peak() <= 10 * 8 * LSE_BLOCK + 1024 * 1024
    assert_no_child_left()


def in_one_iteration(solve, *args, **kwargs):
    """`solve` with the Newton iteration cut to one step, which leaves most
    targets unconverged."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(potentials, "NEWTON_MAX_ITER", 1)
        return solve(*args, **kwargs)


def test_kahler_field_failure_names_node_and_rho(monkeypatch):
    family = small_disc_family()
    rho = np.linspace(-4.0, 4.0, 2049)
    step = LSE_BLOCK // rho.size            # 31 node rows per block
    calls = []

    def second_block_fails(*args, **kwargs):
        calls.append(args[2].shape)
        if len(calls) == 2:
            return in_one_iteration(_invert_monotone_1d, *args, **kwargs)
        return _invert_monotone_1d(*args, **kwargs)

    monkeypatch.setattr(harness, "_invert_monotone_1d", second_block_fails)
    with pytest.raises(NewtonError) as info:
        kahler_field(family, rho)
    assert calls == [(step, rho.size)] * 2
    # the solver names the target in its block; the field adds the block's start
    row, j = info.value.__cause__.index
    node = family.node_indices()[step + row]
    assert info.value.index == node + (j,)
    assert f"at domain node {node}, rho = {rho[j]:.6g}" in str(info.value)


@contextlib.contextmanager
def within(seconds):
    """Raise a TimeoutError in the block once `seconds` have passed."""
    def timeout(signum, frame):
        raise TimeoutError(f"not done in {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_kahler_field_with_workers_is_bitwise_the_serial_field(force_workers, newton_solves,
                                                               n_workers):
    family = small_disc_family()
    rho = np.linspace(-4.0, 4.0, 2049)          # eleven blocks of node rows
    force_workers(0)
    serial = kahler_field(family, rho).values
    assert {pid for pid, _ in newton_solves()} == {os.getpid()}
    # three workers and the parent are more processes than a 2-CPU host has CPUs
    force_workers(n_workers)
    with within(60):
        field = kahler_field(family, rho).values
    assert field.tobytes() == serial.tobytes()
    # the workers solved their shares: every block once, in 1 + n_workers processes
    solves = newton_solves()[11:]
    assert len(solves) == 11 and len({pid for pid, _ in solves}) == 1 + n_workers
    assert_no_child_left()


def fail_in(monkeypatch, failing):
    """Make the Newton solve of a block fail where failing(pid, rows) holds."""
    inner = harness._invert_monotone_1d

    def solve(*args, **kwargs):
        if failing(os.getpid(), args[2].shape[0]):
            return in_one_iteration(inner, *args, **kwargs)
        return inner(*args, **kwargs)

    monkeypatch.setattr(harness, "_invert_monotone_1d", solve)


@pytest.mark.parametrize("share", ["parent", "worker"])
def test_kahler_field_failure_with_workers_is_the_serial_failure(monkeypatch, force_workers,
                                                                 share):
    # the parent's share starts with a block of 31 rows, the worker's ends
    # with the last block, of 10
    family = small_disc_family()
    rho = np.linspace(-4.0, 4.0, 2049)
    parent = os.getpid()
    if share == "parent":
        fail_in(monkeypatch, lambda pid, rows: pid == parent and rows == 31)
    else:
        fail_in(monkeypatch, lambda pid, rows: rows == 10)
    errors = []
    for n_workers in (0, 1):
        force_workers(n_workers)
        with pytest.raises(NewtonError) as info:
            kahler_field(family, rho)
        errors.append(info.value)
        assert_no_child_left()
    serial, forked = errors
    assert str(forked) == str(serial)
    assert forked.index == serial.index
    assert forked.__cause__.index == serial.__cause__.index


def test_kahler_field_solves_a_failed_workers_share_itself(monkeypatch, force_workers,
                                                          newton_solves):
    family = small_disc_family()
    rho = np.linspace(-4.0, 4.0, 2049)
    force_workers(0)
    serial = kahler_field(family, rho).values
    parent = os.getpid()
    fail_in(monkeypatch, lambda pid, rows: pid != parent)
    force_workers(1)
    start = len(newton_solves())
    assert kahler_field(family, rho).values.tobytes() == serial.tobytes()
    assert_no_child_left()
    # the worker failed its first block, and the parent solved every block
    solves = newton_solves()[start:]
    assert sum(pid == parent for pid, _ in solves) == 11
    assert len(solves) == 12


def test_a_worker_stops_between_blocks_once_its_parent_is_gone(force_workers):
    # A forked caller of kahler_field dies at its first block, once its worker
    # has started its own first block; the worker finishes that block and
    # then stops.  This process becomes the orphaned worker's parent (a child
    # subreaper) to reap it.
    family = small_disc_family()
    rho = np.linspace(-4.0, 4.0, 2049)
    force_workers(1)
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        pytest.skip("this process cannot become a child subreaper")
    started_r, started_w = os.pipe()
    solved_r, solved_w = os.pipe()
    inner = harness._invert_monotone_1d
    try:
        with within(60):
            caller = os.fork()
            if caller == 0:
                try:
                    def solve(*args, **kwargs):
                        if os.getpid() == caller_pid:
                            os.read(started_r, 1)
                            os._exit(0)
                        os.write(started_w, b"s")
                        while os.getppid() == caller_pid:
                            time.sleep(0.001)
                        os.write(solved_w, b"block\n")
                        return inner(*args, **kwargs)

                    caller_pid = os.getpid()
                    harness._invert_monotone_1d = solve
                    kahler_field(family, rho)
                finally:
                    os._exit(1)
            for fd in (started_r, started_w, solved_w):
                os.close(fd)
            assert os.waitpid(caller, 0)[1] == 0
            _, status = os.waitpid(-1, 0)        # the worker, reparented here
    finally:
        libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)
    with os.fdopen(solved_r, "rb") as pipe:
        assert pipe.read() == b"block\n"
    assert os.waitstatus_to_exitcode(status) == 1
    assert_no_child_left()


def test_worker_cpus_are_the_other_allowed_cpus(monkeypatch):
    allowed = os.sched_getaffinity(0)
    assert harness._worker_cpus(1) == []
    cpus = harness._worker_cpus(1000)
    assert len(cpus) == len(allowed) - 1 and set(cpus) < allowed
    # a worker only where each process gets two blocks or more
    assert harness._worker_cpus(3) == []
    assert len(harness._worker_cpus(4)) == min(1, len(allowed) - 1)
    monkeypatch.delattr(os, "sched_setaffinity")
    assert harness._worker_cpus(1000) == []


def running_cpu():
    """The CPU the calling thread runs on."""
    with open("/proc/thread-self/stat") as fh:
        return int(fh.read().rpartition(")")[2].split()[36])


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two allowed CPUs")
def test_worker_cpus_leave_out_the_calling_threads_cpu():
    # The main thread sleeps on one CPU while a thread that may run on every
    # allowed CPU runs on the other: its workers go to the main thread's CPU.
    allowed = os.sched_getaffinity(0)
    main_cpu, thread_cpu = sorted(allowed)[:2]
    seen = []

    def probe():
        for _ in range(20):
            os.sched_setaffinity(0, {thread_cpu})
            os.sched_setaffinity(0, allowed)        # a running thread stays put
            cpus = harness._worker_cpus(1000)
            if running_cpu() == thread_cpu:
                seen.append(cpus)
                return

    os.sched_setaffinity(0, {main_cpu})
    try:
        thread = threading.Thread(target=probe)
        thread.start()
        thread.join(60)
    finally:
        os.sched_setaffinity(0, allowed)
    assert not thread.is_alive()
    assert seen == [sorted(allowed - {thread_cpu})]


# -- the other forking stages: boundary tables and the error report --------------

def test_build_approximants_with_workers_is_bitwise_the_serial_loop(monkeypatch, force_workers,
                                                                    logged_calls):
    # 64 boundary nodes, each a block: every table's log Q is the one
    # norming_constants gives, whatever the worker count
    levels = (4, 8)
    family = small_disc_family()
    serial = [[norming_constants(bp, k) for bp in family.boundary_potentials] for k in levels]
    blocks = []
    extend = harness.harmonic_norming
    monkeypatch.setattr(harness, "harmonic_norming", lambda domain, k, alphas, log_q:
                        blocks.append((k, alphas, log_q)) or extend(domain, k, alphas, log_q))
    built = logged_calls(harness, "norming_constants", lambda bp, k, **kwargs: (k,))
    lams = []
    for n_workers in (0, 1, 2):
        force_workers(n_workers)
        start = len(built())
        with within(60):
            approx = build_approximants(family, levels)
        assert_no_child_left()
        lams.append([approx[k].norming.lam.tobytes() for k in levels])
        for (k, alphas, log_q), want in zip(blocks[-2:], serial):
            assert len(log_q) == len(want)
            for row, t in zip(log_q, want):
                assert (k, alphas.tobytes(), row.tobytes()) == (
                    t.level, t.alphas.tobytes(), t.log_q.tobytes())
        calls = built()[start:]
        assert sorted(k for _, (k,) in calls) == [4] * 64 + [8] * 64
        assert len({pid for pid, _ in calls}) == 1 + n_workers
    assert lams[1] == lams[0] and lams[2] == lams[0]


@pytest.mark.parametrize("n_workers", [1, 2])
def test_build_approximants_with_workers_enumerates_each_lattice_once(force_workers,
                                                                      logged_calls, n_workers):
    family = small_disc_family()            # a polytope of its own, no lattice cached
    enumerated = logged_calls(polytope, "_enumerate_lattice", lambda P, k: (k,))
    force_workers(n_workers)
    build_approximants(family, (4, 8))
    assert_no_child_left()
    assert enumerated() == [(os.getpid(), (4,)), (os.getpid(), (8,))]


def test_build_approximants_failure_with_workers_is_the_serial_failure(monkeypatch,
                                                                       force_workers):
    # node 1 fails at level 8, in the parent's share; node 60 at level 4, in
    # the last worker's: the node-major loop meets node 1 first
    family = small_disc_family()
    node = {id(bp): i for i, bp in enumerate(family.boundary_potentials)}
    inner = harness.norming_constants

    def failing(bp, k, **kwargs):
        if (node[id(bp)], k) in {(1, 8), (60, 4)}:
            raise QuadratureError("no panel count passed")
        return inner(bp, k, **kwargs)

    monkeypatch.setattr(harness, "norming_constants", failing)
    for n_workers in (0, 1, 2):
        force_workers(n_workers)
        with within(60), pytest.raises(QuadratureError) as info:
            build_approximants(family, (4, 8))
        assert_no_child_left()
        assert str(info.value) == "no panel count passed for boundary node 1 at level k = 8"
        assert str(info.value.__cause__) == "no panel count passed"


@pytest.fixture
def many_column_blocks(monkeypatch, blocked_disc):
    """blocked_disc's report cut into column blocks of `width` and a tail of
    one column: (family, field, approximants, width)."""
    family, phi_field, approx = blocked_disc
    mask = harness._rho_window_mask(
        phi_field.rho_axis, window_rho_bounds(family.boundary_potentials[0], 0.1))
    budget, width = tail_block_budget(math.prod(family.domain.shape), int(mask.sum()))
    monkeypatch.setattr(harness, "LSE_BLOCK", budget)
    return family, phi_field, approx, width


def test_error_report_with_workers_is_bitwise_the_serial_report(force_workers, logged_calls,
                                                                many_column_blocks):
    family, phi_field, _, width = many_column_blocks
    weights = logged_calls(bergman, "_node_weights", lambda lam: ())
    evaluated = logged_calls(BergmanFamily, "field", lambda self, r: (self.level, r.size))
    reports, blocks = [], []
    for n_workers in (0, 1, 2):
        force_workers(n_workers)
        approx = build_approximants(family, (4, 8))     # no node weights built yet
        start = len(evaluated())
        with within(60):
            report = error_report(family, phi_field, approx, window=0.1)
        assert_no_child_left()
        # each level's node weights, built once, in this process before any fork
        assert weights()[2 * n_workers:] == [(os.getpid(), ())] * 2
        reports.append({col: report.column(col).tobytes() for col in ERROR_COLUMNS})
        calls = evaluated()[start:]
        assert len({pid for pid, _ in calls}) == 1 + n_workers
        blocks.append(sorted(call for _, call in calls))
    assert reports[1] == reports[0] and reports[2] == reports[0]
    # every (level, column block) once, in whichever process
    assert blocks[1] == blocks[0] and blocks[2] == blocks[0]
    assert len(blocks[0]) > 2 * 4 and {size for _, size in blocks[0]} == {width + 2, 3}


def test_error_report_non_finite_norm_with_workers_is_the_serial_failure(
        monkeypatch, force_workers, many_column_blocks):
    # a NaN in level 8's one-column tail block, the last block of the report
    family, phi_field, approx, _ = many_column_blocks
    field = BergmanFamily.field

    def nan_at_the_tail(self, r):
        values = field(self, r)
        if self.level == 8 and r.size == 3:
            values[0, 0, 1] = np.nan
        return values

    monkeypatch.setattr(BergmanFamily, "field", nan_at_the_tail)
    errors = []
    for n_workers in (0, 1, 2):
        force_workers(n_workers)
        with within(60), pytest.raises(
                ValueError, match=r"^error norm \w+ = nan is not finite at level k = 8$") as info:
            error_report(family, phi_field, approx, window=0.1)
        assert_no_child_left()
        errors.append(str(info.value))
    assert errors[1] == errors[0] and errors[2] == errors[0]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two allowed CPUs")
def test_the_fork_rule_keeps_every_geodesic_stage_in_process(logged_calls):
    # the real `_worker_cpus` on the bench geodesic's shape: one block of 17
    # node rows, two boundary nodes and one column block in the report, so no
    # stage forks; four levels, so a report also split by level would fork
    family = geodesic_family(a=0.1, n_t=17)
    rho = np.linspace(-4.0, 4.0, 801)
    logs = [logged_calls(harness, "_invert_monotone_1d", lambda *args, **kwargs: ()),
            logged_calls(harness, "norming_constants", lambda bp, k: (k,)),
            logged_calls(BergmanFamily, "field", lambda self, r: (self.level,))]
    with within(60):
        phi_field = kahler_field(family, rho)
        approx = build_approximants(family, (8, 16, 32, 64))
        error_report(family, phi_field, approx, window=0.1)
    assert_no_child_left()
    for calls in logs:
        assert calls() and {pid for pid, _ in calls()} == {os.getpid()}


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two allowed CPUs")
def test_the_fork_rule_splits_a_report_of_four_column_blocks(logged_calls,
                                                             many_column_blocks):
    # the real `_worker_cpus`: each process evaluates every level over its
    # share of the column blocks
    family, phi_field, approx, _ = many_column_blocks
    evaluated = logged_calls(BergmanFamily, "field", lambda self, r: (self.level,))
    with within(60):
        error_report(family, phi_field, approx, window=0.1)
    assert_no_child_left()
    calls = evaluated()
    n_blocks = len(calls) // len(approx)
    assert n_blocks >= 4 and len(calls) == n_blocks * len(approx)
    pids = {pid for pid, _ in calls}
    assert len(pids) == min(len(os.sched_getaffinity(0)), n_blocks // 2)
    for pid in pids:
        assert {k for p, (k,) in calls if p == pid} == set(approx)


@pytest.mark.parametrize("rho,side", [
    (np.linspace(-3.0, 37.0, 41), "above"),
    (np.linspace(-45.0, 3.0, 41), "below"),
], ids=["x-to-1", "x-to-0"])
def test_kahler_field_past_the_reach_of_doubles_names_the_rho(rho, side):
    # the widened target |rho| + 2 (max|f'| + 1) has no double x strictly
    # inside [0, 1] whose gradient reaches it: halving stops before the facet
    family = geodesic_family(a=0.1, n_t=5)
    with pytest.raises(NewtonError, match=f"^could not bracket rho = .* from {side}$"):
        kahler_field(family, rho)


def test_x_bracket_is_the_halving_sequence():
    # grad u0 = log(x / (1 - x)) passes -30 and 30 at the 42nd halving
    u0 = product_potential(P, 0.0, make_polytope_grid(P, 5, 0.25))
    assert _x_bracket(u0, -30.0, 30.0) == (0.25 * 2.0 ** -42, 1.0 - 0.25 * 2.0 ** -42)


def test_boundary_quadrature_failure_names_node_and_level(monkeypatch):
    # a tolerance that no panel doubling meets, at k = 32 only, fails that
    # level's first table after k = 16 has passed
    family = geodesic_family(a=0.1, n_t=5)

    def failing_at_32(bp, k):
        with pytest.MonkeyPatch.context() as patch:
            if k == 32:
                patch.setattr(bergman, "CHECK_TOL", -1.0)
            return norming_constants(bp, k)

    monkeypatch.setattr(harness, "norming_constants", failing_at_32)
    build_approximants(family, (16,))
    with pytest.raises(QuadratureError) as info:
        build_approximants(family, (16, 32))
    assert str(info.value).endswith("for boundary node 0 at level k = 32")
    assert isinstance(info.value.__cause__, QuadratureError)
    assert str(info.value).startswith(str(info.value.__cause__))
