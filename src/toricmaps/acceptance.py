"""
Self-checking experiment suite.

Each check runs one verifiable claim of the library end to end at desk scale
and returns a CheckResult with the measured numbers in `detail`.  The pytest
acceptance module and the command-line interface both consume these, so the
shell exit code and the test suite can never disagree.  The six checks that
gate a rate of convergence share one gate on its observed order,
`order_gate`, and print the orders they measured next to their bounds.

The two convergence experiments are `run_experiment` at the module configs
GEODESIC and DISC.  The interval run is cached per process and shared
between checks (and with `toricmaps geodesic --out`).
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass

import numpy as np

from .bergman import (NormingTable, localization_gap, norming_constants,
                      peak_asymptotics_check, ratio_report, szego_sum)
from .dirichlet import (BoundaryData, harmonic_extend, harmonic_extend_disc_fourier,
                        make_interval)
from .flows import eells_sampson_operator, heat_evolve, hcma_residual, make_flow_state
from .harness import (ERROR_COLUMNS, ExperimentConfig, kahler_field,
                      loop_family, run_experiment, window_rho_bounds)
from .polytope import preset_polytope
from .potentials import (default_margin, fubini_study, make_polytope_grid,
                         product_potential, to_kahler, to_symplectic)

__all__ = ["CheckResult", "ALL_CHECKS", "run_checks", "GEODESIC", "DISC",
           "geodesic_run", "flow_start",
           "check_legendre_involution", "check_gradient_hessian_duality",
           "check_norming_oracle", "check_duality_identity",
           "check_szego_normalization", "OrderGate", "order_gate",
           "check_geodesic_c0", "check_geodesic_c1_c2", "check_disc_c0_crosscheck",
           "check_hcma_residual", "check_flow_duality",
           "check_ratio_bounds", "check_peak_asymptotics",
           "check_localization"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


_CACHE: dict = {}

# the geodesic suite: a = 0.1, 17 nodes, levels 8..64, 801 rho nodes on [-4, 4]
GEODESIC = ExperimentConfig()
# the disc suite: a = 0.05, 9 x 256 nodes, levels 8..32, 601 rho nodes on [-4, 4]
DISC = ExperimentConfig(domain="disc", a=0.05, levels=(8, 16, 32), n_rho=601)


def geodesic_run():
    """run_experiment(GEODESIC) and its wall time, run once per process."""
    if "interval" not in _CACHE:
        t0 = time.perf_counter()
        result = run_experiment(GEODESIC)
        _CACHE["interval"] = result, time.perf_counter() - t0
    return _CACHE["interval"]


def _fs_table(k: int) -> NormingTable:
    key = ("fs_table", k)
    if key not in _CACHE:
        P = preset_polytope("interval")
        grid = make_polytope_grid(P, 801, default_margin(max(64, k)))
        _CACHE[key] = norming_constants(product_potential(P, grid=grid), k)
    return _CACHE[key]


# -- the observed-order gate of every rate check ----------------------------------------

@dataclass(frozen=True)
class OrderGate:
    """Observed orders of an error sequence and their verdict against an order bound."""

    orders: tuple[float, ...]           # p_i = log(e_i/e_{i+1}) / log(s_{i+1}/s_i)
    passed: bool
    bound: str                          # the order bound, e.g. ">= 1"

    def __str__(self) -> str:
        return f"p = [{', '.join(f'{p:.3f}' for p in self.orders)}] (need {self.bound})"


def order_gate(scales, errors, at_least, at_most=None) -> OrderGate:
    """Gate the observed order of convergence of `errors` under refinement.

    `scales` grow strictly under refinement (the level k, or 1/h).  Each step
    passes when its ratio e_{i+1}/e_i lies in
    [(s_i/s_{i+1})^at_most, (s_i/s_{i+1})^at_least], that is when the observed
    order p_i = log(e_i/e_{i+1}) / log(s_{i+1}/s_i) (Roache 1998) lies in
    [at_least, at_most]; `at_most=None` sets no upper bound.  A zero after a
    positive error is order +inf, and a zero that does not fall (0 then 0)
    has no order and fails.  A NaN, infinite or negative error is a
    ValueError naming its scale.
    """
    s = np.asarray(scales, dtype=float)
    e = np.asarray(errors, dtype=float)
    if s.ndim != 1 or s.size < 2 or s.shape != e.shape or s[0] <= 0 or np.any(np.diff(s) <= 0):
        raise ValueError("need at least two strictly increasing positive scales, "
                         "one error per scale")
    bad = ~np.isfinite(e) | (e < 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"the order gate needs finite non-negative errors: "
                         f"scale {s[i]:g} has error {e[i]}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (e[1:] / e[:-1]).tolist()
        orders = np.log(e[:-1] / e[1:]) / np.log(s[1:] / s[:-1])
    steps = (s[:-1] / s[1:]).tolist()
    # a NaN ratio (0 then 0) fails both comparisons
    passed = all(r <= q ** at_least and (at_most is None or r >= q ** at_most)
                 for r, q in zip(ratios, steps))
    bound = f">= {at_least:.4g}" if at_most is None else f"in [{at_least:.4g}, {at_most:.4g}]"
    return OrderGate(tuple(orders.tolist()), passed, bound)


# -- Legendre machinery -----------------------------------------------------------

def check_legendre_involution() -> CheckResult:
    """Round trip phi -> u -> phi on a 2001-node rho grid, sup error < 1e-8."""
    t0 = time.perf_counter()
    rho = np.linspace(-12.0, 12.0, 2001)
    phi = fubini_study(rho)
    P = preset_polytope("interval")
    xgrid = make_polytope_grid(P, 801, 1e-4)
    u = to_symplectic(phi, P, xgrid)
    phi_back = to_kahler(u, rho)
    interior = slice(5, -5)
    err = float(np.max(np.abs(phi_back.values[interior]
                              - np.asarray(phi.value(rho[interior])))))
    elapsed = time.perf_counter() - t0
    passed = err < 1e-8 and elapsed < 1.0
    return CheckResult("legendre involution",
                       passed, f"sup interior error {err:.3e} (tol 1e-8), "
                               f"runtime {elapsed:.2f}s (limit 1s)")


def check_gradient_hessian_duality() -> CheckResult:
    """grad/inverse-Hessian duality at 100 interior pairs, both test metrics."""
    P = preset_polytope("interval")
    xgrid = make_polytope_grid(P, 801, default_margin(64))
    rho_axis = np.linspace(-6.0, 6.0, 1201)
    worst_grad = 0.0
    worst_hess = 0.0
    h = 3e-4
    for a in (0.0, 0.1):
        u = product_potential(P, a, xgrid)
        phi = to_kahler(u, rho_axis)
        lo, hi = window_rho_bounds(u, 0.1)
        rho = np.linspace(lo, hi, 100)
        x = np.asarray(phi.grad(rho))
        worst_grad = max(worst_grad, float(np.max(np.abs(u.grad(x) - rho))))
        hess_phi = (np.asarray(phi.value(rho + h)) - 2 * np.asarray(phi.value(rho))
                    + np.asarray(phi.value(rho - h))) / h**2
        hess_u = (np.asarray(u.value(x + h)) - 2 * np.asarray(u.value(x))
                  + np.asarray(u.value(x - h))) / h**2
        worst_hess = max(worst_hess, float(np.max(np.abs(1.0 / hess_phi - hess_u))))
    passed = worst_grad < 1e-6 and worst_hess < 1e-4
    return CheckResult("gradient/Hessian duality", passed,
                       f"max |grad u(grad phi(rho)) - rho| = {worst_grad:.3e} (tol 1e-6), "
                       f"max |(hess phi)^-1 - hess u| = {worst_hess:.3e} (tol 1e-4)")


# -- norming constants ---------------------------------------------------------------

def check_norming_oracle() -> CheckResult:
    """Every Q(alpha) on the standard metric matches the Beta-integral values."""
    worst = 0.0
    for k in range(1, 33):
        table = _fs_table(k)
        for a, lq in zip(table.alphas[:, 0].tolist(), table.log_q):
            exact = math.lgamma(a + 1) + math.lgamma(k - a + 1) - math.lgamma(k + 2)
            worst = max(worst, abs(math.expm1(lq - exact)))
    passed = worst < 1e-6
    return CheckResult("norming-constant oracle", passed,
                       f"max relative error vs Beta values (k <= 32): {worst:.3e} (tol 1e-6)")


def check_duality_identity() -> CheckResult:
    """log Q + log P = k u(alpha/k) for all interior alpha, k <= 64, both metrics.

    At the peak rho* = grad u(alpha/k), log P(alpha, rho*) = <alpha, rho*> -
    k phi(rho*) - log Q, so log Q cancels: whatever the norming table, the
    identity reads k times the Legendre pair u(x) + phi(rho*) = <x, rho*> at
    each lattice x = alpha/k, and no table is built.  Q itself is checked
    against the Beta values by `check_norming_oracle`.
    """
    P = preset_polytope("interval")
    rho_axis = np.linspace(-6.0, 6.0, 1201)
    worst = 0.0
    for a in (0.0, 0.1):
        u = product_potential(P, a)
        phi = fubini_study(rho_axis) if a == 0.0 else to_kahler(u, rho_axis)
        for k in range(2, 65):
            alphas = np.arange(1, k)
            x = alphas / k
            rho_star = np.asarray(u.grad(x))
            gap = np.abs(alphas * rho_star - k * np.asarray(phi.value(rho_star))
                         - k * np.asarray(u.value(x)))
            worst = max(worst, float(np.max(gap)))
    passed = worst < 5e-5
    return CheckResult("norming/peak duality identity", passed,
                       f"max |log Q + log P - k u(alpha/k)| = {worst:.3e} (tol 5e-5)")


def check_szego_normalization() -> CheckResult:
    """Interior deviation |sum_alpha P(alpha,.) - 1| drops by >= 3x from k=16 to 64:
    observed order >= log 3 / log 4 in k."""
    phi = fubini_study(np.linspace(-4.0, 4.0, 401))
    u = product_potential(preset_polytope("interval"))
    lo, hi = window_rho_bounds(u, 0.1)
    rho = np.linspace(lo, hi, 7)
    devs = [float(np.max(np.abs(szego_sum(_fs_table(k), phi, rho) - 1.0)))
            for k in (16, 64)]
    gate = order_gate((16, 64), devs, math.log(3) / math.log(4))
    return CheckResult("szego normalization", gate.passed,
                       f"|sum - 1|: k=16 -> {devs[0]:.3e}, k=64 -> {devs[1]:.3e}, "
                       f"order in k: {gate}")


# -- main convergence experiments ------------------------------------------------------

def check_geodesic_c0() -> CheckResult:
    """Interval experiment: the mean-adjusted C0 error has observed order >= 1
    in k at every doubling, within 60 s.

    Order >= 1 keeps every level inside the c/k envelope fixed at k=8, which
    implies the Song-Zelditch `O(log k / k)` bound.  The y-independent
    constant that the mean adjustment removes behaves like `log(k+1)/k`; an
    error still carrying it has `k * eps_k` growing like `log k`, order
    below 1, and fails.  `eps*k/log k` is reported as a diagnostic only: it
    stays flat on an error that still carries the removed normalization, so
    it cannot gate.
    """
    result, elapsed = geodesic_run()
    c0 = result.report.column("C0")
    gate = order_gate(GEODESIC.levels, c0, 1.0)
    flat = [e * k / math.log(k) for k, e in zip(GEODESIC.levels, c0.tolist())]
    return CheckResult("geodesic C0 convergence", gate.passed and elapsed < 60.0,
                       f"C0 = [{', '.join(f'{v:.3e}' for v in c0)}], order in k: {gate}; "
                       f"diagnostic eps*k/log k = "
                       f"[{', '.join(f'{v:.3e}' for v in flat)}]; "
                       f"pipeline {elapsed:.3g}s (limit 60s)")


def check_geodesic_c1_c2() -> CheckResult:
    """Every derivative sup norm (C1 and C2) falls by a doubling ratio <= 0.9:
    observed order >= log2(1/0.9) in k, written so that 0.5 ** order is 0.9."""
    report = geodesic_run()[0].report
    gates = {col: order_gate(report.levels, report.column(col), math.log(0.9) / math.log(0.5))
             for col in ERROR_COLUMNS[1:]}
    failing = [col for col, gate in gates.items() if not gate.passed]
    msg = "order in k: " + "; ".join(f"{col} {gate}" for col, gate in gates.items())
    if failing:
        msg += f"; failing: {failing}"
    return CheckResult("geodesic C1/C2 convergence", not failing, msg)


def check_disc_c0_crosscheck() -> CheckResult:
    """Disc experiment: C0 has observed order >= 1 in k, as on the interval; the
    two boundary-integral paths agree."""
    result = run_experiment(DISC)
    c0 = result.report.column("C0")
    gate = order_gate(DISC.levels, c0, 1.0)
    # two independent quadrature paths for the harmonic norming exponents:
    # Poisson-integral weights vs Fourier damping, from identical boundary data
    norming = result.approximants[max(DISC.levels)].norming
    data = BoundaryData(norming.lam[:, -1, :].T)   # boundary-ring values = log Q, all alphas
    poisson = harmonic_extend(result.family.domain, data).values
    fourier = harmonic_extend_disc_fourier(result.family.domain, data).values
    cross = float(np.max(np.abs(poisson - fourier)))
    passed = gate.passed and cross < 1e-8
    return CheckResult("disc C0 + kernel cross-check", passed,
                       f"C0 = [{', '.join(f'{v:.3e}' for v in c0)}], order in k: {gate}; "
                       f"two-path exponent agreement {cross:.3e} (tol 1e-8)")


def check_hcma_residual() -> CheckResult:
    """Degenerate complex-Hessian residual falls about 4x under halving (observed
    order in [log2 2.5, log2 6] in 1/h, around second order); positivity."""
    sups = []
    hess_min = math.inf
    # margin doubles with the resolution so both sups run over the same
    # physical window (r in [0.225, 0.675], |rho| <= 3.92)
    for n_r, n_g, n_rho, margin in ((9, 64, 201, 2), (17, 128, 401, 4)):
        family = loop_family(a=0.05, n_radii=n_r, n_angles=n_g)
        rho = np.linspace(-4.0, 4.0, n_rho)
        phi_field = kahler_field(family, rho)
        rep = hcma_residual(phi_field.values, family.domain, rho, margin=margin)
        sups.append(rep.sup)
        hess_min = min(hess_min, rep.fiber_hessian_min)
    gate = order_gate((1, 2), sups, math.log2(2.5), math.log2(6.0))
    return CheckResult("degenerate complex-Hessian residual", gate.passed and hess_min > 0,
                       f"sup residual {sups[0]:.3e} -> {sups[1]:.3e} under halving, "
                       f"order in 1/h: {gate}; "
                       f"min fiber Hessian {hess_min:.3e} (> 0)")


def check_flow_duality() -> CheckResult:
    """Heat-flow snapshots' Legendre duals satisfy the harmonic-map-flow equation:
    the residual falls >= 3x under halving, observed order >= log2 3 in 1/h."""
    sups = [_flow_residual(n_t, n_x, n_rho, refine)
            for n_t, n_x, n_rho, refine in ((33, 161, 401, 1), (65, 321, 801, 4))]
    gate = order_gate((1, 2), sups, math.log2(3.0))
    return CheckResult("flow duality", gate.passed,
                       f"sup |d_tau Phi - ES(Phi)| {sups[0]:.3e} -> {sups[1]:.3e} "
                       f"(h halved, dtau quartered), order in 1/h: {gate}")


def flow_start(n_t: int, n_x: int):
    """Flow start data f0 = (0.1 t + 0.2 t(1-t)) x(1-x) on an n_t-node interval
    domain over an n_x-node grid of [0, 1], and the step dtau = h^2/4."""
    xgrid = make_polytope_grid(preset_polytope("interval"), n_x, 1e-3)
    domain = make_interval(n_t)
    t = domain.nodes
    x = xgrid.axes[0]
    coeff = 0.1 * t + 0.2 * t * (1.0 - t)
    f0 = coeff[:, None] * (x * (1.0 - x))[None, :]
    h_t = t[1] - t[0]
    return make_flow_state(domain, xgrid, f0), h_t**2 / 4.0


def _flow_residual(n_t: int, n_x: int, n_rho: int, refine: int) -> float:
    state, dtau = flow_start(n_t, n_x)
    steps = 40 * refine
    state = heat_evolve(state, dtau, steps)
    stepped = heat_evolve(state, dtau, 1)
    rho = np.linspace(-4.0, 4.0, n_rho)
    phi1 = kahler_field(state, rho)
    phi2 = kahler_field(stepped, rho)
    d_tau = (phi2.values - phi1.values) / dtau
    op, keep = eells_sampson_operator(phi1.values, state.domain, rho)
    mask = (rho >= -2.0) & (rho <= 2.0)
    res = np.abs((d_tau - op)[keep][..., mask[keep[-1]]])
    return float(np.max(res))


# -- asymptotic diagnostics ------------------------------------------------------------

def check_ratio_bounds() -> CheckResult:
    """R_k within stable two-sided bounds; max |R_k - R_inf| strictly decreasing."""
    result = geodesic_run()[0]
    family = result.family
    levels = GEODESIC.levels
    y_nodes = [4, 8, 12]                     # t = 0.25, 0.5, 0.75 on the 17-node grid
    bound_c = {}
    gaps = {}
    for k in levels:
        norming = result.approximants[k].norming
        c_k = 1.0
        gap = 0.0
        for iy in y_nodes:
            u_y = family.potential_at((iy,))
            rep = ratio_report(norming, u_y, family.boundary_potentials, (iy,))
            c_k = max(c_k, rep.bound_constant)
            gap = max(gap, rep.max_gap)
        bound_c[k] = c_k
        gaps[k] = gap
    gap_seq = [gaps[k] for k in levels]
    decreasing = bool(np.all(np.diff(gap_seq) < 0))
    stable = abs(bound_c[64] - bound_c[16]) <= 0.2 * bound_c[16]
    passed = decreasing and stable
    return CheckResult("metric-ratio bounds", passed,
                       f"bound constant C: k=16 -> {bound_c[16]:.6f}, "
                       f"k=64 -> {bound_c[64]:.6f} (stable within 20%: {stable}); "
                       f"max|R_k - R_inf| = "
                       + ", ".join(f"{g:.3e}" for g in gap_seq)
                       + f" decreasing={decreasing}")


def check_peak_asymptotics() -> CheckResult:
    """Fitted peak-law constant flat (<= 5% at k=64) with shrinking dispersion."""
    P = preset_polytope("interval")
    grid = make_polytope_grid(P, 801, default_margin(256))
    u = product_potential(P, grid=grid)
    disp = {}
    for k in (16, 64, 256):
        lo, hi = int(math.ceil(0.375 * k)), int(math.floor(0.625 * k))
        alphas = np.arange(lo, hi + 1)
        table = norming_constants(u, k, alphas=alphas)
        disp[k] = peak_asymptotics_check(table, u).dispersion
    passed = disp[64] <= 0.05 and disp[256] < disp[16]
    return CheckResult("peak-value asymptotics", passed,
                       f"dispersion: k=16 -> {disp[16]:.4%}, k=64 -> {disp[64]:.4%} "
                       f"(tol 5%), k=256 -> {disp[256]:.4%} (decreasing from k=16: "
                       f"{disp[256] < disp[16]})")


def check_localization() -> CheckResult:
    """Lattice tail outside the k^(delta-1/2) window shrinks >= 10x from k=8 to 64:
    observed order >= log 10 / log 8 in k.

    Evaluated at a moment image of 0.15: at the exact center the k=8 window
    already covers the whole polytope and the tail is identically zero, which
    would make the comparison vacuous.
    """
    phi = fubini_study(np.linspace(-4.0, 4.0, 401))
    rho = math.log(0.15 / 0.85)
    gaps = [localization_gap(_fs_table(k), phi, rho, delta=0.25) for k in (8, 64)]
    # a zero tail at k=8 has no order (0 then 0) or a negative one, and fails
    gate = order_gate((8, 64), gaps, math.log(10) / math.log(8))
    return CheckResult("lattice-sum localization", gate.passed,
                       f"tail mass: k=8 -> {gaps[0]:.3e}, k=64 -> {gaps[1]:.3e}, "
                       f"order in k: {gate}")


ALL_CHECKS = (
    check_legendre_involution,
    check_gradient_hessian_duality,
    check_norming_oracle,
    check_duality_identity,
    check_szego_normalization,
    check_geodesic_c0,
    check_geodesic_c1_c2,
    check_disc_c0_crosscheck,
    check_hcma_residual,
    check_flow_duality,
    check_ratio_bounds,
    check_peak_asymptotics,
    check_localization,
)


def run_checks(checks=None) -> list[CheckResult]:
    """Run `checks` (default: ALL_CHECKS), printing each result's line.  A check
    that raises fails with a line naming its function and the exception (its
    traceback goes to stderr), and the checks after it still run."""
    results = []
    for fn in (checks or ALL_CHECKS):
        try:
            res = fn()
        except Exception as exc:
            traceback.print_exc()
            res = CheckResult(fn.__name__, False, f"raised {type(exc).__name__}: {exc}")
        results.append(res)
        print(res.line())
    return results
