"""
Self-checking experiment suite.

Each check runs one verifiable claim of the library end to end at desk scale
and returns a CheckResult with the measured numbers in `detail`.  The pytest
acceptance module and the command-line interface both consume these, so the
shell exit code and the test suite can never disagree.

The two convergence experiments are `run_experiment` at the module configs
GEODESIC and DISC.  The interval run is cached per process and shared
between checks (and with `toricmaps geodesic --out`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bergman import (NormingTable, localization_gap, norming_constants,
                      peak_asymptotics_check, ratio_report, szego_sum)
from .dirichlet import (BoundaryData, harmonic_extend, harmonic_extend_disc_fourier,
                        make_interval)
from .flows import eells_sampson_operator, heat_evolve, hcma_residual, make_flow_state
from .harness import (ERROR_COLUMNS, ExperimentConfig, HarmonicPotentialFamily,
                      kahler_field, loop_family, rate_fit, run_experiment,
                      window_rho_bounds)
from .polytope import preset_polytope
from .potentials import (default_margin, make_polytope_grid, make_radial_grid,
                         preset_kahler, preset_symplectic, to_kahler,
                         to_symplectic)

__all__ = ["CheckResult", "ALL_CHECKS", "run_checks", "GEODESIC", "DISC",
           "geodesic_run", "flow_start",
           "check_legendre_involution", "check_gradient_hessian_duality",
           "check_norming_oracle", "check_duality_identity",
           "check_szego_normalization", "C0Gate", "c0_gate", "check_geodesic_c0",
           "check_geodesic_c1_c2", "check_disc_c0_crosscheck",
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

# the geodesic suite: a = 0.1, 17 x 801 nodes, levels 8..64, 801 rho nodes on [-4, 4]
GEODESIC = ExperimentConfig()
# the disc suite: a = 0.05, 9 x 256 nodes, levels 8..32, 601 rho nodes on [-4, 4]
DISC = ExperimentConfig(domain="disc", boundary_family="loop(0.05)",
                        levels=(8, 16, 32), n_rho=601)


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
        u = preset_symplectic("guillemin", P, grid)
        _CACHE[key] = norming_constants(u, k)
    return _CACHE[key]


# -- Legendre machinery -----------------------------------------------------------

def check_legendre_involution() -> CheckResult:
    """Round trip phi -> u -> phi on a 2001-node rho grid, sup error < 1e-8."""
    t0 = time.perf_counter()
    grid = make_radial_grid([-12.0], [12.0], [2001])
    phi = preset_kahler("fubini-study", grid)
    P = preset_polytope("interval")
    xgrid = make_polytope_grid(P, 801, 1e-4)
    u = to_symplectic(phi, P, xgrid)
    phi_back = to_kahler(u, grid)
    interior = slice(5, -5)
    err = float(np.max(np.abs(phi_back.values[interior]
                              - np.asarray(phi.value(grid.axes[0][interior])))))
    elapsed = time.perf_counter() - t0
    passed = err < 1e-8 and elapsed < 1.0
    return CheckResult("legendre involution",
                       passed, f"sup interior error {err:.3e} (tol 1e-8), "
                               f"runtime {elapsed:.2f}s (limit 1s)")


def check_gradient_hessian_duality() -> CheckResult:
    """grad/inverse-Hessian duality at 100 interior pairs, both test metrics."""
    P = preset_polytope("interval")
    xgrid = make_polytope_grid(P, 801, default_margin(64))
    rho_grid = make_radial_grid([-6.0], [6.0], [1201])
    worst_grad = 0.0
    worst_hess = 0.0
    h = 3e-4
    for name in ("guillemin", "perturbed(0.1)"):
        u = preset_symplectic(name, P, xgrid)
        phi = to_kahler(u, rho_grid)
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

def _beta_log(alpha: int, k: int) -> float:
    return math.lgamma(alpha + 1) + math.lgamma(k - alpha + 1) - math.lgamma(k + 2)


def check_norming_oracle() -> CheckResult:
    """Every Q(alpha) on the standard metric matches the Beta-integral values."""
    worst = 0.0
    for k in range(1, 33):
        table = _fs_table(k)
        for a, lq in zip(table.alphas[:, 0], table.log_q):
            exact = _beta_log(int(a), k)
            worst = max(worst, abs(math.expm1(lq - exact)))
    passed = worst < 1e-6
    return CheckResult("norming-constant oracle", passed,
                       f"max relative error vs Beta values (k <= 32): {worst:.3e} (tol 1e-6)")


def check_duality_identity() -> CheckResult:
    """log Q + log P = k u(alpha/k) for all interior alpha, k <= 64, both metrics."""
    P = preset_polytope("interval")
    xgrid = make_polytope_grid(P, 801, default_margin(64))
    rho_grid = make_radial_grid([-6.0], [6.0], [1201])
    worst = 0.0
    for name in ("guillemin", "perturbed(0.1)"):
        u = preset_symplectic(name, P, xgrid)
        phi = preset_kahler("fubini-study", rho_grid) if name == "guillemin" \
            else to_kahler(u, rho_grid)
        for k in range(1, 65):
            table = norming_constants(u, k) if name != "guillemin" else _fs_table(k)
            alphas = table.alphas[:, 0]
            inner = (alphas > 0) & (alphas < k)
            if not inner.any():
                continue
            x = alphas[inner].astype(float) / k
            rho_star = np.asarray(u.grad(x))
            log_p = (alphas[inner] * rho_star
                     - k * np.asarray(phi.value(rho_star)) - table.log_q[inner])
            gap = np.abs(table.log_q[inner] + log_p - k * np.asarray(u.value(x)))
            worst = max(worst, float(np.max(gap)))
    passed = worst < 5e-5
    return CheckResult("norming/peak duality identity", passed,
                       f"max |log Q + log P - k u(alpha/k)| = {worst:.3e} (tol 5e-5)")


def check_szego_normalization() -> CheckResult:
    """Interior deviation |sum_alpha P(alpha,.) - 1| drops by >= 3x from k=16 to 64."""
    grid = make_radial_grid([-4.0], [4.0], [401])
    phi = preset_kahler("fubini-study", grid)
    u = preset_symplectic("guillemin", preset_polytope("interval"),
                          make_polytope_grid(preset_polytope("interval"), 801,
                                             default_margin(64)))
    lo, hi = window_rho_bounds(u, 0.1)
    rho = np.linspace(lo, hi, 7)
    devs = {}
    for k in (16, 64):
        table = _fs_table(k)
        devs[k] = float(np.max(np.abs(szego_sum(table, phi, rho) - 1.0)))
    ratio = devs[16] / devs[64]
    passed = ratio >= 3.0
    return CheckResult("szego normalization", passed,
                       f"|sum - 1|: k=16 -> {devs[16]:.3e}, k=64 -> {devs[64]:.3e}, "
                       f"improvement {ratio:.2f}x (need >= 3)")


# -- main convergence experiments ------------------------------------------------------

@dataclass(frozen=True)
class C0Gate:
    """Verdict of the geodesic C0 gate on one error sequence."""

    k_eps: tuple[float, ...]            # k * eps_k at each level
    ratios: tuple[float, ...]           # eps_k' / eps_k between consecutive levels
    decreasing: bool                    # eps_k strictly decreasing
    within_envelope: bool               # k * eps_k never grows

    @property
    def passed(self) -> bool:
        return self.decreasing and self.within_envelope


def c0_gate(levels, errors) -> C0Gate:
    """Gate a mean-adjusted C0 sequence against the c/k envelope.

    The errors must decrease strictly, and `k * eps_k` must never grow from
    one level to the next, so every level stays inside the `c/k` envelope
    fixed at the first level.  This implies the Song-Zelditch
    `O(log k / k)` bound.  The y-independent constant that the mean
    adjustment removes behaves like `log(k+1)/k`; an error still carrying it
    has `k * eps_k` growing like `log k` and fails.
    """
    k = np.asarray(levels, dtype=float)
    eps = np.asarray(errors, dtype=float)
    if k.size < 2 or k.shape != eps.shape or np.any(np.diff(k) <= 0):
        raise ValueError("need at least two strictly increasing levels, "
                         "one error per level")
    k_eps = k * eps
    return C0Gate(k_eps=tuple(float(v) for v in k_eps),
                  ratios=tuple(float(v) for v in eps[1:] / eps[:-1]),
                  decreasing=bool(np.all(np.diff(eps) < 0)),
                  within_envelope=bool(np.all(np.diff(k_eps) <= 0)))


def check_geodesic_c0() -> CheckResult:
    """Interval experiment: mean-adjusted C0 strictly decreasing, k*eps_k never
    growing (every level inside the c/k envelope fixed at k=8), within 60 s.

    `eps*k/log k` is reported as a diagnostic only: it stays flat on an error
    that still carries the removed normalization, so it cannot gate.
    """
    result, elapsed = geodesic_run()
    levels = GEODESIC.levels
    c0 = result.report.column("C0")
    gate = c0_gate(levels, c0)
    fit = rate_fit(levels, c0)
    timed = elapsed < 60.0
    passed = gate.passed and timed

    def fmt(vals):
        return ", ".join(f"{v:.3e}" for v in vals)

    bounds = ", ".join(f"{a / b:g}" for a, b in zip(levels, levels[1:]))
    return CheckResult("geodesic C0 convergence", passed,
                       f"C0 = [{fmt(c0)}] decreasing={gate.decreasing}; "
                       f"k*eps = [{fmt(gate.k_eps)}] non-increasing="
                       f"{gate.within_envelope}; ratios eps_k'/eps_k = "
                       f"[{', '.join(f'{r:.3f}' for r in gate.ratios)}] "
                       f"(need <= k/k' = {bounds}); "
                       f"diagnostic eps*k/log k = [{fmt(fit.statistic)}]; "
                       f"pipeline {elapsed:.1f}s (limit 60s)")


def check_geodesic_c1_c2() -> CheckResult:
    """All derivative sup norms strictly decreasing with doubling ratio <= 0.9."""
    report = geodesic_run()[0].report
    failures = []
    details = []
    for col in ERROR_COLUMNS[1:]:
        e = report.column(col)
        ratios = e[1:] / e[:-1]
        ok = bool(np.all(np.diff(e) < 0) and np.all(ratios <= 0.9))
        details.append(f"{col}: max ratio {ratios.max():.3f}")
        if not ok:
            failures.append(col)
    passed = not failures
    msg = "; ".join(details) + (f"; failing: {failures}" if failures else "")
    return CheckResult("geodesic C1/C2 convergence", passed, msg)


def check_disc_c0_crosscheck() -> CheckResult:
    """Disc experiment: C0 decreasing and the two boundary-integral paths agree."""
    result = run_experiment(DISC)
    c0 = result.report.column("C0")
    decreasing = bool(np.all(np.diff(c0) < 0))
    # two independent quadrature paths for the harmonic norming exponents:
    # Poisson-integral weights vs Fourier damping, from identical boundary data
    norming = result.approximants[max(DISC.levels)].norming
    data = BoundaryData(norming.lam[:, -1, :].T)   # boundary-ring values = log Q, all alphas
    poisson = harmonic_extend(result.family.domain, data).values
    fourier = harmonic_extend_disc_fourier(result.family.domain, data).values
    cross = float(np.max(np.abs(poisson - fourier)))
    passed = decreasing and cross < 1e-8
    seq = ", ".join(f"{v:.3e}" for v in c0)
    return CheckResult("disc C0 + kernel cross-check", passed,
                       f"C0 = [{seq}] decreasing={decreasing}; "
                       f"two-path exponent agreement {cross:.3e} (tol 1e-8)")


def check_hcma_residual() -> CheckResult:
    """Degenerate complex-Hessian residual decreases at second order; positivity."""
    sups = []
    hess_min = math.inf
    # margin doubles with the resolution so both sups run over the same
    # physical window (r in [0.225, 0.675], |rho| <= 3.92)
    for n_r, n_g, n_rho, margin in ((9, 64, 201, 2), (17, 128, 401, 4)):
        family = loop_family(a=0.05, n_radii=n_r, n_angles=n_g, n_x=801, k_max=32)
        rho = np.linspace(-4.0, 4.0, n_rho)
        phi_field = kahler_field(family, rho)
        rep = hcma_residual(phi_field.values, family.domain, rho, margin=margin)
        sups.append(rep.sup)
        hess_min = min(hess_min, rep.fiber_hessian_min)
    ratio = sups[0] / sups[1]
    passed = 2.5 <= ratio <= 6.0 and hess_min > 0
    return CheckResult("degenerate complex-Hessian residual", passed,
                       f"sup residual {sups[0]:.3e} -> {sups[1]:.3e} under halving, "
                       f"ratio {ratio:.2f} (need in [2.5, 6]); "
                       f"min fiber Hessian {hess_min:.3e} (> 0)")


def check_flow_duality() -> CheckResult:
    """Heat-flow snapshots' Legendre duals satisfy the harmonic-map-flow equation."""
    sups = []
    for n_t, n_x, n_rho, refine in ((33, 161, 401, 1), (65, 321, 801, 4)):
        sups.append(_flow_residual(n_t, n_x, n_rho, refine))
    ratio = sups[0] / sups[1]
    passed = ratio >= 3.0
    return CheckResult("flow duality", passed,
                       f"sup |d_tau Phi - ES(Phi)| {sups[0]:.3e} -> {sups[1]:.3e} "
                       f"(h halved, dtau quartered), ratio {ratio:.2f} (need >= 3)")


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
    domain, xgrid = state.domain, state.xgrid
    steps = 40 * refine
    state = heat_evolve(state, dtau, steps)
    stepped = heat_evolve(state, dtau, 1)
    rho = np.linspace(-4.0, 4.0, n_rho)

    def field(s):
        fam = HarmonicPotentialFamily(domain=domain, xgrid=xgrid,
                                      boundary_potentials=(), f=s.f)
        return kahler_field(fam, rho)

    phi1 = field(state)
    phi2 = field(stepped)
    d_tau = (phi2.values - phi1.values) / dtau
    op, keep = eells_sampson_operator(phi1.values, domain, rho)
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
            table_y = norming_constants(u_y, k)
            rep = ratio_report(norming, table_y, u_y,
                               family.boundary_potentials, (iy,))
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
    u = preset_symplectic("guillemin", P, grid)
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
    """Lattice tail outside the k^(delta-1/2) window shrinks >= 10x from k=8 to 64.

    Evaluated at a moment image of 0.15: at the exact center the k=8 window
    already covers the whole polytope and the tail is identically zero, which
    would make the comparison vacuous.
    """
    grid = make_radial_grid([-4.0], [4.0], [401])
    phi = preset_kahler("fubini-study", grid)
    rho = math.log(0.15 / 0.85)
    gaps = {}
    for k in (8, 64):
        gaps[k] = localization_gap(_fs_table(k), phi, rho, delta=0.25)
    ratio = gaps[8] / gaps[64] if gaps[64] > 0 else math.inf
    passed = gaps[8] > 0 and ratio >= 10.0
    return CheckResult("lattice-sum localization", passed,
                       f"tail mass: k=8 -> {gaps[8]:.3e}, k=64 -> {gaps[64]:.3e}, "
                       f"reduction {ratio:.1f}x (need >= 10)")


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


def run_checks(checks=None, verbose: bool = True) -> list[CheckResult]:
    results = []
    for fn in (checks or ALL_CHECKS):
        res = fn()
        results.append(res)
        if verbose:
            print(res.line())
    return results
