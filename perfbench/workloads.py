"""
The benchmark's three workloads: seeded inputs, one experiment pass, and
the output checks behind `error_rate`.

A pass is one full convergence experiment as a user runs it, entirely
through the public API of the checkout's `toricmaps` (imported from
`src/`, never from an installed copy):

  1. build the boundary symplectic potentials from seed-drawn data,
  2. `harness.solve_harmonic_map`,
  3. `harness.kahler_field`,
  4. `harness.build_approximants` at the workload's levels,
  5. `harness.error_report`,
  6. the workload's residual or cross-check.

Every pass draws fresh boundary amplitudes from the seed stream while the
domain, polytope grid and levels stay fixed, as in a parameter sweep: a
cache keyed on structure may hit across passes, a cache keyed on data
cannot.  The library is always reached through module attributes
(`harness.kahler_field`, not a name bound at import), so the traced run can
wrap the layers without the workloads knowing.

Why these three: `geodesic` is bound by large `bergman` quadratures (few
tables, thousands of panels each), `disc` by node count (2,560 Legendre
slices, 768 small tables), `rectangle` by the `dirichlet` direct solve.
Each optimisation in the ROADMAP is exercised by one of them and bypassed
by another.  Only `geodesic` and `disc` are listed in BENCHMARK.json: the
Python-loop assembly that dominates `rectangle` made its median pass time
drift by 13-24% between runs on a shared 2-vCPU host, too close to the 25%
regression bound.  Run it by hand with `--workload rectangle`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from toricmaps import dirichlet, flows, harness, polytope, potentials  # noqa: E402

DEFAULT_SEED = 0
WINDOW = 0.1
RHO_SPAN = 4.0

# Largest |log Q_k - log Beta| accepted on the Guillemin boundary: the
# quadrature's own panel-doubling tolerance (`check_tol` of norming_constants).
BETA_ORACLE_TOL = 1e-9
# Poisson vs Fourier exponents: the tolerance of the acceptance cross-check.
CROSSCHECK_TOL = 1e-8
# Exact-arithmetic identities (5-point Laplacian on quadratic harmonic data,
# explicit heat flow on a discrete eigenmode) hold to rounding; measured
# below 1e-16 on data of size ~0.1.
ROUNDING_TOL = 1e-13
# Recorded default-seed numbers must repeat to this relative tolerance: loose
# enough for reordered arithmetic, far tighter than any change in the answer.
REFERENCE_RTOL = 1e-6

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


# -- closed-form smooth parts on the interval polytope ------------------------------

def product_ell(c: float) -> potentials.ClosedForm:
    """f = c * x (1 - x) = c * prod_r ell_r on the unit interval, exact derivatives."""
    def value(x):
        x = np.asarray(x, dtype=float)
        return c * x * (1.0 - x)

    def grad(x):
        return c * (1.0 - 2.0 * np.asarray(x, dtype=float))

    def hess(x):
        return np.full(np.shape(x), -2.0 * c)

    return potentials.ClosedForm(value=value, grad=grad, hess=hess)


def boundary_potential(P, xgrid, c: float) -> potentials.SymplecticPotential:
    return potentials.SymplecticPotential(P, xgrid, f_closed=product_ell(c))


# -- shared experiment --------------------------------------------------------------

@dataclass
class PassOutput:
    """What one pass produced: the objects the checks read and the numbers it reports."""

    family: object
    approx: dict
    report: object
    heat: object = None
    extra: dict = field(default_factory=dict)

    def record(self) -> dict[str, list[float]]:
        """Numbers that must repeat bitwise between traced and untraced passes."""
        rec = {name: [float(v) for v in self.report.column(name)]
               for name in harness.ERROR_COLUMNS}
        for key, val in self.extra.items():
            rec[key] = [float(v) for v in np.atleast_1d(val)]
        return rec


def run_experiment(domain, xgrid, boundary, closed_family, rho, levels):
    family = harness.solve_harmonic_map(domain, xgrid, boundary, closed_family)
    phi_field = harness.kahler_field(family, rho)
    approx = harness.build_approximants(family, levels)
    report = harness.error_report(family, phi_field, approx, window=WINDOW)
    return family, phi_field, approx, report


def c0_decreasing(out: PassOutput) -> list[str]:
    c0 = out.report.column("C0")
    if np.all(np.diff(c0) < 0):
        return []
    return [f"C0 not strictly decreasing over levels: {c0.tolist()}"]


class Workload:
    """Fixed structure of one workload plus the seeded stream of pass inputs."""

    name = ""
    levels: tuple[int, ...] = ()

    n_x = 0
    n_rho = 0

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.P = polytope.preset_polytope("interval")
        self.xgrid = potentials.make_polytope_grid(
            self.P, self.n_x, potentials.default_margin(max(self.levels)))
        self.rho = np.linspace(-RHO_SPAN, RHO_SPAN, self.n_rho)
        self.domain = self.make_domain()

    def make_domain(self):
        raise NotImplementedError

    def draw(self) -> dict:
        """Boundary data of the next pass."""
        raise NotImplementedError

    def run(self, params: dict) -> PassOutput:
        raise NotImplementedError

    def check(self, params: dict, out: PassOutput) -> list[str]:
        """Failure messages of the output checks (empty when every check holds)."""
        raise NotImplementedError


# -- geodesic: the interval, bound by the bergman quadrature ------------------------

class Geodesic(Workload):
    """Interval family from the Guillemin metric to u0 + a prod ell.

    Two boundary tables per level, but 8k panels each at k = 128 and 256.
    Bypasses per-node Newton (17 slices) and the dirichlet solve (the interval
    extension is a closed-form line).
    """

    name = "geodesic"
    levels = (8, 16, 32, 64, 128, 256)
    n_t = 17
    n_x = 801
    n_rho = 801

    def make_domain(self):
        return dirichlet.make_interval(self.n_t)

    def draw(self) -> dict:
        return {"a": float(self.rng.uniform(0.05, 0.3))}

    def run(self, params: dict) -> PassOutput:
        a = params["a"]
        boundary = [boundary_potential(self.P, self.xgrid, 0.0),
                    boundary_potential(self.P, self.xgrid, a)]
        t = self.domain.nodes
        family, _, approx, report = run_experiment(
            self.domain, self.xgrid, boundary,
            lambda idx: product_ell(a * float(t[idx[0]])), self.rho, self.levels)
        fit = harness.rate_fit(report.levels, report.column("C0"))
        # the flatness statistic of the red C0 gate, recorded and never gated
        return PassOutput(family, approx, report, extra={
            "c0_flatness_statistic": fit.statistic,
            "c0_flatness_spread": fit.statistic_spread,
            "c0_slope": fit.slope})

    def check(self, params: dict, out: PassOutput) -> list[str]:
        fails = c0_decreasing(out)
        for k, fam in out.approx.items():
            # lambda at t = 0 is the Guillemin boundary table itself
            alphas = fam.norming.alphas[:, 0]
            exact = np.array([math.lgamma(a + 1) + math.lgamma(k - a + 1)
                              - math.lgamma(k + 2) for a in alphas])
            err = float(np.max(np.abs(fam.norming.lam[:, 0] - exact)))
            if not err <= BETA_ORACLE_TOL:
                fails.append(f"k={k}: Guillemin table off the Beta oracle by {err:.3e}")
        return fails


# -- disc: the loop family, bound by node count --------------------------------------

class Disc(Workload):
    """Disc family with boundary profile c(theta) = trigonometric polynomial of degree 2.

    2,560 interior Legendre slices and 256 boundary tables per level: many
    small tables, the opposite shape to `geodesic`.
    """

    name = "disc"
    levels = (8, 16, 32)
    n_radii = 9
    n_angles = 256
    n_x = 801
    n_rho = 601

    def make_domain(self):
        return dirichlet.make_disc(self.n_radii, self.n_angles)

    def draw(self) -> dict:
        a0 = float(self.rng.uniform(0.03, 0.07))
        r1, r2 = self.rng.uniform(0.3, 0.9), self.rng.uniform(0.0, 0.3)
        p1, p2 = self.rng.uniform(0.0, 2.0 * np.pi, size=2)
        return {"coeffs": [a0, float(a0 * r1 * math.cos(p1)), float(a0 * r1 * math.sin(p1)),
                           float(a0 * r2 * math.cos(p2)), float(a0 * r2 * math.sin(p2))]}

    @staticmethod
    def profile(coeffs, r, g):
        """Harmonic extension of the boundary profile: r^n damps the n-th harmonic."""
        a0, a1, b1, a2, b2 = coeffs
        return (a0 + r * (a1 * math.cos(g) + b1 * math.sin(g))
                + r * r * (a2 * math.cos(2 * g) + b2 * math.sin(2 * g)))

    def run(self, params: dict) -> PassOutput:
        coeffs = params["coeffs"]
        radii, angles = self.domain.radii, self.domain.angles
        boundary = [boundary_potential(self.P, self.xgrid, self.profile(coeffs, 1.0, th))
                    for th in angles]
        family, phi_field, approx, report = run_experiment(
            self.domain, self.xgrid, boundary,
            lambda idx: product_ell(self.profile(coeffs, radii[idx[0]], angles[idx[1]])),
            self.rho, self.levels)
        hcma = flows.hcma_residual(phi_field.values, self.domain, self.rho)
        # two independent disc solvers on the top level's boundary exponents
        norming = approx[max(self.levels)].norming
        cross = 0.0
        for i in range(norming.count):
            data = dirichlet.BoundaryData(norming.lam[i, -1, :])
            poisson = dirichlet.harmonic_extend(self.domain, data).values
            fourier = dirichlet.harmonic_extend_disc_fourier(self.domain, data).values
            cross = max(cross, float(np.max(np.abs(poisson - fourier))))
        return PassOutput(family, approx, report, extra={
            "hcma_sup": hcma.sup, "hcma_mean": hcma.mean,
            "hcma_fiber_hessian_min": hcma.fiber_hessian_min,
            "poisson_fourier_gap": cross})

    def check(self, params: dict, out: PassOutput) -> list[str]:
        fails = c0_decreasing(out)
        gap = out.extra["poisson_fourier_gap"]
        if not gap < CROSSCHECK_TOL:
            fails.append(f"Poisson and Fourier exponents differ by {gap:.3e}")
        if not out.extra["hcma_fiber_hessian_min"] > 0:
            fails.append("fiber Hessian not positive on the complex-Hessian window")
        return fails


# -- rectangle: bound by the dirichlet direct solve ---------------------------------

class Rectangle(Workload):
    """Rectangle family a q(y) prod ell with q a quadratic harmonic polynomial.

    The 5-point Laplacian is exact on quadratics, so the direct solve must
    reproduce the closed form to rounding.  The same harmonic family plus a
    discrete sine eigenmode is then heat-flowed, whose exact discrete answer
    is known too.
    """

    name = "rectangle"
    levels = (4, 8, 16)
    n_side = 17
    n_x = 401
    n_rho = 401
    heat_steps = 400

    def __init__(self, seed: int):
        super().__init__(seed)
        self.y1, self.y2 = np.meshgrid(self.domain.x_nodes, self.domain.y_nodes,
                                       indexing="ij")
        self.boundary_mask = self.domain.boundary_mask()

    def make_domain(self):
        return dirichlet.make_rectangle(self.n_side, self.n_side)

    def draw(self) -> dict:
        return {"a": float(self.rng.uniform(0.05, 0.2)),
                "q": [float(self.rng.uniform(0.5, 1.0))]
                + [float(v) for v in self.rng.uniform(-0.5, 0.5, size=4)],
                "mode": [int(v) for v in self.rng.integers(1, 4, size=2)],
                "b": float(self.rng.uniform(0.02, 0.1))}

    def coefficient(self, params) -> np.ndarray:
        """a q(y) on the grid; q = c0 + c1 y1 + c2 y2 + c3 (y1^2 - y2^2) + c4 y1 y2."""
        c0, c1, c2, c3, c4 = params["q"]
        y1, y2 = self.y1, self.y2
        return params["a"] * (c0 + c1 * y1 + c2 * y2 + c3 * (y1 * y1 - y2 * y2)
                              + c4 * y1 * y2)

    def exact_f(self, params) -> np.ndarray:
        x = self.xgrid.axes[0]
        return self.coefficient(params)[..., None] * (x * (1.0 - x))[None, None, :]

    def eigenmode(self, params):
        """Discrete Dirichlet sine mode in y times x (1 - x), and its eigenvalue."""
        p, q = params["mode"]
        h1 = self.domain.x_nodes[1] - self.domain.x_nodes[0]
        h2 = self.domain.y_nodes[1] - self.domain.y_nodes[0]
        s = np.sin(p * np.pi * self.y1) * np.sin(q * np.pi * self.y2)
        s[self.boundary_mask] = 0.0
        x = self.xgrid.axes[0]
        lam = (4.0 / h1**2) * math.sin(p * np.pi * h1 / 2) ** 2 \
            + (4.0 / h2**2) * math.sin(q * np.pi * h2 / 2) ** 2
        return s[..., None] * (x * (1.0 - x))[None, None, :], lam

    def run(self, params: dict) -> PassOutput:
        coeff = self.coefficient(params)
        boundary = [boundary_potential(self.P, self.xgrid, float(c))
                    for c in coeff[self.boundary_mask]]
        family, phi_field, approx, report = run_experiment(
            self.domain, self.xgrid, boundary,
            lambda idx: product_ell(float(coeff[idx])), self.rho, self.levels)
        es = flows.eells_sampson_residual(phi_field.values, self.domain, self.rho)
        mode, _ = self.eigenmode(params)
        start = flows.make_flow_state(self.domain, self.xgrid,
                                      self.exact_f(params) + params["b"] * mode)
        state = flows.heat_evolve(start, self.dtau(), self.heat_steps)
        return PassOutput(family, approx, report, heat=state, extra={
            "es_sup": es.sup, "es_mean": es.mean,
            "es_fiber_hessian_min": es.fiber_hessian_min})

    def dtau(self) -> float:
        """A quarter of the explicit CFL limit h^2/4, so that after `heat_steps`
        steps the (3, 3) mode is still 3.6e-8 of its start, far above rounding."""
        h = min(self.domain.x_nodes[1] - self.domain.x_nodes[0],
                self.domain.y_nodes[1] - self.domain.y_nodes[0])
        return float(h * h / 16.0)

    def check(self, params: dict, out: PassOutput) -> list[str]:
        fails = c0_decreasing(out)
        gap = float(np.max(np.abs(out.family.f - self.exact_f(params))))
        if not gap <= ROUNDING_TOL:
            fails.append(f"direct solve off the quadratic closed form by {gap:.3e}")
        state = out.heat
        mode, lam = self.eigenmode(params)
        n = self.heat_steps
        expected = self.exact_f(params) + params["b"] * (1.0 - self.dtau() * lam) ** n * mode
        heat_gap = float(np.max(np.abs(state.f - expected)))
        if not heat_gap <= ROUNDING_TOL:
            fails.append(f"heat flow off the eigenmode decay by {heat_gap:.3e}")
        if state.convexity_violations:
            fails.append(f"heat flow lost convexity at {len(state.convexity_violations)} slices")
        return fails


WORKLOADS = {w.name: w for w in (Geodesic, Disc, Rectangle)}


# -- recorded numbers of the default seed --------------------------------------------

def check_reference(workload: str, record: dict) -> list[str]:
    """Compare the first pass of the default seed with its recorded numbers."""
    with open(REFERENCE_FILE) as fh:
        expected = json.load(fh)[workload]
    fails = []
    for key, ref in expected.items():
        got = record.get(key)
        if got is None or len(got) != len(ref) or not np.allclose(
                got, ref, rtol=REFERENCE_RTOL, atol=0.0):
            fails.append(f"{key} = {got} differs from the recorded {ref}")
    return fails


def record_reference():
    """Rewrite reference.json from the first pass of the default seed of every workload."""
    doc = {}
    for name, cls in WORKLOADS.items():
        w = cls(DEFAULT_SEED)
        params = w.draw()
        out = w.run(params)
        fails = w.check(params, out)
        if fails:
            raise SystemExit(f"{name}: output checks fail, not recording: {fails}")
        doc[name] = out.record()
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    # python3 perfbench/workloads.py record-reference
    if sys.argv[1:] != ["record-reference"]:
        raise SystemExit("usage: python3 perfbench/workloads.py record-reference")
    record_reference()
