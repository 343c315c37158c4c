"""
Heat flow on families of symplectic potentials and PDE residuals for the
dual pictures.

The flow advances the smooth part f of u = u0 + f by the discrete Laplacian
of the parameter domain N (explicit Euler, CFL-guarded, Dirichlet data on
the boundary of N frozen).  Under the Legendre transform this is the
gradient flow of the harmonic-map energy on the Kahler side, which is what
the Eells-Sampson residual measures:

    ES(Phi) = Lap_N Phi - sum_a (d_rho d_{y^a} Phi)^2 / d^2_rho Phi.

The nonlinear term carries coefficient 1: differentiating the conjugate
identity  -d^2_t phi = d^2_t u + <grad phi_t, grad u_t>  in families with a
common gradient image produces exactly this form, and it is the form that is
Legendre-dual to Lap_N u = 0.  (Metric conventions that halve the nonlinear
term rescale the whole residual and nothing else.)

For a disc parameter domain with a one-dimensional fiber, the degenerate
complex Monge-Ampere equation for the full potential Phi(q, s, rho) reduces
to the vanishing of

    HCMA(Phi) = (Phi_qq + Phi_ss) Phi_rhorho - Phi_qrho^2 - Phi_srho^2,

with fiberwise positivity Phi_rhorho > 0; on the polar grid the Euclidean
combinations are Phi_qq + Phi_ss = Lap_polar Phi and Phi_qrho^2 + Phi_srho^2
= Phi_rrho^2 + Phi_gammarho^2 / r^2.  The two residuals differ pointwise by
the positive factor Phi_rhorho.

All derivatives are centered second-order differences, and both residuals
come from one path for every domain: the domain's Laplacian, the frame
components of its gradient and its `interior(margin)` window (see
`dirichlet`).  Residual reports exclude a `margin`-cell band (default 2) at
every non-periodic grid edge.  On the disc the window lies in the uniform
radial block radii[:-1], radii max(margin, 1) .. n_r - 2 - margin: the exact
boundary ring at r = 1 has its own spacing, and the centre is excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dirichlet import DiscDomain, _d1, _d2
from .potentials import (ConvexityError, PolytopeGrid, SymplecticPotential,
                         _convex_slices, _read_text, _write_text)

__all__ = [
    "FlowState",
    "ResidualReport",
    "make_flow_state",
    "heat_evolve",
    "eells_sampson_residual",
    "hcma_residual",
    "save_snapshot",
    "load_snapshot",
]


@dataclass(frozen=True)
class ResidualReport:
    """Sup and mean of a PDE residual over the admissible interior nodes."""

    sup: float
    mean: float
    spacings: dict
    count: int
    fiber_hessian_min: float | None = None

    def __post_init__(self):
        if self.sup < 0 or self.mean < 0:
            raise ValueError("residual norms are nonnegative by construction")


@dataclass(frozen=True)
class FlowState:
    """Family u(y, .) = u0 + f(y, .) over DomainN x PolytopeGrid at flow time tau.

    Boundary slices (in y) are Dirichlet data and stay frozen under the flow.
    `convexity_violations` lists (tau, y_index) pairs where a slice lost
    discrete convexity; slices are flagged, never altered.
    """

    domain: object
    xgrid: PolytopeGrid
    tau: float
    f: np.ndarray                        # (*domain.shape, nx)
    convexity_violations: tuple = ()

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        expected = self.domain.shape + self.xgrid.shape
        if f.shape != expected:
            raise ValueError(f"flow field shape {f.shape}, expected {expected}")
        object.__setattr__(self, "f", f)

    def potential_at(self, y_index) -> SymplecticPotential:
        idx = y_index if isinstance(y_index, tuple) else (y_index,)
        return SymplecticPotential(self.xgrid.polytope, self.xgrid,
                                   f_values=self.f[idx], check=False)

    def convexity_flags(self) -> np.ndarray:
        """True where the slice u(y, .) is discretely strictly convex."""
        return _convex_slices(self.xgrid, self.f)


def make_flow_state(domain, xgrid: PolytopeGrid, f: np.ndarray,
                    tau: float = 0.0) -> FlowState:
    state = FlowState(domain=domain, xgrid=xgrid, tau=tau, f=f)
    if not np.all(state.convexity_flags()):
        bad = np.argwhere(~state.convexity_flags())
        raise ConvexityError(f"initial flow data is not convex at y-nodes {bad[:5].tolist()}")
    return state


def heat_evolve(state: FlowState, dtau: float, steps: int) -> FlowState:
    """Advance the family by `steps` explicit-Euler heat steps of size dtau.

    Rejects time steps above the explicit CFL limit h^2/(2 n).  Convexity of
    every slice is rechecked after each step; violations are recorded as
    (tau, y_index) pairs on the returned state.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    limit = state.domain.cfl_limit
    if dtau > limit * (1 + 1e-12):
        raise ValueError(f"dtau = {dtau:g} violates the explicit CFL limit {limit:g}")
    f = state.f.copy()
    violations = list(state.convexity_violations)
    tau = state.tau
    spacings = tuple(state.domain.spacings.values())
    inner = (slice(1, -1),) * len(spacings)

    def shifted(axis, s):          # the interior block moved s = +-1 cells along axis
        return inner[:axis] + (slice(1 + s, (s - 1) or None),) + inner[axis + 1:]

    for _ in range(steps):
        lap = sum((f[shifted(a, 1)] - 2.0 * f[inner] + f[shifted(a, -1)]) / h**2
                  for a, h in enumerate(spacings))
        f[inner] += dtau * lap
        tau += dtau
        flags = _convex_slices(state.xgrid, f)
        if not flags.all():
            violations.extend((tau, tuple(int(v) for v in i))
                              for i in np.argwhere(~flags))
    return replace(state, tau=tau, f=f, convexity_violations=tuple(violations))


# -- residual operators ---------------------------------------------------------

def _fiber_terms(phi: np.ndarray, domain, rho_axis: np.ndarray, margin: int):
    """Lap_N phi, |grad_y phi_rho|^2 and phi_rhorho on the full grid (garbage near
    edges), and the slices `keep` of the admissible interior nodes."""
    phi = np.asarray(phi, dtype=float)
    rho_axis = np.asarray(rho_axis, dtype=float)
    h_rho = rho_axis[1] - rho_axis[0]
    rho_ax = phi.ndim - 1
    cross = sum(_d1(g, h_rho, rho_ax) ** 2 for g in domain.gradient(phi))
    keep = domain.interior(margin) + (slice(margin, phi.shape[-1] - margin),)
    return domain.laplacian(phi), cross, _d2(phi, h_rho, rho_ax), keep


def _eells_sampson(phi, domain, rho_axis, margin):
    """(field, keep, phi_rhorho); raises ConvexityError naming the worst node."""
    lap, cross, phi_rr, keep = _fiber_terms(phi, domain, rho_axis, margin)
    window = phi_rr[keep]
    if np.min(window) <= 0:
        worst = np.unravel_index(np.argmin(window), window.shape)
        index = tuple(int(s.indices(n)[0] + i) for s, n, i in zip(keep, phi_rr.shape, worst))
        raise ConvexityError(
            f"fiber Hessian is not positive on the residual window: phi_rhorho = "
            f"{window[worst]:.3g} at domain node {index[:-1]}, "
            f"rho = {np.asarray(rho_axis)[index[-1]]:.6g}")
    with np.errstate(divide="ignore", invalid="ignore"):
        return lap - cross / phi_rr, keep, phi_rr


def eells_sampson_operator(phi: np.ndarray, domain, rho_axis: np.ndarray,
                           margin: int = 2):
    """The harmonic-map-flow operator Lap_N phi - |grad_y phi_rho|^2 / phi_rhorho.

    Returns (field, keep) where `field` is the operator on the full grid
    (garbage near edges) and `keep` the slices of admissible interior nodes.
    Raises ConvexityError when the fiber Hessian is not strictly positive on
    the admissible window.
    """
    return _eells_sampson(phi, domain, rho_axis, margin)[:2]


def eells_sampson_residual(phi: np.ndarray, domain, rho_axis: np.ndarray,
                           margin: int = 2) -> ResidualReport:
    """Harmonic-map residual of a potential family phi over domain x rho-grid.

    phi has shape (*domain.shape, n_rho).  Flat parameter domains only, so no
    Christoffel correction enters.
    """
    field, keep, phi_rr = _eells_sampson(phi, domain, rho_axis, margin)
    h_rho = float(rho_axis[1] - rho_axis[0])
    return _report(field[keep], phi_rr[keep], {"h_rho": h_rho, **domain.spacings})


def _report(res: np.ndarray, hess: np.ndarray, spac: dict) -> ResidualReport:
    return ResidualReport(sup=float(np.max(np.abs(res))),
                          mean=float(np.mean(np.abs(res))),
                          spacings=spac, count=int(res.size),
                          fiber_hessian_min=float(np.min(hess)))


def _hcma(phi, domain, rho_axis, margin):
    """(field, keep, phi_rhorho) of the complex-Hessian operator on the disc."""
    if not isinstance(domain, DiscDomain):
        raise TypeError("hcma_operator expects a disc parameter domain")
    lap, cross, phi_rr, keep = _fiber_terms(phi, domain, rho_axis, margin)
    with np.errstate(invalid="ignore"):
        return lap * phi_rr - cross, keep, phi_rr


def hcma_operator(phi: np.ndarray, domain: DiscDomain, rho_axis: np.ndarray,
                  margin: int = 2):
    """(Lap Phi) Phi_rhorho - |grad_y Phi_rho|^2 on the disc, with keep slices.

    This is the harmonic-map-flow operator multiplied pointwise by the fiber
    Hessian, i.e. the (1+1)-complex-Hessian determinant of the full potential
    up to a positive conformal factor.
    """
    return _hcma(phi, domain, rho_axis, margin)[:2]


def hcma_residual(phi: np.ndarray, domain: DiscDomain, rho_axis: np.ndarray,
                  margin: int = 2) -> ResidualReport:
    """Degenerate complex-Hessian residual of Phi(q, s, rho) on the disc.

    Returns sup/mean of (Lap Phi) Phi_rhorho - |grad_y Phi_rho|^2 on the
    interior window, along with the minimum of the fiber Hessian; a
    nonpositive minimum signals a fiberwise-positivity violation (reported,
    not raised, so the caller can see both numbers).
    """
    field, keep, phi_rr = _hcma(phi, domain, rho_axis, margin)
    h_rho = float(rho_axis[1] - rho_axis[0])
    return _report(field[keep], phi_rr[keep], {**domain.spacings, "h_rho": h_rho})


# -- snapshot export -------------------------------------------------------------

def save_snapshot(state: FlowState, path):
    """Write a flow snapshot: the potentials text format of f on the state's
    grid, after a `flow tau` and a `domain_shape` line."""
    _write_text(path, [f"flow tau {repr(float(state.tau))}",
                       "domain_shape " + " ".join(str(s) for s in state.domain.shape)],
                state.xgrid, {"values": state.f})


def load_snapshot(path, domain) -> FlowState:
    (tau_line, _), grid, blocks = _read_text(path, 2)
    return FlowState(domain=domain, xgrid=grid, tau=float(tau_line.split()[2]),
                     f=blocks["values"])
