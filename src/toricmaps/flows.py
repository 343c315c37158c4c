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

All derivatives are centered second-order differences; residual reports
exclude a 2-cell margin at every non-periodic grid edge, and on the disc
they are restricted to the uniform interior radial block (the exact
boundary ring at r = 1 has its own spacing).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dirichlet import DiscDomain, IntervalDomain, RectangleDomain, _d1, _d2
from .potentials import (ConvexityError, PolytopeGrid, SymplecticPotential,
                         _convex_slices)

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


# -- derivative stencils -------------------------------------------------------

def _trim(shape, margins):
    """Slices keeping margins[i] cells off both ends of axis i (0 = keep all)."""
    return tuple(slice(m, s - m if m else None) for s, m in zip(shape, margins))


def eells_sampson_operator(phi: np.ndarray, domain, rho_axis: np.ndarray,
                           margin: int = 2):
    """The harmonic-map-flow operator Lap_N phi - |grad_y phi_rho|^2 / phi_rhorho.

    Returns (field, keep) where `field` is the operator on the full grid
    (garbage near edges) and `keep` the slices of admissible interior nodes.
    Raises ConvexityError when the fiber Hessian is not strictly positive on
    the admissible window.
    """
    phi = np.asarray(phi, dtype=float)
    rho_axis = np.asarray(rho_axis, dtype=float)
    h_rho = rho_axis[1] - rho_axis[0]
    rho_ax = phi.ndim - 1
    phi_rr = _d2(phi, h_rho, rho_ax)
    if isinstance(domain, IntervalDomain):
        h_t = domain.nodes[1] - domain.nodes[0]
        lap = _d2(phi, h_t, 0)
        cross = [_d1(_d1(phi, h_t, 0), h_rho, rho_ax)]
        weights = [1.0]
        keep = _trim(phi.shape, (margin, margin))
    elif isinstance(domain, RectangleDomain):
        hx = domain.x_nodes[1] - domain.x_nodes[0]
        hy = domain.y_nodes[1] - domain.y_nodes[0]
        lap = _d2(phi, hx, 0) + _d2(phi, hy, 1)
        cross = [_d1(_d1(phi, hx, 0), h_rho, rho_ax),
                 _d1(_d1(phi, hy, 1), h_rho, rho_ax)]
        weights = [1.0, 1.0]
        keep = _trim(phi.shape, (margin, margin, margin))
    elif isinstance(domain, DiscDomain):
        lap, cross, weights, keep = _polar_pieces(phi, domain, h_rho, margin)
    else:
        raise TypeError(f"unsupported domain {type(domain).__name__}")
    if np.min(phi_rr[keep]) <= 0:
        raise ConvexityError("fiber Hessian is not positive on the residual window")
    with np.errstate(divide="ignore", invalid="ignore"):
        nl = sum(w * c**2 for c, w in zip(cross, weights))
        field = lap - nl / phi_rr
    return field, keep


def eells_sampson_residual(phi: np.ndarray, domain, rho_axis: np.ndarray,
                           margin: int = 2) -> ResidualReport:
    """Harmonic-map residual of a potential family phi over domain x rho-grid.

    phi has shape (*domain.shape, n_rho).  Flat parameter domains only, so no
    Christoffel correction enters.
    """
    field, keep = eells_sampson_operator(phi, domain, rho_axis, margin)
    rho_axis = np.asarray(rho_axis, dtype=float)
    h_rho = rho_axis[1] - rho_axis[0]
    phi = np.asarray(phi, dtype=float)
    phi_rr = _d2(phi, h_rho, phi.ndim - 1)
    return _report(field[keep], phi_rr[keep], {"h_rho": float(h_rho), **domain.spacings})


def _polar_pieces(phi: np.ndarray, domain: DiscDomain, h_rho: float, margin: int):
    """Polar Laplacian and frame components of the mixed derivative.

    Restricted to the uniform interior radial block (the boundary ring at
    r = 1 has its own spacing and only feeds one-sided neighbors, which the
    margin removes).
    """
    r = domain.radii
    nr_uniform = r.size - 1
    h_r = r[1] - r[0]
    h_g = 2.0 * np.pi / domain.angles.size
    rho_ax = phi.ndim - 1
    d_r = _d1(phi, h_r, 0)
    d_rr = _d2(phi, h_r, 0)
    d_gg = _d2(phi, h_g, 1)
    rcol = r[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        lap = d_rr + d_r / rcol + d_gg / rcol**2
        cross_r = _d1(d_r, h_rho, rho_ax)
        cross_g = _d1(_d1(phi, h_g, 1), h_rho, rho_ax)
        w_g = 1.0 / rcol**2
    lo = max(margin, 1)
    keep = (slice(lo, nr_uniform - margin), slice(None), slice(margin, phi.shape[-1] - margin))
    return lap, [cross_r, cross_g], [1.0, w_g], keep


def _report(res: np.ndarray, hess: np.ndarray, spac: dict) -> ResidualReport:
    return ResidualReport(sup=float(np.max(np.abs(res))),
                          mean=float(np.mean(np.abs(res))),
                          spacings=spac, count=int(res.size),
                          fiber_hessian_min=float(np.min(hess)))


def hcma_operator(phi: np.ndarray, domain: DiscDomain, rho_axis: np.ndarray,
                  margin: int = 2):
    """(Lap Phi) Phi_rhorho - |grad_y Phi_rho|^2 on the disc, with keep slices.

    This is the harmonic-map-flow operator multiplied pointwise by the fiber
    Hessian, i.e. the (1+1)-complex-Hessian determinant of the full potential
    up to a positive conformal factor.
    """
    if not isinstance(domain, DiscDomain):
        raise TypeError("hcma_operator expects a disc parameter domain")
    phi = np.asarray(phi, dtype=float)
    rho_axis = np.asarray(rho_axis, dtype=float)
    h_rho = rho_axis[1] - rho_axis[0]
    lap, cross, weights, keep = _polar_pieces(phi, domain, h_rho, margin)
    phi_rr = _d2(phi, h_rho, phi.ndim - 1)
    with np.errstate(invalid="ignore"):
        nl = sum(w * c**2 for c, w in zip(cross, weights))
        field = lap * phi_rr - nl
    return field, keep


def hcma_residual(phi: np.ndarray, domain: DiscDomain, rho_axis: np.ndarray,
                  margin: int = 2) -> ResidualReport:
    """Degenerate complex-Hessian residual of Phi(q, s, rho) on the disc.

    Returns sup/mean of (Lap Phi) Phi_rhorho - |grad_y Phi_rho|^2 on the
    interior window, along with the minimum of the fiber Hessian; a
    nonpositive minimum signals a fiberwise-positivity violation (reported,
    not raised, so the caller can see both numbers).
    """
    field, keep = hcma_operator(phi, domain, rho_axis, margin)
    phi = np.asarray(phi, dtype=float)
    rho_axis = np.asarray(rho_axis, dtype=float)
    h_rho = rho_axis[1] - rho_axis[0]
    phi_rr = _d2(phi, h_rho, phi.ndim - 1)
    return _report(field[keep], phi_rr[keep], {**domain.spacings, "h_rho": float(h_rho)})


# -- snapshot export -------------------------------------------------------------

def save_snapshot(state: FlowState, path):
    """Write a flow snapshot in the potentials text format with a tau header."""
    from .polytope import polytope_to_json
    with open(path, "w") as fh:
        fh.write(f"flow tau {repr(float(state.tau))}\n")
        fh.write(f"domain_shape {' '.join(str(s) for s in state.domain.shape)}\n")
        fh.write("polytope " + polytope_to_json(state.xgrid.polytope) + "\n")
        fh.write(f"margin {repr(float(state.xgrid.margin))}\n")
        fh.write("axis 0 " + " ".join(repr(float(v)) for v in state.xgrid.axes[0]) + "\n")
        fh.write("values shape " + " ".join(str(s) for s in state.f.shape) + "\n")
        for v in state.f.reshape(-1):
            fh.write(repr(float(v)) + "\n")


def load_snapshot(path, domain) -> FlowState:
    from .polytope import polytope_from_json
    from .potentials import PolytopeGrid
    with open(path) as fh:
        lines = fh.read().splitlines()
    tau = float(lines[0].split()[2])
    polytope = None
    margin = None
    axis = None
    i = 1
    while not lines[i].startswith("values"):
        if lines[i].startswith("polytope"):
            polytope = polytope_from_json(lines[i].split(None, 1)[1])
        elif lines[i].startswith("margin"):
            margin = float(lines[i].split()[1])
        elif lines[i].startswith("axis"):
            axis = np.array([float(v) for v in lines[i].split()[2:]])
        i += 1
    shape = tuple(int(s) for s in lines[i].split()[2:])
    n = int(np.prod(shape))
    f = np.array([float(v) for v in lines[i + 1: i + 1 + n]]).reshape(shape)
    grid = PolytopeGrid(polytope=polytope, axes=(axis,), margin=margin)
    return FlowState(domain=domain, xgrid=grid, tau=tau, f=f)
