"""
Heat flow on families of symplectic potentials and PDE residuals for the
dual pictures.

The flow advances the smooth part f of u = u0 + f by the parameter domain's
own discrete Laplacian, `domain.laplacian` on `domain.interior(0)` (explicit
Euler, CFL-guarded, Dirichlet data on the boundary of N frozen).  Under the
Legendre transform this is the gradient flow of the harmonic-map energy on
the Kahler side, which is what the Eells-Sampson residual measures:

    ES(Phi) = Lap_N Phi - sum_a (d_rho d_{y^a} Phi)^2 / d^2_rho Phi.

The nonlinear term carries coefficient 1: differentiating the conjugate
identity  -d^2_t phi = d^2_t u + <grad phi_t, grad u_t>  in families with a
common gradient image produces exactly this form, and it is the form that is
Legendre-dual to Lap_N u = 0.  (Metric conventions that halve the nonlinear
term rescale the whole residual and nothing else.)

A flow state is a `potentials.PotentialFamily` at flow time tau, as a solved
harmonic map is: snapshots go into `harness.kahler_field` as they are.

On every parameter domain, with a one-dimensional fiber, the degenerate
complex Monge-Ampere equation for the full potential Phi(y, rho) reduces to

    HCMA(Phi) = (Lap_N Phi) Phi_rhorho - sum_a (d_rho d_{y^a} Phi)^2 = 0,

with Phi_rhorho > 0.  On the interval it is the Song-Zelditch geodesic
equation Phi_tt Phi_rhorho - Phi_trho^2 = 0; on the disc's polar grid,
Phi_qq + Phi_ss = Lap_polar Phi and Phi_qrho^2 + Phi_srho^2 =
Phi_rrho^2 + Phi_gammarho^2 / r^2.  The two residuals differ pointwise by
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

import math
from dataclasses import dataclass, replace

import numpy as np

from .dirichlet import Window, _d1, _d2, _uniform_axis
from .potentials import (LSE_BLOCK, ConvexityError, PolytopeGrid, PotentialFamily,
                         _blocks, _convex_slices, _read_text, _write_text)

__all__ = [
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


def make_flow_state(domain, xgrid: PolytopeGrid, f: np.ndarray) -> PotentialFamily:
    """The flow's start data at tau = 0; a ConvexityError names its non-convex slices."""
    state = PotentialFamily(domain=domain, xgrid=xgrid, f=f)
    state.check_convexity("initial flow data")
    return state


def heat_evolve(state: PotentialFamily, dtau: float, steps: int) -> PotentialFamily:
    """Advance the family by `steps` explicit-Euler heat steps of size dtau.

    Rejects a dtau that is not in [0, h^2/(2 n)], the explicit CFL limit (a
    NaN dtau included); a zero step leaves f as it is.  Convexity of
    every slice is rechecked after each step; violations are recorded as
    (tau, y_index) pairs on the returned state.  The returned state has no
    `closed_forms`: closed forms describe the start data, not the flowed f.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    limit = state.domain.cfl_limit
    if not 0 <= dtau <= limit * (1 + 1e-12):
        raise ValueError(f"dtau = {dtau:g} is not in [0, {limit:g}], the explicit CFL limit")
    f = state.f.copy()
    violations = list(state.convexity_violations)
    tau = state.tau
    inner = state.domain.interior(0)
    for _ in range(steps):
        f[inner] += dtau * state.domain.laplacian(Window(f, inner))
        tau += dtau
        flags = _convex_slices(state.xgrid, f)
        if not flags.all():
            violations.extend((tau, tuple(int(v) for v in i))
                              for i in np.argwhere(~flags))
    return replace(state, tau=tau, f=f, closed_forms=None,
                   convexity_violations=tuple(violations))


# -- residual operators ---------------------------------------------------------

def _fiber_terms(phi, domain, nodes, h_rho, hcma: bool):
    """(operator, phi_rhorho) of a block phi of rho columns, at its domain
    nodes `nodes` and its inner columns (its first and last columns are the
    rho stencil's halo): the Eells-Sampson operator Lap_N phi -
    |grad_y phi_rho|^2 / phi_rhorho, or with `hcma` the complex-Hessian one
    (Lap phi) phi_rhorho - |grad_y phi_rho|^2.  The gradient is taken at
    `nodes` on every column, and the Laplacian reads its first differences."""
    rho_ax = phi.ndim - 1
    cols = (slice(None),) * rho_ax + (slice(1, -1),)
    w = Window(phi, nodes)
    cross = sum(_d1(Window(g, cols), h_rho, rho_ax) ** 2 for g in domain.gradient(w))
    at = w.sub(nodes + cols[-1:])
    lap, phi_rr = domain.laplacian(at), _d2(at, h_rho, rho_ax)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (lap * phi_rr - cross if hcma else lap - cross / phi_rr), phi_rr


def _fiber_window(phi, domain, rho_axis, margin: int, hcma: bool):
    """(field, keep, fiber Hessian min): the `_fiber_terms` operator on the
    window `keep` of admissible interior nodes, and the least phi_rhorho there.

    The window's rho columns go in `_blocks` of at most LSE_BLOCK node x
    column values, their halo columns counted, each written into one
    window-sized field as it is built, and the fiber Hessian's minimum is a
    running one.  No full-grid temporary is held, and every value is bitwise
    the whole-grid operator's.  The Eells-Sampson operator raises a
    ConvexityError naming the first worst node, in the window's C order,
    where phi_rhorho is not positive; a ValueError when `margin` < 1, the
    window is empty or the rho axis is not uniform (`_uniform_axis`).
    """
    phi, rho_axis = np.asarray(phi, dtype=float), _uniform_axis(rho_axis, "rho axis")
    if margin < 1:
        raise ValueError(f"margin = {margin}: the rho differences wrap around at the "
                         "grid's end columns, so the residual window needs margin >= 1")
    n_rho, h_rho = phi.shape[-1], rho_axis[1] - rho_axis[0]
    keep = domain.interior(margin) + (slice(margin, n_rho - margin),)
    nodes = keep[:-1]
    offsets = [s.indices(n)[0] for s, n in zip(nodes, phi.shape)]
    field = np.empty(phi[keep].shape)
    if not field.size:
        raise ValueError(f"{type(domain).__name__} of shape {domain.shape}, {n_rho} rho: "
                         f"the residual window {keep} at margin {margin} is empty")
    hess_min, worst = math.inf, (math.inf, ())
    n_nodes = phi.size // n_rho
    for cols in _blocks(margin, n_rho - margin, n_nodes, LSE_BLOCK - 2 * n_nodes):
        res, phi_rr = _fiber_terms(phi[..., cols.start - 1:cols.stop + 1], domain, nodes,
                                   h_rho, hcma)
        field[..., cols.start - margin:cols.stop - margin] = res
        # the block's first minimum in C order, at its place in the full grid
        j = np.unravel_index(np.argmin(phi_rr), phi_rr.shape)
        value = phi_rr[j]
        hess_min = np.minimum(hess_min, value)
        # (value, index) order: the first minimum in the whole window's C order
        worst = min(worst, (value, tuple(int(o + i) for o, i in
                                         zip(offsets + [cols.start], j))))
    if not hcma and hess_min <= 0:
        value, index = worst
        raise ConvexityError(
            f"fiber Hessian is not positive on the residual window: phi_rhorho = "
            f"{value:.3g} at domain node {index[:-1]}, rho = {rho_axis[index[-1]]:.6g}")
    return field, keep, float(hess_min)


def _fiber_operator(phi, domain, rho_axis, margin: int, hcma: bool):
    """(field, keep): the `_fiber_window` operator on the full grid, NaN off
    the window `keep`."""
    window, keep, _ = _fiber_window(phi, domain, rho_axis, margin, hcma)
    field = np.full(np.shape(phi), np.nan)
    field[keep] = window
    return field, keep


def _fiber_residual(phi, domain, rho_axis, margin: int, hcma: bool):
    """The ResidualReport of the `_fiber_window` operator: |res| in the
    window's field, reduced once (so the mean sums in the order of the whole
    window)."""
    absres, _, hess_min = _fiber_window(phi, domain, rho_axis, margin, hcma)
    np.abs(absres, out=absres)
    h_rho = float(rho_axis[1] - rho_axis[0])
    return ResidualReport(sup=float(np.max(absres)), mean=float(np.mean(absres)),
                          spacings={**domain.spacings, "h_rho": h_rho},
                          count=int(absres.size), fiber_hessian_min=hess_min)


def eells_sampson_operator(phi: np.ndarray, domain, rho_axis: np.ndarray,
                           margin: int = 2):
    """The harmonic-map-flow operator Lap_N phi - |grad_y phi_rho|^2 / phi_rhorho.

    Returns (field, keep) where `field` is the operator on the full grid,
    NaN off the slices `keep` of admissible interior nodes.
    Raises ConvexityError when the fiber Hessian is not strictly positive on
    the admissible window, and a ValueError when `margin` < 1 or the window
    is empty.
    """
    return _fiber_operator(phi, domain, rho_axis, margin, False)


def eells_sampson_residual(phi: np.ndarray, domain, rho_axis: np.ndarray,
                           margin: int = 2) -> ResidualReport:
    """Harmonic-map residual of a potential family phi over domain x rho-grid.

    phi has shape (*domain.shape, n_rho).  Flat parameter domains only, so no
    Christoffel correction enters.  The rho columns of the window go in
    blocks (see `_fiber_window`), so no full-grid derivative array is
    held.  Raises ConvexityError, naming the worst node and rho, when the
    fiber Hessian is not strictly positive on the window, and a ValueError
    when `margin` < 1 or the window is empty.
    """
    return _fiber_residual(phi, domain, rho_axis, margin, False)


def hcma_operator(phi: np.ndarray, domain, rho_axis: np.ndarray, margin: int = 2):
    """(Lap_N Phi) Phi_rhorho - |grad_y Phi_rho|^2 on any domain, with keep slices.

    This is the harmonic-map-flow operator multiplied pointwise by the fiber
    Hessian, i.e. the complex-Hessian determinant of the full potential up to
    a positive conformal factor; on the interval, Phi_tt Phi_rhorho - Phi_trho^2.
    """
    return _fiber_operator(phi, domain, rho_axis, margin, True)


def hcma_residual(phi: np.ndarray, domain, rho_axis: np.ndarray,
                  margin: int = 2) -> ResidualReport:
    """Degenerate complex-Hessian residual of Phi(y, rho) on any domain (on
    the interval, the geodesic equation's), phi of shape (*domain.shape, n_rho).

    Returns sup/mean of (Lap_N Phi) Phi_rhorho - |grad_y Phi_rho|^2 on the
    interior window, along with the minimum of the fiber Hessian; a
    nonpositive minimum signals a fiberwise-positivity violation (reported,
    not raised, so the caller can see both numbers).  The rho columns of the
    window go in blocks (see `_fiber_window`), so no full-grid derivative
    array is held.  A ValueError when `margin` < 1 or the window is empty.
    """
    return _fiber_residual(phi, domain, rho_axis, margin, True)


# -- snapshot export -------------------------------------------------------------

def save_snapshot(state: PotentialFamily, path):
    """Write a flow snapshot: the potentials text format of f on the state's
    grid, after a `flow tau` and a `domain_shape` line."""
    _write_text(path, [f"flow tau {repr(float(state.tau))}",
                       "domain_shape " + " ".join(str(s) for s in state.domain.shape)],
                state.xgrid, {"values": state.f})


def load_snapshot(path, domain) -> PotentialFamily:
    """The flow state `save_snapshot` wrote to `path`, on `domain`: a
    ValueError names the file if a line is unreadable or the shape differs."""
    (tau_line, shape_line), grid, blocks = _read_text(path, 2)
    try:
        tau = float(tau_line.split()[2])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: cannot read the flow line {tau_line!r}: {exc}") from exc
    try:
        shape = tuple(int(s) for s in shape_line.split()[1:])
    except ValueError as exc:
        raise ValueError(f"{path}: cannot read the domain_shape line {shape_line!r}: {exc}") from exc
    if shape != domain.shape:
        raise ValueError(f"{path}: the snapshot's domain shape is {shape}, the domain's {domain.shape}")
    return PotentialFamily(domain=domain, xgrid=grid, f=blocks["values"], tau=tau)
