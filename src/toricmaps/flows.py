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
The operator is built in blocks of rho columns, and a report reduces each
block as it is made, so neither a full-grid nor a window-sized field is
held: its sup is a running max of |res|, and its mean is the sum of one
|res| sum per window column (each over that column's nodes alone, from a
contiguous copy), in column order, over the count, so no block layout
changes a bit of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dirichlet import Window, _d1, _d2, _uniform_axis
from .polytope import polytope_to_json
from .potentials import (LSE_BLOCK, ConvexityError, PolytopeGrid, PotentialFamily,
                         _blocks, _convex_slices)

__all__ = [
    "ResidualReport",
    "make_flow_state",
    "heat_evolve",
    "eells_sampson_residual",
    "hcma_residual",
    "save_snapshot",
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


def _fiber_window(phi, domain, rho_axis, margin: int, hcma: bool, take):
    """(keep, fiber Hessian min): the `_fiber_terms` operator on the window
    `keep` of admissible interior nodes, handed to `take` block by block, and
    the least phi_rhorho there.

    The window's rho columns go in `_blocks` of at most LSE_BLOCK node x
    column values, their halo columns counted, and `take(index, res)` gets
    each block's operator `res` with its full-grid `index`, the window's
    nodes and the block's columns; the fiber Hessian's minimum is a running
    one.  Neither a full-grid nor a window-sized temporary is held, and every
    value is bitwise the whole-grid operator's.  The Eells-Sampson operator
    raises a ConvexityError naming the first worst node, in the window's C
    order, where phi_rhorho is not positive; a ValueError when the rho axis
    is not uniform (`_uniform_axis`) or its length is not phi's last axis's,
    when `margin` < 1, or when the window is empty.
    """
    phi, rho_axis = np.asarray(phi, dtype=float), _uniform_axis(rho_axis, "rho axis")
    n_rho, h_rho = phi.shape[-1], rho_axis[1] - rho_axis[0]
    if rho_axis.size != n_rho:
        raise ValueError(f"the rho axis has {rho_axis.size} nodes, the field's last "
                         f"axis {n_rho}")
    if margin < 1:
        raise ValueError(f"margin = {margin}: the rho differences wrap around at the "
                         "grid's end columns, so the residual window needs margin >= 1")
    keep = domain.interior(margin) + (slice(margin, n_rho - margin),)
    nodes = keep[:-1]
    offsets = [s.indices(n)[0] for s, n in zip(nodes, phi.shape)]
    if not phi[keep].size:
        raise ValueError(f"{type(domain).__name__} of shape {domain.shape}, {n_rho} rho: "
                         f"the residual window {keep} at margin {margin} is empty")
    hess_min, worst = math.inf, (math.inf, ())
    n_nodes = phi.size // n_rho
    for cols in _blocks(margin, n_rho - margin, n_nodes, LSE_BLOCK - 2 * n_nodes):
        res, phi_rr = _fiber_terms(phi[..., cols.start - 1:cols.stop + 1], domain, nodes,
                                   h_rho, hcma)
        take(nodes + (cols,), res)
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
    return keep, float(hess_min)


def _fiber_operator(phi, domain, rho_axis, margin: int, hcma: bool):
    """(field, keep): the `_fiber_window` operator on the full grid, each
    block written in place, NaN off the window `keep`."""
    field = np.full(np.shape(phi), np.nan)
    keep, _ = _fiber_window(phi, domain, rho_axis, margin, hcma, field.__setitem__)
    return field, keep


def _fiber_residual(phi, domain, rho_axis, margin: int, hcma: bool):
    """The ResidualReport of the `_fiber_window` operator, reduced block by
    block: a running sup of |res|, the count, and one |res| sum per window
    column, each summed alone from a contiguous copy of its node values.  The
    mean is the sum of the column sums, in column order, over the count, so
    no block layout (`LSE_BLOCK`) changes a bit of it."""
    sup, count, col_sums = 0.0, 0, []

    def take(_, res):
        nonlocal sup, count
        np.abs(res, out=res)
        sup, count = np.maximum(sup, np.max(res)), count + res.size
        columns = np.ascontiguousarray(np.moveaxis(res, -1, 0)).reshape(res.shape[-1], -1)
        col_sums.extend(np.sum(column) for column in columns)

    _, hess_min = _fiber_window(phi, domain, rho_axis, margin, hcma, take)
    h_rho = float(rho_axis[1] - rho_axis[0])
    return ResidualReport(sup=float(sup), mean=float(np.sum(col_sums) / count),
                          spacings={**domain.spacings, "h_rho": h_rho},
                          count=count, fiber_hessian_min=hess_min)


def eells_sampson_operator(phi: np.ndarray, domain, rho_axis: np.ndarray,
                           margin: int = 2):
    """The harmonic-map-flow operator Lap_N phi - |grad_y phi_rho|^2 / phi_rhorho.

    Returns (field, keep) where `field` is the operator on the full grid,
    NaN off the slices `keep` of admissible interior nodes.
    Raises ConvexityError when the fiber Hessian is not strictly positive on
    the admissible window, and a ValueError when `margin` < 1, the window
    is empty, or the rho axis is not uniform or not of phi's last axis's
    length.
    """
    return _fiber_operator(phi, domain, rho_axis, margin, False)


def eells_sampson_residual(phi: np.ndarray, domain, rho_axis: np.ndarray,
                           margin: int = 2) -> ResidualReport:
    """Harmonic-map residual of a potential family phi over domain x rho-grid.

    phi has shape (*domain.shape, n_rho).  Flat parameter domains only, so no
    Christoffel correction enters.  The rho columns of the window go in
    blocks, each reduced as it is built (see `_fiber_residual`), so no
    full-grid derivative array and no window-sized field is held; the mean
    sums one |res| sum per window column, in column order.  Raises
    ConvexityError, naming the worst node and rho, when the fiber Hessian is
    not strictly positive on the window, and a ValueError when `margin` < 1,
    the window is empty, or the rho axis is not uniform or not of phi's
    last axis's length.
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
    window go in blocks, each reduced as it is built (see `_fiber_residual`),
    so no full-grid derivative array and no window-sized field is held; the
    mean sums one |res| sum per window column, in column order.  A
    ValueError when `margin` < 1, the window is empty, or the rho axis is
    not uniform or not of phi's last axis's length.
    """
    return _fiber_residual(phi, domain, rho_axis, margin, True)


# -- snapshot export -------------------------------------------------------------

def save_snapshot(state: PotentialFamily, path):
    """Write a flow snapshot as text: a `flow tau` and a `domain_shape` line,
    the state's x-grid (`polytope`, `margin`, one `axis i` line per axis),
    then a `values shape` line followed by f, one value per line."""
    grid = state.xgrid
    lines = [f"flow tau {repr(float(state.tau))}",
             "domain_shape " + " ".join(str(s) for s in state.domain.shape),
             "polytope " + polytope_to_json(grid.polytope),
             f"margin {repr(float(grid.margin))}"]
    lines += [f"axis {i} " + " ".join(repr(float(v)) for v in ax)
              for i, ax in enumerate(grid.axes)]
    lines.append("values shape " + " ".join(str(s) for s in state.f.shape))
    lines += [repr(float(v)) for v in state.f.reshape(-1)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
