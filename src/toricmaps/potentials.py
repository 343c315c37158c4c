"""
Toric Kahler potentials on the open orbit and symplectic potentials on the
polytope, linked by the Legendre transform.

Conventions.  The open orbit is coordinatized by rho in R^m (log-radial
coordinates); a Kahler potential is a smooth strictly convex function
phi(rho).  Its gradient is the moment map, a diffeomorphism onto the
interior of the Delzant polytope P.  The symplectic potential is the
classical convex conjugate

    u(x) = <x, rho(x)> - phi(rho(x)),     grad phi(rho(x)) = x,

and conversely phi(rho) = <x(rho), rho> - u(x(rho)) with grad u(x(rho)) = rho.
The factor 2 relating rho to the holomorphic coordinate z = e^{rho/2 + i theta}
is absorbed into this choice of rho once and for all; no other factor 2
appears downstream.  Additive constants are never quotiented out.

Every symplectic potential is stored relative to the canonical potential

    u0(x) = sum_r ell_r(x) log ell_r(x)

as u = u0 + f with f smooth and bounded up to the boundary.  Derivatives of
u0 are analytic (grad u0 = sum_r v_r (log ell_r + 1), hess u0 = sum_r
v_r v_r^T / ell_r), so only the smooth part f is ever differentiated
numerically.  This keeps Hessians accurate arbitrarily close to the
boundary, where u0 is singular.

Array conventions.  Points x are (..., m) arrays in every dimension, and a
function of x returns (...) values, (..., m) gradients, (..., m, m) Hessians.
One rule, `polytope._as_points`, applied where an x enters (`DelzantPolytope.ell`,
hence `guillemin_*`, `near_facets` and `facet_value`; `SymplecticPotential.value`,
`.grad`, `.hess`; `abreu_delta`), lets a dim-1 caller pass plain x values:
a scalar, or an array whose last axis is not of length 1, is the points
x[..., None], and its results come back plain (`polytope._as_given`).  A
dim-1 array whose last axis has length 1 is points: x of shape (2, 1) is two
points, giving (2,) values, (2, 1) gradients and (2, 1, 1) Hessians.
`ClosedForm` callbacks take and return plain arrays in dim 1, whatever their
shape; `_closed_at` reads them at points.  The rho side keeps plain rho
values in dim 1 (`KahlerPotential`).

Gradient inversions use a safeguarded Newton iteration (bisection fallback)
with tolerance 1e-12 on the gradient mismatch and at most 100 iterations.
A potential evaluates its smooth part through one `ClosedForm`: its closed
form, or not-a-knot cubic splines of its samples (`_evaluator`, dim 1 only),
so `to_symplectic`, whose result is sampled, is one-dimensional.

The closed-form potentials are `product_potential(P, a)`, u0 + a prod_r
ell_r on any polytope (a = 0 is Guillemin's u0), and `fubini_study()`,
phi = log(1 + e^rho) on [0, 1].
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .polytope import (DelzantPolytope, _as_given, _as_points, _float_if_0d,
                       polytope_from_json, polytope_to_json)

__all__ = [
    "RadialGrid",
    "PolytopeGrid",
    "ClosedForm",
    "KahlerPotential",
    "SymplecticPotential",
    "PotentialFamily",
    "ConvexityError",
    "NewtonError",
    "guillemin_potential",
    "guillemin_gradient",
    "guillemin_hessian",
    "to_symplectic",
    "to_kahler",
    "abreu_delta",
    "default_margin",
    "make_radial_grid",
    "make_polytope_grid",
    "fubini_study",
    "product_potential",
    "save_potential",
    "load_potential",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
# Doubles in one block of a blocked array pass (512 KB): it stays in a core's
# L2 cache through the passes made over it (`bergman`'s log-sum-exp first).
LSE_BLOCK = 2 ** 16


def _blocks(start: int, stop: int, size: int, budget: int) -> list[slice]:
    """The slices of range(start, stop): rows of `size` values (an empty row
    counts as one value) within `budget` values, one row at least."""
    step = max(1, budget // max(1, size))
    return [slice(lo, min(lo + step, stop)) for lo in range(start, stop, step)]


class ConvexityError(ValueError):
    """A potential failed a discrete positive-definiteness check."""


class NewtonError(RuntimeError):
    """Safeguarded Newton inversion failed to converge.

    `index` is the multi-index of the worst unconverged target, when known.
    """

    def __init__(self, message: str, index: tuple[int, ...] | None = None):
        super().__init__(message)
        self.index = index


def default_margin(k_max: int) -> float:
    """Boundary margin for polytope grids, tied to the largest Bergman level."""
    return 1.0 / (4.0 * k_max)


# -- grids ------------------------------------------------------------------

class _TensorGrid:
    """A grid's `axes`, its dimension, shape and (*shape, dim) node points."""

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.axes)

    def nodes(self) -> np.ndarray:
        return np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)


@dataclass(frozen=True)
class RadialGrid(_TensorGrid):
    """Tensor-product grid in the log-radial coordinates rho."""

    axes: tuple[np.ndarray, ...]

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        for a in axes:
            if a.ndim != 1 or a.size < 4 or np.any(np.diff(a) <= 0):
                raise ValueError("grid axes must be strictly increasing 1D arrays (>= 4 nodes)")
        object.__setattr__(self, "axes", axes)


def make_radial_grid(lo, hi, n) -> RadialGrid:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    n = np.broadcast_to(np.atleast_1d(n), lo.shape)
    return RadialGrid(tuple(np.linspace(l, h, int(k)) for l, h, k in zip(lo, hi, n)))


@dataclass(frozen=True)
class PolytopeGrid(_TensorGrid):
    """Tensor-product nodes strictly inside P, offset from the boundary.

    `mask` marks tensor nodes with ell_r >= margin for all r (all True for box
    polytopes); `boundary_adjacent` marks valid nodes touching the grid edge
    or an invalid neighbor.
    """

    polytope: DelzantPolytope
    axes: tuple[np.ndarray, ...]
    margin: float

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        object.__setattr__(self, "axes", axes)
        if len(axes) != self.polytope.dim:
            raise ValueError("grid dimension does not match polytope")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if not self.mask.any():
            raise ValueError("no grid node lies inside the polytope at this margin")

    @cached_property
    def mask(self) -> np.ndarray:
        """Read-only; computed once per grid."""
        ell = self.polytope.ell(self.nodes())
        mask = ell.min(axis=-1) >= self.margin * (1.0 - 1e-9)
        mask.setflags(write=False)
        return mask

    @property
    def boundary_adjacent(self) -> np.ndarray:
        mask = self.mask
        padded = np.pad(mask, 1)           # grid edge counts as outside
        core = (slice(1, -1),) * mask.ndim
        outside = np.zeros_like(mask)
        for axis in range(mask.ndim):
            for side in (slice(None, -2), slice(2, None)):
                outside |= ~padded[core[:axis] + (side,) + core[axis + 1:]]
        return mask & outside


def make_polytope_grid(P: DelzantPolytope, n, margin: float) -> PolytopeGrid:
    lo, hi = P.bounding_box()
    n = np.broadcast_to(np.atleast_1d(n), (P.dim,))
    axes = tuple(np.linspace(l + margin, h - margin, int(k))
                 for l, h, k in zip(lo, hi, n))
    return PolytopeGrid(polytope=P, axes=axes, margin=margin)


# -- Guillemin canonical potential -------------------------------------------

def guillemin_potential(P: DelzantPolytope, x) -> np.ndarray | float:
    """u0(x) = sum_r ell_r(x) log ell_r(x); requires ell_r(x) > 0 for all r."""
    ell = P.ell(x)
    if np.any(ell <= 0):
        raise ValueError("guillemin_potential requires a strictly interior point")
    return _float_if_0d(np.sum(ell * np.log(ell), axis=-1))


def guillemin_gradient(P: DelzantPolytope, x) -> np.ndarray:
    """grad u0 = sum_r v_r (log ell_r + 1)."""
    ell = P.ell(x)
    if np.any(ell <= 0):
        raise ValueError("guillemin_gradient requires a strictly interior point")
    np.log(ell, out=ell)
    ell += 1.0
    return ell @ P._normals_f


def guillemin_hessian(P: DelzantPolytope, x) -> np.ndarray:
    """hess u0 = sum_r v_r v_r^T / ell_r; exact, no finite differences."""
    ell = P.ell(x)
    if np.any(ell <= 0):
        raise ValueError("guillemin_hessian requires a strictly interior point")
    normals = P._normals_f
    vv = np.einsum("ri,rj->rij", normals, normals)
    return np.einsum("...r,rij->...ij", np.divide(1.0, ell, out=ell), vv)


def _convex_slices(xgrid: PolytopeGrid, f: np.ndarray) -> np.ndarray:
    """True where the slice u0 + f[idx] of a family f (*shape, nx) is discretely
    strictly convex, at interior fiber nodes and, one-sidedly, at both edges;
    over `_blocks` of node rows."""
    if xgrid.dim != 1:
        raise NotImplementedError("family fibers are one-dimensional")
    x = xgrid.axes[0]
    h = x[1] - x[0]
    u0pp = guillemin_hessian(xgrid.polytope, x[:, None])[:, 0, 0]
    f_rows = f.reshape(-1, x.size)
    flags = np.empty(len(f_rows), dtype=bool)
    blocks = _blocks(0, len(f_rows), x.size, LSE_BLOCK)
    buffer = np.empty((blocks[0].stop if blocks else 0, x.size - 2))
    for rows in blocks:
        fb = f_rows[rows]
        # f'' in one buffer, in the order of (f[2:] - 2 f[1:-1] + f[:-2]) / h^2
        fpp = np.multiply(fb[:, 1:-1], 2.0, out=buffer[:len(fb)])
        np.subtract(fb[:, 2:], fpp, out=fpp)
        fpp += fb[:, :-2]
        fpp /= h**2
        edge_lo = u0pp[0] + fpp[:, 0]
        edge_hi = u0pp[-1] + fpp[:, -1]
        fpp += u0pp[1:-1]
        flags[rows] = (fpp.min(axis=-1) > 0) & (edge_lo > 0) & (edge_hi > 0)
    return flags.reshape(f.shape[:-1])


# -- evaluator plumbing --------------------------------------------------------

@dataclass(frozen=True)
class ClosedForm:
    """Closed-form evaluator: value, gradient and Hessian.  In dim 1 each
    callback takes and returns plain arrays (x or rho values of any shape); in
    dim m >= 2 it takes (..., m) points and returns (...), (..., m), (..., m, m)."""

    value: Callable
    grad: Callable
    hess: Callable

    def shift(self, c: float) -> "ClosedForm":
        """value + c, with the same gradient and Hessian."""
        return ClosedForm(lambda p: np.asarray(self.value(p)) + c, self.grad, self.hess)


def _evaluator(closed: ClosedForm | None, grid: _TensorGrid, values: np.ndarray,
               grad_values: np.ndarray | None = None) -> ClosedForm:
    """A potential's one evaluator: its closed form, else not-a-knot cubic
    splines of its samples on `grid` (of `grad_values`, when given, for the
    gradient), built at first evaluation; only the splines load scipy."""
    if closed is not None:
        return closed
    if grid.dim != 1:
        raise NotImplementedError(
            f"sampled evaluation in dim {grid.dim}: splines of samples are implemented "
            "for dim 1; higher-dimensional potentials need a closed form")
    from scipy.interpolate import CubicSpline   # sampled potentials only
    value = CubicSpline(grid.axes[0], values)
    grad = value.derivative() if grad_values is None else \
        CubicSpline(grid.axes[0], grad_values[..., 0])
    return ClosedForm(value, grad, grad.derivative())


def _closed_at(fn: Callable, pts: np.ndarray, point_axes: int = 0) -> np.ndarray:
    """A callback of the ClosedForm contract at (..., m) points, with its
    `point_axes` trailing point axes."""
    dim = pts.shape[-1]
    plain = dim == 1
    out = np.asarray(fn(_as_given(pts, plain, 1)), dtype=float)
    return out[(...,) + (None,) * point_axes] if plain else out


def _fd_hessians(values: np.ndarray, axes) -> np.ndarray:
    """(*shape, m, m) finite-difference Hessians of values sampled on the
    tensor grid `axes` (np.gradient twice, any spacing)."""
    grads = [np.gradient(values, ax, axis=i) for i, ax in enumerate(axes)]
    return np.stack([np.stack([np.gradient(g, ax, axis=j) for j, ax in enumerate(axes)],
                              axis=-1) for g in grads], axis=-2)


class KahlerPotential:
    """Convex potential phi(rho) on the open orbit.

    Values are sampled on a RadialGrid.  The one evaluator is the closed form,
    if present, else `_evaluator`'s splines of the samples; gradient samples
    (moment-map values at the nodes), when available, are splined separately
    so gradients keep the accuracy of the Newton solves that produced them.
    """

    def __init__(self, grid: RadialGrid, values: np.ndarray | None = None,
                 grad_values: np.ndarray | None = None,
                 closed: ClosedForm | None = None, check: bool = True):
        self.grid = grid
        self.closed = closed
        if values is None and closed is None:
            raise ValueError("need sampled values or a closed form")
        values = _closed_at(closed.value, grid.nodes()) if values is None else values
        self.values = np.asarray(values, dtype=float).reshape(grid.shape)
        self.grad_values = None if grad_values is None else \
            np.asarray(grad_values, dtype=float).reshape(grid.shape + (grid.dim,))
        if check:
            self._check_convexity()

    @property
    def dim(self) -> int:
        return self.grid.dim

    def _check_convexity(self):
        _positive_det(_fd_hessians(self.values, self.grid.axes),
                      "potential is not discretely convex at rho", self.grid.nodes())

    @cached_property
    def _form(self) -> ClosedForm:
        return _evaluator(self.closed, self.grid, self.values, self.grad_values)

    def value(self, rho):
        return self._form.value(rho)

    def grad(self, rho):
        return np.asarray(self._form.grad(rho), dtype=float)

    def hess(self, rho):
        return np.asarray(self._form.hess(rho), dtype=float)

    def shift(self, c: float) -> "KahlerPotential":
        """phi + c on the same grid; the closed form, if any, is shifted too."""
        closed = None if self.closed is None else self.closed.shift(c)
        return KahlerPotential(self.grid, self.values + c, self.grad_values,
                               closed, check=False)


class SymplecticPotential:
    """Symplectic potential u = u0 + f on the polytope.

    The singular canonical part u0 is always evaluated analytically; only the
    smooth remainder f is sampled, or supplied in closed form, and read by its
    one evaluator: the closed form, if present, else `_evaluator`'s splines.
    """

    def __init__(self, polytope: DelzantPolytope, grid: PolytopeGrid,
                 f_values: np.ndarray | None = None,
                 f_closed: ClosedForm | None = None, check: bool = True):
        self.polytope = polytope
        self.grid = grid
        self.f_closed = f_closed
        if f_values is None and f_closed is None:
            raise ValueError("need sampled f values or a closed form")
        f_values = _closed_at(f_closed.value, grid.nodes()) if f_values is None else f_values
        self.f_values = np.asarray(f_values, dtype=float).reshape(grid.shape)
        if not np.all(np.isfinite(self.f_values[grid.mask])):
            raise ValueError("smooth part f must be finite on the grid")
        if check:
            self._check_convexity()

    @property
    def dim(self) -> int:
        return self.grid.dim

    def _check_convexity(self):
        pts = self.grid.nodes()[self.grid.mask]
        _positive_det(self.hess(pts), "symplectic potential not strictly convex at x", pts)

    # smooth part -------------------------------------------------------------

    @cached_property
    def _form(self) -> ClosedForm:
        return _evaluator(self.f_closed, self.grid, self.f_values)

    def f_value(self, x):
        return np.asarray(self._form.value(x), dtype=float)

    def f_grad(self, x):
        return np.asarray(self._form.grad(x), dtype=float)

    def f_hess(self, x):
        return np.asarray(self._form.hess(x), dtype=float)

    # full potential u = u0 + f, at x read by `_as_points` ----------------------

    def value(self, x):
        pts, _ = _as_points(self.dim, x)
        return guillemin_potential(self.polytope, pts) + _closed_at(self.f_value, pts)

    def grad(self, x):
        pts, plain = _as_points(self.dim, x)
        g = guillemin_gradient(self.polytope, pts) + _closed_at(self.f_grad, pts, 1)
        return _as_given(g, plain, 1)

    def hess(self, x):
        pts, plain = _as_points(self.dim, x)
        H = guillemin_hessian(self.polytope, pts) + _closed_at(self.f_hess, pts, 2)
        return _as_given(H, plain, 2)

    def shift(self, c: float) -> "SymplecticPotential":
        closed = None if self.f_closed is None else self.f_closed.shift(c)
        return SymplecticPotential(self.polytope, self.grid, self.f_values + c,
                                   closed, check=False)


@dataclass(frozen=True)
class PotentialFamily:
    """Family u(y, .) = u0 + f(y, .) over a parameter domain N x PolytopeGrid:
    a solved harmonic map (Dirichlet data `boundary_potentials`, optional
    closed forms `closed_family(idx)` of the nodes' smooth parts) or a heat-flow
    snapshot at time `tau`, flagging in `convexity_violations` the (tau, y_index)
    pairs where a slice lost discrete convexity (slices are never altered).
    """

    domain: object
    xgrid: PolytopeGrid
    f: np.ndarray                        # (*domain.shape, nx)
    boundary_potentials: tuple = ()
    closed_family: object = None         # optional y_index -> ClosedForm
    tau: float = 0.0
    convexity_violations: tuple = ()

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        expected = self.domain.shape + self.xgrid.shape
        if f.shape != expected:
            raise ValueError(f"family field shape {f.shape}, expected {expected}")
        object.__setattr__(self, "f", f)

    @cached_property
    def closed_forms(self) -> np.ndarray | None:
        """Each node's closed form `closed_family(idx)`, an object array of
        the domain's shape built at first use, so every reader shares one
        evaluator per node; None without closed forms."""
        if self.closed_family is None:
            return None
        forms = np.empty(self.domain.shape, dtype=object)
        for idx in self.node_indices():
            forms[idx] = self.closed_family(idx)
        return forms

    def potential_at(self, y_index) -> SymplecticPotential:
        idx = y_index if isinstance(y_index, tuple) else (y_index,)
        closed = self.closed_forms[idx] if self.closed_family is not None else None
        return SymplecticPotential(self.xgrid.polytope, self.xgrid,
                                   f_values=self.f[idx], f_closed=closed, check=False)

    def node_indices(self):
        return list(np.ndindex(self.domain.shape))

    def convexity_flags(self) -> np.ndarray:
        """True where the slice u(y, .) is discretely strictly convex."""
        return _convex_slices(self.xgrid, self.f)

    def check_convexity(self, what: str):
        """Raise a ConvexityError naming `what` and its first non-convex nodes."""
        bad = ~self.convexity_flags()
        if np.any(bad):
            raise ConvexityError(
                f"{what} is not convex at domain nodes {np.argwhere(bad)[:5].tolist()}")


# -- safeguarded Newton inversion ----------------------------------------------

def _invert_monotone_1d(grad_fn, hess_fn, targets, lo: float, hi: float,
                        max_iter: int = NEWTON_MAX_ITER, what: str = "gradient", s0=None):
    """Solve grad_fn(s) = target (strictly increasing grad_fn) to NEWTON_TOL, vectorized.

    Bisection-safeguarded Newton on [lo, hi], which must straddle every
    target value.  `s0` seeds the iteration (defaults to the midpoint).
    """
    t = np.asarray(targets, dtype=float)
    a = np.full(t.shape, float(lo))
    b = np.full(t.shape, float(hi))
    s = np.empty(t.shape)
    if s0 is None:
        np.multiply(0.5, a + b, out=s)
    else:
        np.clip(np.broadcast_to(np.asarray(s0, dtype=float), t.shape),
                np.nextafter(lo, hi), np.nextafter(hi, lo), out=s)
    err = np.subtract(grad_fn(s), t, out=np.empty(t.shape))
    eps = np.finfo(float).eps
    done = np.zeros(t.shape, dtype=bool)
    # the updates are written in place, with the operations of the np.where
    # form in its order, so the iterates are bitwise that form's; `step` and
    # `tmp` are the step's scratch, and only the clip adds a third array
    below, live, move = (np.empty(t.shape, dtype=bool) for _ in range(3))
    step, tmp = np.empty(t.shape), np.empty(t.shape)
    for it in range(max_iter):
        np.less_equal(err, 0, out=below)
        np.logical_not(done, out=live)
        np.copyto(a, s, where=np.logical_and(below, live, out=move))
        np.logical_not(below, out=move)
        np.copyto(b, s, where=np.logical_and(move, live, out=move))
        # a bracket of machine width resolves the root as finely as floats allow,
        # even when the gradient itself cannot be evaluated to NEWTON_TOL there
        done |= np.less(np.abs(err, out=tmp), NEWTON_TOL, out=move)
        np.maximum(np.abs(a, out=tmp), np.abs(b, out=step), out=tmp)
        tmp *= 4 * eps
        done |= np.less_equal(np.subtract(b, a, out=step), tmp, out=move)
        if done.all():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            np.subtract(s, np.divide(err, hess_fn(s), out=step), out=step)
        # Steps escaping the bracket re-anchor just inside the violated
        # endpoint (for convex/concave monotone gradients one such step puts
        # the iterate on the side from which plain Newton converges);
        # alternating with plain bisection keeps the worst case geometric.
        if it % 2 == 0:
            np.multiply(0.01, np.subtract(b, a, out=tmp), out=tmp)
            fallback = np.add(a, tmp)
            np.clip(step, fallback, np.subtract(b, tmp, out=tmp), out=fallback)
            np.logical_not(np.isfinite(fallback, out=move), out=move)
            np.copyto(fallback, np.multiply(0.5, np.add(a, b, out=tmp), out=tmp),
                      where=move)
        else:
            fallback = np.multiply(0.5, np.add(a, b, out=tmp), out=tmp)
        # bad: not finite, or outside the open bracket
        np.logical_not(np.isfinite(step, out=move), out=move)
        move |= np.less_equal(step, a, out=below)
        move |= np.greater_equal(step, b, out=below)
        np.copyto(step, fallback, where=move)
        del fallback
        np.logical_not(done, out=live)
        np.copyto(s, step, where=live)
        np.subtract(grad_fn(s), t, out=err, where=live)
    if not done.all():
        nbad = int(np.sum(~done))
        worst = tuple(int(i) for i in np.unravel_index(
            np.argmax(np.where(done, 0.0, np.abs(err))), t.shape))
        raise NewtonError(
            f"{what} inversion did not converge at {nbad} node(s); "
            f"worst |residual| = {np.abs(err)[worst]:.3g} "
            f"at target = {t[worst]:.6g} (target index {worst})", index=worst)
    return s


def _invert_gradient_nd(grad, hess, targets, x0, what="gradient"):
    """Damped Newton for grad F(s) = target to NEWTON_TOL, one point at a time
    (F convex, at most NEWTON_MAX_ITER steps).

    Trial steps that leave the domain of F (evaluation raises or returns
    non-finite values) are treated as line-search failures and halved.
    """
    def try_grad(s):
        try:
            g = np.asarray(grad(s), dtype=float)
        except ValueError:
            return None
        return g if np.all(np.isfinite(g)) else None

    out = np.empty_like(targets)
    for idx in np.ndindex(targets.shape[:-1]):
        t = targets[idx]
        s = np.array(x0[idx], dtype=float)
        g = try_grad(s)
        if g is None:
            raise NewtonError(f"{what} inversion started outside the domain at {s}")
        g = g - t
        for _ in range(NEWTON_MAX_ITER):
            if np.linalg.norm(g, ord=np.inf) < NEWTON_TOL:
                break
            step = np.linalg.solve(np.asarray(hess(s)), g)
            lam = 1.0
            n0 = np.linalg.norm(g)
            while lam > 1e-12:
                s_try = s - lam * step
                g_try = try_grad(s_try)
                if g_try is not None and np.linalg.norm(g_try - t) < n0:
                    s, g = s_try, g_try - t
                    break
                lam *= 0.5
            else:
                break
        if np.linalg.norm(g, ord=np.inf) >= NEWTON_TOL:
            raise NewtonError(f"{what} inversion failed at target {t}")
        out[idx] = s
    return out


# -- the Legendre transform -----------------------------------------------------

def to_symplectic(phi: KahlerPotential, P: DelzantPolytope,
                  grid: PolytopeGrid) -> SymplecticPotential:
    """Legendre transform of a one-dimensional Kahler potential onto a polytope grid.

    For each grid node x the moment-map equation grad phi(rho) = x is solved
    by safeguarded Newton; then u(x) = <x, rho> - phi(rho), and the smooth
    part f = u - u0 is stored.  Dimension >= 2 is rejected: the result's f is
    sampled only, and sampled f has no evaluator beyond dim 1, so not even its
    convexity check could run.
    """
    if phi.dim != P.dim or grid.dim != P.dim:
        raise ValueError("dimension mismatch between potential, polytope, and grid")
    if P.dim > 1:
        raise NotImplementedError(
            f"to_symplectic in dim {P.dim}: the transform yields a sampled smooth "
            "part f, and sampled f is evaluated (splines) only in dim 1")
    x = grid.axes[0]
    lo, hi = _rho_bracket(phi, float(x.min()), float(x.max()))
    rho = _invert_monotone_1d(phi.grad, phi.hess, x, lo, hi, what="moment map")
    u = x * rho - np.asarray(phi.value(rho))
    f = u - guillemin_potential(P, grid.nodes())
    return SymplecticPotential(P, grid, f_values=f)


def _rho_bracket(phi: KahlerPotential, x_min: float, x_max: float):
    """Expand a rho interval until grad phi straddles [x_min, x_max]."""
    if phi.closed is None:
        a, b = float(phi.grid.axes[0][0]), float(phi.grid.axes[0][-1])
        ga, gb = float(phi.grad(a)), float(phi.grad(b))
        if ga > x_min or gb < x_max:
            raise ValueError(
                f"targets [{x_min:.6g}, {x_max:.6g}] fall outside the moment image "
                f"[{ga:.6g}, {gb:.6g}] of the sampled grid")
        return a, b
    a, b = -1.0, 1.0
    for _ in range(80):
        if float(phi.grad(np.asarray(a))) <= x_min:
            break
        a *= 2.0
    else:
        raise ValueError(f"x = {x_min} appears to lie outside the moment image")
    for _ in range(80):
        if float(phi.grad(np.asarray(b))) >= x_max:
            break
        b *= 2.0
    else:
        raise ValueError(f"x = {x_max} appears to lie outside the moment image")
    return a, b


def to_kahler(u: SymplecticPotential, grid: RadialGrid) -> KahlerPotential:
    """Inverse Legendre transform: phi(rho) = <x, rho> - u(x) with grad u(x) = rho."""
    if u.dim != grid.dim:
        raise ValueError("dimension mismatch between potential and grid")
    if u.dim == 1:
        rho = grid.axes[0]
        a, b = _x_bracket(u, float(rho.min()), float(rho.max()))
        guess = np.clip(_canonical_inverse_guess(u.polytope, rho), a, b)
        x = _invert_monotone_1d(u.grad, u.hess, rho, a, b,
                                what="symplectic gradient", s0=guess)
        phi = x * rho - np.asarray(u.value(x))
        return KahlerPotential(grid, values=phi, grad_values=x[..., None])
    nodes = grid.nodes()
    lo, hi = u.polytope.bounding_box()
    x0 = np.broadcast_to(0.5 * (lo + hi), nodes.shape).copy()
    x = _invert_gradient_nd(u.grad, u.hess, nodes, x0, what="symplectic gradient")
    phi = np.einsum("...i,...i->...", x, nodes) - np.asarray(u.value(x))
    return KahlerPotential(grid, values=phi, grad_values=x)


def _canonical_inverse_guess(P: DelzantPolytope, rho) -> np.ndarray:
    """Approximate solution of grad u0(x) = rho for a 1D polytope [A, B].

    grad u0 = log((x - A)/(B - x)) + const-free terms, so the logistic inverse
    is an excellent Newton seed for any u = u0 + smooth.
    """
    (lo,), (hi,) = P.bounding_box()
    return lo + (hi - lo) * _sigmoid(np.asarray(rho, dtype=float))


def _x_bracket(u: SymplecticPotential, rho_min: float, rho_max: float):
    """Interior x interval on which grad u straddles [rho_min, rho_max].

    grad u runs to -inf/+inf at the polytope boundary (the log singularity of
    u0), so halving the distance to each endpoint reaches any finite rho
    that a double strictly inside the polytope reaches.  Past that, or after
    60 halvings, a NewtonError names the rho.
    """
    (lo,), (hi,) = u.polytope.bounding_box()
    span = float(hi - lo)
    ends = []
    # toward lo until grad u <= rho_min, toward hi until grad u >= rho_max
    for edge, sign, rho, side in ((float(lo), -1.0, rho_min, "below"),
                                  (float(hi), 1.0, rho_max, "above")):
        x, tries = edge - sign * 0.25 * span, 60
        while not sign * float(u.grad(np.asarray(x))) >= sign * rho:
            x, tries = edge + (x - edge) * 0.5, tries - 1
            # grad u is not defined on the facet x = edge
            if x == edge or tries == 0:
                raise NewtonError(f"could not bracket rho = {rho} from {side}")
        ends.append(x)
    return tuple(ends)


def _positive_det(H: np.ndarray, what: str, pts: np.ndarray) -> np.ndarray:
    """det H of (..., m, m) Hessians at points `pts`, as the product of the
    eigenvalues that show H positive definite; else a ConvexityError
    "{what}={the worst point}".  (In dim 1 the eigenvalue of a 1 x 1 H is
    its entry, bit for bit.)"""
    eig = np.linalg.eigvalsh(H)
    low = eig.min(axis=-1)
    if np.any(low <= 0):
        worst = pts[np.unravel_index(np.argmin(low), low.shape)]
        raise ConvexityError(f"{what}={', '.join(f'{v:.4g}' for v in worst)}")
    return np.prod(eig, axis=-1)


def abreu_delta(u: SymplecticPotential, x) -> np.ndarray | float:
    """delta(x) = 1 / (det hess u(x) * prod_r ell_r(x)), x read by `_as_points`.

    The canonical-part Hessian is analytic, so delta stays accurate next to
    the boundary where u0 is singular.  Positive for any convex potential.
    """
    pts, _ = _as_points(u.dim, x)
    ell = u.polytope.ell(pts)
    if np.any(ell <= 0):
        raise ValueError("abreu_delta requires strictly interior points")
    det = _positive_det(u.hess(pts), "Hessian of u is not positive definite at x", pts)
    return _float_if_0d(1.0 / (det * np.prod(ell, axis=-1)))


# -- closed-form potentials ----------------------------------------------------------

def _sigmoid(r):
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    pos = r >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-r[pos]))
    e = np.exp(r[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def fubini_study(grid: RadialGrid | None = None) -> KahlerPotential:
    """The Fubini-Study potential phi = log(1 + e^rho), moment image [0, 1]."""
    if grid is None:
        grid = make_radial_grid([-12.0], [12.0], [2001])
    if grid.dim != 1:
        raise ValueError("the Fubini-Study potential is one-dimensional")
    closed = ClosedForm(
        value=lambda r: np.logaddexp(0.0, np.asarray(r, dtype=float)),
        grad=_sigmoid,
        hess=lambda r: _sigmoid(r) * _sigmoid(-np.asarray(r, dtype=float)),
    )
    return KahlerPotential(grid, closed=closed)


def _product_ell_closed(P: DelzantPolytope, a: float) -> ClosedForm:
    """f = a * prod_r ell_r with analytic first and second derivatives.

    The gradient is a sum_r (prod_{s != r} ell_s) v_r and the Hessian
    a sum_{r != s} (prod_{t != r, s} ell_t) v_r v_s^T, each one ufunc reduce
    over the facet axis and one matrix product against the normals (index
    arrays built once per polytope).  a = 0 gives f = 0, the smooth part of
    Guillemin's u0.  The callbacks keep the ClosedForm contract.

    A segment has two facets with normals +-1, so there the same roundings
    are taken on the plain values, without the point and facet axes: a
    product by a normal is exact, so ell_r = v_r x + c_r rounds as x + c_r
    or c_r - x, the gradient's e_1 v_0 + e_0 v_1 as a difference, and
    f'' = 2 a v_0 v_1 is one number.
    """
    if P.dim == 1 and P.n_facets == 2:
        (v0, v1), (c0, c1) = P._normals_f[:, 0].tolist(), P._offsets_f.tolist()
        curvature = a * (v0 * v1 + v1 * v0)

        def ells(x):
            x = np.asarray(x, dtype=float)
            return (x + c0 if v0 > 0 else c0 - x), (x + c1 if v1 > 0 else c1 - x)

        def value(x):
            e0, e1 = ells(x)
            return a * (e0 * e1)

        def grad(x):
            e0, e1 = ells(x)
            return a * (e1 - e0 if v0 > 0 else e0 - e1)

        def hess(x):
            return np.full(np.shape(x), curvature)[()]

        return ClosedForm(value=value, grad=grad, hess=hess)

    keep_one, keep_two, outer = P._other_facets

    def value(x):
        return a * np.multiply.reduce(P.ell(_as_points(P.dim, x, True)[0]), -1)

    def grad(x):
        pts, plain = _as_points(P.dim, x, True)
        others = np.multiply.reduce(P.ell(pts)[..., keep_one], -1)
        return _as_given(a * (others @ P._normals_f), plain, 1)

    def hess(x):
        pts, plain = _as_points(P.dim, x, True)
        others = np.multiply.reduce(P.ell(pts)[..., keep_two], -1)
        return _as_given(a * (others @ outer).reshape(pts.shape + (P.dim,)), plain, 2)

    return ClosedForm(value=value, grad=grad, hess=hess)


def product_potential(P: DelzantPolytope, a: float = 0.0,
                      grid: PolytopeGrid | None = None) -> SymplecticPotential:
    """u = u0 + a * prod_r ell_r on P; a = 0 is Guillemin's u0."""
    if grid is None:
        grid = make_polytope_grid(P, 801, default_margin(64))
    return SymplecticPotential(P, grid, f_closed=_product_ell_closed(P, a))


# -- plain-text serialization -------------------------------------------------------

def save_potential(obj, path):
    """Write a potential in a lossless, binary-free text format.

    Closed-form evaluators are not serialized; a reloaded potential falls
    back to sampled (spline) evaluation, so a symplectic potential that would
    have none (dim >= 2) is rejected by `_evaluator` before the file opens.
    """
    if isinstance(obj, KahlerPotential):
        _write_text(path, [f"kahler dim {obj.dim}"], obj.grid,
                   {"values": obj.values, "grad": obj.grad_values})
    elif isinstance(obj, SymplecticPotential):
        _evaluator(None, obj.grid, obj.f_values)
        _write_text(path, [f"symplectic dim {obj.dim}"], obj.grid, {"values": obj.f_values})
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def load_potential(path):
    """Inverse of `save_potential`; older symplectic files' `grad` block is unread."""
    (head,), grid, blocks = _read_text(path, 1)
    if head.split()[0] == "kahler":
        return KahlerPotential(grid, blocks["values"], blocks.get("grad"))
    return SymplecticPotential(grid.polytope, grid, blocks["values"])


def _write_text(path, header, grid, blocks):
    """The text format: `header` lines, the grid (polytope and margin of a
    PolytopeGrid, then every axis), then each block that is not None as a
    `<tag> shape ...` line followed by one value per line."""
    buf = io.StringIO()
    for line in header:
        buf.write(line + "\n")
    if isinstance(grid, PolytopeGrid):
        buf.write("polytope " + polytope_to_json(grid.polytope) + "\n")
        buf.write(f"margin {repr(float(grid.margin))}\n")
    for i, ax in enumerate(grid.axes):
        buf.write(f"axis {i} " + " ".join(repr(float(v)) for v in ax) + "\n")
    for tag, arr in blocks.items():
        if arr is None:
            continue
        arr = np.asarray(arr)
        buf.write(f"{tag} shape " + " ".join(str(s) for s in arr.shape) + "\n")
        for v in arr.reshape(-1):
            buf.write(repr(float(v)) + "\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def _read_text(path, n_header: int):
    """Inverse of `_write_text`: (header lines, grid, {tag: array}).  Blank
    lines are skipped; any other line that cannot be read is a ValueError
    naming the file and the line, and so is a file without a `values` block."""
    with open(path) as fh:
        lines = [(no, line) for no, line in enumerate(fh.read().splitlines(), 1)
                 if line.strip()]
    polytope, margin, axes, blocks = None, None, [], {}
    i = n_header
    while i < len(lines):
        no, line = lines[i]
        head, *rest = line.split()
        i += 1
        try:
            if head == "polytope":
                polytope = polytope_from_json(line.split(None, 1)[1])
            elif head == "margin":
                (margin,) = map(float, rest)
            elif head == "axis":
                axes.append(np.array([float(v) for v in rest[1:]]))
            elif rest[:1] == ["shape"]:
                shape = tuple(int(s) for s in rest[1:])
                values = np.empty(int(np.prod(shape)))
                if len(lines) - i < values.size:
                    raise ValueError(f"the block ends after {len(lines) - i} of "
                                     f"{values.size} values")
                # a loop, not a comprehension: a bad value leaves its own no, line
                for j, (no, line) in enumerate(lines[i: i + values.size]):
                    values[j] = float(line)
                blocks[head] = values.reshape(shape)
                i += values.size
            else:
                raise ValueError("unrecognized line in potential file")
        except (ValueError, IndexError, KeyError) as exc:
            raise ValueError(f"{path}, line {no}: cannot read {line!r}: {exc}") from exc
    if "values" not in blocks:
        raise ValueError(f"{path}: no values block")
    if polytope is None:
        grid = RadialGrid(tuple(axes))
    else:
        grid = PolytopeGrid(polytope=polytope, axes=tuple(axes), margin=margin)
    return [line for _, line in lines[:n_header]], grid, blocks
