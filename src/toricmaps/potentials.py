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

Array conventions: one-dimensional potentials take and return plain arrays
(rho or x values of any shape); higher-dimensional ones take points of shape
(..., m), returning (...) values, (..., m) gradients, (..., m, m) Hessians.

Gradient inversions use a safeguarded Newton iteration (bisection fallback)
with tolerance 1e-12 on the gradient mismatch and at most 100 iterations.
Sampled one-dimensional data is interpolated with not-a-knot cubic splines;
dim >= 2 requires closed-form evaluators.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .polytope import DelzantPolytope, polytope_from_json, polytope_to_json

__all__ = [
    "RadialGrid",
    "PolytopeGrid",
    "ClosedForm",
    "KahlerPotential",
    "SymplecticPotential",
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
    "preset_kahler",
    "preset_symplectic",
    "save_potential",
    "load_potential",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100


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

@dataclass(frozen=True)
class RadialGrid:
    """Tensor-product grid in the log-radial coordinates rho."""

    axes: tuple[np.ndarray, ...]

    def __post_init__(self):
        axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        for a in axes:
            if a.ndim != 1 or a.size < 4 or np.any(np.diff(a) <= 0):
                raise ValueError("grid axes must be strictly increasing 1D arrays (>= 4 nodes)")
        object.__setattr__(self, "axes", axes)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.axes)

    def nodes(self) -> np.ndarray:
        """All grid nodes as an array of shape (*shape, dim)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)


def make_radial_grid(lo, hi, n) -> RadialGrid:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    n = np.broadcast_to(np.atleast_1d(n), lo.shape)
    return RadialGrid(tuple(np.linspace(l, h, int(k)) for l, h, k in zip(lo, hi, n)))


@dataclass(frozen=True)
class PolytopeGrid:
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

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.axes)

    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

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
        adj = np.zeros_like(mask)
        for axis in range(mask.ndim):
            lo = np.roll(mask, 1, axis=axis)
            hi = np.roll(mask, -1, axis=axis)
            sl = [slice(None)] * mask.ndim
            sl[axis] = 0
            lo[tuple(sl)] = False          # grid edge counts as outside
            sl[axis] = -1
            hi[tuple(sl)] = False
            adj |= mask & (~lo | ~hi)
        return adj


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
    val = np.sum(ell * np.log(ell), axis=-1)
    return float(val) if np.ndim(val) == 0 else val


def guillemin_gradient(P: DelzantPolytope, x) -> np.ndarray:
    """grad u0 = sum_r v_r (log ell_r + 1)."""
    ell = P.ell(x)
    if np.any(ell <= 0):
        raise ValueError("guillemin_gradient requires a strictly interior point")
    log_ell = np.log(ell)
    log_ell += 1.0
    return log_ell @ P._normals_f


def guillemin_hessian(P: DelzantPolytope, x) -> np.ndarray:
    """hess u0 = sum_r v_r v_r^T / ell_r; exact, no finite differences."""
    ell = P.ell(x)
    if np.any(ell <= 0):
        raise ValueError("guillemin_hessian requires a strictly interior point")
    normals = P._normals_f
    vv = np.einsum("ri,rj->rij", normals, normals)
    return np.einsum("...r,rij->...ij", 1.0 / ell, vv)


def _convex_slices(xgrid: PolytopeGrid, f: np.ndarray) -> np.ndarray:
    """True where the slice u0 + f[idx] of a family f (*shape, nx) is discretely
    strictly convex, at interior fiber nodes and, one-sidedly, at both edges."""
    if xgrid.dim != 1:
        raise NotImplementedError("family fibers are one-dimensional")
    x = xgrid.axes[0]
    h = x[1] - x[0]
    u0pp = guillemin_hessian(xgrid.polytope, x[:, None])[:, 0, 0]
    fpp = (f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]) / h**2
    upp = u0pp[1:-1] + fpp
    edge_lo = u0pp[0] + fpp[..., 0]
    edge_hi = u0pp[-1] + fpp[..., -1]
    return (upp.min(axis=-1) > 0) & (edge_lo > 0) & (edge_hi > 0)


# -- evaluator plumbing --------------------------------------------------------

@dataclass(frozen=True)
class ClosedForm:
    """Closed-form evaluator: value, gradient and Hessian."""

    value: Callable
    grad: Callable
    hess: Callable


def _grid_hessians(values: np.ndarray, axes) -> np.ndarray:
    """Centered-difference Hessians of tensor-sampled values at interior nodes."""
    m = len(axes)
    h = [float(ax[1] - ax[0]) for ax in axes]
    inner = tuple(slice(1, -1) for _ in range(m))
    H = np.empty(values[inner].shape + (m, m))
    for i in range(m):
        sl_p = list(inner)
        sl_m = list(inner)
        sl_p[i] = slice(2, None)
        sl_m[i] = slice(None, -2)
        H[..., i, i] = (values[tuple(sl_p)] - 2 * values[inner]
                        + values[tuple(sl_m)]) / h[i] ** 2
        for j in range(i + 1, m):
            pp = list(inner); mm = list(inner); pm = list(inner); mp = list(inner)
            pp[i] = slice(2, None); pp[j] = slice(2, None)
            mm[i] = slice(None, -2); mm[j] = slice(None, -2)
            pm[i] = slice(2, None); pm[j] = slice(None, -2)
            mp[i] = slice(None, -2); mp[j] = slice(2, None)
            mixed = (values[tuple(pp)] - values[tuple(pm)]
                     - values[tuple(mp)] + values[tuple(mm)]) / (4 * h[i] * h[j])
            H[..., i, j] = H[..., j, i] = mixed
    return H


def _zero_closed(dim: int) -> ClosedForm:
    if dim == 1:
        z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        return ClosedForm(value=z, grad=z, hess=z)
    return ClosedForm(
        value=lambda x: np.zeros(np.asarray(x, dtype=float).shape[:-1]),
        grad=lambda x: np.zeros(np.asarray(x, dtype=float).shape),
        hess=lambda x: np.zeros(np.asarray(x, dtype=float).shape + (dim,)),
    )


class KahlerPotential:
    """Convex potential phi(rho) on the open orbit.

    Values are sampled on a RadialGrid; a closed form, if present, takes
    precedence.  Gradient samples (moment-map values at the nodes), when
    available, are interpolated separately so gradients keep the accuracy of
    the Newton solves that produced them.
    """

    def __init__(self, grid: RadialGrid, values: np.ndarray | None = None,
                 grad_values: np.ndarray | None = None,
                 closed: ClosedForm | None = None, check: bool = True):
        self.grid = grid
        self.closed = closed
        if values is None:
            if closed is None:
                raise ValueError("need sampled values or a closed form")
            pts = grid.axes[0] if grid.dim == 1 else grid.nodes()
            values = np.asarray(closed.value(pts), dtype=float)
        self.values = np.asarray(values, dtype=float).reshape(grid.shape)
        self.grad_values = None if grad_values is None else \
            np.asarray(grad_values, dtype=float).reshape(grid.shape + (grid.dim,))
        self._value_spline = None
        self._grad_spline = None
        if check:
            self._check_convexity()

    @property
    def dim(self) -> int:
        return self.grid.dim

    def _check_convexity(self):
        if self.dim == 1:
            h = np.diff(self.grid.axes[0])
            slopes = np.diff(self.values) / h
            second = np.diff(slopes)
            if np.any(second <= 0):
                i = int(np.argmin(second))
                raise ConvexityError(
                    f"potential is not discretely convex near rho={self.grid.axes[0][i + 1]:.4g}")
        else:
            H = _grid_hessians(self.values, self.grid.axes)
            if np.any(np.linalg.eigvalsh(H).min(axis=-1) <= 0):
                raise ConvexityError(
                    "potential fails discrete positive-definiteness at an interior node")

    def _spline(self):
        if self._value_spline is None:
            if self.dim != 1:
                raise NotImplementedError(
                    "sampled evaluation is implemented for dim 1; "
                    "higher-dimensional potentials need a closed form")
            self._value_spline = CubicSpline(self.grid.axes[0], self.values)
        return self._value_spline

    def _gspline(self):
        if self._grad_spline is None:
            if self.dim != 1:
                raise NotImplementedError("sampled gradients need dim 1")
            if self.grad_values is not None:
                self._grad_spline = CubicSpline(self.grid.axes[0], self.grad_values[..., 0])
            else:
                self._grad_spline = self._spline().derivative()
        return self._grad_spline

    def value(self, rho):
        if self.closed is not None:
            return self.closed.value(rho)
        return self._spline()(np.asarray(rho, dtype=float))

    def grad(self, rho):
        if self.closed is not None:
            return np.asarray(self.closed.grad(rho), dtype=float)
        return self._gspline()(np.asarray(rho, dtype=float))

    def hess(self, rho):
        if self.closed is not None:
            return np.asarray(self.closed.hess(rho), dtype=float)
        return self._gspline().derivative()(np.asarray(rho, dtype=float))

    def shift(self, c: float) -> "KahlerPotential":
        """phi + c on the same grid; the closed form, if any, is wrapped."""
        closed = None
        if self.closed is not None:
            base = self.closed
            closed = ClosedForm(value=lambda r: np.asarray(base.value(r)) + c,
                                grad=base.grad, hess=base.hess)
        return KahlerPotential(self.grid, self.values + c, self.grad_values,
                               closed, check=False)


class SymplecticPotential:
    """Symplectic potential u = u0 + f on the polytope.

    The singular canonical part u0 is always evaluated analytically; only the
    smooth remainder f is sampled (or supplied in closed form).  Gradient
    samples rho = grad u at the nodes, when present, come from the Newton
    solves of `to_symplectic`.
    """

    def __init__(self, polytope: DelzantPolytope, grid: PolytopeGrid,
                 f_values: np.ndarray | None = None,
                 rho_values: np.ndarray | None = None,
                 f_closed: ClosedForm | None = None, check: bool = True):
        self.polytope = polytope
        self.grid = grid
        self.f_closed = f_closed
        if f_values is None:
            if f_closed is None:
                raise ValueError("need sampled f values or a closed form")
            pts = grid.axes[0] if grid.dim == 1 else grid.nodes()
            f_values = np.asarray(f_closed.value(pts), dtype=float)
        self.f_values = np.asarray(f_values, dtype=float).reshape(grid.shape)
        self.rho_values = None if rho_values is None else \
            np.asarray(rho_values, dtype=float).reshape(grid.shape + (grid.dim,))
        self._f_splines = None
        if not np.all(np.isfinite(self.f_values[grid.mask])):
            raise ValueError("smooth part f must be finite on the grid")
        if check:
            self._check_convexity()

    @property
    def dim(self) -> int:
        return self.grid.dim

    def _check_convexity(self):
        if self.dim == 1:
            x = self.grid.axes[0]
            hess = self.hess(x)
            if np.any(hess <= 0):
                i = int(np.argmin(hess))
                raise ConvexityError(
                    f"symplectic potential not strictly convex at x={x[i]:.4g}")
        else:
            pts = self.grid.nodes()[self.grid.mask]
            H = self.hess(pts)
            if np.any(np.linalg.eigvalsh(H).min(axis=-1) <= 0):
                raise ConvexityError(
                    "symplectic potential fails positive-definiteness on the grid")

    # smooth part -------------------------------------------------------------

    def _spline(self, order: int = 0):
        """The spline of f (order 0) or its derivative, each built once."""
        if self._f_splines is None:
            if self.dim != 1:
                raise NotImplementedError(
                    "sampled evaluation of f is implemented for dim 1; "
                    "use a closed form in higher dimensions")
            spline = CubicSpline(self.grid.axes[0], self.f_values)
            self._f_splines = (spline, spline.derivative(), spline.derivative(2))
        return self._f_splines[order]

    def f_value(self, x):
        if self.f_closed is not None:
            return np.asarray(self.f_closed.value(x), dtype=float)
        return self._spline()(np.asarray(x, dtype=float))

    def f_grad(self, x):
        if self.f_closed is not None:
            return np.asarray(self.f_closed.grad(x), dtype=float)
        return self._spline(1)(np.asarray(x, dtype=float))

    def f_hess(self, x):
        if self.f_closed is not None:
            return np.asarray(self.f_closed.hess(x), dtype=float)
        return self._spline(2)(np.asarray(x, dtype=float))

    # full potential u = u0 + f -------------------------------------------------

    def _points(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        return pts[..., None] if self.dim == 1 else pts

    def value(self, x):
        return guillemin_potential(self.polytope, self._points(x)) + self.f_value(x)

    def grad(self, x):
        g0 = guillemin_gradient(self.polytope, self._points(x))
        if self.dim == 1:
            return g0[..., 0] + self.f_grad(x)
        return g0 + self.f_grad(x)

    def hess(self, x):
        H0 = guillemin_hessian(self.polytope, self._points(x))
        if self.dim == 1:
            return H0[..., 0, 0] + self.f_hess(x)
        return H0 + self.f_hess(x)

    def shift(self, c: float) -> "SymplecticPotential":
        closed = None
        if self.f_closed is not None:
            base = self.f_closed
            closed = ClosedForm(value=lambda x: np.asarray(base.value(x)) + c,
                                grad=base.grad, hess=base.hess)
        return SymplecticPotential(self.polytope, self.grid, self.f_values + c,
                                   self.rho_values, closed, check=False)


# -- safeguarded Newton inversion ----------------------------------------------

def _invert_monotone_1d(grad_fn, hess_fn, targets, lo: float, hi: float,
                        tol: float = NEWTON_TOL, max_iter: int = NEWTON_MAX_ITER,
                        what: str = "gradient", s0=None):
    """Solve grad_fn(s) = target (strictly increasing grad_fn), vectorized.

    Bisection-safeguarded Newton on [lo, hi], which must straddle every
    target value.  `s0` seeds the iteration (defaults to the midpoint).
    """
    t = np.asarray(targets, dtype=float)
    a = np.full(t.shape, float(lo))
    b = np.full(t.shape, float(hi))
    if s0 is None:
        s = 0.5 * (a + b)
    else:
        s = np.clip(np.broadcast_to(np.asarray(s0, dtype=float), t.shape).copy(),
                    np.nextafter(lo, hi), np.nextafter(hi, lo))
    err = np.asarray(grad_fn(s)) - t
    eps = np.finfo(float).eps
    done = np.zeros(t.shape, dtype=bool)
    for it in range(max_iter):
        below = err <= 0
        a = np.where(below & ~done, s, a)
        b = np.where(below | done, b, s)
        # a bracket of machine width resolves the root as finely as floats allow,
        # even when the gradient itself cannot be evaluated to `tol` there
        done |= (np.abs(err) < tol) | (b - a <= 4 * eps * np.maximum(np.abs(a), np.abs(b)))
        if done.all():
            break
        h = np.asarray(hess_fn(s))
        with np.errstate(divide="ignore", invalid="ignore"):
            s_new = s - err / h
        # Steps escaping the bracket re-anchor just inside the violated
        # endpoint (for convex/concave monotone gradients one such step puts
        # the iterate on the side from which plain Newton converges);
        # alternating with plain bisection keeps the worst case geometric.
        w = b - a
        if it % 2 == 0:
            fallback = np.clip(s_new, a + 0.01 * w, b - 0.01 * w)
            fallback = np.where(np.isfinite(fallback), fallback, 0.5 * (a + b))
        else:
            fallback = 0.5 * (a + b)
        bad = ~np.isfinite(s_new) | (s_new <= a) | (s_new >= b)
        s = np.where(done, s, np.where(bad, fallback, s_new))
        # free the step's temporaries first: on a batched solve each is as
        # large as the targets, and the gradient evaluation is the memory peak
        del h, s_new, w, fallback, bad
        err = np.where(done, err, np.asarray(grad_fn(s)) - t)
    if not done.all():
        nbad = int(np.sum(~done))
        worst = tuple(int(i) for i in np.unravel_index(
            np.argmax(np.where(done, 0.0, np.abs(err))), t.shape))
        raise NewtonError(
            f"{what} inversion did not converge at {nbad} node(s); "
            f"worst |residual| = {np.abs(err)[worst]:.3g} "
            f"at target = {t[worst]:.6g} (target index {worst})", index=worst)
    return s


def _invert_gradient_nd(grad, hess, targets, x0, tol=NEWTON_TOL,
                        max_iter=NEWTON_MAX_ITER, what="gradient"):
    """Damped Newton for grad F(s) = target, one point at a time (F convex).

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
        for _ in range(max_iter):
            if np.linalg.norm(g, ord=np.inf) < tol:
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
        if np.linalg.norm(g, ord=np.inf) >= tol:
            raise NewtonError(f"{what} inversion failed at target {t}")
        out[idx] = s
    return out


# -- the Legendre transform -----------------------------------------------------

def to_symplectic(phi: KahlerPotential, P: DelzantPolytope,
                  grid: PolytopeGrid) -> SymplecticPotential:
    """Legendre transform of a Kahler potential onto a polytope grid.

    For each grid node x the moment-map equation grad phi(rho) = x is solved
    by safeguarded Newton; then u(x) = <x, rho> - phi(rho), and the smooth
    part f = u - u0 is stored along with the gradient samples rho = grad u.
    """
    if phi.dim != P.dim or grid.dim != P.dim:
        raise ValueError("dimension mismatch between potential, polytope, and grid")
    nodes = grid.nodes()
    if phi.dim == 1:
        x = nodes[..., 0]
        lo, hi = _rho_bracket(phi, float(x.min()), float(x.max()))
        rho = _invert_monotone_1d(phi.grad, phi.hess, x, lo, hi, what="moment map")
        u = x * rho - np.asarray(phi.value(rho))
        f = u - guillemin_potential(P, nodes)
        return SymplecticPotential(P, grid, f_values=f, rho_values=rho[..., None])
    if phi.closed is None:
        raise NotImplementedError("to_symplectic in dim >= 2 needs a closed form")
    rho = _invert_gradient_nd(phi.closed.grad, phi.closed.hess, nodes,
                              np.zeros_like(nodes), what="moment map")
    u = np.einsum("...i,...i->...", nodes, rho) - np.asarray(phi.value(rho))
    f = u - guillemin_potential(P, nodes)
    return SymplecticPotential(P, grid, f_values=f, rho_values=rho)


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
    if u.f_closed is None:
        raise NotImplementedError("to_kahler in dim >= 2 needs a closed-form smooth part")
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
    u0), so halving the distance to each endpoint always terminates for
    finite rho.
    """
    (lo,), (hi,) = u.polytope.bounding_box()
    span = float(hi - lo)
    a = float(lo) + 0.25 * span
    for _ in range(60):
        if float(u.grad(np.asarray(a))) <= rho_min:
            break
        a = float(lo) + (a - float(lo)) * 0.5
    else:
        raise NewtonError(f"could not bracket rho = {rho_min} from below")
    b = float(hi) - 0.25 * span
    for _ in range(60):
        if float(u.grad(np.asarray(b))) >= rho_max:
            break
        b = float(hi) - (float(hi) - b) * 0.5
    else:
        raise NewtonError(f"could not bracket rho = {rho_max} from above")
    return a, b


def abreu_delta(u: SymplecticPotential, x) -> np.ndarray | float:
    """delta(x) = 1 / (det hess u(x) * prod_r ell_r(x)).

    The canonical-part Hessian is analytic, so delta stays accurate next to
    the boundary where u0 is singular.  Positive for any convex potential.
    """
    ell = u.polytope.ell(np.asarray(x, dtype=float)[..., None] if u.dim == 1 else x)
    if np.any(ell <= 0):
        raise ValueError("abreu_delta requires strictly interior points")
    H = u.hess(x)
    if u.dim == 1:
        det = np.asarray(H, dtype=float)
        if np.any(det <= 0):
            raise ConvexityError("Hessian of u is not positive at a requested point")
    else:
        if np.any(np.linalg.eigvalsh(H).min(axis=-1) <= 0):
            raise ConvexityError("Hessian of u is not positive definite at a requested point")
        det = np.linalg.det(H)
    out = 1.0 / (det * np.prod(ell, axis=-1))
    return float(out) if np.ndim(out) == 0 else out


# -- presets ----------------------------------------------------------------------

def _sigmoid(r):
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    pos = r >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-r[pos]))
    e = np.exp(r[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def preset_kahler(name: str, grid: RadialGrid | None = None) -> KahlerPotential:
    """Named Kahler potentials; "fubini-study" is phi = log(1 + e^rho) on [0,1]."""
    if name != "fubini-study":
        raise KeyError(f"unknown Kahler preset {name!r}")
    if grid is None:
        grid = make_radial_grid([-12.0], [12.0], [2001])
    if grid.dim != 1:
        raise ValueError("the fubini-study preset is one-dimensional")
    closed = ClosedForm(
        value=lambda r: np.logaddexp(0.0, np.asarray(r, dtype=float)),
        grad=_sigmoid,
        hess=lambda r: _sigmoid(r) * _sigmoid(-np.asarray(r, dtype=float)),
    )
    return KahlerPotential(grid, closed=closed)


def _product_ell_closed(P: DelzantPolytope, a: float) -> ClosedForm:
    """f = a * prod_r ell_r with analytic first and second derivatives."""
    normals = P._normals_f
    d = len(P.facets)
    keep_one = [[s for s in range(d) if s != r] for r in range(d)]
    keep_two = {(r, s): [t for t in range(d) if t not in (r, s)]
                for r in range(d) for s in range(d) if r != s}

    def pts(x):
        x = np.asarray(x, dtype=float)
        return x[..., None] if P.dim == 1 else x

    def value(x):
        return a * np.prod(P.ell(pts(x)), axis=-1)

    def grad(x):
        ell = P.ell(pts(x))
        g = np.zeros(ell.shape[:-1] + (P.dim,))
        for r in range(d):
            others = np.prod(ell[..., keep_one[r]], axis=-1)
            g += others[..., None] * normals[r]
        g *= a
        return g[..., 0] if P.dim == 1 else g

    def hess(x):
        ell = P.ell(pts(x))
        H = np.zeros(ell.shape[:-1] + (P.dim, P.dim))
        for (r, s), keep in keep_two.items():
            others = np.prod(ell[..., keep], axis=-1)
            H += others[..., None, None] * np.outer(normals[r], normals[s])
        H *= a
        return H[..., 0, 0] if P.dim == 1 else H

    return ClosedForm(value=value, grad=grad, hess=hess)


def preset_symplectic(name: str, P: DelzantPolytope,
                      grid: PolytopeGrid | None = None) -> SymplecticPotential:
    """Named symplectic potentials on P.

    "guillemin"     u = u0 (f = 0)
    "perturbed(a)"  u = u0 + a * prod_r ell_r
    """
    if grid is None:
        grid = make_polytope_grid(P, 801, default_margin(64))
    if name == "guillemin":
        return SymplecticPotential(P, grid, f_closed=_zero_closed(P.dim))
    m = re.fullmatch(r"perturbed\(([-+0-9.eE]+)\)", name)
    if m:
        return SymplecticPotential(P, grid,
                                   f_closed=_product_ell_closed(P, float(m.group(1))))
    raise KeyError(f"unknown symplectic preset {name!r}")


# -- plain-text serialization -------------------------------------------------------

def save_potential(obj, path):
    """Write a potential in a lossless, binary-free text format.

    Closed-form evaluators are not serialized; a reloaded potential falls
    back to sampled (spline) evaluation.
    """
    if isinstance(obj, KahlerPotential):
        _write_text(path, [f"kahler dim {obj.dim}"], obj.grid,
                   {"values": obj.values, "grad": obj.grad_values})
    elif isinstance(obj, SymplecticPotential):
        _write_text(path, [f"symplectic dim {obj.dim}"], obj.grid,
                   {"values": obj.f_values, "grad": obj.rho_values})
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def load_potential(path):
    (head,), grid, blocks = _read_text(path, 1)
    if head.split()[0] == "kahler":
        return KahlerPotential(grid, blocks["values"], blocks.get("grad"))
    return SymplecticPotential(grid.polytope, grid, blocks["values"], blocks.get("grad"))


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
    """Inverse of `_write_text`: (header lines, grid, {tag: array})."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    i = n_header
    polytope = None
    margin = None
    axes = []
    blocks = {}
    while i < len(lines):
        head = lines[i].split(None, 1)[0]
        if head == "polytope":
            polytope = polytope_from_json(lines[i].split(None, 1)[1])
            i += 1
        elif head == "margin":
            margin = float(lines[i].split()[1])
            i += 1
        elif head == "axis":
            _, _, rest = lines[i].split(None, 2)
            axes.append(np.array([float(v) for v in rest.split()]))
            i += 1
        elif lines[i].split()[1:2] == ["shape"]:
            shape = tuple(int(s) for s in lines[i].split()[2:])
            n = int(np.prod(shape))
            blocks[head] = np.array(
                [float(v) for v in lines[i + 1: i + 1 + n]]).reshape(shape)
            i += 1 + n
        else:
            raise ValueError(f"unrecognized line in potential file: {lines[i]!r}")
    if polytope is None:
        grid = RadialGrid(tuple(axes))
    else:
        grid = PolytopeGrid(polytope=polytope, axes=tuple(axes), margin=margin)
    return lines[:n_header], grid, blocks
