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
hence `guillemin_*`; `SymplecticPotential.value`, `.grad`, `.hess`;
`abreu_delta`), lets a dim-1 caller pass plain x values:
a scalar, or an array whose last axis is not of length 1, is the points
x[..., None], and its results come back plain (`polytope._as_given`).  A
dim-1 array whose last axis has length 1 is points: x of shape (2, 1) is two
points, giving (2,) values, (2, 1) gradients and (2, 1, 1) Hessians.
`ClosedForm` callbacks take and return plain arrays in dim 1, whatever their
shape; `_closed_at` reads them at points.  The rho side is one-dimensional:
`KahlerPotential`, `to_kahler` and `fubini_study` take a plain rho axis.

Gradient inversions use one safeguarded Newton iteration (bisection fallback),
one-dimensional, with tolerance 1e-12 on the gradient mismatch and at most
100 iterations, so `to_kahler` is one-dimensional.  A potential evaluates its
smooth part through one `ClosedForm`: its closed form, or not-a-knot cubic
splines of its samples (`_evaluator`, dim 1 only), so `to_symplectic`, whose
result is sampled, is one-dimensional.

The closed-form potentials are `product_potential(P, a)`, u0 + a prod_r
ell_r on any polytope (a = 0 is Guillemin's u0), and `fubini_study()`,
phi = log(1 + e^rho) on [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .dirichlet import Window, _d2
from .polytope import DelzantPolytope, _as_given, _as_points, _float_if_0d

__all__ = [
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
    "make_polytope_grid",
    "fubini_study",
    "product_potential",
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

@dataclass(frozen=True)
class PolytopeGrid:
    """Tensor-product nodes strictly inside P, offset from the boundary.

    `mask` marks tensor nodes with ell_r >= margin for all r (all True for box
    polytopes).
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
        """(*shape, dim) node points; read-only, computed once per grid."""
        return self._nodes

    @cached_property
    def _nodes(self) -> np.ndarray:
        nodes = np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)
        nodes.setflags(write=False)
        return nodes

    @cached_property
    def mask(self) -> np.ndarray:
        """Read-only; computed once per grid."""
        ell = self.polytope.ell(self.nodes())
        mask = ell.min(axis=-1) >= self.margin * (1.0 - 1e-9)
        mask.setflags(write=False)
        return mask

    @cached_property
    def u0_hess(self) -> np.ndarray:
        """hess u0 at the in-mask nodes, (n_in, dim, dim); read-only, computed
        once per grid."""
        hess = guillemin_hessian(self.polytope, self.nodes()[self.mask])
        hess.setflags(write=False)
        return hess


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
    over `_blocks` of node rows, f'' by `dirichlet._d2`."""
    if xgrid.dim != 1:
        raise NotImplementedError("family fibers are one-dimensional")
    x = xgrid.axes[0]
    h = x[1] - x[0]
    u0pp = guillemin_hessian(xgrid.polytope, x[:, None])[:, 0, 0]
    f_rows = f.reshape(-1, x.size)
    flags = np.empty(len(f_rows), dtype=bool)
    for rows in _blocks(0, len(f_rows), x.size, LSE_BLOCK):
        fpp = _d2(Window(f_rows[rows], (slice(None), slice(1, -1))), h, 1)
        edge_lo = u0pp[0] + fpp[:, 0]
        edge_hi = u0pp[-1] + fpp[:, -1]
        fpp += u0pp[1:-1]
        flags[rows] = (fpp.min(axis=-1) > 0) & (edge_lo > 0) & (edge_hi > 0)
        del fpp   # freed before the next block's is built: one f'' at a time
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


def _evaluator(closed: ClosedForm | None, axes: tuple[np.ndarray, ...], values: np.ndarray,
               grad_values: np.ndarray | None = None) -> ClosedForm:
    """A potential's one evaluator: its closed form, else not-a-knot cubic
    splines of its samples on the grid `axes` (of `grad_values`, when given,
    for the gradient), built at first evaluation; only the splines load scipy."""
    if closed is not None:
        return closed
    if len(axes) != 1:
        raise NotImplementedError(
            f"sampled evaluation in dim {len(axes)}: splines of samples are implemented "
            "for dim 1; higher-dimensional potentials need a closed form")
    from scipy.interpolate import CubicSpline   # sampled potentials only
    value = CubicSpline(axes[0], values)
    grad = value.derivative() if grad_values is None else CubicSpline(axes[0], grad_values)
    return ClosedForm(value, grad, grad.derivative())


def _closed_at(fn: Callable, pts: np.ndarray, point_axes: int = 0) -> np.ndarray:
    """A callback of the ClosedForm contract at (..., m) points, with its
    `point_axes` trailing point axes."""
    dim = pts.shape[-1]
    plain = dim == 1
    out = np.asarray(fn(_as_given(pts, plain, 1)), dtype=float)
    return out[(...,) + (None,) * point_axes] if plain else out


class KahlerPotential:
    """Convex potential phi(rho) on the open orbit, rho one-dimensional.

    Values are sampled on `rho`, a strictly increasing axis (>= 4 nodes).
    The one evaluator is the closed form, if present, else `_evaluator`'s
    splines of the samples; gradient samples (moment-map values at the
    nodes), when given, are splined separately so gradients keep the
    accuracy of the Newton solves that produced them.
    """

    def __init__(self, rho: np.ndarray, values: np.ndarray | None = None,
                 grad_values: np.ndarray | None = None,
                 closed: ClosedForm | None = None):
        rho = np.asarray(rho, dtype=float)
        if rho.ndim != 1 or rho.size < 4 or np.any(np.diff(rho) <= 0):
            raise ValueError("rho must be a strictly increasing 1D array (>= 4 nodes)")
        self.rho = rho
        self.closed = closed
        if values is None and closed is None:
            raise ValueError("need sampled values or a closed form")
        values = closed.value(rho) if values is None else values
        self.values = np.asarray(values, dtype=float).reshape(rho.shape)
        self.grad_values = None if grad_values is None else \
            np.asarray(grad_values, dtype=float).reshape(rho.shape)
        self._check_convexity()

    def _check_convexity(self):
        hess = np.gradient(np.gradient(self.values, self.rho), self.rho)
        if np.any(hess <= 0):
            raise ConvexityError("potential is not discretely convex at "
                                 f"rho={self.rho[np.argmin(hess)]:.4g}")

    @cached_property
    def _form(self) -> ClosedForm:
        return _evaluator(self.closed, (self.rho,), self.values, self.grad_values)

    def value(self, rho):
        return self._form.value(rho)

    def grad(self, rho):
        return np.asarray(self._form.grad(rho), dtype=float)

    def hess(self, rho):
        return np.asarray(self._form.hess(rho), dtype=float)


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
        H = self.grid.u0_hess + _closed_at(self.f_hess, pts, 2)   # bitwise self.hess(pts)
        _positive_det(H, "symplectic potential not strictly convex at x", pts)

    # smooth part -------------------------------------------------------------

    @cached_property
    def _form(self) -> ClosedForm:
        return _evaluator(self.f_closed, self.grid.axes, self.f_values)

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


@dataclass(frozen=True)
class PotentialFamily:
    """Family u(y, .) = u0 + f(y, .) over a parameter domain N x PolytopeGrid:
    a solved harmonic map (Dirichlet data `boundary_potentials`, optional
    `closed_forms`: an object array of the domain's shape holding each
    node's ClosedForm of its smooth part, built once by `solve_harmonic_map`,
    so every reader shares one evaluator per node) or a heat-flow snapshot
    at time `tau`, flagging in `convexity_violations` the (tau, y_index)
    pairs where a slice lost discrete convexity (slices are never altered).
    """

    domain: object
    xgrid: PolytopeGrid
    f: np.ndarray                        # (*domain.shape, nx)
    boundary_potentials: tuple = ()
    closed_forms: np.ndarray | None = None   # (*domain.shape,) of ClosedForm
    tau: float = 0.0
    convexity_violations: tuple = ()

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        expected = self.domain.shape + self.xgrid.shape
        if f.shape != expected:
            raise ValueError(f"family field shape {f.shape}, expected {expected}")
        object.__setattr__(self, "f", f)

    def potential_at(self, y_index) -> SymplecticPotential:
        idx = y_index if isinstance(y_index, tuple) else (y_index,)
        closed = None if self.closed_forms is None else self.closed_forms[idx]
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
                        what: str = "gradient", s0=None):
    """Solve grad_fn(s) = target (strictly increasing grad_fn) to NEWTON_TOL, vectorized.

    Bisection-safeguarded Newton on [lo, hi], which must straddle every
    target value, for at most NEWTON_MAX_ITER iterations.  `s0` seeds the
    iteration (defaults to the midpoint).  Each update is an `np.where` over
    the whole array that leaves converged targets as they are, so every
    target gets the iterates of a solve of its own.
    """
    t = np.asarray(targets, dtype=float)
    a, b = np.full(t.shape, float(lo)), np.full(t.shape, float(hi))
    if s0 is None:
        s = 0.5 * (a + b)
    else:
        s = np.clip(np.broadcast_to(np.asarray(s0, dtype=float), t.shape),
                    np.nextafter(lo, hi), np.nextafter(hi, lo))
    err = np.asarray(grad_fn(s)) - t
    eps = np.finfo(float).eps
    done = np.zeros(t.shape, dtype=bool)
    for it in range(NEWTON_MAX_ITER):
        below = err <= 0
        a = np.where(below & ~done, s, a)
        b = np.where(below | done, b, s)
        # a bracket of machine width resolves the root as finely as floats allow,
        # even when the gradient itself cannot be evaluated to NEWTON_TOL there
        done |= (np.abs(err) < NEWTON_TOL) | (
            b - a <= 4 * eps * np.maximum(np.abs(a), np.abs(b)))
        if done.all():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            step = s - err / np.asarray(hess_fn(s))
        # Steps escaping the bracket re-anchor just inside the violated
        # endpoint (for convex/concave monotone gradients one such step puts
        # the iterate on the side from which plain Newton converges);
        # alternating with plain bisection keeps the worst case geometric.
        w = b - a
        if it % 2 == 0:
            fallback = np.clip(step, a + 0.01 * w, b - 0.01 * w)
            fallback = np.where(np.isfinite(fallback), fallback, 0.5 * (a + b))
        else:
            fallback = 0.5 * (a + b)
        bad = ~np.isfinite(step) | (step <= a) | (step >= b)
        s = np.where(done, s, np.where(bad, fallback, step))
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
    if P.dim > 1:
        raise NotImplementedError(
            f"to_symplectic in dim {P.dim}: the transform yields a sampled smooth "
            "part f, and sampled f is evaluated (splines) only in dim 1")
    if grid.dim != P.dim:
        raise ValueError("dimension mismatch between polytope and grid")
    x = grid.axes[0]
    lo, hi = _rho_bracket(phi, float(x.min()), float(x.max()))
    rho = _invert_monotone_1d(phi.grad, phi.hess, x, lo, hi, what="moment map")
    u = x * rho - np.asarray(phi.value(rho))
    f = u - guillemin_potential(P, grid.nodes())
    return SymplecticPotential(P, grid, f_values=f)


def _rho_bracket(phi: KahlerPotential, x_min: float, x_max: float):
    """Expand a rho interval until grad phi straddles [x_min, x_max]."""
    if phi.closed is None:
        a, b = float(phi.rho[0]), float(phi.rho[-1])
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


def to_kahler(u: SymplecticPotential, rho: np.ndarray) -> KahlerPotential:
    """Inverse Legendre transform of a one-dimensional symplectic potential:
    phi(rho) = <x, rho> - u(x) with grad u(x) = rho, solved at every node of
    the axis `rho` by safeguarded Newton.  Dimension >= 2 is rejected before
    any work: the one gradient inverter, `_invert_monotone_1d`, is 1-D.
    """
    if u.dim > 1:
        raise NotImplementedError(
            f"to_kahler in dim {u.dim}: the symplectic gradient is inverted "
            "(safeguarded Newton) only in dim 1")
    rho = np.asarray(rho, dtype=float)
    a, b = _x_bracket(u, float(rho.min()), float(rho.max()))
    guess = np.clip(_canonical_inverse_guess(u.polytope, rho), a, b)
    x = _invert_monotone_1d(u.grad, u.hess, rho, a, b,
                            what="symplectic gradient", s0=guess)
    phi = x * rho - np.asarray(u.value(x))
    return KahlerPotential(rho, values=phi, grad_values=x)


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


def fubini_study(rho: np.ndarray | None = None) -> KahlerPotential:
    """The Fubini-Study potential phi = log(1 + e^rho) on the axis `rho`, moment image [0, 1]."""
    if rho is None:
        rho = np.linspace(-12.0, 12.0, 2001)
    closed = ClosedForm(
        value=lambda r: np.logaddexp(0.0, np.asarray(r, dtype=float)),
        grad=_sigmoid,
        hess=lambda r: _sigmoid(r) * _sigmoid(-np.asarray(r, dtype=float)),
    )
    return KahlerPotential(rho, closed=closed)


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

