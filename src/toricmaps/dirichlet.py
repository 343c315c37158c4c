"""
Harmonic extension of Dirichlet boundary data over the parameter domain N.

Supported domains (all with the Euclidean metric):

  Interval   grid on [0,1]; the harmonic extension of endpoint values is the
             straight line (1-t) g(0) + t g(1), evaluated in exactly that form.
  Disc       polar grid (radii x angles) on the closed unit disc; interior
             values come from the Poisson integral

                 u(r, gamma) = (1/2pi) int (1-r^2) / (1 - 2r cos(gamma-theta) + r^2) g(theta) dtheta

             discretized by the trapezoid rule on the uniform angular grid
             (spectrally accurate for smooth periodic data).  The kernel is
             the positive one, K = -d/dnu G >= 0; the sign of the normal
             derivative of the Green function is fixed here, once.
  Rectangle  tensor grid with Dirichlet data on all four sides; the interior
             is solved with the 5-point Laplacian (direct sparse factorization
             up to 256^2 unknowns, conjugate gradients at tolerance 1e-10
             beyond that).

The disc's interior radii are kept away from r = 1 (default cap 0.9) with an
exact boundary ring at r = 1; the angular quadrature error of the Poisson
integral scales like r_max^n_theta, so the cap keeps it near machine level at
the default 256 angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "IntervalDomain",
    "DiscDomain",
    "RectangleDomain",
    "BoundaryData",
    "HarmonicField",
    "make_interval",
    "make_disc",
    "make_rectangle",
    "poisson_kernel",
    "harmonic_extend",
    "harmonic_extend_disc_fourier",
    "laplace_residual",
    "boundary_weights",
    "n_boundary_nodes",
]


@dataclass(frozen=True)
class IntervalDomain:
    """Parameter interval [t0, t1] with strictly increasing nodes."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3 or np.any(np.diff(nodes) <= 0):
            raise ValueError("interval nodes must be strictly increasing (>= 3 nodes)")
        object.__setattr__(self, "nodes", nodes)

    @property
    def shape(self):
        return (self.nodes.size,)


@dataclass(frozen=True)
class DiscDomain:
    """Polar grid on the closed unit disc.

    `radii` is strictly increasing with last entry exactly 1.0 (the boundary
    ring); `angles` is the uniform angular grid, which doubles as the
    boundary quadrature rule (trapezoid), with an even count >= 64.
    """

    radii: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        angles = np.asarray(self.angles, dtype=float)
        if radii.ndim != 1 or np.any(np.diff(radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        if radii[0] < 0 or radii[-1] != 1.0:
            raise ValueError("radii must lie in [0, 1] with the last ring at r = 1")
        n = angles.size
        if n < 64 or n % 2 != 0:
            raise ValueError("disc angular quadrature needs an even node count >= 64")
        expected = 2.0 * np.pi * np.arange(n) / n
        if not np.allclose(angles, expected, atol=1e-12):
            raise ValueError("angles must be the uniform grid 2*pi*j/n, j = 0..n-1")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "angles", angles)

    @property
    def shape(self):
        return (self.radii.size, self.angles.size)

    @cached_property
    def poisson_weights(self) -> np.ndarray:
        """Read-only trapezoid Poisson weights of the interior rings, built once.

        Shape (n_radii-1, n_angles, n_angles); see `_disc_weight_matrix`.
        """
        weights = _disc_weight_matrix(self)
        weights.setflags(write=False)
        return weights


@dataclass(frozen=True)
class RectangleDomain:
    """Tensor grid on [0, Lx] x [0, Ly] with uniform spacing per axis."""

    x_nodes: np.ndarray
    y_nodes: np.ndarray

    def __post_init__(self):
        for name in ("x_nodes", "y_nodes"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.ndim != 1 or a.size < 3 or np.any(np.diff(a) <= 0):
                raise ValueError(f"{name} must be strictly increasing (>= 3 nodes)")
            h = np.diff(a)
            if not np.allclose(h, h[0], rtol=1e-12):
                raise ValueError(f"{name} must be uniformly spaced")
            object.__setattr__(self, name, a)

    @property
    def shape(self):
        return (self.x_nodes.size, self.y_nodes.size)

    def boundary_mask(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=bool)
        m[0, :] = m[-1, :] = True
        m[:, 0] = m[:, -1] = True
        return m


def make_interval(n: int, t0: float = 0.0, t1: float = 1.0) -> IntervalDomain:
    return IntervalDomain(np.linspace(t0, t1, n))


def make_disc(n_radii: int, n_angles: int = 256,
              r_interior_max: float = 0.9) -> DiscDomain:
    radii = np.concatenate([np.linspace(0.0, r_interior_max, n_radii), [1.0]])
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return DiscDomain(radii=radii, angles=angles)


def make_rectangle(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0) -> RectangleDomain:
    return RectangleDomain(np.linspace(0.0, lx, nx), np.linspace(0.0, ly, ny))


def n_boundary_nodes(domain) -> int:
    if isinstance(domain, IntervalDomain):
        return 2
    if isinstance(domain, DiscDomain):
        return domain.angles.size
    if isinstance(domain, RectangleDomain):
        return int(domain.boundary_mask().sum())
    raise TypeError(f"unsupported domain {type(domain).__name__}")


@dataclass(frozen=True)
class BoundaryData:
    """Scalar boundary values in the domain's canonical boundary order.

    Interval: (g(t0), g(t1)).  Disc: values at the angular quadrature nodes
    (periodic by construction).  Rectangle: row-major order over the boundary
    mask.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("boundary data must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class HarmonicField:
    """Scalar field over all domain nodes, harmonic in the interior."""

    domain: object
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.domain.shape:
            raise ValueError(f"field shape {v.shape} does not match domain {self.domain.shape}")
        object.__setattr__(self, "values", v)


def poisson_kernel(r, theta):
    """Poisson kernel of the unit disc, (1/2pi)(1-r^2)/(1-2r cos(theta)+r^2).

    This is the positive kernel -d/dnu G; it integrates to 1 over the circle.
    Requires 0 <= r < 1.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r >= 1):
        raise ValueError("poisson_kernel requires 0 <= r < 1")
    theta = np.asarray(theta, dtype=float)
    out = (1.0 - r**2) / (2.0 * np.pi * (1.0 - 2.0 * r * np.cos(theta) + r**2))
    return float(out) if np.ndim(out) == 0 else out


def _disc_weight_matrix(domain: DiscDomain) -> np.ndarray:
    """Trapezoid Poisson weights, shape (n_radii-1, n_angles, n_angles).

    weights[i, l, j] multiplies g(theta_j) in the extension at (r_i, gamma_l);
    rows are nonnegative and sum to 1 up to the angular aliasing error
    O(r_i^n_angles).
    """
    r = domain.radii[:-1]
    th = domain.angles
    n = th.size
    diff = th[:, None] - th[None, :]
    k = poisson_kernel(r[:, None, None], diff[None, :, :])
    return (2.0 * np.pi / n) * k


def harmonic_extend(domain, g: BoundaryData) -> HarmonicField:
    """Solve the Dirichlet problem for the Laplacian with data g.

    The discrete maximum principle is verified on the result: exactly (up to
    rounding/solver tolerance) for interval and rectangle, and up to the
    angular aliasing tolerance of the Poisson quadrature for the disc.
    """
    v = g.values
    if isinstance(domain, IntervalDomain):
        if v.shape != (2,):
            raise ValueError("interval boundary data must have two values")
        t0, t1 = domain.nodes[0], domain.nodes[-1]
        t = (domain.nodes - t0) / (t1 - t0)
        field = HarmonicField(domain, (1.0 - t) * v[0] + t * v[1])
        _check_max_principle(field, v, 1e-12)
        return field
    if isinstance(domain, DiscDomain):
        if v.shape != (domain.angles.size,):
            raise ValueError("disc boundary data must match the angular grid")
        interior = np.einsum("ilj,j->il", domain.poisson_weights, v)
        field = HarmonicField(domain, np.vstack([interior, v[None, :]]))
        slack = 2.0 * domain.radii[-2] ** domain.angles.size
        _check_max_principle(field, v, slack + 1e-12)
        return field
    if isinstance(domain, RectangleDomain):
        field = _extend_rectangle(domain, v)
        _check_max_principle(field, v, 1e-9)
        return field
    raise TypeError(f"unsupported domain {type(domain).__name__}")


def _check_max_principle(field: HarmonicField, boundary_values: np.ndarray,
                         rel_slack: float):
    span = float(boundary_values.max() - boundary_values.min()) + abs(
        float(boundary_values.max()))
    slack = rel_slack * (1.0 + span)
    lo, hi = float(boundary_values.min()), float(boundary_values.max())
    vmin, vmax = float(field.values.min()), float(field.values.max())
    if vmin < lo - slack or vmax > hi + slack:
        raise RuntimeError(
            f"discrete maximum principle violated: field range [{vmin:.6g}, {vmax:.6g}] "
            f"vs boundary range [{lo:.6g}, {hi:.6g}] (slack {slack:.3g})")


def harmonic_extend_disc_fourier(domain: DiscDomain, g: BoundaryData) -> HarmonicField:
    """Independent disc solver: Fourier coefficients damped by r^|n|.

    Cross-check path for the Poisson-integral route; both consume the same
    boundary samples and agree up to the kernel's angular aliasing tail.
    """
    if not isinstance(domain, DiscDomain):
        raise TypeError("fourier extension applies to DiscDomain only")
    v = g.values
    n = domain.angles.size
    c = np.fft.rfft(v) / n
    r = domain.radii[:-1]
    gamma = domain.angles
    modes = np.arange(c.size)
    damp = r[:, None] ** modes[None, :]
    phase = np.exp(1j * np.outer(gamma, modes))
    scale = np.full(c.size, 2.0)
    scale[0] = 1.0
    if n % 2 == 0:
        scale[-1] = 1.0
    interior = (damp[:, None, :] * (scale * c.real) * phase.real[None, :, :]
                - damp[:, None, :] * (scale * c.imag) * phase.imag[None, :, :]).sum(axis=-1)
    return HarmonicField(domain, np.vstack([interior, v[None, :]]))


def _extend_rectangle(domain: RectangleDomain, v: np.ndarray) -> HarmonicField:
    mask = domain.boundary_mask()
    if v.shape != (int(mask.sum()),):
        raise ValueError("rectangle boundary data must match the boundary mask size")
    nx, ny = domain.shape
    full = np.zeros((nx, ny))
    full[mask] = v
    hx = domain.x_nodes[1] - domain.x_nodes[0]
    hy = domain.y_nodes[1] - domain.y_nodes[0]
    inx, iny = nx - 2, ny - 2
    n_int = inx * iny

    def idx(i, j):  # interior (i, j) -> unknown index, i in 1..nx-2
        return (i - 1) * iny + (j - 1)

    main = np.full(n_int, -2.0 / hx**2 - 2.0 / hy**2)
    A = sp.lil_matrix((n_int, n_int))
    b = np.zeros(n_int)
    A.setdiag(main)
    for i in range(1, nx - 1):
        for j in range(1, ny - 1):
            row = idx(i, j)
            for di, dj, w in ((1, 0, 1.0 / hx**2), (-1, 0, 1.0 / hx**2),
                              (0, 1, 1.0 / hy**2), (0, -1, 1.0 / hy**2)):
                ii, jj = i + di, j + dj
                if mask[ii, jj]:
                    b[row] -= w * full[ii, jj]
                else:
                    A[row, idx(ii, jj)] = w
    A = A.tocsr()
    if n_int <= 256 * 256:
        sol = spla.spsolve(A, b)
    else:
        sol, info = spla.cg(A, b, rtol=1e-10, atol=0.0)
        if info != 0:
            raise RuntimeError(f"conjugate-gradient Laplace solve failed (info={info})")
    full[1:-1, 1:-1] = sol.reshape(inx, iny)
    return HarmonicField(domain, full)


def laplace_residual(domain, field: HarmonicField) -> float:
    """Sup over interior nodes of the discrete Laplacian magnitude."""
    if field.domain is not domain and field.domain.shape != domain.shape:
        raise ValueError("field does not match the domain")
    v = field.values
    if isinstance(domain, IntervalDomain):
        t = domain.nodes
        lap = _second_derivative_nonuniform(t, v)
        return float(np.max(np.abs(lap))) if lap.size else 0.0
    if isinstance(domain, DiscDomain):
        r = domain.radii
        n = domain.angles.size
        h_th = 2.0 * np.pi / n
        lap_sup = 0.0
        for i in range(1, r.size - 1):
            if r[i] <= 0:
                continue
            hm = r[i] - r[i - 1]
            hp = r[i + 1] - r[i]
            w_mm = 2.0 / (hm * (hm + hp))
            w_pp = 2.0 / (hp * (hm + hp))
            u_rr = w_mm * v[i - 1] - (w_mm + w_pp) * v[i] + w_pp * v[i + 1]
            u_r = (-hp / (hm * (hm + hp)) * v[i - 1]
                   + (hp - hm) / (hm * hp) * v[i]
                   + hm / (hp * (hm + hp)) * v[i + 1])
            u_tt = (np.roll(v[i], 1) - 2.0 * v[i] + np.roll(v[i], -1)) / h_th**2
            lap = u_rr + u_r / r[i] + u_tt / r[i] ** 2
            lap_sup = max(lap_sup, float(np.max(np.abs(lap))))
        return lap_sup
    if isinstance(domain, RectangleDomain):
        hx = domain.x_nodes[1] - domain.x_nodes[0]
        hy = domain.y_nodes[1] - domain.y_nodes[0]
        lap = ((v[2:, 1:-1] - 2 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / hx**2
               + (v[1:-1, 2:] - 2 * v[1:-1, 1:-1] + v[1:-1, :-2]) / hy**2)
        return float(np.max(np.abs(lap)))
    raise TypeError(f"unsupported domain {type(domain).__name__}")


def _second_derivative_nonuniform(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    hm = t[1:-1] - t[:-2]
    hp = t[2:] - t[1:-1]
    return 2.0 * (hp * v[:-2] - (hm + hp) * v[1:-1] + hm * v[2:]) / (hm * hp * (hm + hp))


def boundary_weights(domain, where) -> np.ndarray:
    """Nonnegative kernel weights w(y) with extension(g)(y) = w . g, sum(w) ~= 1.

    `where` is a node index tuple for the domain grid.  This exposes the
    positive boundary kernel (-d/dnu G) at a point, used by the metric-ratio
    diagnostics.  Rectangle domains are not supported (no closed kernel here).
    """
    if isinstance(domain, IntervalDomain):
        (i,) = where if isinstance(where, tuple) else (where,)
        t0, t1 = domain.nodes[0], domain.nodes[-1]
        t = (domain.nodes[i] - t0) / (t1 - t0)
        return np.array([1.0 - t, t])
    if isinstance(domain, DiscDomain):
        i, l = where
        r = domain.radii[i]
        if r == 1.0:
            w = np.zeros(domain.angles.size)
            w[l] = 1.0
            return w
        return (2.0 * np.pi / domain.angles.size) * poisson_kernel(
            r, domain.angles[l] - domain.angles)
    raise NotImplementedError(
        f"boundary_weights not available for {type(domain).__name__}")
