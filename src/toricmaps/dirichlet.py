"""
Harmonic extension of Dirichlet boundary data over the parameter domain N.

Harmonic extension is linear, so each domain owns one boundary -> node
operator, built once per domain and applied to stacked data:
`domain.extend(values)` maps values of shape (n_boundary, *trailing) to
(*domain.shape, *trailing), extending every trailing column on its own.
Supported domains (all with the Euclidean metric):

  Interval   grid on [0,1]; the harmonic extension of endpoint values is the
             straight line (1-t) g(0) + t g(1), evaluated in exactly that form.
  Disc       polar grid (radii x angles) on the closed unit disc; interior
             values come from the Poisson integral

                 u(r, gamma) = (1/2pi) int (1-r^2) / (1 - 2r cos(gamma-theta) + r^2) g(theta) dtheta

             discretized by the trapezoid rule on the uniform angular grid
             (spectrally accurate for smooth periodic data).  The kernel is
             the positive one, K = -d/dnu G >= 0; the sign of the normal
             derivative of the Green function is fixed here, once.  On each
             ring the trapezoid operator is circulant, with the spectrum
             mu_q = sum_{m = q mod n} r^|m| = (r^q + r^(n-q)) / (1 - r^n)
             (Henrici, SIAM Rev. 21, 1979).  Data with more trailing
             columns than the disc has boundary nodes (a family's sampled
             f) take that spectrum: one rfft, then one irfft per ring.
             Narrower data (norming exponents, the cross-checks' columns,
             coefficients, `boundary_weights`) take the dense weights in an
             einsum, which sums every column alone, so a column's bits do
             not depend on what it is stacked with.  The two agree to a
             few 1e-15 of max |data|.
  Rectangle  tensor grid with Dirichlet data on all four sides; the interior
             solves the 5-point Laplacian, assembled from Kronecker products
             and factorized once per domain (sparse LU).

`make_disc` keeps the interior radii away from r = 1 (cap R_INTERIOR_MAX =
0.9) with an exact boundary ring at r = 1; the angular quadrature error of
the Poisson integral scales like r_max^n_theta, so the cap keeps it near
machine level at the default 256 angles.

Besides `shape` and `extend`, every domain answers what callers would
otherwise re-derive from its type: `n_boundary` (boundary nodes, in the
canonical order of `BoundaryData`), `reference_node` (a boundary node),
`spacings` (axis name -> grid spacing, in axis order), `cfl_limit` (largest
stable explicit heat step; the disc raises) and `max_principle_slack` (the
relative tolerance of the discrete maximum principle).

Every domain also owns its derivative stencils, centered differences (`_d1`,
`_d2`) on the domain axes of a (*domain.shape, *trailing) field on uniform
grids only: `gradient(v)` yields the orthonormal-frame components of the
y-gradient (disc: d_r, d_gamma / r), `hessian(v)` the distinct frame
components of the y-Hessian (disc: d_rr, d_gammagamma / r^2 + d_r / r,
d_rgamma / r - d_gamma / r^2), `laplacian(v)` the Laplacian, and
`interior(m)` the slices of nodes m cells inside the uniform block and off
every edge (the disc's block is radii[:-1], less the centre; its Laplacian
takes three-point weights on the ring next to r = 1, so `interior(0)` covers
rings 1 .. n_r - 2).  Given an array, each stencil covers the whole grid,
every axis wrapping around (garbage at the edges of a non-periodic axis).
Given a `Window(v, nodes)`, it is evaluated only at those nodes, reading one
node past them along each differenced axis and wrapping only where a nodes
axis is whole (the disc's angle): a window's first differences are built
once and shared by its gradient, Hessian and Laplacian and, through
`Window.sub`, by a window inside it.  Both give the same bits at every
window node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .polytope import _float_if_0d, _read_only

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
    "MaxPrincipleError",
]

R_INTERIOR_MAX = 0.9      # largest interior radius of `make_disc`


def _uniform_axis(values, name: str) -> np.ndarray:
    """`values` as floats; raises unless >= 3 strictly increasing, uniformly spaced nodes."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 1 or a.size < 3 or np.any(np.diff(a) <= 0):
        raise ValueError(f"{name} must be strictly increasing (>= 3 nodes)")
    h = np.diff(a)
    if not np.allclose(h, h[0], rtol=1e-12):
        raise ValueError(f"{name} must be uniformly spaced")
    return a


@dataclass(frozen=True)
class IntervalDomain:
    """Parameter interval [t0, t1] with uniformly spaced nodes."""

    nodes: np.ndarray

    n_boundary = 2
    reference_node = (0,)
    max_principle_slack = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "nodes", _uniform_axis(self.nodes, "interval nodes"))

    @property
    def shape(self):
        return (self.nodes.size,)

    @property
    def spacings(self) -> dict:
        return {"h_y": float(self.nodes[1] - self.nodes[0])}

    @property
    def cfl_limit(self) -> float:
        return float(self.spacings["h_y"] ** 2 / 2.0)

    def extend(self, values: np.ndarray) -> np.ndarray:
        t = (self.nodes - self.nodes[0]) / (self.nodes[-1] - self.nodes[0])
        t = t.reshape(t.shape + (1,) * (values.ndim - 1))
        return (1.0 - t) * values[0] + t * values[1]

    def interior(self, margin: int) -> tuple:
        return (slice(max(margin, 1), self.nodes.size - max(margin, 1)),)

    def gradient(self, v: np.ndarray | Window):
        yield _d1(v, self.spacings["h_y"], 0)

    def hessian(self, v: np.ndarray | Window):
        yield self.laplacian(v)

    def laplacian(self, v: np.ndarray | Window) -> np.ndarray:
        return _d2(v, self.spacings["h_y"], 0)


@dataclass(frozen=True)
class DiscDomain:
    """Polar grid on the closed unit disc.

    `radii` is uniformly spaced (>= 3 interior radii) up to a last entry of
    exactly 1.0 (the boundary ring, at its own spacing); `angles` is the uniform angular grid, which doubles as the
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
        _uniform_axis(radii[:-1], "interior radii radii[:-1]")
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

    @property
    def n_boundary(self) -> int:
        return self.angles.size

    @property
    def reference_node(self):
        return (self.radii.size - 1, 0)      # a boundary-ring node

    @property
    def spacings(self) -> dict:
        return {"h_r": float(self.radii[1] - self.radii[0]),
                "h_gamma": float(2 * np.pi / self.angles.size)}

    @property
    def cfl_limit(self) -> float:
        raise NotImplementedError(
            "heat flow is implemented for interval and rectangle domains, not DiscDomain")

    @property
    def max_principle_slack(self) -> float:
        # the trapezoid kernel's rows sum to 1 only up to the aliasing error
        return 2.0 * self.radii[-2] ** self.angles.size + 1e-12

    @cached_property
    def poisson_weights(self) -> np.ndarray:
        """Read-only trapezoid Poisson weights of the interior rings, built once.

        Shape (n_radii-1, n_angles, n_angles); see `_disc_weight_matrix`.
        """
        weights = _disc_weight_matrix(self)
        weights.setflags(write=False)
        return weights

    @cached_property
    def ring_spectrum(self) -> np.ndarray:
        """Read-only eigenvalues of each interior ring's circulant trapezoid
        Poisson operator on the rfft modes q, built once: shape
        (n_radii-1, n_angles/2+1), mu_q = (r^q + r^(n-q)) / (1 - r^n),
        the aliased sum of r^|m| over m = q mod n."""
        n = self.angles.size
        q = np.arange(n // 2 + 1)
        r = self.radii[:-1, None]
        return _read_only((r**q + r**(n - q)) / (1.0 - r**n))

    @cached_property
    def fourier_modes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only structure of `harmonic_extend_disc_fourier`, built once:
        the damping radii[:-1]**n (n_radii-1, modes), the contiguous real and
        imaginary parts of exp(i n angle) (n_angles, modes), and the mode
        scale (1 for n = 0 and Nyquist, else 2), for the rfft modes n."""
        n = self.angles.size
        modes = np.arange(n // 2 + 1)
        phase = np.exp(1j * np.outer(self.angles, modes))
        arrays = (self.radii[:-1, None] ** modes[None, :], np.ascontiguousarray(phase.real),
                  np.ascontiguousarray(phase.imag),
                  np.where((modes == 0) | (2 * modes == n), 1.0, 2.0))
        for a in arrays:
            a.setflags(write=False)
        return arrays

    def extend(self, values: np.ndarray) -> np.ndarray:
        n = self.angles.size
        out = np.empty(self.shape + values.shape[1:], dtype=np.result_type(float, values))
        if values.size > n * n:
            # more trailing columns than boundary nodes (a family's f): each
            # ring's circulant operator through its spectrum, one rfft and one
            # irfft per ring, n log n per column instead of n^2
            modes = np.fft.rfft(values, axis=0)
            ring = np.empty_like(modes)
            for mu, rows in zip(self.ring_spectrum, out[:-1]):
                np.multiply(modes, mu.reshape(mu.shape + (1,) * (values.ndim - 1)), out=ring)
                np.fft.irfft(ring, n=n, axis=0, out=rows)
        else:
            # the dense weights in an einsum, not BLAS or the spectrum: a stacked
            # column gets the bits it gets alone (BLAS blocks by stack size), so
            # the Poisson/Fourier cross-check, a ~1e-10 difference of two
            # extensions, keeps its recorded bits however data is stacked; the
            # tests take this path as the reference of the spectral one
            np.einsum("ilj,j...->il...", self.poisson_weights, values, out=out[:-1])
        out[-1] = values                  # the ring keeps its data
        return out

    def interior(self, margin: int) -> tuple:
        # the uniform radial block radii[:-1], less the centre; every angle
        return (slice(max(margin, 1), self.radii.size - 1 - margin), slice(None))

    def _r(self, w: Window) -> np.ndarray:
        # the window's radii as a column; NaN at the centre, where the polar
        # frame is undefined
        r = np.where(self.radii > 0, self.radii, np.nan)[w.nodes[0]]
        return r.reshape(r.shape + (1,) * (w.v.ndim - 1))

    def gradient(self, v: np.ndarray | Window):
        h_r, h_g = self.spacings.values()
        w = _window(v)
        yield _d1(w, h_r, 0)
        yield _d1(w, h_g, 1) / self._r(w)

    def hessian(self, v: np.ndarray | Window):
        h_r, h_g = self.spacings.values()
        w = _window(v)
        r = self._r(w)
        d_r = _d1(w, h_r, 0)
        yield _d2(w, h_r, 0)
        yield _d2(w, h_g, 1) / r**2 + d_r / r
        # a window takes every angle: d_r is differenced around the circle
        yield _d1(d_r, h_g, 1) / r - _d1(w, h_g, 1) / r**2

    def laplacian(self, v: np.ndarray | Window) -> np.ndarray:
        h_r, h_g = self.spacings.values()
        w = _window(v)
        r = self._r(w)
        angular = _d2(w, h_g, 1) / r**2
        lap = _d2(w, h_r, 0) + _d1(w, h_r, 0) / r + angular
        # the ring next to r = 1 has unequal neighbours: three-point weights there
        i = self.radii.size - 2
        rows = range(*w.nodes[0].indices(self.radii.size))
        if i in rows:
            j = i - rows.start
            hm, hp = self.radii[i] - self.radii[i - 1], self.radii[i + 1] - self.radii[i]
            lo, mid, hi = (w.v[(n,) + w.nodes[1:]] for n in (i - 1, i, i + 1))
            d_rr = 2.0 * (hp * lo - (hm + hp) * mid + hm * hi) / (hm * hp * (hm + hp))
            d_r = (-hp / (hm * (hm + hp)) * lo + (hp - hm) / (hm * hp) * mid
                   + hm / (hp * (hm + hp)) * hi)
            lap[j] = d_rr + d_r / r[j] + angular[j]
        return lap


@dataclass(frozen=True)
class RectangleDomain:
    """Tensor grid on [0, Lx] x [0, Ly] with uniform spacing per axis."""

    x_nodes: np.ndarray
    y_nodes: np.ndarray

    reference_node = (0, 0)
    max_principle_slack = 1e-9

    def __post_init__(self):
        for name in ("x_nodes", "y_nodes"):
            object.__setattr__(self, name, _uniform_axis(getattr(self, name), name))

    @property
    def shape(self):
        return (self.x_nodes.size, self.y_nodes.size)

    @property
    def n_boundary(self) -> int:
        return 2 * (self.x_nodes.size + self.y_nodes.size) - 4

    @property
    def spacings(self) -> dict:
        return {"h_x": float(self.x_nodes[1] - self.x_nodes[0]),
                "h_y": float(self.y_nodes[1] - self.y_nodes[0])}

    @property
    def cfl_limit(self) -> float:
        return float(min(self.spacings.values()) ** 2 / 4.0)

    def boundary_mask(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=bool)
        m[0, :] = m[-1, :] = True
        m[:, 0] = m[:, -1] = True
        return m

    @cached_property
    def _dirichlet_solver(self):
        """LU factors of the interior block of the 5-point Laplacian (rows: interior
        nodes) and its boundary columns; nodes are row-major, as in BoundaryData."""
        import scipy.sparse as sp           # on first use: no other domain needs it
        import scipy.sparse.linalg as spla

        def second_difference(n, h):       # interior rows of an n-node axis
            return sp.diags([1.0, -2.0, 1.0], [0, 1, 2], shape=(n - 2, n)) / h**2

        def interior(n):
            return sp.eye(n - 2, n, k=1)

        (nx, ny), (hx, hy) = self.shape, self.spacings.values()
        lap = (sp.kron(second_difference(nx, hx), interior(ny))
               + sp.kron(interior(nx), second_difference(ny, hy))).tocsc()
        on_boundary = self.boundary_mask().ravel()
        lu = spla.splu(lap[:, np.flatnonzero(~on_boundary)].tocsc())
        return lu, lap[:, np.flatnonzero(on_boundary)].tocsr(), on_boundary

    def extend(self, values: np.ndarray) -> np.ndarray:
        lu, coupling, on_boundary = self._dirichlet_solver
        columns = values.reshape(values.shape[0], -1)
        out = np.empty((on_boundary.size, columns.shape[1]))
        out[on_boundary] = columns
        out[~on_boundary] = lu.solve(-(coupling @ columns))
        return out.reshape(self.shape + values.shape[1:])

    def interior(self, margin: int) -> tuple:
        return tuple(slice(max(margin, 1), n - max(margin, 1)) for n in self.shape)

    def gradient(self, v: np.ndarray | Window):
        h_x, h_y = self.spacings.values()
        yield _d1(v, h_x, 0)
        yield _d1(v, h_y, 1)

    def hessian(self, v: np.ndarray | Window):
        h_x, h_y = self.spacings.values()
        w = _window(v)
        yield _d2(w, h_x, 0)
        yield _d2(w, h_y, 1)
        x, y = w.nodes[:2]
        # d_x at the window's x on every y, then d_y of it at the window's y
        d_x = _d1(Window(w.v, (x, slice(None)) + w.nodes[2:]), h_x, 0)
        yield _d1(Window(d_x, (slice(None), y)), h_y, 1)

    def laplacian(self, v: np.ndarray | Window) -> np.ndarray:
        h_x, h_y = self.spacings.values()
        return _d2(v, h_x, 0) + _d2(v, h_y, 1)


def make_interval(n: int) -> IntervalDomain:
    """n uniform nodes on [0, 1]."""
    return IntervalDomain(np.linspace(0.0, 1.0, n))


def make_disc(n_radii: int, n_angles: int = 256) -> DiscDomain:
    """n_radii uniform radii on [0, R_INTERIOR_MAX], the ring r = 1, n_angles angles."""
    radii = np.concatenate([np.linspace(0.0, R_INTERIOR_MAX, n_radii), [1.0]])
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return DiscDomain(radii=radii, angles=angles)


def make_rectangle(nx: int, ny: int) -> RectangleDomain:
    """nx x ny uniform nodes on the unit square."""
    return RectangleDomain(np.linspace(0.0, 1.0, nx), np.linspace(0.0, 1.0, ny))


@dataclass(frozen=True)
class BoundaryData:
    """Boundary values in the domain's canonical boundary order, shape (n_boundary, *trailing).

    Interval: (g(t0), g(t1)).  Disc: values at the angular quadrature nodes
    (periodic by construction).  Rectangle: row-major order over the boundary
    mask.  Trailing axes stack independent data sets.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("boundary data must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class HarmonicField:
    """Field over all domain nodes, shape (*domain.shape, *trailing), harmonic in the interior."""

    domain: object
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape[:len(self.domain.shape)] != self.domain.shape:
            raise ValueError(f"field shape {v.shape} does not match domain {self.domain.shape}")
        object.__setattr__(self, "values", v)


class MaxPrincipleError(RuntimeError):
    """A harmonic extension left its boundary range; `index` is the worst trailing column."""

    def __init__(self, message: str, index: tuple[int, ...] = ()):
        super().__init__(message)
        self.index = index


def poisson_kernel(r, theta):
    """Poisson kernel of the unit disc, (1/2pi)(1-r^2)/(1-2r cos(theta)+r^2).

    This is the positive kernel -d/dnu G; it integrates to 1 over the circle.
    Requires 0 <= r < 1.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r >= 1):
        raise ValueError("poisson_kernel requires 0 <= r < 1")
    theta = np.asarray(theta, dtype=float)
    return _float_if_0d((1.0 - r**2) / (2.0 * np.pi * (1.0 - 2.0 * r * np.cos(theta) + r**2)))


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

    `g.values` has shape (n_boundary, *trailing); all trailing columns go
    through one application of the domain's operator.  The discrete maximum
    principle is verified on every column: exactly (up to rounding) for
    interval and rectangle, and up to the angular aliasing tolerance of the
    Poisson quadrature for the disc.
    """
    v = g.values
    if v.shape[:1] != (domain.n_boundary,):
        raise ValueError(f"{type(domain).__name__} boundary data must have "
                         f"{domain.n_boundary} rows, got shape {v.shape}")
    field = HarmonicField(domain, domain.extend(v))
    _check_max_principle(field.values, v, domain.max_principle_slack)
    return field


def _check_max_principle(values: np.ndarray, boundary_values: np.ndarray,
                         rel_slack: float):
    """Raise MaxPrincipleError naming the worst trailing column out of its boundary range."""
    lo, hi = boundary_values.min(axis=0), boundary_values.max(axis=0)
    domain_axes = tuple(range(values.ndim - lo.ndim))
    vmin, vmax = values.min(axis=domain_axes), values.max(axis=domain_axes)
    slack = rel_slack * (1.0 + ((hi - lo) + np.abs(hi)))
    excess = np.maximum(lo - vmin, vmax - hi)
    worst = tuple(int(i) for i in np.unravel_index(np.argmax(excess - slack), excess.shape))
    if excess[worst] > slack[worst]:
        raise MaxPrincipleError(
            f"discrete maximum principle violated in column {worst}: field range "
            f"[{vmin[worst]:.6g}, {vmax[worst]:.6g}] vs boundary range "
            f"[{lo[worst]:.6g}, {hi[worst]:.6g}], excess {excess[worst]:.3g} "
            f"(slack {slack[worst]:.3g})", index=worst)


def harmonic_extend_disc_fourier(domain: DiscDomain, g: BoundaryData) -> HarmonicField:
    """Independent disc solver: Fourier coefficients damped by r^|n|.

    Cross-check path for the Poisson-integral route; both consume the same
    boundary samples, shape (n_angles, *trailing), and agree up to the
    kernel's angular aliasing tail.
    """
    if not isinstance(domain, DiscDomain):
        raise TypeError("fourier extension applies to DiscDomain only")
    v = g.values
    c = np.fft.rfft(v, axis=0) / domain.angles.size
    damp, cos, sin, scale = domain.fourier_modes
    scale = scale.reshape(scale.shape + (1,) * (v.ndim - 1))
    # modes last and contiguous, trailing axes first: (*trailing, 1, modes), so
    # each column sums its modes exactly as a single column does
    a = np.ascontiguousarray(np.moveaxis(scale * c.real, 0, -1))[..., None, :]
    b = np.ascontiguousarray(np.moveaxis(scale * c.imag, 0, -1))[..., None, :]
    # one radius at a time bounds the temporaries to (*trailing, n_angles, modes)
    interior = np.stack([(d * a * cos - d * b * sin).sum(axis=-1)
                         for d in damp])
    interior = np.moveaxis(interior, -1, 1)
    return HarmonicField(domain, np.concatenate([interior, v[None]], axis=0))


def laplace_residual(domain, field: HarmonicField) -> float:
    """Sup over the interior nodes (`domain.interior(0)`) of the discrete Laplacian
    magnitude.  A field on another domain, of another type, shape or spacings,
    is a ValueError naming both."""
    mine, theirs = ((type(d).__name__, d.shape, d.spacings) for d in (domain, field.domain))
    if field.domain is not domain and theirs != mine:
        raise ValueError("the field's domain ({}, shape {}, spacings {}) does not match "
                         "the domain ({}, shape {}, spacings {})".format(*theirs, *mine))
    return float(np.max(np.abs(domain.laplacian(Window(field.values, domain.interior(0))))))


def boundary_weights(domain, where) -> np.ndarray:
    """Weights w(y) with extension(g)(y) = w . g: row `where` of the domain's operator.

    `where` is a node index tuple for the domain grid.  The weights are
    nonnegative and sum to 1 (the disc up to its angular aliasing): the
    discrete positive boundary kernel (-d/dnu G) at a point, used by the
    metric-ratio diagnostics.
    """
    return domain.extend(np.eye(domain.n_boundary))[where]


# -- centered finite differences, on a window of nodes or the wrapped grid ----------

@dataclass(eq=False)
class Window:
    """A (*domain.shape, *trailing) field `v` read at the nodes `nodes`.

    `nodes` holds one slice per leading axis of v, the missing ones whole.  A
    sliced axis keeps one node of v past each end of its slice, which its
    centered differences read; along a whole axis (slice(None)) they wrap
    around, its two end nodes reading the other end.  `_d1` keeps each first
    difference, read-only, in the memo `first`, keyed by (axis, h), so the
    gradient, Hessian and Laplacian of one window build it once, and `sub`
    hands views of them on to a window inside this one.
    """

    v: np.ndarray
    nodes: tuple = ()
    first: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.nodes = tuple(self.nodes) + (slice(None),) * (self.v.ndim - len(self.nodes))

    @property
    def values(self) -> np.ndarray:
        return self.v[self.nodes]

    def sub(self, nodes) -> "Window":
        """v at `nodes`, inside this window, with the first differences this
        window has built so far (views of them, not recomputed)."""
        inner = Window(self.v, nodes)
        at = tuple(slice(s.indices(n)[0] - p.indices(n)[0], s.indices(n)[1] - p.indices(n)[0])
                   for s, p, n in zip(inner.nodes, self.nodes, self.v.shape))
        inner.first.update((key, d[at]) for key, d in self.first.items())
        return inner


def _window(v: np.ndarray | Window) -> Window:
    return v if isinstance(v, Window) else Window(v)


def _parts(w: Window, axis: int):
    """(part of the window, v's lower, centre and upper neighbours there along
    `axis`): the whole window at once for a sliced axis, and for a whole one
    its inner nodes and then its two end nodes, each wrapping around."""
    n, s = w.v.shape[axis], w.nodes[axis]
    if s == slice(None):
        spans = [(slice(1, n - 1), (0, n - 2), (1, n - 1), (2, n)),
                 (slice(0, 1), (n - 1, n), (0, 1), (1, 2)),
                 (slice(n - 1, n), (n - 2, n - 1), (n - 1, n), (0, 1))]
    else:
        a, b, _ = s.indices(n)
        spans = [(slice(None), (a - 1, b - 1), (a, b), (a + 1, b + 1))]
    for part, *reads in spans:
        yield ((slice(None),) * axis + (part,),
               *(w.v[w.nodes[:axis] + (slice(*r),) + w.nodes[axis + 1:]] for r in reads))


def _d1(v: np.ndarray | Window, h: float, axis: int) -> np.ndarray:
    """(v[i+1] - v[i-1]) / 2h along `axis`, on the whole wrapped grid of an
    array v or at the nodes of a Window v (built once per window)."""
    w = _window(v)
    if (axis, h) not in w.first:
        out = np.empty(w.values.shape)
        for part, lo, _, hi in _parts(w, axis):
            np.subtract(hi, lo, out=out[part])
        out /= 2.0 * h
        w.first[axis, h] = _read_only(out)
    return w.first[axis, h]


def _d2(v: np.ndarray | Window, h: float, axis: int) -> np.ndarray:
    """(v[i+1] - 2 v[i] + v[i-1]) / h^2 along `axis`, where `_d1` evaluates it."""
    w = _window(v)
    out = np.empty(w.values.shape)
    for part, lo, mid, hi in _parts(w, axis):
        o = out[part]
        np.multiply(mid, 2.0, out=o)
        np.subtract(hi, o, out=o)
        o += lo
    out /= h**2
    return out
