"""
Norming constants, normalized monomials, and the finite-dimensional
harmonic-map approximants built from them.

A level-k toric Hermitian structure is determined by the squared L2 norms
("norming constants") of the toric monomials z^alpha, alpha in kP cap Z^m.
With the moment-map change of variables, the defining integral over the open
orbit becomes an integral over the polytope itself:

    log Q(alpha) = log int_P exp( k u(x) + <alpha - k x, grad u(x)> ) dx,

where u is the symplectic potential.  The torus volume (2 pi)^m and the 1/V
of the level-k inner product are dropped uniformly in alpha; a uniform
rescaling of all Q shifts every derived potential by a constant that the
error norms are insensitive to.  The quadrature is tensor Gauss-Legendre
(each panel rule built once), validated by panel doubling.  The integrand is
Laplace-localized at width about 1/sqrt(k), so the panel count per axis
starts at about 2 sqrt(k) and doubles until the validation passes, capped at
8k; everything involving Q lives in the log domain and sums are accumulated
with log-sum-exp.

The normalized monomial and its peak value are

    P(alpha, rho) = exp( <alpha, rho> - k phi(rho) - log Q(alpha) ),
    P(alpha)      = P(alpha, rho*)  at  rho* = grad u(alpha / k),

which satisfy the duality log Q(alpha) + log P(alpha) = k u(alpha/k).

The Szego-type sum over all normalized monomials carries the k^m volume
factor of the level-k inner product that the raw tables drop, so that its
normalized value tends to 1; the localization tail is normalized the same
way.

Approximant construction: per alpha, the boundary values log Q at the
boundary of the parameter domain N are extended harmonically to
lambda_alpha(y), and the approximating potential on the open orbit is

    Phi_k(y, rho) = (1/k) log sum_alpha exp( <alpha, rho> - lambda_alpha(y) ),

evaluated over the domain nodes in cache-sized blocks, in place, bitwise
equal to this direct formula.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, roots_legendre

from .dirichlet import (BoundaryData, HarmonicField, MaxPrincipleError,
                        boundary_weights, harmonic_extend)
from .polytope import lattice_points, near_facets
from .potentials import KahlerPotential, SymplecticPotential, abreu_delta

__all__ = [
    "NormingTable",
    "HarmonicNorming",
    "BergmanFamily",
    "QuadratureError",
    "norming_constants",
    "normalized_monomial",
    "log_normalized_monomial",
    "peak_value",
    "bargmann_fock_peak",
    "szego_sum",
    "localization_gap",
    "harmonic_norming",
    "RatioReport",
    "ratio_report",
    "PeakAsymptotics",
    "peak_asymptotics_check",
    "delta_k",
    "save_norming_table",
    "load_norming_table",
]

GAUSS_ORDER = 12
# Doubles in one block of the log-sum-exp exponent array (512 KB): it stays
# in a core's L2 cache through the passes `_log_sum_exp` makes over it.
LSE_BLOCK = 2 ** 16


class QuadratureError(RuntimeError):
    """Panel-doubling validation of a norming integral failed."""


def delta_k(k: int) -> float:
    """Near-facet scale 1/(sqrt(k) log k)."""
    return 1.0 / (math.sqrt(k) * math.log(k))


@dataclass(frozen=True)
class NormingTable:
    """Per-level map alpha -> log Q_k(alpha), with provenance."""

    level: int
    alphas: np.ndarray        # (n, m) int
    log_q: np.ndarray         # (n,)
    provenance: str = ""
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alphas = np.atleast_2d(np.asarray(self.alphas, dtype=np.int64))
        log_q = np.asarray(self.log_q, dtype=float)
        if alphas.shape[0] != log_q.shape[0]:
            raise ValueError("alphas and log_q length mismatch")
        if not np.all(np.isfinite(log_q)):
            raise ValueError("norming table entries must be finite")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "log_q", log_q)
        object.__setattr__(self, "_index",
                           {tuple(a): i for i, a in enumerate(alphas.tolist())})

    @property
    def dim(self) -> int:
        return self.alphas.shape[1]

    @property
    def count(self) -> int:
        return self.alphas.shape[0]

    def log_q_of(self, alpha) -> float:
        key = tuple(int(a) for a in np.atleast_1d(alpha))
        try:
            return float(self.log_q[self._index[key]])
        except KeyError:
            raise KeyError(f"alpha={key} not in level-{self.level} table") from None


@functools.lru_cache(maxsize=8)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per order."""
    x0, w0 = roots_legendre(order)
    x0.setflags(write=False)
    w0.setflags(write=False)
    return x0, w0


@functools.lru_cache(maxsize=64)
def _gauss_panels(a: float, b: float, n_panels: int, order: int = GAUSS_ORDER):
    """Read-only composite Gauss rule on [a, b], built once per (a, b, n_panels, order)."""
    x0, w0 = _legendre_rule(order)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * x0[None, :]).reshape(-1)
    wts = (half[:, None] * w0[None, :]).reshape(-1)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


def _log_q_quadrature(u: SymplecticPotential, k: int, alphas: np.ndarray,
                      n_panels: int, order: int) -> np.ndarray:
    """log of int_P exp(k u + <alpha - k x, grad u>) dx on a tensor Gauss rule."""
    P = u.polytope
    lo, hi = P.bounding_box()
    m = P.dim
    axes = [_gauss_panels(lo[i], hi[i], n_panels, order) for i in range(m)]
    if m == 1:
        # a 1D Delzant polytope is an interval, so every Gauss node is interior
        x, w = axes[0]
        uval = np.asarray(u.value(x))
        grad = np.asarray(u.grad(x))
        expo = k * uval[None, :] + (alphas[:, [0]] - k * x[None, :]) * grad[None, :]
    else:
        mesh = np.meshgrid(*[ax[0] for ax in axes], indexing="ij")
        pts = np.stack([mm.reshape(-1) for mm in mesh], axis=-1)
        wgrid = np.meshgrid(*[ax[1] for ax in axes], indexing="ij")
        w = np.prod(np.stack([ww.reshape(-1) for ww in wgrid], axis=0), axis=0)
        # non-box polytopes: nodes outside P contribute nothing (log weight -inf)
        ell_ok = np.all(P.ell(pts) > 0, axis=-1)
        pts_in = pts[ell_ok]
        uval = np.full(pts.shape[0], -np.inf)
        grad = np.zeros_like(pts)
        uval[ell_ok] = np.asarray(u.value(pts_in))
        grad[ell_ok] = np.asarray(u.grad(pts_in))
        expo = (k * uval[None, :]
                + np.einsum("ai,ji->aj", alphas.astype(float), grad)
                - k * np.einsum("ji,ji->j", pts, grad)[None, :])
        expo = np.where(ell_ok[None, :], expo, -np.inf)
    peak = np.max(expo, axis=1, keepdims=True)
    return peak[:, 0] + np.log(np.sum(np.exp(expo - peak) * w[None, :], axis=1))


def norming_constants(u: SymplecticPotential, k: int, alphas=None,
                      n_panels: int | None = None, order: int = GAUSS_ORDER,
                      check_tol: float = 1e-9, provenance: str = "") -> NormingTable:
    """Norming constants of the level-k toric monomials for the metric of u.

    Integrates the moment-map pushforward of |z^alpha|^2 e^{-k phi} over the
    polytope with tensor Gauss-Legendre panels and validates every entry by
    panel doubling: n panels per axis pass when no entry moves by more than
    `check_tol` on 2n panels, and the 2n-panel values are returned.

    The integrand peaks at width about 1/sqrt(k), so by default n starts at
    max(4, ceil(2 sqrt(k))) and doubles until the validation passes, up to
    the cap max(8, 8k), which is always tried last.  An explicit `n_panels`
    is the only count tried.  Failing the last try raises QuadratureError,
    listing the offending alphas and the panel count.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    if alphas is None:
        alphas = lattice_points(u.polytope, k).points
    else:
        alphas = np.asarray(alphas, dtype=np.int64).reshape(-1, u.polytope.dim)
    if n_panels is None:
        cap = max(8, 8 * k)
        tries = [max(4, math.ceil(2.0 * math.sqrt(k)))]
        while tries[-1] < cap:
            tries.append(min(2 * tries[-1], cap))
    else:
        tries = [n_panels]
    coarse_panels, coarse = None, None
    for n in tries:
        if coarse_panels != n:
            coarse = _log_q_quadrature(u, k, alphas, n, order)
        fine = _log_q_quadrature(u, k, alphas, 2 * n, order)
        err = np.abs(fine - coarse)
        if not np.any(err > check_tol):
            return NormingTable(level=k, alphas=alphas, log_q=fine,
                                provenance=provenance or
                                f"quadrature panels={n}x2 order={order}")
        # this try's doubled rule is the next try's coarse rule
        coarse_panels, coarse = 2 * n, fine
    bad = [(tuple(a), float(e)) for a, e in zip(alphas[err > check_tol].tolist(),
                                                err[err > check_tol])]
    raise QuadratureError(
        f"panel doubling {n} -> {2 * n} panels moved {len(bad)} norming constant(s) "
        f"by more than {check_tol:g}: {bad[:8]}{'...' if len(bad) > 8 else ''}")


def log_normalized_monomial(table: NormingTable, phi: KahlerPotential, alpha, rho):
    """log P(alpha, rho) = <alpha, rho> - k phi(rho) - log Q(alpha)."""
    r = np.asarray(rho, dtype=float)
    lin = _pairing(np.atleast_2d(alpha), r)[0]
    return lin - table.level * np.asarray(phi.value(r)) - table.log_q_of(alpha)


def normalized_monomial(table: NormingTable, phi: KahlerPotential, alpha, rho):
    """P(alpha, rho); strictly positive."""
    return np.exp(log_normalized_monomial(table, phi, alpha, rho))


def peak_value(table: NormingTable, u: SymplecticPotential, alpha) -> float:
    """Peak of P(alpha, .), attained at the moment-map preimage of alpha/k.

    Computed through the duality log P(alpha) = k u(alpha/k) - log Q(alpha);
    requires alpha/k strictly interior to P.
    """
    k = table.level
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    x = a / k
    ell = u.polytope.ell(x)
    if np.any(ell <= 0):
        raise ValueError(f"alpha/k = {tuple(x)} is not strictly interior to the polytope")
    uval = float(u.value(x[0] if u.dim == 1 else x))
    return float(np.exp(k * uval - table.log_q_of(alpha)))


def bargmann_fock_peak(k: int, alpha) -> np.ndarray | float:
    """Flat-model peak value k e^{-alpha} alpha^alpha / alpha! (0^0 = 1).

    Evaluated in the log domain through log-Gamma so large alpha stay exact
    to rounding.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    a = np.asarray(alpha, dtype=float)
    if np.any(a < 0):
        raise ValueError("alpha must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(a > 0, a * np.log(np.where(a > 0, a, 1.0)), 0.0)
    logval = math.log(k) - a + term - gammaln(a + 1.0)
    out = np.exp(logval)
    return float(out) if np.ndim(out) == 0 else out


def _pairing(alphas: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """<alpha, rho> per alpha: (n_alpha, *shape(rho)), less rho's last axis if m > 1."""
    a = alphas.astype(float)
    if a.shape[1] == 1:
        return np.multiply.outer(a[:, 0], rho)
    return np.tensordot(a, np.moveaxis(rho, -1, 0), axes=(1, 0))


def _log_monomial_matrix(table: NormingTable, phi: KahlerPotential, rho):
    """log P(alpha, rho) for all alphas; shape (n_alpha, *shape(rho))."""
    r = np.asarray(rho, dtype=float)
    expo = _pairing(table.alphas, r) - table.level * np.asarray(phi.value(r))[None, ...]
    return expo - table.log_q[(slice(None),) + (None,) * (expo.ndim - 1)]


def szego_sum(table: NormingTable, phi: KahlerPotential, rho):
    """Density-normalized Szego sum sum_alpha P(alpha, rho) / k^m.

    The k^m factor restores the level-k volume normalization dropped from
    the raw tables, so the value tends to 1 (+ O(1/k)) in the interior.
    """
    logp = _log_monomial_matrix(table, phi, rho)
    peak = np.max(logp, axis=0)
    total = np.exp(peak) * np.sum(np.exp(logp - peak[None, ...]), axis=0)
    out = total / table.level ** table.dim
    return float(out) if np.ndim(out) == 0 else out


def localization_gap(table: NormingTable, phi: KahlerPotential, rho,
                     delta: float) -> float:
    """Mass of sum_alpha P(alpha, rho)/k^m outside |alpha/k - mu(rho)| <= k^(delta-1/2).

    mu(rho) is the moment-map image of rho.  Normalized like `szego_sum`, so
    the gap is directly comparable to (and bounded by) the full sum.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    k = table.level
    mu = np.atleast_1d(np.asarray(phi.grad(rho), dtype=float))
    dist = np.linalg.norm(table.alphas / k - mu[None, :], axis=1)
    outside = dist > k ** (delta - 0.5)
    if not np.any(outside):
        return 0.0
    logp = _log_monomial_matrix(table, phi, np.asarray(rho, dtype=float))[outside]
    peak = float(np.max(logp))
    return float(np.exp(peak) * np.sum(np.exp(logp - peak)) / k ** table.dim)


# -- harmonic norming constants and the approximants -------------------------------

@dataclass(frozen=True)
class HarmonicNorming:
    """Harmonic extensions lambda_alpha(y) of boundary log-norming data."""

    level: int
    alphas: np.ndarray                  # (n, m)
    domain: object
    lam: np.ndarray                     # (n, *domain.shape)

    @property
    def count(self) -> int:
        return self.alphas.shape[0]

    def field(self, i: int) -> HarmonicField:
        return HarmonicField(self.domain, self.lam[i])


def harmonic_norming(domain, boundary_tables, k: int | None = None) -> HarmonicNorming:
    """Extend per-alpha boundary values log Q harmonically over the domain.

    `boundary_tables` lists one NormingTable per boundary node in the
    domain's canonical boundary order; all tables must share the level and
    the lattice set.  All alphas go through one harmonic extension; a
    maximum-principle failure names its alpha and the level.
    """
    tables = list(boundary_tables)
    if len(tables) != domain.n_boundary:
        raise ValueError(
            f"expected {domain.n_boundary} boundary tables, got {len(tables)}")
    t0 = tables[0]
    if k is None:
        k = t0.level
    for t in tables:
        if t.level != k:
            raise ValueError("boundary tables disagree on the level k")
        if t.alphas.shape != t0.alphas.shape or np.any(t.alphas != t0.alphas):
            raise ValueError("boundary tables carry different lattice sets")
    G = np.stack([t.log_q for t in tables], axis=0)   # (n_boundary, n_alpha)
    try:
        values = harmonic_extend(domain, BoundaryData(G)).values
    except MaxPrincipleError as exc:
        alpha = tuple(t0.alphas[exc.index[0]].tolist())
        raise MaxPrincipleError(f"{exc} for alpha = {alpha} at level k = {k}",
                                index=exc.index) from exc
    lam = np.ascontiguousarray(np.moveaxis(values, -1, 0))
    return HarmonicNorming(level=k, alphas=t0.alphas, domain=domain, lam=lam)


@dataclass(frozen=True)
class BergmanFamily:
    """Evaluator for Phi_k(y, rho) = (1/k) log sum_alpha e^{<alpha,rho> - lambda_alpha(y)}.

    Convex in rho at every y (log-sum-exp of linear forms).
    """

    norming: HarmonicNorming

    @property
    def level(self) -> int:
        return self.norming.level

    def potential(self, y_index, rho):
        """Phi_k at one domain node; rho scalar or array (a float for scalar rho)."""
        lam_y = self.norming.lam[(slice(None),) + _as_index(y_index)]
        val = _log_sum_exp(self.norming.alphas, lam_y[:, None], rho, self.level)[0]
        return float(val) if np.ndim(val) == 0 else val

    def field(self, rho) -> np.ndarray:
        """Phi_k over all domain nodes; shape (*domain.shape, n_rho)."""
        lam = self.norming.lam
        val = _log_sum_exp(self.norming.alphas, lam.reshape(lam.shape[0], -1),
                           rho, self.level)
        return val.reshape(self.norming.domain.shape + val.shape[1:])


def _as_index(y_index):
    return y_index if isinstance(y_index, tuple) else (y_index,)


def _log_sum_exp(alphas: np.ndarray, lam: np.ndarray, rho, k: int) -> np.ndarray:
    """(1/k) log sum_alpha exp(<alpha, rho> - lam[alpha, node]) at every node.

    `lam` is (n_alpha, n_nodes); the result is (n_nodes, *_pairing shape less
    alpha).  The nodes go in blocks of at most LSE_BLOCK exponents (one node
    at least) through one reused buffer, every pass in place, the last ones
    in the output rows.  The passes and the order of the reduction over alpha
    are the direct formula's, so the bits are its too.
    """
    lin = _pairing(alphas, np.asarray(rho, dtype=float))
    n_alpha, n_nodes = lam.shape
    lin_rows = lin.reshape(n_alpha, 1, -1)
    step = max(1, LSE_BLOCK // lin.size)
    block = np.empty((n_alpha + 1) * lin_rows.shape[-1] * min(step, n_nodes))
    out = np.empty((n_nodes, lin_rows.shape[-1]))
    for start in range(0, n_nodes, step):
        rows = out[start:start + step]
        buf = block[:(n_alpha + 1) * rows.size].reshape((n_alpha + 1,) + rows.shape)
        expo, peak = buf[:-1], buf[-1]          # exponents, and their peak over alpha
        np.subtract(lin_rows, lam[:, start:start + step, None], out=expo)
        np.max(expo, axis=0, out=peak)
        np.subtract(expo, peak, out=expo)
        np.exp(expo, out=expo)
        np.sum(expo, axis=0, out=rows)
        np.log(rows, out=rows)
        rows += peak
        rows /= k
    return out.reshape((n_nodes,) + lin.shape[1:])


# -- metric-ratio diagnostics -------------------------------------------------------

@dataclass(frozen=True)
class RatioReport:
    """Comparison of the discrete metric ratio R_k with its volume-ratio limit."""

    level: int
    alphas: np.ndarray
    r_k: np.ndarray
    r_inf: np.ndarray

    @property
    def max_gap(self) -> float:
        return float(np.max(np.abs(self.r_k - self.r_inf)))

    @property
    def bound_constant(self) -> float:
        """Smallest C >= 1 with all R_k in [1/C, C]."""
        return float(max(self.r_k.max(), 1.0 / self.r_k.min(), 1.0))


def ratio_report(norming: HarmonicNorming, table_at_y: NormingTable,
                 u_at_y: SymplecticPotential, boundary_potentials, y_index,
                 alphas=None) -> RatioReport:
    """R_k and its limit R_inf at one interior domain node.

    In the log domain,

        log R_k(y, alpha) = log Q_y(alpha) - lambda_alpha(y),

    i.e. the deviation of the actual norming constant of the harmonic-map
    metric at y from the harmonic extension of the boundary norming data;
    this is the duality rearrangement of the kernel-integral form.  The
    limit is the metric volume ratio, computed through the boundary formula
    of the metric determinant:

        log R_inf(y, x) = (log delta_y(x) - sum_q w_q(y) log delta_q(x)) / 2,

    with delta the Abreu boundary density and w the positive boundary
    kernel weights.  (The orientation is fixed so that R_k - R_inf -> 0;
    at boundary y both are identically 1.)
    """
    k = norming.level
    if alphas is None:
        sel = [i for i, a in enumerate(norming.alphas)
               if np.all(u_at_y.polytope.ell(a.astype(float) / k) > 0)]
    else:
        wanted = {tuple(int(v) for v in np.atleast_1d(a)) for a in alphas}
        sel = [i for i, a in enumerate(norming.alphas.tolist()) if tuple(a) in wanted]
    if not sel:
        raise ValueError("no strictly interior lattice points selected")
    idx = np.array(sel)
    al = norming.alphas[idx]
    lam_y = norming.lam[(idx,) + _as_index(y_index)]
    log_q_y = np.array([table_at_y.log_q_of(a) for a in al])
    log_r_k = log_q_y - lam_y

    x = al.astype(float) / k
    w = boundary_weights(norming.domain, y_index)
    pts = x[:, 0] if u_at_y.dim == 1 else x
    log_delta_y = np.log(np.asarray(abreu_delta(u_at_y, pts)))
    log_delta_bd = np.stack(
        [np.log(np.asarray(abreu_delta(uq, pts))) for uq in boundary_potentials], axis=0)
    log_r_inf = 0.5 * (log_delta_y - w @ log_delta_bd)
    return RatioReport(level=k, alphas=al,
                       r_k=np.exp(log_r_k), r_inf=np.exp(log_r_inf))


@dataclass(frozen=True)
class PeakAsymptotics:
    """Fit of the interior peak-value law P(alpha) ~ C k^{m/2} sqrt(det hess u)."""

    level: int
    alphas: np.ndarray
    constants: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.mean(self.constants))

    @property
    def dispersion(self) -> float:
        """Relative spread (population std / mean) of the fitted constants."""
        return float(np.std(self.constants) / np.mean(self.constants))


def peak_asymptotics_check(table: NormingTable, u: SymplecticPotential,
                           alphas=None) -> PeakAsymptotics:
    """Fit the undetermined constant of the interior peak-value law.

    Only lattice points with no facet closer than delta_k = 1/(sqrt(k) log k)
    are admitted (the flat-model crossover region is excluded); for those,
    C_alpha = P(alpha) k^{-m/2} / sqrt(det hess u(alpha/k)) should be flat in
    alpha up to the expansion remainder.
    """
    k = table.level
    if alphas is None:
        alphas = table.alphas
    alphas = np.asarray(alphas, dtype=np.int64).reshape(-1, table.dim)
    dk = delta_k(k)
    consts = []
    kept = []
    for a in alphas:
        x = a.astype(float) / k
        _, n_near = near_facets(u.polytope, x, dk)
        if n_near > 0:
            raise ValueError(
                f"alpha={tuple(a)} is within delta_k={dk:.4g} of a facet; "
                "the interior peak law does not apply")
        pts = x[0] if u.dim == 1 else x
        H = np.asarray(u.hess(pts))
        det = float(H) if u.dim == 1 else float(np.linalg.det(H))
        c = peak_value(table, u, a) * k ** (-u.dim / 2.0) / math.sqrt(det)
        consts.append(c)
        kept.append(a)
    return PeakAsymptotics(level=k, alphas=np.array(kept),
                           constants=np.array(consts))


# -- CSV caching ---------------------------------------------------------------------

def save_norming_table(table: NormingTable, path):
    """CSV columns: k, alpha (comma-joined coordinates), log Q."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "alpha", "log_q"])
        for a, lq in zip(table.alphas, table.log_q):
            writer.writerow([table.level, ",".join(str(int(v)) for v in a), repr(float(lq))])


def load_norming_table(path) -> NormingTable:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["k", "alpha", "log_q"]:
            raise ValueError(f"unrecognized norming-table header: {header}")
        levels, alphas, log_q = set(), [], []
        for row in reader:
            levels.add(int(row[0]))
            alphas.append([int(v) for v in row[1].split(",")])
            log_q.append(float(row[2]))
    if len(levels) != 1:
        raise ValueError(f"norming-table file mixes levels: {sorted(levels)}")
    return NormingTable(level=levels.pop(), alphas=np.array(alphas, dtype=np.int64),
                        log_q=np.array(log_q), provenance=f"loaded from {path}")
