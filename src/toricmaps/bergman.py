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
error norms are insensitive to.  The quadrature is tensor Gauss-Legendre on
the bounding box, keeping the nodes inside P (each masked rule built once
per polytope and panel count), validated by panel doubling.  The
integrand is Laplace-localized at width about 1/sqrt(k), so the panel count
per axis starts at about 2 sqrt(k) and doubles until the validation passes,
capped at 8k; everything involving Q lives in the log domain and sums are
accumulated with log-sum-exp.

The normalized monomial and its peak value are

    P(alpha, rho) = exp( <alpha, rho> - k phi(rho) - log Q(alpha) ),
    P(alpha)      = P(alpha, rho*)  at  rho* = grad u(alpha / k),

which satisfy the duality log Q(alpha) + log P(alpha) = k u(alpha/k).

The Szego-type sum over all normalized monomials is the Bergman density of
the table's own potential Phi = (1/k) log sum_alpha e^{<alpha,rho>}/Q(alpha),
the approximant below at a node whose lambda is the table:

    sum_alpha P(alpha, rho) / k^m = e^{k (Phi - phi)(rho)} / k^m,

the k^m restoring the volume factor of the level-k inner product that the
raw tables drop, so that it tends to 1.  The localization tail is the same
density of the alphas outside a window, and every sum over kP cap Z^m is
`_log_sum_exp`.

Approximant construction: per alpha, the boundary values log Q at the
boundary of the parameter domain N are extended harmonically to
lambda_alpha(y), and the approximating potential on the open orbit is

    Phi_k(y, rho) = (1/k) log sum_alpha exp( <alpha, rho> - lambda_alpha(y) ),

evaluated as harmonic-norming weights in y times monomials in rho, summed
over alpha by one plain einsum (never BLAS), with a spread guard that keeps
both factors in the float range (`_log_sum_exp`).  A value's bits depend
only on its own node and rho.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .dirichlet import (BoundaryData, HarmonicField, MaxPrincipleError,
                        boundary_weights, harmonic_extend)
from .polytope import _as_points, _check_level, _float_if_0d, _read_only, lattice_points
from .potentials import (KahlerPotential, SymplecticPotential, _closed_at, _positive_det,
                         abreu_delta, guillemin_gradient, guillemin_potential)

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
# the largest change of a log Q under panel doubling that validates a table
CHECK_TOL = 1e-9
# alpha from which bargmann_fock_peak takes the Stirling series (its next term,
# 1/(1188 a^9), is below 1e-18 there)
STIRLING_FROM = 50.0


class QuadratureError(RuntimeError):
    """Panel-doubling validation of a norming integral failed."""


def delta_k(k: int) -> float:
    """Near-facet scale 1/(sqrt(k) log k); infinite at k = 1."""
    return 1.0 / (math.sqrt(k) * math.log(k)) if k > 1 else math.inf


@dataclass(frozen=True)
class NormingTable:
    """Per-level map alpha -> log Q_k(alpha), with provenance."""

    level: int
    alphas: np.ndarray        # (n, m) int
    log_q: np.ndarray         # (n,)
    provenance: str = ""

    def __post_init__(self):
        alphas = np.atleast_2d(np.asarray(self.alphas, dtype=np.int64))
        log_q = np.asarray(self.log_q, dtype=float)
        if alphas.shape[0] != log_q.shape[0]:
            raise ValueError("alphas and log_q length mismatch")
        if not np.all(np.isfinite(log_q)):
            raise ValueError("norming table entries must be finite")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "log_q", log_q)

    @functools.cached_property
    def _index(self) -> dict:
        """alpha -> row, built at the first `log_q_of` (only diagnostics look up)."""
        return {tuple(a): i for i, a in enumerate(self.alphas.tolist())}

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


def _quad_rule(P, n_panels: int) -> tuple:
    """The tensor Gauss rule of P's bounding box, `n_panels` panels of
    GAUSS_ORDER nodes per axis, less its nodes outside P (every node of an
    interval is inside): the nodes, the weights, and u0 and grad u0 at the
    nodes, read-only, built once per polytope and panel count and kept on P."""
    rule = P._quad_rules.get(n_panels)
    if rule is None:
        x0, w0 = np.polynomial.legendre.leggauss(GAUSS_ORDER)
        lo, hi = P.bounding_box()
        edges = np.linspace(lo, hi, n_panels + 1)           # (n_panels + 1, m)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        # each axis's composite rule, panel by panel: (n_panels * order, m)
        axis_pts = (mid[:, None] + half[:, None] * x0[:, None]).reshape(-1, P.dim)
        axis_w = (half[:, None] * w0[:, None]).reshape(-1, P.dim)
        pts = np.stack(np.meshgrid(*axis_pts.T, indexing="ij"), axis=-1)
        w = np.stack(np.meshgrid(*axis_w.T, indexing="ij"), axis=-1)
        pts, w = pts.reshape(-1, P.dim), np.prod(w.reshape(-1, P.dim), axis=-1)
        inside = np.all(P.ell(pts) > 0, axis=-1)
        pts = pts[inside]
        rule = P._quad_rules[n_panels] = tuple(map(_read_only, (
            pts, w[inside], guillemin_potential(P, pts), guillemin_gradient(P, pts))))
    return rule


def _log_q_quadrature(u: SymplecticPotential, k: int, alphas: np.ndarray,
                      n_panels: int) -> np.ndarray:
    """log of int_P exp(k u + <alpha - k x, grad u>) dx on `_quad_rule(P,
    n_panels)`, whose u0 and grad u0 leave only u's smooth part to evaluate.
    The pairing is accumulated one axis at a time into one (n_alpha, n_nodes)
    buffer (a second holds an axis's term when m >= 2), and the log-sum-exp
    runs in place on it: the operations and their order are those of the
    allocating formula, so the table is bitwise the same.  Never `@ w` or a
    regrouped exponent: either changes the table's bits."""
    pts, w, u0, grad_u0 = _quad_rule(u.polytope, n_panels)
    # u.value and u.grad at pts, term for term
    grad = grad_u0 + _closed_at(u.f_grad, pts, 1)
    expo = k * (u0 + _closed_at(u.f_value, pts))
    # the first axis's term is built in the exponents' buffer, the others in a
    # second one
    buf = term = np.empty((alphas.shape[0], pts.shape[0]))
    for i in range(u.dim):
        if i == 1:
            term = np.empty_like(buf)
        np.subtract(alphas[:, [i]], k * pts[:, i], out=term)
        term *= grad[:, i]
        expo = np.add(expo, term, out=buf)
    del term
    peak = np.max(expo, axis=1, keepdims=True)
    expo -= peak
    np.exp(expo, out=expo)
    expo *= w
    return peak[:, 0] + np.log(np.sum(expo, axis=1))


def norming_constants(u: SymplecticPotential, k: int, alphas=None) -> NormingTable:
    """Norming constants of the level-k toric monomials for the metric of u.

    Integrates the moment-map pushforward of |z^alpha|^2 e^{-k phi} over the
    polytope with tensor Gauss-Legendre panels and validates every entry by
    panel doubling: n panels per axis pass when no entry moves by more than
    CHECK_TOL on 2n panels, and the 2n-panel values are returned.

    The integrand peaks at width about 1/sqrt(k), so n starts at
    max(4, ceil(2 sqrt(k))) and doubles until the validation passes, up to
    the cap max(8, 8k), which is always tried last.  Failing the last try
    raises QuadratureError, listing the offending alphas and the panel
    count.  k is checked as `lattice_points` checks it, and given `alphas`
    must be lattice points of kP (a ValueError naming alpha and k), both
    before any quadrature.
    """
    _check_level(k)
    lattice = lattice_points(u.polytope, k)
    if alphas is None:
        alphas = lattice
    else:
        alphas = np.asarray(alphas, dtype=np.int64).reshape(-1, u.dim)
        outside = ~np.any(np.all(alphas[:, None] == lattice[None], axis=-1), axis=1)
        if np.any(outside):
            raise ValueError(f"alpha = {tuple(alphas[outside][0].tolist())} is not a "
                             f"lattice point of kP at level k = {k}")
    cap = max(8, 8 * k)
    tries = [max(4, math.ceil(2.0 * math.sqrt(k)))]
    while tries[-1] < cap:
        tries.append(min(2 * tries[-1], cap))
    coarse_panels, coarse = None, None
    for n in tries:
        if coarse_panels != n:
            coarse = _log_q_quadrature(u, k, alphas, n)
        fine = _log_q_quadrature(u, k, alphas, 2 * n)
        err = np.abs(fine - coarse)
        if not np.any(err > CHECK_TOL):
            return NormingTable(level=k, alphas=alphas, log_q=fine,
                                provenance=f"quadrature panels={n}x2 order={GAUSS_ORDER}")
        # this try's doubled rule is the next try's coarse rule
        coarse_panels, coarse = 2 * n, fine
    bad = [(tuple(a), float(e)) for a, e in zip(alphas[err > CHECK_TOL].tolist(),
                                                err[err > CHECK_TOL])]
    raise QuadratureError(
        f"panel doubling {n} -> {2 * n} panels moved {len(bad)} norming constant(s) "
        f"by more than {CHECK_TOL:g}: {bad[:8]}{'...' if len(bad) > 8 else ''}")


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
    x = np.atleast_1d(np.asarray(alpha, dtype=float)) / k
    if np.any(u.polytope.ell(x) <= 0):
        raise ValueError(f"alpha/k = {tuple(x)} is not strictly interior to the polytope")
    return float(np.exp(k * float(u.value(x)) - table.log_q_of(alpha)))


def bargmann_fock_peak(k: int, alpha) -> np.ndarray | float:
    """Flat-model peak value k e^{-alpha} alpha^alpha / alpha! (0^0 = 1).

    Below STIRLING_FROM it is evaluated in the log domain through log-Gamma.
    From there on alpha log alpha - alpha - log Gamma(alpha + 1) would cancel
    to about one ulp of log Gamma, so the value is k e^{-s(alpha)} /
    sqrt(2 pi alpha) with the Stirling series s = 1/(12 a) - 1/(360 a^3) +
    1/(1260 a^5) - 1/(1680 a^7), exact to a few ulp.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    a = np.asarray(alpha, dtype=float)
    if np.any(a < 0):
        raise ValueError("alpha must be nonnegative")
    small = np.minimum(a, STIRLING_FROM)
    term = small * np.log(np.where(small > 0, small, 1.0))
    logval = math.log(k) - small + term - np.vectorize(math.lgamma, otypes=[float])(small + 1.0)
    big = np.maximum(a, STIRLING_FROM)
    inv = 1.0 / big
    series = inv * (1 / 12 - inv**2 * (1 / 360 - inv**2 * (1 / 1260 - inv**2 / 1680)))
    return _float_if_0d(np.where(a < STIRLING_FROM, np.exp(logval),
                                 k * np.exp(-series) / np.sqrt(2 * math.pi * big)))


def _pairing(alphas: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """<alpha, rho> per alpha: (n_alpha, *shape(rho)), less rho's last axis if m > 1."""
    a = alphas.astype(float)
    if a.shape[1] == 1:
        return np.multiply.outer(a[:, 0], rho)
    return np.tensordot(a, np.moveaxis(rho, -1, 0), axes=(1, 0))


def _density(table: NormingTable, phi: KahlerPotential, rho, rows=slice(None)):
    """sum_{alpha in rows} P(alpha, rho) / k^m = e^{k (Phi_A - phi)(rho)} / k^m,
    Phi_A the one-node `_log_sum_exp` of the table's log Q over those alphas."""
    r = np.asarray(rho, dtype=float)
    k, log_q = table.level, table.log_q[rows]
    phi_a = _log_sum_exp(table.alphas[rows], _node_weights(log_q[:, None]), r, k)[0]
    return np.exp(k * (phi_a - np.asarray(phi.value(r)))) / k ** table.dim


def szego_sum(table: NormingTable, phi: KahlerPotential, rho):
    """Density-normalized Szego sum sum_alpha P(alpha, rho) / k^m.

    The k^m factor restores the level-k volume normalization dropped from
    the raw tables, so the value tends to 1 (+ O(1/k)) in the interior.
    """
    return _float_if_0d(_density(table, phi, rho))


def localization_gap(table: NormingTable, phi: KahlerPotential, rho,
                     delta: float) -> float:
    """Mass of sum_alpha P(alpha, rho)/k^m outside |alpha/k - mu(rho)| <= k^(delta-1/2).

    mu(rho) is the moment-map image of rho, one point: a scalar for m = 1, an
    (m,) vector otherwise (a ValueError naming rho's shape).  Normalized like
    `szego_sum`, so the gap is directly comparable to (and bounded by) the
    full sum.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    if _as_points(table.dim, rho)[0].shape != (table.dim,):
        raise ValueError(f"rho must be one point of R^{table.dim}, got shape {np.shape(rho)}")
    k = table.level
    mu = np.atleast_1d(np.asarray(phi.grad(rho), dtype=float))
    dist = np.linalg.norm(table.alphas / k - mu[None, :], axis=1)
    outside = dist > k ** (delta - 0.5)
    if not np.any(outside):
        return 0.0
    return _density(table, phi, rho, outside).item()


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


def harmonic_norming(domain, boundary_tables) -> HarmonicNorming:
    """Extend per-alpha boundary values log Q harmonically over the domain.

    `boundary_tables` lists one NormingTable per boundary node in the
    domain's canonical boundary order; all tables must share the level (the
    result's level) and the lattice set.  All alphas go through one harmonic
    extension; a maximum-principle failure names its alpha and the level.
    """
    tables = list(boundary_tables)
    if len(tables) != domain.n_boundary:
        raise ValueError(
            f"expected {domain.n_boundary} boundary tables, got {len(tables)}")
    t0 = tables[0]
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

    Convex in rho at every y (log-sum-exp of linear forms).  The sum is
    weights in y times monomials in rho (see `_log_sum_exp`): the weights
    are built once per family, the monomials on each call.  A subset of rho
    columns and a scalar rho are both bitwise the full field's values.
    """

    norming: HarmonicNorming

    @property
    def level(self) -> int:
        return self.norming.level

    @functools.cached_property
    def _weights(self) -> list:
        """`_node_weights` of every node, built at the first `field`."""
        lam = self.norming.lam
        return _node_weights(lam.reshape(lam.shape[0], -1))

    def field(self, rho) -> np.ndarray:
        """Phi_k over all domain nodes; shape (*domain.shape, n_rho)."""
        val = _log_sum_exp(self.norming.alphas, self._weights, rho, self.level)
        return val.reshape(self.norming.domain.shape + val.shape[1:])


def _as_index(y_index):
    return y_index if isinstance(y_index, tuple) else (y_index,)


def _node_weights(lam: np.ndarray) -> list:
    """The node weights of `_log_sum_exp` for `lam` (n_alpha, n_nodes), its
    column 0 the reference row l0: a list of (rows, reference column, W, b)
    parts, read-only, covering every node once.

    W[y, alpha] = exp(l0_alpha - lam_alpha(y) - b(y)), b its max over alpha,
    so every weight is <= 1.  The sum over alpha is at least exp(-spread(y)),
    spread being the range of l0 - lam(y) over alpha; the nodes whose spread
    stays within half the float exponent range share one part, and every
    other node is a part of its own, with its own column as reference, so a
    term that underflows is below sqrt(tiny) of its sum.
    """
    gap = lam[:, :1] - lam
    near = np.ptp(gap, axis=0) <= -0.5 * math.log(np.finfo(float).tiny)
    parts = []
    for ref, rows in [(0, np.flatnonzero(near)), *((i, np.array([i]))
                                                   for i in np.flatnonzero(~near))]:
        w = np.subtract(lam[:, ref], lam[:, rows].T, order="C")
        b = np.max(w, axis=1, keepdims=True)
        np.exp(np.subtract(w, b, out=w), out=w)
        parts.append(tuple(map(_read_only, (rows, lam[:, ref], w, b))))
    return parts


def _log_sum_exp(alphas: np.ndarray, weights: list, rho, k: int) -> np.ndarray:
    """(1/k) log sum_alpha exp(<alpha, rho> - lam[alpha, node]) at every node
    of the `_node_weights` parts `weights` of lam.

    The result is (n_nodes, *_pairing shape less alpha).  The sum factors
    into node weights times monomials,

        W[y, alpha] = exp(l0_alpha - lam_alpha(y) - b(y)),
        A[r, alpha] = exp(<alpha, rho_r> - l0_alpha - a(r)),

    with b and a their maxima over alpha and l0 the part's reference column,
    so every factor is <= 1 and Phi = (log sum_alpha W A + a + b) / k:
    n_alpha (nodes + n_rho) exponentials in place of n_alpha nodes n_rho, the
    nodes' ones paid once per set of weights.  A node of its own part costs
    what the direct formula does.  The product is a plain einsum written into
    the output, never BLAS (`@`, tensordot, einsum(optimize=True)): BLAS
    blocks by shape and thread count, and a value's bits would then depend
    on what shares the call; here they depend on its own node and rho only.
    """
    lin = _pairing(alphas, np.asarray(rho, dtype=float))
    lin_t = lin.reshape(alphas.shape[0], -1).T
    n_nodes = sum(rows.size for rows, *_ in weights)
    out = np.empty((n_nodes, lin_t.shape[0]))
    for rows, l_ref, w, b in weights:
        part = out if rows.size == n_nodes else np.empty((rows.size, lin_t.shape[0]))
        mono = np.subtract(lin_t, l_ref, order="C")
        a = np.max(mono, axis=1)
        np.exp(np.subtract(mono, a[:, None], out=mono), out=mono)
        np.einsum("ya,ra->yr", w, mono, out=part)
        np.log(part, out=part)
        part += a
        part += b
        if part is not out:
            out[rows] = part
    out /= k
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
                 u_at_y: SymplecticPotential, boundary_potentials,
                 y_index) -> RatioReport:
    """R_k and its limit R_inf at one interior domain node, over every
    strictly interior lattice point of the level.

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
    x = norming.alphas / k
    idx = np.flatnonzero(np.all(u_at_y.polytope.ell(x) > 0, axis=-1))
    if not idx.size:
        raise ValueError("no strictly interior lattice points selected")
    al, x = norming.alphas[idx], x[idx]
    lam_y = norming.lam[(idx,) + _as_index(y_index)]
    log_q_y = np.array([table_at_y.log_q_of(a) for a in al])
    log_r_k = log_q_y - lam_y

    w = boundary_weights(norming.domain, y_index)
    log_delta_y = np.log(abreu_delta(u_at_y, x))
    log_delta_bd = np.stack(
        [np.log(abreu_delta(uq, x)) for uq in boundary_potentials], axis=0)
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


def peak_asymptotics_check(table: NormingTable, u: SymplecticPotential) -> PeakAsymptotics:
    """Fit the undetermined constant of the interior peak-value law at every
    lattice point of the table.

    Only lattice points with no facet closer than delta_k = 1/(sqrt(k) log k)
    are admitted (the flat-model crossover region is excluded; delta_1 is
    infinite): a ValueError names the first alpha that is not.  For those,
    C_alpha = P(alpha) k^{-m/2} / sqrt(det hess u(alpha/k)) should be flat in
    alpha up to the expansion remainder.
    """
    k = table.level
    dk = delta_k(k)
    x = table.alphas / k
    near = np.any(u.polytope.ell(x) < dk, axis=-1)
    if np.any(near):
        raise ValueError(
            f"alpha={tuple(table.alphas[near][0].tolist())} is within delta_k={dk:.4g} "
            "of a facet; the interior peak law does not apply")
    det = _positive_det(u.hess(x), "Hessian of u is not positive definite at x", x)
    peak = np.exp(k * np.asarray(u.value(x)) - table.log_q)
    return PeakAsymptotics(level=k, alphas=table.alphas,
                           constants=peak * k ** (-u.dim / 2.0) / np.sqrt(det))


# -- CSV caching ---------------------------------------------------------------------

def save_norming_table(table: NormingTable, path):
    """CSV columns: k, alpha (comma-joined coordinates), log Q."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "alpha", "log_q"])
        for a, lq in zip(table.alphas, table.log_q):
            writer.writerow([table.level, ",".join(str(int(v)) for v in a), repr(float(lq))])


def load_norming_table(path) -> NormingTable:
    """Inverse of `save_norming_table`.  Blank rows are skipped; any other row
    that cannot be read is a ValueError naming the file and the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != ["k", "alpha", "log_q"]:
            raise ValueError(f"unrecognized norming-table header: {header}")
        levels, alphas, log_q = set(), [], []
        for row in reader:
            if not "".join(row).strip():
                continue
            try:
                k, alpha, lq = row[:3]
                levels.add(int(k))
                alphas.append([int(v) for v in alpha.split(",")])
                log_q.append(float(lq))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: cannot read "
                                 f"{row}: {exc}") from exc
    if not levels:
        raise ValueError(f"norming-table file {path} has no rows")
    if len(levels) != 1:
        raise ValueError(f"norming-table file mixes levels: {sorted(levels)}")
    return NormingTable(level=levels.pop(), alphas=np.array(alphas, dtype=np.int64),
                        log_q=np.array(log_q), provenance=f"loaded from {path}")
