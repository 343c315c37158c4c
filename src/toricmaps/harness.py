"""
End-to-end pipelines: solve the harmonic-map Dirichlet problem through the
Legendre transform, build the finite-dimensional approximants, and measure
convergence.

The solver pipeline is: sample the boundary family of symplectic potentials
on a polytope grid, extend the smooth parts harmonically over the parameter
domain N (the domain's boundary -> node operator applied once to all fiber
nodes), then invert the Legendre transform of every slice, all slices in one
Newton solve, to get the potential family Phi(y, rho).
Positivity of the extension kernel makes every interior slice convex; this
is asserted, never assumed.

The approximants are built per level k: boundary norming tables -> harmonic
norming constants -> log-sum-exp potential Phi_k(y, rho).

Error norms compare Phi_k with Phi on an interior window (the moment-map
preimage of {ell_r >= window} under the reference boundary metric).  The C0
norm is mean-adjusted: the spatial mean of Phi_k - Phi over the window at a
fixed reference boundary node is subtracted first, which removes the
y-independent constant coming from the dropped volume normalizations of the
norming integrals.  Derivative norms need no adjustment.

`run_experiment` runs the whole chain, family -> Kahler field ->
approximants -> error report, for one `ExperimentConfig`.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .bergman import BergmanFamily, QuadratureError, harmonic_norming, norming_constants
from .dirichlet import (BoundaryData, MaxPrincipleError, _d1, _d2,
                        harmonic_extend, make_disc, make_interval)
from .polytope import DelzantPolytope, preset_polytope, polytope_from_json
from .potentials import (ConvexityError, NewtonError, PolytopeGrid,
                         SymplecticPotential, _canonical_inverse_guess,
                         _convex_slices, _invert_monotone_1d,
                         _product_ell_closed, _x_bracket, default_margin,
                         guillemin_gradient, guillemin_hessian,
                         guillemin_potential, make_polytope_grid,
                         preset_symplectic)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "HarmonicPotentialFamily",
    "KahlerFamilyField",
    "ErrorReport",
    "RateFit",
    "run_experiment",
    "solve_harmonic_map",
    "kahler_field",
    "build_approximants",
    "error_report",
    "rate_fit",
    "geodesic_family",
    "loop_family",
    "window_rho_bounds",
    "write_error_csv",
    "write_error_dat",
]

ERROR_COLUMNS = ("C0", "C1_y", "C1_rho", "C2_rhorho", "C2_yrho", "C2_yy")


# -- configuration ------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one experiment (see `run_experiment`); defaults reproduce the
    geodesic suite."""

    polytope: object = "interval"
    domain: str = "interval"      # "interval" (geodesic family) or "disc" (loop family)
    boundary_family: str = "geodesic(0.1)"
    levels: tuple[int, ...] = (8, 16, 32, 64)
    n_y: int = 17                 # interval nodes
    n_radii: int = 9              # disc interior radii (plus the boundary ring)
    n_angles: int = 256           # disc angular nodes = boundary quadrature
    n_x: int = 801                # polytope-grid nodes per axis
    n_rho: int = 801              # rho-grid nodes
    rho_span: float = 4.0         # rho-grid on [-span, span]
    window: float = 0.1           # interior window {ell_r >= window}

    def __post_init__(self):
        ks = tuple(int(k) for k in self.levels)
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("levels must be strictly increasing")
        object.__setattr__(self, "levels", ks)
        # the polytope grid must resolve the boundary margin 1/(4 k_max)
        if self.n_x < 2 * max(ks):
            raise ValueError(
                f"n_x = {self.n_x} too coarse for k_max = {max(ks)} "
                "(need at least 2 nodes per 1/k cell)")

    @classmethod
    def from_json(cls, doc) -> "ExperimentConfig":
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        doc = dict(doc)
        # accept the compact domain-spec form {"domain": ..., "resolution": [...]}
        if "resolution" in doc:
            res = doc.pop("resolution")
            domain = doc.get("domain", "interval")
            keys = _RESOLUTION_KEYS.get(domain)
            if keys is None:
                raise ValueError(f"resolution: no experiment family runs on domain "
                                 f"{domain!r} (expected one of {sorted(_RESOLUTION_KEYS)})")
            if len(res) != len(keys):
                raise ValueError(f"resolution {res} for domain {domain!r} needs "
                                 f"{len(keys)} value(s): {', '.join(keys)}")
            doc.update(zip(keys, res))
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "levels" in doc:
            doc = dict(doc, levels=tuple(doc["levels"]))
        return cls(**doc)

    def build_polytope(self) -> DelzantPolytope:
        if isinstance(self.polytope, str):
            return preset_polytope(self.polytope)
        return polytope_from_json(json.dumps(self.polytope))

    def family_spec(self) -> tuple[str, float]:
        """("geodesic" or "loop", its amplitude a) from `boundary_family`.

        Raises a ValueError naming the field when no experiment family can
        honour the config: both families live on the interval polytope, the
        geodesic one on the interval domain and the loop one on the disc.
        """
        wanted = _FAMILY_OF_DOMAIN.get(self.domain)
        if wanted is None:
            raise ValueError(f"domain: no experiment family runs on {self.domain!r} "
                             f"(expected one of {sorted(_FAMILY_OF_DOMAIN)})")
        m = re.fullmatch(r"(\w+)\(([-+0-9.eE]+)\)", self.boundary_family)
        if m is None or m.group(1) != wanted:
            raise ValueError(f"boundary_family {self.boundary_family!r} does not run "
                             f"on domain {self.domain!r} (expected '{wanted}(a)')")
        if self.build_polytope() != preset_polytope("interval"):
            raise ValueError(f"polytope {self.polytope!r}: the experiment families "
                             "run on the interval [0, 1] only")
        return wanted, float(m.group(2))


_RESOLUTION_KEYS = {"interval": ("n_y",), "disc": ("n_radii", "n_angles")}
_FAMILY_OF_DOMAIN = {"interval": "geodesic", "disc": "loop"}


# -- the harmonic-map solver ----------------------------------------------------

@dataclass(frozen=True)
class HarmonicPotentialFamily:
    """u(y, .) = u0 + f(y, .), with f the harmonic extension of boundary data."""

    domain: object
    xgrid: PolytopeGrid
    boundary_potentials: tuple[SymplecticPotential, ...]
    f: np.ndarray                                    # (*domain.shape, nx)
    closed_family: object = None                     # optional y_index -> ClosedForm

    def potential_at(self, y_index) -> SymplecticPotential:
        idx = y_index if isinstance(y_index, tuple) else (y_index,)
        closed = self.closed_family(idx) if self.closed_family is not None else None
        return SymplecticPotential(self.xgrid.polytope, self.xgrid,
                                   f_values=self.f[idx], f_closed=closed,
                                   check=False)

    def node_indices(self):
        return list(np.ndindex(self.domain.shape))


def solve_harmonic_map(domain, xgrid: PolytopeGrid, boundary_potentials,
                       closed_family=None) -> HarmonicPotentialFamily:
    """Extend the boundary family of symplectic potentials harmonically over N.

    `boundary_potentials` lists one SymplecticPotential per boundary node of
    the domain (canonical order), all sampled on `xgrid`.  The smooth parts
    of all fiber nodes are extended in one call; a maximum-principle failure
    names its fiber node, and a ConvexityError names the domain nodes whose
    slice lost convexity.
    """
    bps = tuple(boundary_potentials)
    if len(bps) != domain.n_boundary:
        raise ValueError(
            f"expected {domain.n_boundary} boundary potentials, got {len(bps)}")
    for bp in bps:
        if bp.grid.shape != xgrid.shape or not all(
                np.array_equal(a, b) for a, b in zip(bp.grid.axes, xgrid.axes)):
            raise ValueError("boundary potentials must be sampled on the common grid")
    F = np.stack([bp.f_values for bp in bps], axis=0)     # (n_boundary, *xgrid.shape)
    try:
        f = harmonic_extend(domain, BoundaryData(F)).values
    except MaxPrincipleError as exc:
        x = ", ".join(f"{axis[i]:.6g}" for axis, i in zip(xgrid.axes, exc.index))
        raise MaxPrincipleError(f"{exc} at fiber node {exc.index}, x = {x}",
                                index=exc.index) from exc
    family = HarmonicPotentialFamily(domain=domain, xgrid=xgrid,
                                     boundary_potentials=bps, f=f,
                                     closed_family=closed_family)
    _assert_family_convexity(family)
    return family


def _assert_family_convexity(family: HarmonicPotentialFamily):
    bad = ~_convex_slices(family.xgrid, family.f)
    if np.any(bad):
        raise ConvexityError(
            f"harmonic extension lost convexity at domain nodes {np.argwhere(bad)[:5].tolist()}")


@dataclass(frozen=True)
class KahlerFamilyField:
    """Phi(y, rho) and the moment solutions x(y, rho) on a common grid."""

    domain: object
    rho_axis: np.ndarray
    values: np.ndarray        # (*domain.shape, n_rho)
    moment: np.ndarray        # (*domain.shape, n_rho)


def kahler_field(family: HarmonicPotentialFamily, rho_axis: np.ndarray) -> KahlerFamilyField:
    """Invert the Legendre transform over the whole family in one Newton solve.

    The targets form a (nodes x rho) array.  The analytic u0 part of grad u
    and hess u is evaluated once per iteration over all of it, the smooth
    part row by row with each node's own evaluator (built once).  The Newton
    iteration works element by element, so every slice gets exactly the
    iterates a separate solve would give it.
    """
    rho_axis = np.asarray(rho_axis, dtype=float)
    shape = family.domain.shape
    P = family.xgrid.polytope
    nodes = family.node_indices()
    pots = [family.potential_at(idx) for idx in nodes]
    # one x-bracket serves every slice: widen the target range by a uniform
    # bound on |f'| so the u0 log-divergence dominates at both ends
    x_nodes = family.xgrid.axes[0]
    h = x_nodes[1] - x_nodes[0]
    fgrad_bound = float(np.max(np.abs(np.gradient(family.f, h, axis=-1)))) + 1.0
    a, b = _x_bracket(pots[0],
                      float(rho_axis.min()) - 2 * fgrad_bound,
                      float(rho_axis.max()) + 2 * fgrad_bound)
    guess = np.clip(_canonical_inverse_guess(P, rho_axis), a, b)

    def smooth(method, x):
        # row by row into one array: only one row's temporaries live at a time
        out = np.empty_like(x)
        for pot, row, out_row in zip(pots, x, out):
            out_row[...] = getattr(pot, method)(row)
        return out

    def grad(x):
        return guillemin_gradient(P, x[..., None])[..., 0] + smooth("f_grad", x)

    def hess(x):
        return guillemin_hessian(P, x[..., None])[..., 0, 0] + smooth("f_hess", x)

    targets = np.broadcast_to(rho_axis, (len(nodes),) + rho_axis.shape)
    try:
        x = _invert_monotone_1d(grad, hess, targets, a, b,
                                what="symplectic gradient", s0=guess)
    except NewtonError as exc:
        node, *rho_index = exc.index
        raise NewtonError(f"{exc} at domain node {nodes[node]}, "
                          f"rho = {rho_axis[tuple(rho_index)]:.6g}",
                          index=nodes[node] + tuple(rho_index)) from exc
    values = x * rho_axis - (guillemin_potential(P, x[..., None]) + smooth("f_value", x))
    return KahlerFamilyField(domain=family.domain, rho_axis=rho_axis,
                             values=values.reshape(shape + rho_axis.shape),
                             moment=x.reshape(shape + rho_axis.shape))


# -- preset experiment families ---------------------------------------------------

def geodesic_family(a: float = 0.1, n_t: int = 17, n_x: int = 801,
                    k_max: int = 64):
    """Interval family between u0 and u0 + a prod ell (Legendre-linear path)."""
    P = preset_polytope("interval")
    xgrid = make_polytope_grid(P, n_x, default_margin(k_max))
    domain = make_interval(n_t)
    u_start = preset_symplectic("guillemin", P, xgrid)
    u_end = preset_symplectic(f"perturbed({a})", P, xgrid)
    t_nodes = domain.nodes

    def closed_family(idx):
        t = float(t_nodes[idx[0]])
        return _product_ell_closed(P, a * t)

    return solve_harmonic_map(domain, xgrid, [u_start, u_end], closed_family)


def loop_family(a: float = 0.05, n_radii: int = 9, n_angles: int = 256,
                n_x: int = 801, k_max: int = 32):
    """Disc family u_theta = u0 + a (1 + cos theta) prod ell on the boundary."""
    P = preset_polytope("interval")
    xgrid = make_polytope_grid(P, n_x, default_margin(k_max))
    domain = make_disc(n_radii, n_angles)
    bps = [SymplecticPotential(P, xgrid,
                               f_closed=_product_ell_closed(P, a * (1.0 + math.cos(th))))
           for th in domain.angles]
    radii, angles = domain.radii, domain.angles

    def closed_family(idx):
        r, g = radii[idx[0]], angles[idx[1]]
        return _product_ell_closed(P, a * (1.0 + r * math.cos(g)))

    return solve_harmonic_map(domain, xgrid, bps, closed_family)


# -- approximants ------------------------------------------------------------------

def build_approximants(family: HarmonicPotentialFamily, levels,
                       n_panels: int | None = None) -> dict[int, BergmanFamily]:
    """Boundary norming tables -> harmonic norming -> Phi_k, for each level.

    A QuadratureError from a boundary table names its boundary node and level.
    """
    out = {}
    for k in levels:
        tables = []
        for i, bp in enumerate(family.boundary_potentials):
            try:
                tables.append(norming_constants(bp, k, n_panels=n_panels))
            except QuadratureError as exc:
                raise QuadratureError(
                    f"{exc} for boundary node {i} at level k = {k}") from exc
        norming = harmonic_norming(family.domain, tables, k)
        out[k] = BergmanFamily(norming)
    return out


# -- error norms --------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorReport:
    """Interior-window error norms of Phi_k - Phi per level."""

    levels: tuple[int, ...]
    norms: dict                      # column -> np.ndarray over levels
    meta: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self.norms[name], dtype=float)


def window_rho_bounds(u_ref: SymplecticPotential, window: float) -> tuple[float, float]:
    """rho-interval = moment preimage of {ell_r >= window} under u_ref."""
    P = u_ref.polytope
    (lo,), (hi,) = P.bounding_box()
    return (float(u_ref.grad(np.asarray(lo + window))),
            float(u_ref.grad(np.asarray(hi - window))))


def _rho_window_mask(rho_axis: np.ndarray, bounds, guard_cells: int = 2) -> np.ndarray:
    mask = (rho_axis >= bounds[0]) & (rho_axis <= bounds[1])
    mask[:guard_cells] = False
    mask[-guard_cells:] = False
    return mask


def error_norms(E: np.ndarray, domain, rho_axis: np.ndarray,
                rho_mask: np.ndarray, ref_y_index) -> dict[str, float]:
    """Mean-adjusted C0 and FD C1/C2 sup norms of an error field E(y, rho).

    y-derivatives are the domain's orthonormal-frame components: C1_y is the
    largest gradient magnitude, C2_yrho the largest |d_rho g_i| and C2_yy the
    largest |H_ij|, over `domain.interior(1)` (first derivatives) and
    `interior(2)` (second).  Each component is reduced to its window before
    the next one is built.
    """
    E = np.asarray(E, dtype=float)
    h_rho = rho_axis[1] - rho_axis[0]
    rho_ax = E.ndim - 1
    ref = E[(ref_y_index if isinstance(ref_y_index, tuple) else (ref_y_index,))]
    adjust = float(np.mean(ref[rho_mask]))

    def sup(a):
        return float(np.max(np.abs(a[..., rho_mask])))

    grad_mag, mixed = 0.0, []
    for g in domain.gradient(E):
        g = g[domain.interior(1)]
        grad_mag = np.hypot(grad_mag, g[..., rho_mask])
        mixed.append(sup(_d1(g, h_rho, rho_ax)))
    return {
        "C0": float(np.max(np.abs(E[..., rho_mask] - adjust))),
        "C1_y": float(np.max(grad_mag)),
        "C1_rho": sup(_d1(E, h_rho, rho_ax)),
        "C2_rhorho": sup(_d2(E, h_rho, rho_ax)),
        "C2_yrho": float(np.max(mixed)),
        "C2_yy": float(np.max([sup(h[domain.interior(2)]) for h in domain.hessian(E)])),
    }


def error_report(family: HarmonicPotentialFamily, phi_field: KahlerFamilyField,
                 approximants: dict[int, BergmanFamily],
                 window: float = 0.1, ref_y_index=None) -> ErrorReport:
    """Per-level error norms of Phi_k - Phi over the interior window."""
    rho_axis = phi_field.rho_axis
    bounds = window_rho_bounds(family.boundary_potentials[0], window)
    rho_mask = _rho_window_mask(rho_axis, bounds)
    if not rho_mask.any():
        raise ValueError("the rho grid does not meet the interior window")
    if ref_y_index is None:
        ref_y_index = family.domain.reference_node
    levels = tuple(sorted(approximants))
    cols = {name: [] for name in ERROR_COLUMNS}
    for k in levels:
        E = approximants[k].field(rho_axis)
        E -= phi_field.values
        norms = error_norms(E, family.domain, rho_axis, rho_mask, ref_y_index)
        for name in ERROR_COLUMNS:
            cols[name].append(norms[name])
    return ErrorReport(levels=levels,
                       norms={name: np.array(vals) for name, vals in cols.items()},
                       meta={"window": window, "rho_bounds": bounds,
                             "ref_y_index": ref_y_index,
                             "n_rho_window": int(rho_mask.sum())})


# -- the experiment runner ---------------------------------------------------------

@dataclass(frozen=True)
class ExperimentResult:
    """One run of `run_experiment`."""

    family: HarmonicPotentialFamily
    field: KahlerFamilyField
    approximants: dict[int, BergmanFamily]
    report: ErrorReport


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """family -> kahler_field -> build_approximants -> error_report for one config.

    `cfg.domain` picks the family (see `ExperimentConfig.family_spec`):
    "interval" runs `geodesic_family` on `n_y` nodes, "disc" runs
    `loop_family` on `n_radii` x `n_angles`.
    """
    name, a = cfg.family_spec()
    k_max = max(cfg.levels)
    if name == "geodesic":
        family = geodesic_family(a, n_t=cfg.n_y, n_x=cfg.n_x, k_max=k_max)
    else:
        family = loop_family(a, n_radii=cfg.n_radii, n_angles=cfg.n_angles,
                             n_x=cfg.n_x, k_max=k_max)
    rho = np.linspace(-cfg.rho_span, cfg.rho_span, cfg.n_rho)
    phi_field = kahler_field(family, rho)
    approx = build_approximants(family, cfg.levels)
    report = error_report(family, phi_field, approx, window=cfg.window)
    return ExperimentResult(family, phi_field, approx, report)


# -- rate fitting -----------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    """Least-squares log-log slope and the log(k)/k flatness diagnostic.

    `statistic` (eps_k * k / log k) and its spread are reported diagnostics,
    not a gate: they stay flat on an error still dominated by a log(k)/k
    normalization term, so flatness cannot tell convergence from it.  The
    geodesic C0 gate is `acceptance.c0_gate`.
    """

    levels: tuple[int, ...]
    errors: tuple[float, ...]
    slope: float
    intercept: float
    statistic: tuple[float, ...]        # eps_k * k / log k
    statistic_spread: float             # (max - min) / max of the statistic
    logk_model_rmse: float              # residual of the best c*log(k)/k fit
    power_model_rmse: float             # residual of the best c*k^slope fit
    exact_match: bool = False


def rate_fit(levels, errors) -> RateFit:
    """Fit log errors against log k; needs at least four levels.

    All-zero (machine-level) errors short-circuit to an exact-match report
    instead of a meaningless fit.
    """
    levels = tuple(int(k) for k in levels)
    errors = tuple(float(e) for e in errors)
    if len(levels) < 4:
        raise ValueError("rate fitting needs at least 4 levels")
    if max(errors) < 1e-14:
        return RateFit(levels, errors, math.nan, math.nan,
                       tuple(0.0 for _ in levels), 0.0, 0.0, 0.0, exact_match=True)
    lk = np.log(np.asarray(levels, dtype=float))
    le = np.log(np.asarray(errors, dtype=float))
    slope, intercept = np.polyfit(lk, le, 1)
    stat = tuple(e * k / math.log(k) for e, k in zip(errors, levels))
    spread = (max(stat) - min(stat)) / max(stat)
    c_logk = float(np.mean(stat))
    logk_pred = np.array([c_logk * math.log(k) / k for k in levels])
    power_pred = np.exp(intercept + slope * lk)
    err = np.asarray(errors)
    return RateFit(levels, errors, float(slope), float(intercept), stat,
                   float(spread),
                   float(np.sqrt(np.mean((logk_pred - err) ** 2))),
                   float(np.sqrt(np.mean((power_pred - err) ** 2))))


# -- output files ---------------------------------------------------------------------

def write_error_csv(report: ErrorReport, path):
    _write_error_table(report, path, ",", "")


def write_error_dat(report: ErrorReport, path):
    """gnuplot-friendly twin of the CSV (space-separated, # header)."""
    _write_error_table(report, path, " ", "# ")


def _write_error_table(report: ErrorReport, path, sep: str, comment: str):
    with open(path, "w", newline="") as fh:
        fh.write(comment + sep.join(("k",) + ERROR_COLUMNS) + "\n")
        for i, k in enumerate(report.levels):
            row = [str(k)] + [repr(float(report.norms[c][i])) for c in ERROR_COLUMNS]
            fh.write(sep.join(row) + "\n")
