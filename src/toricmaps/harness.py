"""
End-to-end pipelines: solve the harmonic-map Dirichlet problem through the
Legendre transform, build the finite-dimensional approximants, and measure
convergence.

The solver pipeline is: sample the boundary family of symplectic potentials
on a polytope grid, extend the smooth parts harmonically over the parameter
domain N (the domain's boundary -> node operator applied once to all fiber
nodes), then invert the Legendre transform of every slice, one Newton solve
per block of (node, rho) targets, to get the potential family Phi(y, rho).
Positivity of the extension kernel makes every interior slice convex; this
is asserted, never assumed.  The solved family is a
`potentials.PotentialFamily`, the record a heat-flow snapshot (`flows`) is
too, so `kahler_field` transforms either and `heat_evolve` flows either.

The approximants are built per level k: boundary norming tables -> harmonic
norming constants -> log-sum-exp potential Phi_k(y, rho).

Three stages hand plain blocks to one loop, `_solve_blocks`: `kahler_field`
its blocks of node rows, `build_approximants` its boundary nodes and
`error_report` its rho-column blocks, each with every level.  Whether the
loop forks workers is decided by `_worker_cpus` alone, from the block count.

Error norms compare Phi_k with Phi on an interior window (the moment-map
preimage of {ell_r >= window} under the reference boundary metric).  Phi_k
is evaluated only on the window's rho columns plus one stencil column on
each side, the columns its finite differences reach.  The C0
norm is mean-adjusted: the spatial mean of Phi_k - Phi over the window at a
fixed reference boundary node is subtracted first, which removes the
y-independent constant coming from the dropped volume normalizations of the
norming integrals.  Derivative norms need no adjustment.

`run_experiment` runs the whole chain, family -> Kahler field ->
approximants -> error report, for one `ExperimentConfig`.  Both experiment
families live on the interval polytope, so a config holds only what varies:
its `domain` picks the family ("interval": the geodesic between u0 and
u0 + a prod ell; "disc": the loop u0 + a (1 + cos theta) prod ell), `a` is
the amplitude, and the rest are levels, node counts and the rho window;
the x-grid is none of them, as the families sample f on one fixed grid
(`_product_family`) that moves no reported bit.  Each field has one
spelling and is type-checked and range-checked where the config is built,
so a run the pipeline cannot honour fails there, naming its key.
Both families are u0 + c_b prod ell on the boundary, so each node's closed
form is (domain.extend c)(y) prod ell: its coefficient comes from the
operator that extends the sampled f, never from a hand-written profile.  On
the disc that operator is computed two ways, the Poisson weights for the
coefficient column and the rings' spectrum for the much wider f, within
4e-15 of max |f| of each other, far inside CLOSED_FORM_TOL.
`solve_harmonic_map` builds each node's closed form once, into the family's
`closed_forms`, and checks it against f.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import signal
from dataclasses import dataclass, field, replace

import numpy as np

from .bergman import (BergmanFamily, NormingTable, QuadratureError, harmonic_norming,
                      norming_constants)
from .dirichlet import (BoundaryData, MaxPrincipleError, Window, _d1, _d2, _uniform_axis,
                        harmonic_extend, make_disc, make_interval)
from .polytope import lattice_points, preset_polytope
from .potentials import (LSE_BLOCK, NewtonError, PolytopeGrid, PotentialFamily,
                         SymplecticPotential, _blocks, _canonical_inverse_guess, _closed_at,
                         _evaluator, _invert_monotone_1d, _product_ell_closed, _x_bracket,
                         guillemin_gradient, guillemin_hessian,
                         guillemin_potential, make_polytope_grid, product_potential)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
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
# A node's closed form may differ from its extended samples f by rounding and
# the disc's angular aliasing (measured below 1e-13), never by more than this.
CLOSED_FORM_TOL = 1e-10
# |rho| past which the moment-map preimage x(rho), within about e^-|rho| of a
# facet, is no longer resolved by doubles near x = 1: log(1/eps) = 36.04.
RHO_REACH = -math.log(np.finfo(float).eps)


# -- configuration ------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one experiment (see `run_experiment`); defaults reproduce the
    geodesic suite.  Every value is type-checked (`check_types`) when the
    config is built; no field sets the x-grid (see `_product_family`)."""

    domain: str = "interval"      # "interval" (geodesic family) or "disc" (loop family)
    a: float = 0.1                # amplitude of the family's boundary perturbation
    levels: tuple[int, ...] = (8, 16, 32, 64)
    n_y: int = 17                 # interval nodes
    n_radii: int = 9              # disc interior radii (plus the boundary ring)
    n_angles: int = 256           # disc angular nodes = boundary quadrature
    n_rho: int = 801              # rho-grid nodes
    rho_span: float = 4.0         # rho-grid on [-span, span]
    window: float = 0.1           # interior window {ell_r >= window}

    def __post_init__(self):
        self.check_types(vars(self))
        if self.domain not in _FAMILIES:
            raise ValueError(f"domain {self.domain!r}: no experiment family runs there "
                             f"(expected one of {sorted(_FAMILIES)})")
        ks = tuple(self.levels)
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("levels must be strictly increasing")
        if ks[0] < 1:
            raise ValueError(f"levels = {list(ks)}: every level k must be >= 1")
        object.__setattr__(self, "levels", ks)
        # the window edge 1 - window must be a double below the facet x = 1
        if not np.finfo(float).eps <= self.window < 0.5:
            raise ValueError(f"window = {self.window}: the interior window "
                             "{ell_r >= window} of [0, 1] needs eps <= window < 1/2")
        if not 0 < self.rho_span < math.inf:
            raise ValueError(f"rho_span = {self.rho_span}: the rho grid "
                             "[-rho_span, rho_span] needs a finite rho_span > 0")
        # C2_yy is read two nodes inside the boundary (interior(2) not empty)
        size = _FAMILIES[self.domain][0]
        if getattr(self, size) < 5:
            raise ValueError(f"{size} = {getattr(self, size)} on domain {self.domain!r}: "
                             "C2_yy needs at least 5, else interior(2) is empty")
        if self.domain == "disc" and (self.n_angles < 64 or self.n_angles % 2):
            raise ValueError(f"n_angles = {self.n_angles} on domain 'disc': the angular "
                             "quadrature needs an even count >= 64")
        if not math.isfinite(self.a):
            raise ValueError(f"a = {self.a}: the family's amplitude must be finite")
        c = self.a * np.array(_FAMILIES[self.domain][1])
        # (c prod ell)'' = -2c and u0'' >= 4 on [0, 1]: every slice is convex
        # while each boundary c < 2, as the extension keeps every node's c in
        # the boundary range
        if not c.max() < 2:
            raise ValueError(f"a = {self.a}: the boundary potential u0 + c prod ell with "
                             f"c = {c.max():.4g} is not convex (u0'' >= 4 needs c < 2)")
        # kahler_field brackets |rho| <= rho_span + 2 (max|f'| + 1), |f'| <= |c|
        reach = self.rho_span + 2 * (np.abs(c).max() + 1)
        if not reach <= RHO_REACH:
            raise ValueError(f"rho_span = {self.rho_span}, a = {self.a}: the Legendre "
                             f"inversion brackets |rho| up to {reach:.4g}, past the "
                             f"reach {RHO_REACH:.4g} of x near a facet")
        P = preset_polytope("interval")
        u_ref = product_potential(P, c[0], make_polytope_grid(P, 5, 0.25))
        bounds = window_rho_bounds(u_ref, self.window)
        if self.n_rho < 5 or not _rho_window_mask(self.rho_axis(), bounds).any():
            raise ValueError(f"n_rho = {self.n_rho}, rho_span = {self.rho_span}: no rho node "
                             "lies inside the window, off the two guard cells at each end")
        # the error report divides by the rho step squared
        rho = self.rho_axis()
        if not (rho[1] - rho[0]) ** 2 >= np.finfo(float).tiny:
            raise ValueError(f"rho_span = {self.rho_span}, n_rho = {self.n_rho}: the rho step "
                             f"{rho[1] - rho[0]:.3g} squared is not a positive normal double")

    def rho_axis(self) -> np.ndarray:
        return np.linspace(-self.rho_span, self.rho_span, self.n_rho)

    @classmethod
    def check_types(cls, values: dict):
        """Raise a ValueError naming the first field whose value has the wrong
        type: int fields take ints (not bools), float fields ints or floats,
        `domain` a string and `levels` a non-empty list of ints."""
        for key, val in values.items():
            kind = type(cls.__dataclass_fields__[key].default)
            if kind is tuple:
                ok = isinstance(val, (list, tuple)) and len(val) > 0 and all(
                    _is_a(int, k) for k in val)
            else:
                ok = _is_a(kind, val)
            if not ok:
                raise ValueError(f"{key}: {val!r} is not {_TYPE_NAMES[kind]}")

    @classmethod
    def json_fields(cls, doc) -> dict:
        """The field values a JSON config (a dict or its text) sets; a
        document that is not a JSON object is a ValueError naming its JSON
        type, and unknown keys are one naming them."""
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        if not isinstance(doc, dict):
            kind = _JSON_TYPES.get(type(doc), type(doc).__name__)
            raise ValueError(f"a config is a JSON object, not {kind}")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return doc


def _is_a(kind: type, value) -> bool:
    # bools are ints to Python, never to a config; a float field takes ints
    return not isinstance(value, bool) and isinstance(
        value, (int, float) if kind is float else kind)


_TYPE_NAMES = {int: "an int", float: "a number", str: "a string",
               tuple: "a non-empty list of ints"}
_JSON_TYPES = {list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}
# each domain's experiment family: the node count its C2_yy window needs, and
# its boundary coefficients c_b (of u0 + c_b prod ell, per unit of `a`) at the
# reference node and at the other extreme: the geodesic's 0 and 1, the loop's
# 1 + cos theta at theta = 0 and pi
_FAMILIES = {"interval": ("n_y", (0.0, 1.0)), "disc": ("n_radii", (2.0, 0.0))}


# -- the harmonic-map solver ----------------------------------------------------

def solve_harmonic_map(domain, xgrid: PolytopeGrid, boundary_potentials,
                       closed_family=None) -> PotentialFamily:
    """Extend the boundary family of symplectic potentials harmonically over N.

    `boundary_potentials` lists one SymplecticPotential per boundary node of
    the domain (canonical order), all sampled on `xgrid`.  The smooth parts
    of all fiber nodes are extended in one call; a maximum-principle failure
    names its fiber node, and a ConvexityError names the domain nodes whose
    slice lost convexity.  `closed_family(idx)`, if given, is each node's
    ClosedForm of its smooth part: it is called once per node, into the
    family's `closed_forms`, which every reader takes in place of f.  A
    value further than CLOSED_FORM_TOL from the extended f is a ValueError
    naming node and x.
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
    family = PotentialFamily(domain=domain, xgrid=xgrid, f=f, boundary_potentials=bps)
    family.check_convexity("harmonic extension")
    if closed_family is None:
        return family
    forms = np.empty(domain.shape, dtype=object)
    pts = xgrid.nodes()
    for idx in family.node_indices():
        forms[idx] = closed_family(idx)
        gap = np.abs(_closed_at(forms[idx].value, pts) - f[idx])
        if not gap.max() <= CLOSED_FORM_TOL:
            x = pts[np.unravel_index(np.argmax(gap), gap.shape)]
            raise ValueError(f"the closed form of domain node {idx} differs from the "
                             f"extended f by {gap.max():.3g} > {CLOSED_FORM_TOL:g} at "
                             f"x = {', '.join(f'{v:.6g}' for v in x)}")
    return replace(family, closed_forms=forms)


@dataclass(frozen=True)
class KahlerFamilyField:
    """Phi(y, rho) on a common grid."""

    domain: object
    rho_axis: np.ndarray
    values: np.ndarray        # (*domain.shape, n_rho)


def kahler_field(family: PotentialFamily, rho_axis: np.ndarray) -> KahlerFamilyField:
    """Invert the Legendre transform over the family, one node block at a time.

    The targets form a (nodes x rho) array, solved in `_blocks` of node
    rows, each straight into the output.  In a block the analytic u0 part
    of grad u and hess u is evaluated once per iteration over the block,
    the smooth part row by row with each node's own evaluator (built once).
    The Newton iteration works element by element, so every slice gets
    exactly the iterates a separate solve would give it, whatever the block
    size.  Where each process gets two blocks or more and more than one CPU
    is allowed, forked workers solve a share of the blocks each
    (`_solve_blocks`, `_worker_cpus`); the field and any NewtonError are the
    serial loop's.  A rho axis that is not 1-D is a ValueError naming its shape.
    """
    rho_axis = np.asarray(rho_axis, dtype=float)
    if rho_axis.ndim != 1:
        raise ValueError(f"rho axis must be 1-D, got shape {rho_axis.shape}")
    shape = family.domain.shape
    P = family.xgrid.polytope
    if rho_axis.size == 0:          # no targets, nothing to bracket
        return KahlerFamilyField(family.domain, rho_axis, np.empty(shape + rho_axis.shape))
    nodes = family.node_indices()
    x_nodes = family.xgrid.axes[0]
    h = x_nodes[1] - x_nodes[0]
    # One pass over blocks of f's node rows, with no family-sized temporary:
    # what each node's SymplecticPotential would check before any evaluator,
    # and a bound on |f'| (a max is exact whatever the blocks).
    f = family.f.reshape(-1, x_nodes.size)
    fgrad_sups = []
    for rows in _blocks(0, len(f), x_nodes.size, LSE_BLOCK):
        bad = ~np.isfinite(f[rows]) & family.xgrid.mask
        if bad.any():
            row, j = np.argwhere(bad)[0]
            raise ValueError(f"smooth part f must be finite on the grid: it is "
                             f"{f[rows.start + row, j]} at domain node "
                             f"{nodes[rows.start + row]}, x = {x_nodes[j]:.6g}")
        fgrad_sups.append(float(np.max(np.abs(np.gradient(f[rows], h, axis=-1)))))
    # each node's evaluator of its smooth part, read directly
    closed = family.closed_forms
    forms = [_evaluator(None if closed is None else closed[idx], family.xgrid.axes,
                        family.f[idx]) for idx in nodes]
    # one x-bracket serves every slice: widen the target range by the |f'|
    # bound so the u0 log-divergence dominates at both ends
    fgrad_bound = max(fgrad_sups) + 1.0
    a, b = _x_bracket(family.potential_at(nodes[0]),
                      float(rho_axis.min()) - 2 * fgrad_bound,
                      float(rho_axis.max()) + 2 * fgrad_bound)
    guess = np.clip(_canonical_inverse_guess(P, rho_axis), a, b)

    def solve(rows, values):
        block = forms[rows]

        def smooth(method, x):
            # row by row into one array, each row with its node's evaluator:
            # only one row's temporaries live at a time
            out = np.empty_like(x)
            for form, row, out_row in zip(block, x, out):
                out_row[...] = getattr(form, method)(row)
            return out

        def grad(x):
            return guillemin_gradient(P, x[..., None])[..., 0] + smooth("grad", x)

        def hess(x):
            return guillemin_hessian(P, x[..., None])[..., 0, 0] + smooth("hess", x)

        targets = np.broadcast_to(rho_axis, (len(block),) + rho_axis.shape)
        try:
            x = _invert_monotone_1d(grad, hess, targets, a, b,
                                    what="symplectic gradient", s0=guess)
        except NewtonError as exc:
            row, *rho_index = exc.index
            node = nodes[rows.start + row]
            raise NewtonError(f"{exc} at domain node {node}, "
                              f"rho = {rho_axis[tuple(rho_index)]:.6g}",
                              index=node + tuple(rho_index)) from exc
        np.subtract(x * rho_axis, guillemin_potential(P, x[..., None]) + smooth("value", x),
                    out=values[rows])

    values = _solve_blocks(solve, _blocks(0, len(nodes), rho_axis.size, LSE_BLOCK),
                           (len(nodes),) + rho_axis.shape)
    return KahlerFamilyField(domain=family.domain, rho_axis=rho_axis,
                             values=values.reshape(shape + rho_axis.shape))


def _solve_blocks(solve, blocks: list, shape: tuple[int, ...]) -> np.ndarray:
    """`solve(block, out)` for each block, into one float array of `shape`:
    the one loop of the blocked stages, `kahler_field` (node rows),
    `build_approximants` (boundary nodes) and `error_report` (rho-column
    blocks).  A block writes only its own part of the output.

    The blocks are cut into contiguous shares, the first the parent's and
    one per worker of `_worker_cpus`, which alone decides whether any is
    forked.  With none, the parent's share is every block and the output an
    `np.empty` array; with workers it lives in shared anonymous memory.  A
    worker pins itself to its CPU and solves its share into the output; it
    leaves only through os._exit, and stops between blocks once its parent
    is gone.  The parent solves its own share, then reaps each worker in
    turn and solves the share of any that did not exit with status 0
    itself, so the first error raised is the one the serial loop raises.
    Every block is written by the same code either way, so the output does
    not depend on the split.  Every worker still running on any way out is
    killed and reaped.
    """
    cpus = _worker_cpus(len(blocks))
    out = (np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)
           if cpus else np.empty(shape))
    cuts = [len(blocks) * i // (len(cpus) + 1) for i in range(len(cpus) + 2)]
    shares = [blocks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    parent = os.getpid()
    workers = []                # (pid, share) not yet reaped; pid None: never forked
    try:
        for cpu, share in zip(cpus, shares[1:]):
            try:
                pid = os.fork()
            except OSError:
                pid = None
            if pid == 0:
                status = 1
                try:
                    os.sched_setaffinity(0, {cpu})
                    for rows in share:
                        if os.getppid() != parent:
                            break
                        solve(rows, out)
                    else:
                        status = 0
                finally:
                    os._exit(status)
            workers.append((pid, share))
        for rows in shares[0]:
            solve(rows, out)
        while workers:
            pid, share = workers[0]
            status = -1
            if pid is not None:
                try:
                    status = os.waitpid(pid, 0)[1]
                except ChildProcessError:       # reaped elsewhere: its exit is unknown
                    pass
            workers.pop(0)
            if status != 0:
                for rows in share:
                    solve(rows, out)
    finally:
        for pid, _ in workers:
            if pid is not None:
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    return out


def _worker_cpus(n_blocks: int) -> list[int]:
    """The CPUs `_solve_blocks` forks its workers onto: the allowed CPUs
    other than the one the calling thread runs on (field 39 of
    /proc/thread-self/stat; /proc/self/stat is the main thread's), one
    worker for each extra allowed CPU, so long as every process gets two
    blocks or more.  None where the platform cannot fork, pin or tell the
    calling thread's CPU.

    On a 2-CPU Xeon host, in a process holding a bench disc pass (88 MB
    RSS), fork() returns to the parent in 0.7 ms, and a fork, exit and reap
    of an idle child take 2.5 ms; the parent then write-faults each heap
    page it writes while the worker lives.  Forking the geodesic's two
    boundary tables per level took `build_approximants` from 7.0 to 12.5 ms
    (medians of 28 passes each).  So a one-block process is never worth a
    fork, and no stage of the geodesic pass forks: it has one node block,
    two boundary nodes and one column block in its error report.  The disc
    pass forks `kahler_field`, `build_approximants` and `error_report` (24,
    256 and 14-15 blocks); the rectangle only `build_approximants` (64
    boundary nodes, its 2 node blocks no longer fork)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")):
        return []
    allowed = os.sched_getaffinity(0)
    n_workers = min(len(allowed), n_blocks // 2) - 1
    if n_workers < 1:
        return []
    try:
        with open("/proc/thread-self/stat") as fh:
            current = int(fh.read().rpartition(")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return []
    return sorted(allowed - {current})[:n_workers]


# -- preset experiment families ---------------------------------------------------

def geodesic_family(a: float = 0.1, n_t: int = 17):
    """Interval family u0 + t a prod ell (Legendre-linear), f on 801 x-nodes at margin 1/256."""
    return _product_family(make_interval(n_t), [0.0, a])


def loop_family(a: float = 0.05, n_radii: int = 9, n_angles: int = 256):
    """Disc family u_theta = u0 + a (1 + cos theta) prod ell on the boundary,
    f on 801 x-nodes at margin 1/256 (`_product_family`)."""
    domain = make_disc(n_radii, n_angles)
    return _product_family(domain, [a * (1.0 + math.cos(th)) for th in domain.angles])


def _product_family(domain, c_boundary) -> PotentialFamily:
    """The harmonic family with boundary data u0 + c_b prod ell on the interval
    polytope.  Extension is linear, so each node's smooth part is
    (domain.extend c)(y) prod ell: its closed form takes that coefficient
    from the operator that extends the sampled f.  Every stage reads the
    closed forms, so f's grid, built once here (`product_potential`'s: 801
    nodes at margin 1/256), feeds only checks and the Newton bracket."""
    P = preset_polytope("interval")
    c_boundary = np.asarray(c_boundary, dtype=float)
    xgrid = product_potential(P).grid
    bps = [product_potential(P, c, xgrid) for c in c_boundary]
    coeff = domain.extend(c_boundary)
    return solve_harmonic_map(domain, xgrid, bps,
                              lambda idx: _product_ell_closed(P, coeff[idx]))


# -- approximants ------------------------------------------------------------------

def build_approximants(family: PotentialFamily, levels) -> dict[int, BergmanFamily]:
    """Boundary norming tables -> harmonic norming -> Phi_k, for each level.

    The boundary nodes are the blocks of `_solve_blocks`, so forked workers
    build a share of them where there are enough (the disc's 256, never the
    geodesic's 2).  A block builds its node's table at every level and
    writes each level's log Q_k into its node's row; `harmonic_norming`
    reads each level's columns of those rows, the (n_boundary, n_alpha)
    block the serial loop would stack.  The lattices are enumerated before
    any fork, as a worker's caches die with it.  A QuadratureError from a
    boundary table names its boundary node and level, the first that fails
    in node-major order (node by node, each node's levels in turn).
    """
    bps = family.boundary_potentials
    levels = tuple(levels)
    # the lattice every table is built on
    alphas = {k: lattice_points(bps[0].polytope, k) for k in levels}
    # a node's row: its log Q_k at each level in turn
    ends = np.cumsum([0] + [len(alphas[k]) for k in levels])

    def solve(rows, out):
        for i in range(rows.start, rows.stop):
            for k, lo, hi in zip(levels, ends, ends[1:]):
                out[i, lo:hi] = _boundary_table(bps[i], i, k).log_q

    rows = _solve_blocks(solve, [slice(i, i + 1) for i in range(len(bps))],
                         (len(bps), ends[-1]))
    return {k: BergmanFamily(harmonic_norming(family.domain, k, alphas[k], rows[:, lo:hi]))
            for k, lo, hi in zip(levels, ends, ends[1:])}


def _boundary_table(bp: SymplecticPotential, i: int, k: int) -> NormingTable:
    try:
        return norming_constants(bp, k)
    except QuadratureError as exc:
        raise QuadratureError(f"{exc} for boundary node {i} at level k = {k}") from exc


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


def _rho_window_mask(rho_axis: np.ndarray, bounds) -> np.ndarray:
    # two guard cells at each end keep every rho stencil on the axis
    mask = (rho_axis >= bounds[0]) & (rho_axis <= bounds[1])
    mask[:2] = False
    mask[-2:] = False
    return mask


def _require_c2_nodes(domain):
    if not np.zeros(domain.shape, dtype=bool)[domain.interior(2)].size:
        raise ValueError(f"{type(domain).__name__} of shape {domain.shape}: interior(2) = "
                         f"{domain.interior(2)} is empty, so C2_yy has no nodes")


def error_norms(E: np.ndarray, domain, h_rho: float,
                rho_mask: np.ndarray, ref_y_index) -> dict[str, float]:
    """Mean-adjusted C0 and FD C1/C2 sup norms of an error field E(y, rho).

    `h_rho` is the rho step of E's last axis, and `rho_mask` selects its
    window columns; at E's first and last columns the rho differences wrap
    around, as the whole-grid `_d1` and `_d2` do.  y-derivatives are the
    domain's orthonormal-frame components: C1_y is the largest gradient
    magnitude, C2_yrho the largest |d_rho g_i| and C2_yy the largest |H_ij|,
    over `domain.interior(1)` (first derivatives) and `interior(2)`
    (second).  Each component is reduced to its window before the next one
    is built.  Raises a ValueError when `interior(2)` is empty, and one
    naming the column when a norm is not finite.
    """
    _require_c2_nodes(domain)
    E = np.asarray(E, dtype=float)
    ref = E[(ref_y_index if isinstance(ref_y_index, tuple) else (ref_y_index,))]
    adjust = float(np.mean(ref[rho_mask]))
    # one wrapped column past each end makes every column of E an inner one
    wrapped = np.pad(E, [(0, 0)] * (E.ndim - 1) + [(1, 1)], mode="wrap")
    return _norms(_window_sups(wrapped, domain, h_rho, rho_mask), adjust)


def _window_sups(E: np.ndarray, domain, h_rho: float, cols) -> dict:
    """The sup norms of `error_norms` over the rho columns `cols` (a mask or
    a slice) of E's inner columns, with E's max "hi" and min "lo" there in
    place of C0 (see `_norms`).  E's first and last columns are the rho
    stencils' halo.  Each difference is evaluated only where a norm reads it:
    the gradient at `interior(1)` on every column, the Hessian at
    `interior(2)` and the rho differences on the inner columns; the Hessian
    reads the gradient's first differences."""
    rho_ax = E.ndim - 1
    inner = (slice(None),) * rho_ax + (slice(1, -1),)

    def sup(a):
        return float(np.max(np.abs(a[..., cols])))

    grad_mag, mixed = None, []
    w = Window(E, domain.interior(1))
    for g in domain.gradient(w):
        # hypot(0, x) is |x| exactly: the first component needs no hypot
        at = g[inner][..., cols]
        grad_mag = np.abs(at) if grad_mag is None else np.hypot(grad_mag, at)
        mixed.append(sup(_d1(Window(g, inner), h_rho, rho_ax)))
    window = E[inner][..., cols]
    return {
        "hi": float(np.max(window)),
        "lo": float(np.min(window)),
        "C1_y": float(np.max(grad_mag)),
        "C1_rho": sup(_d1(Window(E, inner), h_rho, rho_ax)),
        "C2_rhorho": sup(_d2(Window(E, inner), h_rho, rho_ax)),
        "C2_yrho": float(np.max(mixed)),
        "C2_yy": float(np.max([sup(h) for h in
                               domain.hessian(w.sub(domain.interior(2) + inner[-1:]))])),
    }


# the reductions of `_window_sups`, in the order a block writes them
_SUPS = ("hi", "lo") + ERROR_COLUMNS[1:]


def _norms(sups: dict, adjust: float) -> dict:
    """The ERROR_COLUMNS of `_window_sups`' reductions, C0 = max|E - adjust|
    taken from E's max and min: rounded x - adjust is monotone in x and
    fl(adjust - x) = -fl(x - adjust), so it is bitwise the max of the
    rounded |E - adjust| (np.maximum keeps that max's NaN too).  A norm that
    is not finite is a ValueError naming its column."""
    norms = {"C0": float(np.maximum(sups["hi"] - adjust, adjust - sups["lo"]))}
    norms.update((name, sups[name]) for name in ERROR_COLUMNS[1:])
    for name, value in norms.items():
        if not math.isfinite(value):
            raise ValueError(f"error norm {name} = {value} is not finite")
    return norms


def error_report(family: PotentialFamily, phi_field: KahlerFamilyField,
                 approximants: dict[int, BergmanFamily],
                 window: float = 0.1) -> ErrorReport:
    """Per-level error norms of Phi_k - Phi over the interior window, C0
    mean-adjusted at the domain's `reference_node`.

    Phi_k is evaluated on the window's columns plus one stencil column on
    each side, which is every column the rho differences at the window read.
    The columns go in `_blocks` of at most LSE_BLOCK node x column values,
    their halo columns counted: each block's Phi_k - Phi is reduced to its
    sups, its max and min, and a copy of the reference node's row before the
    next is built, and every norm is the max of its block sups.  The rows,
    joined in order, are the reference row over the whole window (a node's
    values do not depend on the other nodes, `_log_sum_exp`), so C0's mean
    adjustment is their mean and C0 comes from the blocks' max and min
    (`_norms`): Phi_k is evaluated once per block and level, never per node.
    The column blocks are the blocks of `_solve_blocks`, each evaluated at
    every level, so forked workers take a share of the columns on the disc
    (14-15 blocks on the bench disc), while the geodesic's window is one
    block and nothing forks.  Each block writes, per level, its part of the
    reference row and its sups, and the parent merges them level by level.
    Each level's `BergmanFamily` weights are built before any fork.  Every
    norm is bitwise the one `error_norms` gives on the whole window.  A
    non-finite norm is a ValueError naming its column and level, and so is a
    rho axis that is not uniformly spaced (`_uniform_axis`) or whose length
    is not the field's last axis's, before any level is evaluated.
    """
    _require_c2_nodes(family.domain)
    rho_axis = _uniform_axis(phi_field.rho_axis, "rho axis")
    if rho_axis.size != phi_field.values.shape[-1]:
        raise ValueError(f"the rho axis has {rho_axis.size} nodes, the field's last "
                         f"axis {phi_field.values.shape[-1]}")
    bounds = window_rho_bounds(family.boundary_potentials[0], window)
    rho_mask = _rho_window_mask(rho_axis, bounds)
    if not rho_mask.any():
        raise ValueError("the rho grid does not meet the interior window")
    ref_y_index = family.domain.reference_node
    on = np.flatnonzero(rho_mask)
    span = slice(on[0] - 1, on[-1] + 2)       # inside the guard cells of the mask
    rho, phi = rho_axis[span], phi_field.values[..., span]
    # the full axis's step: the span's own first gap can differ in the last bit
    h_rho = rho_axis[1] - rho_axis[0]
    levels = tuple(sorted(approximants))
    n_nodes = math.prod(family.domain.shape)
    blocks = _blocks(1, rho.size - 1, n_nodes, LSE_BLOCK - 2 * n_nodes)
    for k in levels:
        approximants[k]._weights        # built here: a worker's die with it
    # a level's row: the reference row over the window, then each block's sups
    n_cols = rho.size - 2

    def solve(block, out):
        b, inner = block
        halo = slice(inner.start - 1, inner.stop + 1)
        for level, k in enumerate(levels):
            E = approximants[k].field(rho[halo])
            E -= phi[..., halo]
            out[level, inner.start - 1:inner.stop - 1] = E[ref_y_index][1:-1]
            sups = _window_sups(E, family.domain, h_rho, slice(None))
            out[level, n_cols + len(_SUPS) * b:n_cols + len(_SUPS) * (b + 1)] = [
                sups[name] for name in _SUPS]

    out = _solve_blocks(solve, list(enumerate(blocks)),
                        (len(levels), n_cols + len(_SUPS) * len(blocks)))
    cols = {name: [] for name in ERROR_COLUMNS}
    for k, row in zip(levels, out):
        adjust = float(np.mean(row[:n_cols]))
        sups = row[n_cols:].reshape(len(blocks), len(_SUPS))
        merged = {name: float(np.max(col)) for name, col in zip(_SUPS, sups.T)}
        merged["lo"] = float(np.min(sups[:, _SUPS.index("lo")]))
        try:
            norms = _norms(merged, adjust)
        except ValueError as exc:
            raise ValueError(f"{exc} at level k = {k}") from exc
        for name in ERROR_COLUMNS:
            cols[name].append(norms[name])
    return ErrorReport(levels=levels,
                       norms={name: np.array(vals) for name, vals in cols.items()},
                       meta={"window": window, "rho_bounds": bounds,
                             "ref_y_index": ref_y_index,
                             "n_rho_window": on.size,
                             "rho_eval_bounds": (float(rho[0]), float(rho[-1])),
                             "rho_eval_start": int(span.start),
                             "n_rho_eval": rho.size})


# -- the experiment runner ---------------------------------------------------------

@dataclass(frozen=True)
class ExperimentResult:
    """One run of `run_experiment`."""

    family: PotentialFamily
    field: KahlerFamilyField
    approximants: dict[int, BergmanFamily]
    report: ErrorReport


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """family -> kahler_field -> build_approximants -> error_report for one config.

    `cfg.domain` picks the family: "interval" runs `geodesic_family` on `n_y`
    nodes, "disc" runs `loop_family` on `n_radii` x `n_angles`; both take the
    amplitude `cfg.a`.
    """
    if cfg.domain == "interval":
        family = geodesic_family(cfg.a, n_t=cfg.n_y)
    else:
        family = loop_family(cfg.a, n_radii=cfg.n_radii, n_angles=cfg.n_angles)
    phi_field = kahler_field(family, cfg.rho_axis())
    approx = build_approximants(family, cfg.levels)
    report = error_report(family, phi_field, approx, window=cfg.window)
    return ExperimentResult(family, phi_field, approx, report)


# -- rate fitting -----------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    """Least-squares log-log slope and the log(k)/k flatness diagnostic: the
    three numbers the benchmark's geodesic pass records.

    Neither is a gate.  `statistic` (eps_k * k / log k) stays flat on an
    error still dominated by a log(k)/k normalization term, so flatness
    cannot tell convergence from it; every rate gate is
    `acceptance.order_gate` on the observed orders.
    """

    slope: float                        # of log eps_k against log k
    statistic: tuple[float, ...]        # eps_k * k / log k
    statistic_spread: float             # (max - min) / max of the statistic


def rate_fit(levels, errors) -> RateFit:
    """Fit log errors against log k; needs at least four levels.

    Every error must be finite and positive: a ValueError names the first
    non-finite one's level, or else the first non-positive one's (so
    all-zero errors name the first level).
    """
    levels = tuple(int(k) for k in levels)
    errors = tuple(float(e) for e in errors)
    if len(levels) < 4:
        raise ValueError("rate fitting needs at least 4 levels")
    bad = ([(k, e) for k, e in zip(levels, errors) if not math.isfinite(e)]
           or [(k, e) for k, e in zip(levels, errors) if e <= 0])
    if bad:
        raise ValueError(f"rate fitting needs finite positive errors: "
                         f"level k = {bad[0][0]} has error {bad[0][1]}")
    slope = np.polyfit(np.log(np.asarray(levels, dtype=float)),
                       np.log(np.asarray(errors, dtype=float)), 1)[0]
    stat = tuple(e * k / math.log(k) for e, k in zip(errors, levels))
    return RateFit(float(slope), stat, (max(stat) - min(stat)) / max(stat))


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
