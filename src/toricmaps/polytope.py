"""
Delzant polytopes described by facet inequalities.

A polytope P in R^m is stored as a list of facets, each with a primitive
integer inward normal v_r and a rational offset lambda_r, so that

    ell_r(x) = <x, v_r> + lambda_r >= 0  on P,  with equality on facet r.

Inward normals are used throughout so that ell_r > 0 in the interior and
log ell_r is defined there.  Vertices are derived from the facet data, never
supplied; the Delzant condition (the m facet normals meeting at each vertex
form a Z-basis) is verified at construction time with exact rational
arithmetic.  Lattice-point enumeration of the dilate kP is done with exact
integer/rational comparisons so boundary points are never misclassified.
Points are (..., dim) arrays; `_as_points` is the one rule by which a dim-1
caller may pass plain x values (see `toricmaps.potentials`).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "Facet",
    "DelzantPolytope",
    "facet_value",
    "lattice_points",
    "near_facets",
    "polytope_from_json",
    "polytope_to_json",
    "preset_polytope",
]


def _as_fraction(q) -> Fraction:
    """Coerce ints, strings like '1/3', and exact decimals to Fraction."""
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    if isinstance(q, str):
        return Fraction(q)
    if isinstance(q, float):
        # JSON floats: accept only values with a short exact decimal form.
        return Fraction(str(q))
    raise TypeError(f"cannot interpret offset {q!r} as a rational number")


@dataclass(frozen=True)
class Facet:
    """One facet inequality ell(x) = <x, normal> + offset >= 0."""

    normal: tuple[int, ...]
    offset: Fraction

    def __post_init__(self):
        normal = tuple(int(v) for v in self.normal)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", _as_fraction(self.offset))
        if all(v == 0 for v in normal):
            raise ValueError("facet normal must be nonzero")
        if math.gcd(*(abs(v) for v in normal)) != 1:
            raise ValueError(f"facet normal {normal} is not primitive")

    def value_exact(self, x: Sequence[Fraction | int]) -> Fraction:
        acc = Fraction(0)
        for xi, vi in zip(x, self.normal):
            acc += Fraction(xi) * vi
        return acc + self.offset


def _solve_exact(rows: list[list[Fraction]], rhs: list) -> tuple[Fraction, list[Fraction] | None]:
    """Gauss-Jordan elimination of a square rational system: its determinant
    and its solution (None when singular)."""
    m = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [vr - f * vc for vr, vc in zip(a[r], a[col])]
    return det, [a[r][m] for r in range(m)]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_points(dim: int, x, always_plain: bool = False) -> tuple[np.ndarray, bool]:
    """x as (..., dim) points, and whether it held a dim-1 caller's plain
    values: in dim 1 a scalar, or an array whose last axis is not of length 1,
    holds the points x[..., None], and with `always_plain` (the ClosedForm
    contract) every x does.  `_as_given` hands a plain caller its result back."""
    x = np.asarray(x, dtype=float)
    plain = dim == 1 and (always_plain or x.ndim == 0 or x.shape[-1] != 1)
    return (x[..., None] if plain else x), plain


def _as_given(out: np.ndarray, plain: bool, point_axes: int):
    """A result at the points of `_as_points`, in the form its caller gave x:
    for plain x the `point_axes` trailing axes of length 1 are dropped (1 for
    a gradient, 2 for a Hessian), and a 0-d result is a numpy scalar."""
    return out[(...,) + (0,) * point_axes][()] if plain else out


def _float_if_0d(out):
    """A 0-d result as a Python float, any other as the array it is."""
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class DelzantPolytope:
    """Bounded Delzant polytope cut out by facet inequalities ell_r >= 0."""

    dim: int
    facets: tuple[Facet, ...]
    vertices: tuple[tuple[Fraction, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        facets = tuple(self.facets)
        object.__setattr__(self, "facets", facets)
        if len(facets) < self.dim + 1:
            raise ValueError("a bounded polytope needs at least dim+1 facets")
        for f in facets:
            if len(f.normal) != self.dim:
                raise ValueError("facet normal dimension mismatch")
        self._check_bounded()
        object.__setattr__(self, "vertices", self._enumerate_vertices())
        self._check_delzant()
        object.__setattr__(self, "_normals_f",
                           np.array([f.normal for f in facets], dtype=float))
        object.__setattr__(self, "_offsets_f",
                           np.array([float(f.offset) for f in facets]))
        v = self.vertex_array()
        object.__setattr__(self, "_bbox", (_read_only(v.min(axis=0)),
                                           _read_only(v.max(axis=0))))
        # level k -> kP's lattice points, filled by lattice_points on first use
        object.__setattr__(self, "_lattices", {})
        # n_panels -> masked tensor Gauss rule (points, weights, and u0 and
        # grad u0 at the points), one per panel count, filled by bergman._quad_rule
        object.__setattr__(self, "_quad_rules", {})

    # -- validation -------------------------------------------------------

    def _check_bounded(self):
        # The recession cone {d : <d, v_r> >= 0 for all r} must be {0}: the
        # normals span R^m, and no edge line of the cone (the null line d of
        # m - 1 normals, from cofactors) has every <v_r, d> of one sign.
        m, normals = self.dim, [f.normal for f in self.facets]
        bounded = any(_solve_exact(rows, [0] * m)[0]
                      for rows in itertools.combinations(normals, m))
        for rows in itertools.combinations(normals, m - 1):
            d = [(-1) ** j * _solve_exact([r[:j] + r[j + 1:] for r in rows], [0] * (m - 1))[0]
                 for j in range(m)]
            pairings = [sum(vi * di for vi, di in zip(v, d)) for v in normals]
            bounded &= not any(d) or min(pairings) < 0 < max(pairings)
        if not bounded:
            raise ValueError("polytope is unbounded (nontrivial recession cone)")

    def _enumerate_vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        """The vertices of a bounded P, which has interior points iff every
        ell_r > 0 at their centroid (an empty P has no vertices)."""
        verts: dict[tuple[Fraction, ...], None] = {}
        for subset in itertools.combinations(self.facets, self.dim):
            _, x = _solve_exact([f.normal for f in subset], [-f.offset for f in subset])
            if x is not None and all(f.value_exact(x) >= 0 for f in self.facets):
                verts[tuple(x)] = None
        centroid = [sum(c) / len(verts) for c in zip(*verts)]
        if not verts or any(f.value_exact(centroid) <= 0 for f in self.facets):
            raise ValueError("polytope has empty interior")
        return tuple(verts.keys())

    def _check_delzant(self):
        for v in self.vertices:
            active = [r for r, f in enumerate(self.facets) if f.value_exact(v) == 0]
            if len(active) != self.dim:
                raise ValueError(
                    f"vertex {v} lies on {len(active)} facets; polytope is not simple")
            det, _ = _solve_exact([self.facets[r].normal for r in active], [0] * self.dim)
            if abs(det) != 1:
                raise ValueError(
                    f"facet normals at vertex {v} have determinant {det}; "
                    "Delzant condition fails")

    # -- convenience ------------------------------------------------------

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    def ell(self, x) -> np.ndarray:
        """All facet values ell_r(x), shape (..., n_facets), of points x
        (..., dim) read by `_as_points`."""
        x, _ = _as_points(self.dim, x)
        # accumulate facet-major, so every numpy loop runs over all points;
        # the result is a facet-last view
        per_facet = (slice(None),) + (None,) * (x.ndim - 1)
        ell = self._normals_f[:, 0][per_facet] * x[..., 0]
        for i in range(1, self.dim):
            ell += self._normals_f[:, i][per_facet] * x[..., i]
        ell += self._offsets_f[per_facet]
        return ell.transpose(*range(1, ell.ndim), 0)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (lo, hi) corners of the axis-aligned bounding box."""
        return self._bbox

    def vertex_array(self) -> np.ndarray:
        return np.array([[float(c) for c in vert] for vert in self.vertices])

    @cached_property
    def _other_facets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index rows of the facets other than r and other than (r, s), over
        the ordered pairs r != s, and the pairs' flattened normal products
        v_r v_s^T: the terms of the derivatives of prod_r ell_r, built once."""
        facets = np.arange(self.n_facets)
        pairs = [(r, s) for r in facets for s in facets if r != s]
        normals = self._normals_f
        return (np.array([np.delete(facets, r) for r in facets]),
                np.array([np.delete(facets, [r, s]) for r, s in pairs]),
                np.array([np.outer(normals[r], normals[s]).ravel() for r, s in pairs]))


def facet_value(P: DelzantPolytope, r: int, x) -> float:
    """ell_r(x) at one point x; nonnegative iff x lies on the inner side of
    facet r (0-based r)."""
    if not 0 <= r < P.n_facets:
        raise IndexError(f"facet index {r} out of range [0, {P.n_facets})")
    return float(P.ell(x)[..., r])


def _check_level(k) -> None:
    """A level k is an int or numpy int >= 1: a bool or a float is a TypeError."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise TypeError(f"level k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")


def lattice_points(P: DelzantPolytope, k: int) -> np.ndarray:
    """kP ∩ Z^m, each point once: a read-only, lexicographically sorted (n, m)
    int64 array, enumerated once per polytope and level k (`_check_level`)."""
    _check_level(k)
    cached = P._lattices.get(k)
    if cached is None:
        cached = P._lattices[k] = _read_only(_enumerate_lattice(P, k))
    return cached


def _enumerate_lattice(P: DelzantPolytope, k: int) -> np.ndarray:
    """Bounding-box scan of kP with exact membership tests; sorted (n, m) int64."""
    lo, hi = P.bounding_box()
    lo_i = [math.floor(k * l - 1e-9) for l in lo]
    hi_i = [math.ceil(k * h + 1e-9) for h in hi]
    # Membership of alpha in kP: <alpha, v_r> + k*lambda_r >= 0 exactly.
    pts = []
    for alpha in itertools.product(*[range(a, b + 1) for a, b in zip(lo_i, hi_i)]):
        ok = True
        for f in P.facets:
            val = sum(a * v for a, v in zip(alpha, f.normal)) + k * f.offset
            if val < 0:
                ok = False
                break
        if ok:
            pts.append(alpha)
    pts.sort()
    return np.array(pts, dtype=np.int64).reshape(len(pts), P.dim)


def near_facets(P: DelzantPolytope, x, delta: float):
    """Facets with ell_r(x) < delta, and how many there are.

    Rejects x outside P by more than 1e-9.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    ell = P.ell(x)
    if np.any(ell < -1e-9):
        raise ValueError(f"point {x} lies outside the polytope (min ell = {ell.min():.3g})")
    idx = tuple(int(r) for r in np.nonzero(ell < delta)[0])
    return idx, len(idx)


# -- serialization and presets ---------------------------------------------

def polytope_to_json(P: DelzantPolytope) -> str:
    doc = {
        "dim": P.dim,
        "facets": [
            {"normal": list(f.normal), "offset": str(f.offset)} for f in P.facets
        ],
    }
    return json.dumps(doc)


def polytope_from_json(doc) -> DelzantPolytope:
    """Build a polytope from {"dim": m, "facets": [{"normal": [...], "offset": q}]}."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    facets = tuple(
        Facet(tuple(f["normal"]), _as_fraction(f["offset"])) for f in doc["facets"]
    )
    return DelzantPolytope(dim=int(doc["dim"]), facets=facets)


_PRESETS = {
    "interval": {
        "dim": 1,
        "facets": [
            {"normal": [1], "offset": 0},   # ell_0 = x
            {"normal": [-1], "offset": 1},  # ell_1 = 1 - x
        ],
    },
    "simplex2": {
        "dim": 2,
        "facets": [
            {"normal": [1, 0], "offset": 0},
            {"normal": [0, 1], "offset": 0},
            {"normal": [-1, -1], "offset": 1},
        ],
    },
    "square": {
        "dim": 2,
        "facets": [
            {"normal": [1, 0], "offset": 0},
            {"normal": [0, 1], "offset": 0},
            {"normal": [-1, 0], "offset": 1},
            {"normal": [0, -1], "offset": 1},
        ],
    },
}


def preset_polytope(name: str) -> DelzantPolytope:
    """Built-in polytopes: "interval" ([0,1]), "simplex2", "square"."""
    try:
        doc = _PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown polytope preset {name!r}; "
                       f"available: {sorted(_PRESETS)}") from None
    return polytope_from_json(json.dumps(doc))
