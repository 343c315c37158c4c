import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricmaps.polytope import (DelzantPolytope, Facet, lattice_points, polytope_to_json,
                                preset_polytope)


@pytest.fixture(scope="module")
def interval():
    return preset_polytope("interval")


@pytest.fixture(scope="module")
def simplex():
    return preset_polytope("simplex2")


@pytest.fixture(scope="module")
def square():
    return preset_polytope("square")


def test_facet_value_simplex(simplex):
    r = next(i for i, f in enumerate(simplex.facets) if f.normal == (-1, -1))
    assert simplex.ell((0.2, 0.3))[..., r] == pytest.approx(0.5, abs=1e-14)


def test_lattice_points_interval(interval):
    assert lattice_points(interval, 3)[:, 0].tolist() == [0, 1, 2, 3]


def test_lattice_points_simplex(simplex):
    pts = lattice_points(simplex, 2)
    expected = {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    assert set(map(tuple, pts.tolist())) == expected
    assert len(pts) == 6


def test_lattice_points_square(square):
    assert len(lattice_points(square, 1)) == 4


def test_lattice_points_rejects_bad_level(interval):
    with pytest.raises(ValueError):
        lattice_points(interval, 0)
    with pytest.raises(ValueError):
        lattice_points(interval, -2)


def test_lattice_points_takes_integer_levels_only(interval):
    assert lattice_points(interval, np.int64(3)) is lattice_points(interval, 3)
    for k in (2.5, 4.0, np.float64(4.0), True):
        with pytest.raises(TypeError,
                           match=f"^level k must be an integer, got {re.escape(repr(k))}$"):
            lattice_points(interval, k)


@pytest.mark.parametrize("name,k", [("interval", 7), ("simplex2", 5),
                                    ("square", 4), ("simplex2", 11)])
def test_lattice_count_matches_bounding_box_scan(name, k):
    # independent float-based scan of the integer bounding box of kP
    P = preset_polytope(name)
    lo, hi = P.bounding_box()
    count = 0
    ranges = [range(math.floor(k * l) - 1, math.ceil(k * h) + 2)
              for l, h in zip(lo, hi)]
    import itertools
    for alpha in itertools.product(*ranges):
        if np.all(P.ell(np.array(alpha, dtype=float) / k) >= -1e-12):
            count += 1
    assert len(lattice_points(P, k)) == count


def test_vertices_and_delzant(square, simplex):
    assert len(square.vertices) == 4
    assert len(simplex.vertices) == 3
    # facet normals at each vertex form a lattice basis (checked at build time);
    # verify the determinant claim directly
    for v in simplex.vertices:
        active = [f for f in simplex.facets if f.value_exact(v) == 0]
        det = (active[0].normal[0] * active[1].normal[1]
               - active[0].normal[1] * active[1].normal[0])
        assert abs(det) == 1


def test_non_delzant_rejected():
    facets = (Facet((1, 0), 0), Facet((0, 1), 0), Facet((-1, -2), 1))
    with pytest.raises(ValueError, match="Delzant|simple"):
        DelzantPolytope(2, facets)


def test_unbounded_rejected():
    with pytest.raises(ValueError, match="unbounded"):
        DelzantPolytope(1, (Facet((1,), 0), Facet((1,), 1)))


@pytest.mark.parametrize("facets", [
    [([1, 0], 0), ([-1, 0], 1), ([1, 0], 2)],   # strip: the normals span a line
    [([1, 0], 0), ([0, 1], 0), ([1, 1], 1)],    # quadrant: the extreme ray (0, 1)
    [([1, 0], 0), ([-1, 0], 1), ([0, 1], 0)],   # half strip
], ids=["strip", "quadrant", "half-strip"])
def test_unbounded_rejected_2d(facets):
    with pytest.raises(ValueError, match="unbounded"):
        DelzantPolytope(2, tuple(Facet(v, c) for v, c in facets))


def test_empty_interior_rejected():
    with pytest.raises(ValueError, match="empty interior"):
        DelzantPolytope(1, (Facet((1,), 0), Facet((-1,), 0)))


@pytest.mark.parametrize("dim,facets", [
    (1, [([1], -1), ([-1], 0)]),                           # 1 <= x <= 0: empty
    (2, [([1, 0], 0), ([-1, 0], 0), ([0, 1], 0), ([0, -1], 1)]),   # a segment
    (2, [([1, 0], 0), ([0, 1], 0), ([-1, -1], -1)]),       # x, y >= 0, x + y <= -1
], ids=["empty-1d", "segment", "empty-2d"])
def test_empty_interior_rejected_in_dims_1_and_2(dim, facets):
    with pytest.raises(ValueError, match="empty interior"):
        DelzantPolytope(dim, tuple(Facet(v, c) for v, c in facets))


def verdict(dim, facets):
    """'unbounded', 'empty' or 'ok' (both checks passed) of the exact checks."""
    try:
        DelzantPolytope(dim, facets)
    except ValueError as exc:
        for word, name in (("unbounded", "unbounded"), ("empty interior", "empty")):
            if word in str(exc):
                return name
    return "ok"


def linprog_verdict(dim, facets):
    """The same verdict from two linear programs in floating point."""
    from scipy.optimize import linprog
    normals = np.array([f.normal for f in facets], dtype=float)
    offsets = np.array([float(f.offset) for f in facets])
    for i in range(dim):
        for sign in (1.0, -1.0):
            c = np.zeros(dim)
            c[i] = -sign  # maximize sign * d_i over the recession cone
            res = linprog(c, A_ub=-normals, b_ub=np.zeros(len(facets)),
                          bounds=[(-1.0, 1.0)] * dim, method="highs")
            if res.status != 0 or -res.fun > 1e-9:
                return "unbounded"
    # maximize s subject to ell_r(x) >= s
    c = np.zeros(dim + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.hstack([-normals, np.ones((len(facets), 1))]), b_ub=offsets,
                  bounds=[(None, None)] * dim + [(None, 1e6)], method="highs")
    return "empty" if res.status != 0 or -res.fun <= 1e-12 else "ok"


@st.composite
def facet_sets(draw):
    dim = draw(st.integers(1, 2))
    facets = []
    for _ in range(draw(st.integers(dim + 1, dim + 3))):
        normal = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
                      .filter(any))
        g = math.gcd(*normal)
        facets.append(Facet(tuple(v // g for v in normal), draw(st.integers(-2, 2))))
    return dim, tuple(facets)


@settings(max_examples=100, deadline=None)
@given(facet_sets())
def test_exact_checks_agree_with_linear_programs(case):
    dim, facets = case
    assert verdict(dim, facets) == linprog_verdict(dim, facets)


def test_nonprimitive_normal_rejected():
    with pytest.raises(ValueError, match="primitive"):
        Facet((2, 4), 1)


@settings(max_examples=50, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.integers(0, 2))
def test_facet_value_is_affine(x, y, r):
    P = preset_polytope("simplex2")
    a = np.array([x, y])
    b = np.array([y * 0.5, x * 0.25])
    lhs = P.ell(a)[..., r] + P.ell(b)[..., r]
    rhs = 2.0 * P.ell((a + b) / 2.0)[..., r]
    assert abs(lhs - rhs) < 1e-12


def test_json_round_trip(simplex):
    # the document of a snapshot's `polytope` line: offsets as exact fractions
    doc = json.loads(polytope_to_json(simplex))
    assert doc == {"dim": 2, "facets": [{"normal": [1, 0], "offset": "0"},
                                        {"normal": [0, 1], "offset": "0"},
                                        {"normal": [-1, -1], "offset": "1"}]}
    back = DelzantPolytope(doc["dim"], tuple(Facet(f["normal"], f["offset"])
                                             for f in doc["facets"]))
    assert back == simplex
    third = DelzantPolytope(1, (Facet((1,), "1/3"), Facet((-1,), 0.5)))
    assert [f["offset"] for f in json.loads(polytope_to_json(third))["facets"]] == ["1/3", "1/2"]


def test_fractional_offsets():
    P = DelzantPolytope(1, (Facet((1,), "1/3"), Facet((-1,), 0.5)))
    # P = [-1/3, 1/2]; exact lattice membership at the boundary
    assert lattice_points(P, 3)[:, 0].tolist() == [-1, 0, 1]
    assert lattice_points(P, 2)[:, 0].tolist() == [0, 1]


def test_each_preset_call_builds_a_new_polytope():
    # lattice_points caches on the instance, so no caller shares another's cache
    a, b = preset_polytope("square"), preset_polytope("square")
    assert a is not b and a == b
    assert [(f.normal, f.offset) for f in a.facets] == [
        ((1, 0), 0), ((0, 1), 0), ((-1, 0), 1), ((0, -1), 1)]
    assert list(preset_polytope("interval").vertices) == [(0,), (1,)]
    with pytest.raises(KeyError, match="unknown polytope preset 'cube'; available: "
                       r"\['interval', 'simplex2', 'square'\]"):
        preset_polytope("cube")
