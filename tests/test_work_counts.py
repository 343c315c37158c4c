"""Work counts of the fiber kernels: each structural result is computed once,
and the Legendre inversion of a family is one solve per block of at most
LSE_BLOCK targets.  Counts, not wall time, so a per-node loop that comes back
fails here on any machine.
"""

import re
import tracemalloc

import numpy as np
import pytest

from toricmaps import bergman, dirichlet, harness, polytope, potentials
from toricmaps.bergman import harmonic_norming, norming_constants
from toricmaps.dirichlet import (BoundaryData, boundary_weights,
                                 harmonic_extend, make_disc, make_rectangle)
from toricmaps.harness import (build_approximants, error_report,
                               geodesic_family, kahler_field, loop_family)


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_kahler_field_is_one_newton_solve(monkeypatch):
    family = loop_family(a=0.05, n_radii=4, n_angles=64)
    calls = counting(monkeypatch, harness, "_invert_monotone_1d")
    kahler_field(family, np.linspace(-3.0, 3.0, 41))
    assert len(calls) == 1
    assert calls[0][2].shape == (int(np.prod(family.domain.shape)), 41)


def test_kahler_field_is_one_newton_solve_per_block(newton_solves):
    family = loop_family(a=0.05, n_radii=4, n_angles=64)
    kahler_field(family, np.linspace(-4.0, 4.0, 2049))
    # 320 nodes in blocks of LSE_BLOCK // 2049 = 31 rows, each with every rho,
    # counted in every process that solves a share of the blocks
    assert sorted(shape for _, shape in newton_solves()) == \
        [(10, 2049)] + [(31, 2049)] * 10


def test_each_node_closed_form_is_built_once_per_family():
    # the closed-form check, kahler_field and potential_at share one list
    domain = make_disc(4, 64)
    P = polytope.preset_polytope("interval")
    xgrid = potentials.make_polytope_grid(P, 201, potentials.default_margin(8))
    c = 0.05 * (1.0 + np.cos(domain.angles))
    bps = [potentials.SymplecticPotential(P, xgrid, f_closed=potentials._product_ell_closed(P, b))
           for b in c]
    coeff = domain.extend(c)
    built = []

    def closed(idx):
        built.append(idx)
        return potentials._product_ell_closed(P, coeff[idx])

    family = harness.solve_harmonic_map(domain, xgrid, bps, closed)
    kahler_field(family, np.linspace(-4.0, 4.0, 2049))
    family.potential_at((1, 3))
    assert built == family.node_indices()


def test_error_report_evaluates_phi_k_on_the_window_and_two_stencil_columns(monkeypatch):
    family = geodesic_family(a=0.1, n_t=5)
    rho = np.linspace(-4.0, 4.0, 161)
    field = kahler_field(family, rho)
    approx = build_approximants(family, (4, 8))
    calls = counting(monkeypatch, bergman.BergmanFamily, "field")
    report = error_report(family, field, approx, window=0.1)
    n_window = report.meta["n_rho_window"]
    assert [np.size(r) for _, r in calls] == [n_window + 2] * 2
    assert n_window + 2 < rho.size


def test_kahler_field_reads_each_node_evaluator_directly(monkeypatch):
    family = loop_family(a=0.05, n_radii=4, n_angles=64)
    evaluators = counting(monkeypatch, harness, "_evaluator")
    wrappers = counting(monkeypatch, potentials.PotentialFamily, "potential_at")
    kahler_field(family, np.linspace(-3.0, 3.0, 41))
    # one evaluator per node, and one potential, node 0's, for the x bracket
    assert len(evaluators) == int(np.prod(family.domain.shape))
    assert len(wrappers) == 1


def test_bergman_weights_built_once_per_level(monkeypatch, logged_calls):
    family = loop_family(a=0.05, n_radii=5, n_angles=64)
    rho = np.linspace(-4.0, 4.0, 161)
    field = kahler_field(family, rho)
    approx = build_approximants(family, (4, 8))
    monkeypatch.setattr(harness, "LSE_BLOCK", 8 * 384)
    fields = logged_calls(bergman.BergmanFamily, "field", lambda self, r: ())
    weights = logged_calls(bergman, "_node_weights", lambda lam: ())
    error_report(family, field, approx, window=0.1)
    # many blocks per level, one set of node weights per level, read-only,
    # counted in every process that evaluates a share of the blocks
    assert len(fields()) > 2 * 4 and len(weights()) == 2
    for fam in approx.values():
        assert not any(a.flags.writeable for part in fam._weights for a in part)


def test_lattice_enumerated_once_per_polytope_and_level(monkeypatch):
    calls = counting(monkeypatch, polytope, "_enumerate_lattice")
    family = geodesic_family(a=0.1, n_t=5)
    P = family.xgrid.polytope
    for _ in range(3):
        build_approximants(family, (4, 8))
    assert [k for _, k in calls] == [4, 8]
    points = polytope.lattice_points(P, 8)
    assert points is polytope.lattice_points(P, 8)
    assert not points.flags.writeable
    # another polytope object with the same facets keeps its own cache
    polytope.lattice_points(polytope.preset_polytope("interval"), 8)
    assert [k for _, k in calls] == [4, 8, 8]


def test_disc_weights_built_once_per_domain(monkeypatch):
    calls = counting(monkeypatch, dirichlet, "_disc_weight_matrix")
    family = loop_family(a=0.05, n_radii=4, n_angles=64)
    domain = family.domain
    table = norming_constants(family.boundary_potentials[0], 4)
    harmonic_norming(domain, 4, table.alphas, np.stack([table.log_q] * domain.angles.size))
    for _ in range(3):
        harmonic_extend(domain, BoundaryData(np.cos(domain.angles)))
    assert len(calls) == 1
    assert not domain.poisson_weights.flags.writeable
    harmonic_extend(make_disc(4, 64), BoundaryData(np.cos(domain.angles)))
    assert len(calls) == 2


def test_disc_ring_spectrum_built_once_per_domain():
    domain = make_disc(4, 64)
    wide = np.cos(np.add.outer(domain.angles, np.linspace(0.0, 1.0, 65)))
    first = domain.extend(wide)
    spectrum = domain.ring_spectrum
    np.testing.assert_array_equal(domain.extend(wide), first)
    assert domain.ring_spectrum is spectrum
    assert spectrum.shape == (4, 33) and not spectrum.flags.writeable
    # the spectral path builds no dense weights; the centre ring keeps mode 0 only
    assert "poisson_weights" not in vars(domain)
    np.testing.assert_array_equal(spectrum[0], np.eye(1, 33)[0])


def test_disc_fourier_modes_built_once_per_domain():
    domain = make_disc(4, 64)
    g = BoundaryData(np.cos(3 * domain.angles))
    first = dirichlet.harmonic_extend_disc_fourier(domain, g).values
    modes = domain.fourier_modes
    np.testing.assert_array_equal(dirichlet.harmonic_extend_disc_fourier(domain, g).values, first)
    assert domain.fourier_modes is modes
    # damping, the phase's real and imaginary parts, and the mode scale
    assert [a.shape for a in modes] == [(4, 33), (64, 33), (64, 33), (33,)]
    assert all(a.flags.c_contiguous and not a.flags.writeable for a in modes)


def test_legendre_rule_built_once_per_masked_rule(monkeypatch):
    calls = counting(monkeypatch, np.polynomial.legendre, "leggauss")
    family = geodesic_family(a=0.1, n_t=5)
    for _ in range(2):
        norming_constants(family.boundary_potentials[1], 8)
    # the first call builds the validation's coarse and doubled rules (6 and
    # 12 panels), each from one Legendre rule; the second builds none
    assert sorted(family.xgrid.polytope._quad_rules) == [6, 12]
    assert [order for (order,) in calls] == [bergman.GAUSS_ORDER] * 2


def test_gauss_panel_rule_built_once_per_key(monkeypatch):
    family = loop_family(a=0.05, n_radii=4, n_angles=64)
    built = counting(monkeypatch, np.polynomial.legendre, "leggauss")
    build_approximants(family, (8,))
    # the 64 boundary tables share the polytope's masked rules, keyed by panel
    # count: a coarse and a doubled one, each built once, from one Legendre rule
    masked = family.xgrid.polytope._quad_rules
    assert len(masked) >= 2
    assert len(built) == len(masked)
    for arrays in masked.values():
        assert not any(a.flags.writeable for a in arrays)
    # a masked rule is its points, weights, and u0 and grad u0 at the points
    assert all(len(rule) == 4 for rule in masked.values())


def test_field_peak_memory_is_the_output_plus_a_block():
    family = loop_family(a=0.05, n_radii=4, n_angles=64)
    fam = build_approximants(family, (8,))[8]
    rho = np.linspace(-4.0, 4.0, 801)
    tracemalloc.start()
    try:
        field = fam.field(rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the output, and four n_alpha x (nodes + n_rho) arrays: the pairing and
    # the monomials over rho, the gaps, lam's rows and the weights over the
    # nodes (measured: 0.28 MB in all past the output).  The 320 x 9 x 801
    # exponents, and any block of them, are never built.
    factors = 8 * fam.norming.count * (field[..., 0].size + rho.size)
    assert peak <= field.nbytes + 4 * factors + 128 * 1024


def test_norming_quadrature_peak_memory_is_one_fine_rule_array():
    P = polytope.preset_polytope("interval")
    u = potentials.product_potential(
        P, 0.1, potentials.make_polytope_grid(P, 801, potentials.default_margin(64)))
    norming_constants(u, 256)           # the masked rules and the lattice, cached
    tracemalloc.start()
    try:
        table = norming_constants(u, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Each quadrature writes its exponents into one n_alpha x n_nodes buffer;
    # the largest, the fine rule's, is 1.58 MB here (the validation passes at
    # 32 panels, 2 x 32 x 12 nodes), and the rest are node-sized arrays
    # (measured: 1.73 MB in all; the allocating formula held 4.81 MB).
    n_panels = int(re.search(r"panels=(\d+)x2", table.provenance).group(1))
    fine = 8 * table.count * 2 * n_panels * bergman.GAUSS_ORDER
    assert peak <= fine + 256 * 1024


def kahler_field_peak():
    """The field of an 11-block disc family and its tracemalloc peak."""
    family = loop_family(a=0.05, n_radii=4, n_angles=64)
    rho = np.linspace(-4.0, 4.0, 2049)
    tracemalloc.start()
    try:
        field = kahler_field(family, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return field, peak


def test_kahler_field_peak_memory_is_the_output_plus_a_few_blocks(force_workers):
    force_workers(0)
    field, peak = kahler_field_peak()
    # The Newton iteration on a block of at most LSE_BLOCK targets holds 6
    # float arrays and 4 boolean ones (an eighth the size) throughout: a, b,
    # s, err and the step's two scratch arrays, with done, below, live and
    # move.  The u0 gradient or Hessian adds 3: ell (two facets), taken to
    # its log or reciprocal in place, and the result; the smooth part's row
    # loop and the sum add 2 more after ell is gone.  So 12 blocks, and
    # 1 MiB of small change: the 320 node evaluators and the rho-sized
    # arrays (measured: 11.0 blocks in all).  The |f'| bound is taken before
    # the output exists, and the 320 x 2049 targets are never held at once.
    block_bytes = 8 * potentials.LSE_BLOCK
    assert peak <= field.values.nbytes + 12 * block_bytes + 1024 * 1024


def test_kahler_field_peak_memory_with_a_worker_is_a_few_blocks(force_workers):
    # the output is a shared mapping, which tracemalloc does not trace, and
    # the worker's blocks are its own: the parent holds only its blocks'
    force_workers(1)
    _, peak = kahler_field_peak()
    assert peak <= 12 * 8 * potentials.LSE_BLOCK + 1024 * 1024


def test_bounding_box_is_read_only():
    lo, hi = polytope.preset_polytope("interval").bounding_box()
    with pytest.raises(ValueError):
        lo[0] = 1.0
    assert (lo[0], hi[0]) == (0.0, 1.0)


def test_rectangle_weights_built_once_per_domain(monkeypatch):
    # the weights read the 5-point rows once per build
    calls = counting(monkeypatch, dirichlet.RectangleDomain, "laplacian")
    domain = make_rectangle(9, 7)
    g = np.ones(domain.n_boundary)
    for _ in range(3):
        harmonic_extend(domain, BoundaryData(g))
    harmonic_extend(domain, BoundaryData(np.ones((domain.n_boundary, 5))))
    boundary_weights(domain, (4, 3))
    assert len(calls) == 1
    harmonic_extend(make_rectangle(9, 7), BoundaryData(g))
    assert len(calls) == 2


def test_rectangle_weights_peak_memory_is_a_few_weight_arrays():
    # the sine-mode build holds the boundary unit vectors, B and the einsums'
    # outputs, each (nodes, n_boundary) (measured: 4.1 weight arrays at
    # 65 x 65), never the (nx ny)^2 operator, 17.6 weight arrays there
    domain = make_rectangle(65, 65)
    tracemalloc.start()
    try:
        weights = domain.dirichlet_weights
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * weights.nbytes


def test_one_harmonic_extension_per_solve_and_per_level(monkeypatch):
    solves = counting(monkeypatch, harness, "harmonic_extend")
    levels = counting(monkeypatch, bergman, "harmonic_extend")
    for make, kwargs in ((geodesic_family, {"n_t": 5}),
                         (loop_family, {"n_radii": 4, "n_angles": 64})):
        family = make(**kwargs)
        assert len(solves) == 1
        build_approximants(family, (4, 8))
        assert len(levels) == 2
        solves.clear()
        levels.clear()
