"""
toricmaps: harmonic maps of a parameter domain into toric Kahler metrics.

The library couples three pieces of machinery:

  * the Legendre transform between Kahler potentials on the open torus orbit
    and convex symplectic potentials on the Delzant polytope (`potentials`),
  * Dirichlet harmonic extension over the parameter domain — interval, unit
    disc, or flat rectangle (`dirichlet`),
  * lattice-monomial norming constants and the log-sum-exp potentials built
    from their harmonic extensions (`bergman`),

so that the nonlinear harmonic-map problem is solved linearly on the
symplectic side (`harness.solve_harmonic_map`) and approximated at each
level k by an explicit spectral family (`harness.build_approximants`).
Heat-flow duality and degenerate complex-Hessian residuals live in `flows`;
`acceptance` bundles the self-checking experiment suite behind the CLI.
"""

from .polytope import (DelzantPolytope, Facet, lattice_points, polytope_to_json,
                       preset_polytope)
from .potentials import (ClosedForm, ConvexityError, KahlerPotential,
                         NewtonError, PolytopeGrid, PotentialFamily,
                         abreu_delta, default_margin, fubini_study,
                         guillemin_potential, make_polytope_grid,
                         product_potential, SymplecticPotential, to_kahler,
                         to_symplectic)
from .dirichlet import (BoundaryData, DiscDomain, HarmonicField,
                        IntervalDomain, RectangleDomain, harmonic_extend,
                        laplace_residual, make_disc, make_interval,
                        make_rectangle, poisson_kernel)
from .bergman import (BergmanFamily, HarmonicNorming, NormingTable,
                      QuadratureError, harmonic_norming, localization_gap,
                      norming_constants, peak_asymptotics_check, ratio_report,
                      szego_sum)
from .flows import (ResidualReport, eells_sampson_residual, hcma_residual,
                    heat_evolve, make_flow_state)
from .harness import (ErrorReport, ExperimentConfig, ExperimentResult, RateFit,
                      build_approximants, error_report, geodesic_family,
                      kahler_field, loop_family, rate_fit, run_experiment,
                      solve_harmonic_map)

__version__ = "0.1.0"
