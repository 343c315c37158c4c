"""What a fresh interpreter imports: the geodesic, disc and rectangle
pipelines run on numpy alone, and scipy is loaded only by the splines of
sampled potentials.  Each path runs in its own interpreter, so no path's
imports hide another's."""

import json
import os
import subprocess
import sys
from pathlib import Path

import toricmaps

SRC = str(Path(toricmaps.__file__).resolve().parents[1])

PIPELINES = """
import json, sys
from toricmaps import dirichlet, flows, harness
harness.run_experiment(harness.ExperimentConfig(levels=(4, 8), n_y=9, n_rho=201))
cfg = harness.ExperimentConfig(domain="disc", a=0.05, levels=(4, 8), n_radii=5,
                               n_angles=64, n_rho=201)
result = harness.run_experiment(cfg)
flows.hcma_residual(result.field.values, result.family.domain, cfg.rho_axis())
lam = result.approximants[8].norming.lam[0, -1, :]
dirichlet.harmonic_extend_disc_fourier(result.family.domain, dirichlet.BoundaryData(lam))
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""

SPLINES = """
import json, sys
import numpy as np
from toricmaps import polytope, potentials
P = polytope.preset_polytope("interval")
phi = potentials.fubini_study(np.linspace(-6.0, 6.0, 121))
potentials.to_symplectic(phi, P, potentials.make_polytope_grid(P, 101, 0.01))
print(json.dumps("scipy.interpolate" in sys.modules))
"""

RECTANGLE = """
import json, sys
import numpy as np
from toricmaps import dirichlet
domain = dirichlet.make_rectangle(5, 5)
dirichlet.harmonic_extend(domain, dirichlet.BoundaryData(np.ones(domain.n_boundary)))
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def run_fresh(code: str):
    """The JSON last printed by `code` in a new interpreter with this src/ first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def test_geodesic_and_disc_passes_import_no_scipy():
    assert run_fresh(PIPELINES) == []


def test_splines_load_scipy_on_demand():
    assert run_fresh(SPLINES) is True


def test_rectangle_solve_imports_no_scipy():
    assert run_fresh(RECTANGLE) == []
