"""Write the numbers the program reports as JSON, or compare them with an
earlier run's, so a change can show which numbers it moved and by how much.

    python3 scripts/fingerprint.py [--out NEW.json] [--against OLD.json]

The numbers, each a list of floats under a flat key:

  * every error column of `run_experiment(acceptance.GEODESIC)` and of
    `run_experiment(acceptance.DISC)` (`geodesic.C0`, `disc.C2_yy`, ...);
  * the disc run's complex-Hessian residual report (`disc.hcma.*`, of its
    Kahler field with the default margin), its Poisson/Fourier gap
    (`disc.poisson_fourier_gap`, the acceptance cross-check's number), the
    discrete Laplacian residual of its family's f (`disc.laplace_residual`)
    and the largest |f - einsum extension of f's boundary ring| over its
    nodes (`disc.family_f.max_abs_vs_einsum`, how far the operator that
    extended f is from the dense weights applied column by column);
  * the two sups of the flow-duality acceptance check
    (`flow_duality.sup_n<n_t>`, `acceptance._flow_residual` at both of its
    resolutions);
  * the first-pass records of the benchmark's default seed for every
    workload (`bench.<workload>.<key>`), read by importing
    `perfbench/workloads.py`;
  * sha256 digests (`*.sha256`), for the numbers that should not move at
    all: of the two families' smooth parts f, of the two Kahler fields, of
    every level's harmonic norming table, of the heat-flowed f of the
    rectangle bench pass, and of both halves of the Legendre round trip of
    `acceptance.check_legendre_involution` (`legendre.*`: the f of
    `to_symplectic(fubini_study(...))` and the values of `to_kahler` of it,
    the Newton kernel's callers besides `kahler_field`), and of the norming
    tables of a product potential on the square at levels 1, 2, 4, 8
    (`square.norming_k<k>.sha256`, the m = 2 quadrature).

Every path is taken from this file's checkout, so a copy of the script in
another checkout fingerprints that checkout.  With `--against`, each key
prints its largest absolute and relative change against OLD.json ("same"
when bitwise equal).  It only prints and writes; it gates nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from toricmaps import acceptance, bergman, dirichlet, flows, harness, potentials  # noqa: E402
from toricmaps.polytope import preset_polytope  # noqa: E402


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=float).tobytes()).hexdigest()


def experiment_numbers(name: str, cfg) -> tuple[dict, object]:
    result = harness.run_experiment(cfg)
    numbers = {f"{name}.{col}": [float(v) for v in result.report.column(col)]
               for col in harness.ERROR_COLUMNS}
    numbers[f"{name}.family_f.sha256"] = digest(result.family.f)
    numbers[f"{name}.kahler_field.sha256"] = digest(result.field.values)
    for k, fam in sorted(result.approximants.items()):
        numbers[f"{name}.norming_k{k}.sha256"] = digest(fam.norming.lam)
    return numbers, result


def fingerprint() -> dict:
    numbers, _ = experiment_numbers("geodesic", acceptance.GEODESIC)
    disc, result = experiment_numbers("disc", acceptance.DISC)
    numbers.update(disc)
    domain, field = result.family.domain, result.field
    rep = flows.hcma_residual(field.values, domain, field.rho_axis)
    for key in ("sup", "mean", "fiber_hessian_min"):
        numbers[f"disc.hcma.{key}"] = [float(getattr(rep, key))]
    data = dirichlet.BoundaryData(result.approximants[max(acceptance.DISC.levels)]
                                  .norming.lam[:, -1, :].T)
    poisson = dirichlet.harmonic_extend(domain, data).values
    fourier = dirichlet.harmonic_extend_disc_fourier(domain, data).values
    numbers["disc.poisson_fourier_gap"] = [float(np.max(np.abs(poisson - fourier)))]
    f = dirichlet.HarmonicField(domain, result.family.f)
    numbers["disc.laplace_residual"] = [dirichlet.laplace_residual(domain, f)]
    einsum = np.einsum("ilj,j...->il...", domain.poisson_weights, f.values[-1])
    numbers["disc.family_f.max_abs_vs_einsum"] = [float(np.max(np.abs(f.values[:-1] - einsum)))]
    # the grids of acceptance.check_legendre_involution
    grid = potentials.make_radial_grid([-12.0], [12.0], [2001])
    P = preset_polytope("interval")
    u = potentials.to_symplectic(potentials.fubini_study(grid), P,
                                 potentials.make_polytope_grid(P, 801, 1e-4))
    numbers["legendre.to_symplectic_f.sha256"] = digest(u.f_values)
    numbers["legendre.to_kahler.sha256"] = digest(potentials.to_kahler(u, grid).values)
    S = preset_polytope("square")
    u = potentials.product_potential(S, 0.05, potentials.make_polytope_grid(S, 9, 0.05))
    for k in (1, 2, 4, 8):
        numbers[f"square.norming_k{k}.sha256"] = digest(bergman.norming_constants(u, k).log_q)
    # the resolutions of acceptance.check_flow_duality
    for n_t, n_x, n_rho, refine in ((33, 161, 401, 1), (65, 321, 801, 4)):
        numbers[f"flow_duality.sup_n{n_t}"] = [
            acceptance._flow_residual(n_t, n_x, n_rho, refine)]

    import workloads
    for name, cls in workloads.WORKLOADS.items():
        w = cls(workloads.DEFAULT_SEED)
        out = w.run(w.draw())
        for key, values in out.record().items():
            numbers[f"bench.{name}.{key}"] = values
        if out.heat is not None:
            numbers[f"bench.{name}.heat_f.sha256"] = digest(out.heat.f)
    return numbers


def compare(new: dict, old: dict) -> list[str]:
    """One line per key: 'same', or the largest absolute and relative change."""
    lines = []
    for key in sorted(set(new) | set(old)):
        a, b = new.get(key), old.get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in {'OLD' if a is None else 'NEW'}")
        elif a == b:
            lines.append(f"{key}: same")
        elif isinstance(a, str) or len(a) != len(b):
            lines.append(f"{key}: differs")
        else:
            a, b = np.array(a), np.array(b)
            diff = np.abs(a - b)
            rel = np.max(diff / np.where(b != 0, np.abs(b), 1.0))
            lines.append(f"{key}: abs {np.max(diff):.3e} rel {rel:.3e}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the fingerprint to this JSON file")
    parser.add_argument("--against", type=Path, help="an earlier fingerprint to compare with")
    args = parser.parse_args(argv)
    numbers = fingerprint()
    if args.out:
        args.out.write_text(json.dumps(numbers, indent=1) + "\n")
    if args.against:
        print("\n".join(compare(numbers, json.loads(args.against.read_text()))))
    elif not args.out:
        print(json.dumps(numbers, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
