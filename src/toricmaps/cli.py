"""
Command-line front end.

Subcommands group the self-checking experiment suites; the exit code is
nonzero exactly when one of the invoked checks fails or raises.

    toricmaps legendre-check             transform round-trip and duality
    toricmaps geodesic [--config FILE --out DIR]
                                         interval convergence experiment
    toricmaps disc                       disc convergence + kernel cross-check
    toricmaps flow-duality [--config FILE --out DIR --snapshot-every N]
                                         heat-flow / harmonic-map-flow duality
    toricmaps diagnostics                norming oracle, szego, localization,
                                         peak asymptotics, ratio bounds
    toricmaps all                        every suite

A suite takes only the flags (_SUITE_FLAGS) and config keys (_SUITE_KEYS)
it reads; --config and --snapshot-every shape the files written under
--out, so they need --out.  The JSON file given by --config is the one way
to set an `ExperimentConfig` field; each value must have the field's type.
Any other key or type is a usage error naming the key, raised before a
check runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import acceptance
from .harness import ExperimentConfig, run_experiment, write_error_csv, write_error_dat

_SUITES = {
    "legendre-check": (acceptance.check_legendre_involution,
                       acceptance.check_gradient_hessian_duality),
    "geodesic": (acceptance.check_geodesic_c0,
                 acceptance.check_geodesic_c1_c2),
    "disc": (acceptance.check_disc_c0_crosscheck,
             acceptance.check_hcma_residual),
    "flow-duality": (acceptance.check_flow_duality,),
    "diagnostics": (acceptance.check_norming_oracle,
                    acceptance.check_duality_identity,
                    acceptance.check_szego_normalization,
                    acceptance.check_ratio_bounds,
                    acceptance.check_peak_asymptotics,
                    acceptance.check_localization),
}

_FLAGS = {
    "--config": dict(type=Path,
                     help="JSON experiment config (see ExperimentConfig fields)"),
    "--out": dict(type=Path, help="directory for the written files"),
    "--snapshot-every": dict(type=int, help="heat steps between flow snapshots"),
}

# the flags each suite reads; the other suites and `all` take none
_SUITE_FLAGS = {
    "geodesic": ("--config", "--out"),
    "flow-duality": ("--config", "--out", "--snapshot-every"),
}


# the config keys each suite's output files read; any other key is a usage
# error.  Both suites run on the interval domain; the flow's start data is
# fixed (acceptance.flow_start), so it reads only its own grid (n_x is no
# config field): its f is sampled, so unlike the families' x-grid, n_x counts.
_FLOW_GRID = {"n_y": ExperimentConfig.n_y, "n_x": 801}
_SUITE_KEYS = {
    "geodesic": ("a", "levels", "n_y", "n_rho", "rho_span", "window"),
    "flow-duality": tuple(_FLOW_GRID),
}


def _load_config(args):
    """The geodesic suite's ExperimentConfig, or the flow's (n_y, n_x)."""
    doc = {} if args.config is None else json.loads(args.config.read_text())
    flow = args.command == "flow-duality" and isinstance(doc, dict)
    grid = {key: doc.pop(key, n) for key, n in _FLOW_GRID.items()} if flow else {}
    unread = sorted(set(ExperimentConfig.json_fields(doc)) - set(_SUITE_KEYS[args.command]))
    if unread:
        raise ValueError(f"{', '.join(unread)}: not read by the {args.command} suite")
    for key, n in grid.items():
        if type(n) is not int:          # nor a bool, as in ExperimentConfig.check_types
            raise ValueError(f"{key}: {n!r} is not an int")
        if n < 3:
            raise ValueError(f"{key} = {n}: the flow's grids need at least 3 nodes")
    return tuple(grid.values()) if flow else ExperimentConfig(**doc)


def _checked_config(p: argparse.ArgumentParser, args):
    """What shapes a suite's output files (see `_load_config`), or None without
    --out; exits through `p.error` on a flag or key that would have no effect."""
    given = [f for f in _SUITE_FLAGS.get(args.command, ())
             if f != "--out" and getattr(args, f[2:].replace("-", "_")) is not None]
    if args.command not in _SUITE_FLAGS or args.out is None:
        if given:
            p.error(f"{', '.join(given)} given without --out")
        return None
    if args.command == "flow-duality":
        if args.snapshot_every is None:
            p.error("--out given without --snapshot-every")
        if args.snapshot_every <= 0:
            p.error("--snapshot-every must be positive")
    try:
        return _load_config(args)
    except (OSError, ValueError) as exc:
        p.error(str(exc))


def _write_flow_snapshots(grid: tuple[int, int], out: Path, every: int):
    from .flows import heat_evolve, save_snapshot
    state, dtau = acceptance.flow_start(*grid)
    out.mkdir(parents=True, exist_ok=True)
    save_snapshot(state, out / "flow_00.txt")
    for i in range(1, 11):
        state = heat_evolve(state, dtau, every)
        save_snapshot(state, out / f"flow_{i:02d}.txt")
    print(f"wrote 11 snapshots to {out}")


def _write_geodesic_outputs(cfg: ExperimentConfig, out: Path):
    # the geodesic checks have just run acceptance.GEODESIC: reuse that run
    result = (acceptance.geodesic_run()[0] if cfg == acceptance.GEODESIC
              else run_experiment(cfg))
    report = result.report
    out.mkdir(parents=True, exist_ok=True)
    write_error_csv(report, out / "geodesic_errors.csv")
    write_error_dat(report, out / "geodesic_errors.dat")
    msg = f"wrote {out / 'geodesic_errors.csv'}"
    if len(report.levels) >= 2:
        gate = acceptance.order_gate(report.levels, report.column("C0"), 1.0)
        msg += f"; C0 order in k: {gate}"
    print(msg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="toricmaps",
        description="harmonic maps into toric Kahler metrics: "
                    "experiments and self-checks")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name in (*_SUITES, "all"):
        p = subparsers[name] = sub.add_parser(
            name, help="run every suite" if name == "all" else f"run the {name} suite")
        for flag in _SUITE_FLAGS.get(name, ()):
            p.add_argument(flag, default=None, **_FLAGS[flag])
    args = parser.parse_args(argv)
    cfg = _checked_config(subparsers[args.command], args)
    results = acceptance.run_checks(_SUITES.get(args.command))
    if cfg is not None and args.command == "geodesic":
        _write_geodesic_outputs(cfg, args.out)
    if cfg is not None and args.command == "flow-duality":
        _write_flow_snapshots(cfg, args.out, args.snapshot_every)
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
