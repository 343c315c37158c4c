"""
Command-line front end.

Subcommands group the self-checking experiment suites; the exit code is
nonzero exactly when one of the invoked assertions fails.

    toricmaps legendre-check             transform round-trip and duality
    toricmaps geodesic [--out DIR]       interval convergence experiment
    toricmaps disc                       disc convergence + kernel cross-check
    toricmaps flow-duality [--out DIR --snapshot-every N]
                                         heat-flow / harmonic-map-flow duality
    toricmaps diagnostics                norming oracle, szego, localization,
                                         peak asymptotics, ratio bounds
    toricmaps all                        every suite

A suite takes only the flags it reads (see _SUITE_FLAGS); the experiment
flags shape the files written under --out, so they need --out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import acceptance
from .harness import (ExperimentConfig, rate_fit, run_experiment,
                      write_error_csv, write_error_dat)

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
    "--levels": dict(type=str, help="comma-separated level list, e.g. 8,16,32,64"),
    "--resolution": dict(type=str,
                         help="comma-separated overrides, e.g. n_x=801,n_rho=801,n_y=17"),
    "--window": dict(type=float,
                     help="interior window threshold on the facet functions"),
    "--out": dict(type=Path, help="directory for the written files"),
    "--snapshot-every": dict(type=int, help="heat steps between flow snapshots"),
}

# the flags each suite reads; the other suites and `all` take none
_SUITE_FLAGS = {
    "geodesic": ("--config", "--levels", "--resolution", "--window", "--out"),
    "flow-duality": ("--config", "--resolution", "--out", "--snapshot-every"),
}


def _load_config(args) -> ExperimentConfig:
    doc = {}
    if args.config is not None:
        doc = json.loads(Path(args.config).read_text())
    if getattr(args, "levels", None):
        doc["levels"] = [int(v) for v in args.levels.split(",")]
    if args.resolution:
        for pair in args.resolution.split(","):
            key, val = pair.split("=")
            doc[key.strip()] = int(val)
    if getattr(args, "window", None) is not None:
        doc["window"] = args.window
    cfg = ExperimentConfig.from_json(doc)
    if cfg.domain != "interval":
        raise ValueError(f"domain {cfg.domain!r}: the {args.command} suite "
                         "runs on the interval domain")
    cfg.family_spec()                  # raises on a config no family can run
    return cfg


def _checked_config(p: argparse.ArgumentParser, args) -> ExperimentConfig | None:
    """The config of a suite's output files, or None without --out; exits
    through `p.error` on a flag that would have no effect."""
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


def _write_flow_snapshots(cfg: ExperimentConfig, out: Path, every: int):
    from .flows import heat_evolve, save_snapshot
    state, dtau = acceptance.flow_start(cfg.n_y, cfg.n_x)
    out.mkdir(parents=True, exist_ok=True)
    for _ in range(10):
        save_snapshot(state, out / f"flow_{state.tau:.6f}.txt")
        state = heat_evolve(state, dtau, every)
    save_snapshot(state, out / f"flow_{state.tau:.6f}.txt")
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
    if len(report.levels) >= 4:
        fit = rate_fit(report.levels, report.column("C0"))
        msg += f" (C0 log-log slope {fit.slope:.3f})"
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
    results = acceptance.run_checks(_SUITES.get(args.command), verbose=True)
    if cfg is not None and args.command == "geodesic":
        _write_geodesic_outputs(cfg, args.out)
    if cfg is not None and args.command == "flow-duality":
        _write_flow_snapshots(cfg, args.out, args.snapshot_every)
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
