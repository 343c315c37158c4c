"""Print the wall time and the tracemalloc peak of each stage of one
geodesic pass and one disc pass.

    python3 scripts/stage_peaks.py

The geodesic pass is `harness.run_experiment(acceptance.GEODESIC)` (the
interval family on 17 nodes, 801 x nodes and 801 rho, levels 8..64), where
the norming quadrature's buffers peak.  The disc pass is
`harness.run_experiment(acceptance.DISC)` (the loop family on 9 x 256
nodes, 801 x nodes, 601 rho, levels 8, 16, 32: the shape of the benchmark's
disc workload) followed by `flows.hcma_residual` of its field.  Each stage
is wrapped where `run_experiment` looks it up, and reports:

  * live:  MB traced as allocated when the stage starts;
  * peak:  the largest MB traced as allocated while it runs;
  * above: peak - live, what the stage itself holds at its worst.

Each pass runs twice: first untraced, for each stage's wall time ("s"),
then under tracemalloc, which slows numpy's allocations, for the memory
columns and the traced wall time ("traced s").  The last lines of each pass
are the peak of the whole traced pass and the peak RSS of the workers
`kahler_field` forked so far, which tracemalloc cannot see: RUSAGE_CHILDREN,
the largest child reaped, as this script starts no other child process.  A
launcher that this interpreter replaced by exec may have reaped children
too; the first line prints their peak.  It only prints; it gates nothing.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from toricmaps import acceptance, flows, harness  # noqa: E402

STAGES = ("solve_harmonic_map", "kahler_field", "build_approximants", "error_report")
MB = 1e6


def timed(name: str, fn, rows: list):
    """fn, recording its wall time into `rows`, and when tracemalloc traces,
    its live memory at entry and its peak."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracing = tracemalloc.is_tracing()
        live = tracemalloc.get_traced_memory()[0] if tracing else None
        if tracing:
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1] if tracing else None
            rows.append((name, seconds, live, peak))
    return wrapper


def children_peak() -> int:
    """The peak RSS in bytes of the largest child process reaped so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024


def run_pass(cfg, hcma):
    result = harness.run_experiment(cfg)
    if cfg.domain == "disc":
        hcma(result.field.values, result.family.domain, result.field.rho_axis)


def main() -> int:
    rows = []
    for name in STAGES:
        setattr(harness, name, timed(name, getattr(harness, name), rows))
    hcma = timed("hcma_residual", flows.hcma_residual, rows)
    print(f"children's peak RSS before the passes: {children_peak() / MB:.1f} MB")
    for label, cfg in (("geodesic", acceptance.GEODESIC), ("disc", acceptance.DISC)):
        rows.clear()
        run_pass(cfg, hcma)
        untraced = [seconds for _, seconds, *_ in rows]
        rows.clear()
        tracemalloc.start()
        try:
            run_pass(cfg, hcma)
        finally:
            tracemalloc.stop()
        print(f"{label + ' stage':<20} {'s':>7} {'traced s':>9} {'live MB':>9} "
              f"{'peak MB':>9} {'above MB':>9}")
        for (name, seconds, live, peak), plain in zip(rows, untraced):
            print(f"{name:<20} {plain:7.3f} {seconds:9.3f} {live / MB:9.1f} "
                  f"{peak / MB:9.1f} {(peak - live) / MB:9.1f}")
        print(f"{label} pass peak: {max(peak for *_, peak in rows) / MB:.1f} MB")
        print(f"{label} workers' peak RSS so far: {children_peak() / MB:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
