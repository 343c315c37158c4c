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

The last line of each pass is the peak of the whole pass.  Times run under
tracemalloc, which slows numpy's allocations; they rank the stages and are
not the benchmark's numbers.  It only prints; it gates nothing.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from toricmaps import acceptance, flows, harness  # noqa: E402

STAGES = ("solve_harmonic_map", "kahler_field", "build_approximants", "error_report")
MB = 1e6


def traced(name: str, fn, rows: list):
    """fn, recording its wall time, live memory at entry and peak into `rows`."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            rows.append((name, seconds, live, tracemalloc.get_traced_memory()[1]))
    return wrapper


def main() -> int:
    rows = []
    for name in STAGES:
        setattr(harness, name, traced(name, getattr(harness, name), rows))
    hcma = traced("hcma_residual", flows.hcma_residual, rows)
    for label, cfg in (("geodesic", acceptance.GEODESIC), ("disc", acceptance.DISC)):
        rows.clear()
        tracemalloc.start()
        try:
            result = harness.run_experiment(cfg)
            if cfg.domain == "disc":
                hcma(result.field.values, result.family.domain, result.field.rho_axis)
        finally:
            tracemalloc.stop()
        print(f"{label + ' stage':<20} {'s':>7} {'live MB':>9} {'peak MB':>9} "
              f"{'above MB':>9}")
        for name, seconds, live, peak in rows:
            print(f"{name:<20} {seconds:7.3f} {live / MB:9.1f} {peak / MB:9.1f} "
                  f"{(peak - live) / MB:9.1f}")
        print(f"{label} pass peak: {max(peak for *_, peak in rows) / MB:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
