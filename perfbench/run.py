"""
Benchmark of the toricmaps convergence pipeline.

    python3 perfbench/run.py --workload disc --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py                    # every workload, each in its own process
    python3 -m pytest perfbench                 # the benchmark's own tests

Run from the root of a checkout; the library is imported from its `src/`.
One run of a workload sets up, makes one warm-up pass (excluded from the
timings), then repeats seeded experiment passes (see `workloads.py`) for
`--seconds`, checking every pass's outputs.

`--trace 0` reports the end-to-end metrics:
  pipeline_s   median wall time of one pass, tracing off,
  setup_s      interpreter start to the first pass being ready (import of
               toricmaps, numpy and scipy plus input generation), the median
               of several fresh interpreters started by this run,
  peak_rss_mb  peak resident memory of the run's own process.
`--trace 1` runs each pass untraced and then traced on the same inputs,
requires the two to agree bitwise, and reports the per-layer metrics of
`tracing.PER_LAYER`; spans are written to `perfbench/out/`.

Failed passes (a raised NewtonError, QuadratureError, ConvexityError or
maximum-principle RuntimeError, or a failed output check) are counted in
`failed`; error_rate = failed / attempted is printed, and any failure makes
the run exit with status 1.  The last line of standard output is the JSON
result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one load-generating process: BLAS may use every core, and no more
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, str(NPROC))

import workloads  # noqa: E402  (after the thread caps: it imports numpy)
from workloads import potentials  # noqa: E402

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(), "nproc": NPROC,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def _summary(name, values, unit, what) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"{name} = {statistics.median(values)!r} {unit}  "
            f"(median of {len(values)} {what}; quartiles {q1:.4g} .. {q3:.4g})")


# -- one workload ------------------------------------------------------------------

def setup(workload: str, seed: int):
    """Everything between the imports and the first pass being ready."""
    w = workloads.WORKLOADS[workload](seed)
    return w, w.draw()


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import and set up, then exit."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                        "--seed", str(seed), "--setup-probe"],
                       check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs, times and checks passes; counts attempts and failures."""

    def __init__(self, w, seed: int):
        self.w = w
        self.check_reference = seed == workloads.DEFAULT_SEED
        self.attempted = 0
        self.failed = 0

    def run(self, params: dict):
        """One timed pass: (seconds, record), with record None if the pass failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.w.run(params)
        except (RuntimeError, potentials.ConvexityError) as exc:  # NewtonError, QuadratureError, ...
            self.fail(params, [f"{type(exc).__name__}: {exc}"])
            return time.perf_counter() - t0, None
        seconds = time.perf_counter() - t0
        record = out.record()
        fails = self.w.check(params, out)
        if self.check_reference:
            # the recorded numbers belong to the first pass of the default seed
            fails += workloads.check_reference(self.w.name, record)
            self.check_reference = False
        if fails:
            self.fail(params, fails)
            return seconds, None
        return seconds, record

    def fail(self, params, messages):
        self.failed += 1
        for m in messages:
            print(f"# FAILED pass {self.attempted} {json.dumps(params)}: {m}", flush=True)


def timed_passes(args, w, runner: Runner) -> tuple[dict, list[str]]:
    setup_times = measure_setup(args.workload, args.seed)
    times = []
    t_end = time.perf_counter() + args.seconds
    while True:
        seconds, _ = runner.run(w.draw())
        times.append(seconds)
        if time.perf_counter() >= t_end:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"pipeline_s": {"value": statistics.median(times), "unit": "s"},
               "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
               "peak_rss_mb": {"value": peak, "unit": "MB"}}
    lines = [_summary("pipeline_s", times, "s", "passes after warm-up"),
             _summary("setup_s", setup_times, "s", "fresh interpreters"),
             f"peak_rss_mb = {peak!r} MB  (1 process)"]
    return metrics, lines


def traced_passes(args, w, runner: Runner, warmup_s: float) -> tuple[dict, list[str]]:
    """Each pass untraced, then traced on the same inputs; outputs must agree bitwise."""
    import tracing
    tracer = tracing.Tracer()
    plain, traced = [], []
    t_end = time.perf_counter() + args.seconds
    while True:
        params = w.draw()
        seconds, record = runner.run(params)
        plain.append(seconds)
        tracer.pass_id += 1
        with tracer.installed(tracing.TARGETS), tracer.span("pass"):
            seconds, traced_record = runner.run(params)
        traced.append(seconds)
        if record is not None and traced_record is not None and record != traced_record:
            runner.fail(params, ["traced pass differs from the untraced pass"])
        if time.perf_counter() >= t_end:
            break
    values = tracing.layer_metrics(tracer.spans)
    values["trace.warmup_pass_s"] = warmup_s
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "environment": environment(), "spans": tracer.dump()}, fh)
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit, _, _ in tracing.PER_LAYER}
    lines = [f"{name} = {metrics[name]['value']!r} {unit}"
             + ("  (computed from arguments and results)" if computed else "")
             for name, unit, _, computed in tracing.PER_LAYER]
    lines.append(f"per pass, median of {len(traced)} traced passes")
    return metrics, lines


def run_workload(args) -> dict:
    w, params = setup(args.workload, args.seed)
    runner = Runner(w, args.seed)
    warmup_s, _ = runner.run(params)
    if args.trace:
        metrics, lines = traced_passes(args, w, runner, warmup_s)
    else:
        metrics, lines = timed_passes(args, w, runner)
    lines.append(f"error_rate = {runner.failed}/{runner.attempted} = "
                 f"{runner.failed / runner.attempted!r}  "
                 "(failed/attempted passes, warm-up included)")
    for line in lines:
        print(f"# {args.workload}: {line}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


# -- every workload ------------------------------------------------------------------

def run_all(args) -> int:
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S + args.seconds)
        sys.stdout.write(proc.stdout)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        status = status or proc.returncode or (0 if result["correct"] else 1)
        rows.append((name, result))
    for name, result in rows:
        metrics = ", ".join(f"{k} {m['value']:.4g} {m['unit']}"
                            for k, m in result["metrics"].items())
        print(f"{name:10s} {metrics}, error_rate {result['failed']}/{result['attempted']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    print(f"# environment: {json.dumps(environment())}")
    result = run_workload(args)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
