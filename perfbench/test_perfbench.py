"""Tests of the benchmark itself: span arithmetic, wrapper transparency, and
that every output check trips on a deliberately perturbed result.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from toricmaps import bergman, harness
from toricmaps.potentials import NewtonError

HERE = Path(__file__).resolve().parent


class SmallGeodesic(workloads.Geodesic):
    levels = (4, 8, 16, 32)
    n_x = 201
    n_rho = 201


class SmallDisc(workloads.Disc):
    levels = (4, 8)
    n_radii = 6                               # the residual window needs 6 uniform radii
    n_x = 201
    n_rho = 101


class SmallRectangle(workloads.Rectangle):
    levels = (4, 8)
    n_side = 9
    n_x = 101
    n_rho = 101
    heat_steps = 50


def one_pass(cls, seed=0):
    w = cls(seed)
    params = w.draw()
    return w, params, w.run(params)


@pytest.fixture(scope="module")
def rectangle_pass():
    return one_pass(SmallRectangle)


# -- span arithmetic -------------------------------------------------------------------

def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):            # [0, 10]
        with tracer.span("a"):            # [1, 4]
            with tracer.span("g"):        # [2, 3]
                pass
        with tracer.span("b"):            # [5, 6]
            pass
    by_name = {s.name: s for s in tracer.spans}
    own = tracing.self_times(tracer.spans)
    assert by_name["g"].parent == by_name["a"].id
    assert by_name["a"].parent == by_name["b"].parent == by_name["outer"].id
    assert own[by_name["outer"].id] == 10.0 - 3.0 - 1.0
    assert own[by_name["a"].id] == 3.0 - 1.0
    assert own[by_name["b"].id] == 1.0
    assert own[by_name["g"].id] == 1.0
    assert sum(own.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [tracing.Span(0, "p", "p", 0.0, 10.0, None, 1),
             tracing.Span(1, "c", "c", 1.0, 5.0, 0, 1),
             tracing.Span(2, "c", "c", 3.0, 7.0, 0, 1),
             tracing.Span(3, "c", "c", 9.0, 12.0, 0, 1)]
    assert tracing.self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_pass_metrics_aggregate_by_layer():
    spans = [tracing.Span(0, "pass", "pass", 0.0, 4.0, None, 1),
             tracing.Span(1, "bergman.lattice_points", "polytope.lattice_points",
                          0.0, 1.0, 0, 1, {"key": "P/8"}),
             tracing.Span(2, "bergman.lattice_points", "polytope.lattice_points",
                          1.0, 1.5, 0, 1, {"key": "P/8"}),
             tracing.Span(3, "harness.norming_constants", "bergman.norming_constants",
                          2.0, 4.0, 0, 1, {"quad_nodes": 36})]
    m = tracing.pass_metrics(spans)
    assert m["polytope.lattice_points.calls"] == 2
    assert m["polytope.lattice_points.s"] == 1.5
    assert m["polytope.lattice_points.distinct"] == 1
    assert m["polytope.lattice_points.useful_ratio"] == 0.5
    assert m["bergman.quad_nodes"] == 36
    assert m["pass.s"] == 0.5


# -- wrappers --------------------------------------------------------------------------

@pytest.mark.parametrize("cls", [SmallRectangle, SmallDisc])
def test_traced_pass_is_bitwise_equal_and_restores_the_library(cls):
    originals = [getattr(owner, attr) for owner, attr, _ in tracing.TARGETS]
    w, params, plain = one_pass(cls)
    tracer = tracing.Tracer()
    with tracer.installed(tracing.TARGETS):
        assert harness.kahler_field is not originals[1]
        traced = w.run(params)
    assert [getattr(owner, attr) for owner, attr, _ in tracing.TARGETS] == originals
    assert traced.record() == plain.record()
    assert np.array_equal(traced.family.f, plain.family.f)
    names = {s.name for s in tracer.spans}
    assert {"harness.solve_harmonic_map", "harness.kahler_field",
            "harness.build_approximants", "harness.error_report",
            "harness.norming_constants", "harness.harmonic_norming",
            "bergman.lattice_points", "bergman.harmonic_extend",
            "BergmanFamily.field"} <= names
    metrics = tracing.pass_metrics(tracer.spans)
    n_nodes = int(np.prod(w.domain.shape))
    assert metrics["potentials.inversion_slices"] == n_nodes
    assert metrics["polytope.lattice_points.distinct"] == len(w.levels)
    if cls is SmallDisc:
        assert {"dirichlet.harmonic_extend", "dirichlet.harmonic_extend_disc_fourier",
                "flows.hcma_residual"} <= names
    else:
        assert {"harness.harmonic_extend", "flows.heat_evolve",
                "flows.eells_sampson_residual"} <= names
        assert metrics["flows.heat_steps"] == w.heat_steps
        assert np.array_equal(traced.heat.f, plain.heat.f)


def test_per_layer_metrics_match_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == [m[0] for m in tracing.PER_LAYER]
    assert [m["unit"] for m in doc["per_layer"]] == [m[1] for m in tracing.PER_LAYER]
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)


# -- the output checks bite --------------------------------------------------------------

def test_rectangle_checks_trip_on_perturbed_results(rectangle_pass):
    w, params, out = rectangle_pass
    assert w.check(params, out) == []
    nudged = out.family.f.copy()
    nudged[0, 3, 40] += 1e-9                  # one boundary value of the solve
    fails = w.check(params, _replace(out, family=_replace(out.family, f=nudged)))
    assert any("direct solve" in f for f in fails)
    heat = out.heat.f.copy()
    heat[4, 4, 50] *= 1.0 + 1e-10
    fails = w.check(params, _replace(out, heat=_replace(out.heat, f=heat)))
    assert any("heat flow off" in f for f in fails)
    fails = w.check(params, _replace(out, heat=_replace(
        out.heat, convexity_violations=((0.1, (4, 4)),))))
    assert any("convexity" in f for f in fails)


def test_geodesic_checks_trip_on_perturbed_results():
    w, params, out = one_pass(SmallGeodesic)
    assert w.check(params, out) == []
    k = w.levels[-1]
    norming = out.approx[k].norming
    lam = norming.lam.copy()
    lam[k // 2, 0] += 1e-8                    # one Guillemin table entry
    approx = {**out.approx, k: bergman.BergmanFamily(_replace(norming, lam=lam))}
    fails = w.check(params, _replace(out, approx=approx))
    assert fails and "Beta oracle" in fails[0]
    c0 = out.report.norms["C0"].copy()
    c0[-1] = c0[-2]
    fails = w.check(params, _replace(out, report=_replace(
        out.report, norms=dict(out.report.norms, C0=c0))))
    assert fails and "strictly decreasing" in fails[0]


def test_disc_checks_trip_on_perturbed_results():
    w, params, out = one_pass(SmallDisc)
    assert w.check(params, out) == []
    assert w.check(params, _replace(out, extra=dict(
        out.extra, poisson_fourier_gap=2 * workloads.CROSSCHECK_TOL)))
    assert w.check(params, _replace(out, extra=dict(out.extra, hcma_fiber_hessian_min=0.0)))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_default_seed_reproduces_the_recorded_numbers(name):
    w, params, out = one_pass(workloads.WORKLOADS[name], workloads.DEFAULT_SEED)
    record = out.record()
    assert workloads.check_reference(name, record) == []
    key = "C2_yy"
    record[key] = [record[key][0] * (1 + 10 * workloads.REFERENCE_RTOL)] + record[key][1:]
    assert workloads.check_reference(name, record)


def test_seeds_give_the_same_inputs():
    assert workloads.Disc(7).draw() == workloads.Disc(7).draw()
    assert workloads.Rectangle(7).draw() != workloads.Rectangle(8).draw()


# -- error_rate bookkeeping and the command ------------------------------------------------

class _Failing:
    name = "failing"

    def __init__(self, exc=None, fails=()):
        self.exc, self.fails = exc, list(fails)

    def run(self, params):
        if self.exc:
            raise self.exc
        return _Out()

    def check(self, params, out):
        return self.fails


class _Out:
    def record(self):
        return {}


@pytest.mark.parametrize("w", [_Failing(exc=NewtonError("no convergence")),
                               _Failing(fails=["C0 not strictly decreasing"]),
                               _Failing()])
def test_runner_counts_raised_and_checked_failures(w):
    runner = run.Runner(w, seed=1)
    _, record = runner.run({})
    assert runner.attempted == 1
    assert runner.failed == (0 if record is not None else 1)
    assert (record is None) == bool(w.exc or w.fails)


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "geodesic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _replace(obj, **changes):
    return dataclasses.replace(obj, **changes)
