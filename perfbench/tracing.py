"""
In-memory span tracer for the benchmark's traced run.

The traced run wraps the public functions of the `toricmaps` layers at the
names their callers look them up under (`harness.norming_constants`,
`bergman.lattice_points`, the `BergmanFamily.field` method, ...), so every
call into a layer opens a span without any change to the library.  A span
records its name, start, end, parent span and pass id; spans stay in memory
and are written out when the run ends.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.

Some per-layer counts cannot be timed but follow from a call's arguments and
result (quadrature nodes, log-sum-exp terms, Legendre targets); those are
marked computed.
"""

from __future__ import annotations

import functools
import re
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

import workloads  # noqa: F401  (puts the checkout's src/ first on sys.path)
from toricmaps import bergman, dirichlet, flows, harness  # noqa: E402


@dataclass
class Span:
    id: int
    name: str           # the caller's name for the function
    layer: str          # the defining module and function, e.g. "polytope.lattice_points"
    start: float
    end: float
    parent: int | None
    pass_id: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; `clock` is injectable so tests can drive it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, layer: str | None = None):
        """Time the enclosed block; yields the span's (mutable) counts dict."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        counts: dict = {}
        start = self.clock()
        try:
            yield counts
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(sid, name, layer or name, start, end, parent,
                                   self.pass_id, counts))

    def wrap(self, fn, name: str, count=None):
        """`fn` under a span named `name`; `count(args, kwargs, result)` adds computed counts."""
        layer = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as counts:
                result = fn(*args, **kwargs)
            if count is not None:
                counts.update(count(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Replace each (owner, attribute, count) with its traced wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, count in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(orig, f"{_owner_name(owner)}.{attr}", count))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _owner_name(owner) -> str:
    return owner.__name__.rsplit(".", 1)[-1]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children[s.id]):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


# -- what the traced run wraps ------------------------------------------------------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


_PROVENANCE = re.compile(r"panels=(\d+)x2 order=(\d+)")


def _quad_nodes(args, kwargs, table):
    # coarse + doubled panel rules: 3 n_panels panels of `order` nodes per alpha
    n_panels, order = (int(v) for v in _PROVENANCE.search(table.provenance).groups())
    return {"quad_nodes": table.count * order * 3 * n_panels}


def _inversions(args, kwargs, result):
    slices = int(np.prod(_arg(args, kwargs, 0, "family").domain.shape))
    return {"inversion_slices": slices,
            "inversion_targets": slices * int(np.size(_arg(args, kwargs, 1, "rho_axis")))}


def _lse_terms(args, kwargs, result):
    norming = args[0].norming
    rho = _arg(args, kwargs, 1, "rho")
    return {"lse_terms": norming.count * int(np.prod(norming.domain.shape)) * int(np.size(rho))}


def _lattice_key(args, kwargs, result):
    return {"key": f"{hash(_arg(args, kwargs, 0, 'P'))}/{int(_arg(args, kwargs, 1, 'k'))}"}


def _heat_steps(args, kwargs, result):
    return {"heat_steps": int(_arg(args, kwargs, 2, "steps"))}


# (owner, attribute, computed counts): the calls the benchmark makes into the
# layers, and the calls the layers make into each other, each at the name
# its caller looks it up under.
TARGETS = (
    (harness, "solve_harmonic_map", None),
    (harness, "kahler_field", _inversions),
    (harness, "build_approximants", None),
    (harness, "error_report", None),
    (harness, "harmonic_extend", None),
    (harness, "norming_constants", _quad_nodes),
    (harness, "harmonic_norming", None),
    (bergman, "lattice_points", _lattice_key),
    (bergman, "harmonic_extend", None),
    (bergman.BergmanFamily, "field", _lse_terms),
    (dirichlet, "harmonic_extend", None),
    (dirichlet, "harmonic_extend_disc_fourier", None),
    (flows, "heat_evolve", _heat_steps),
    (flows, "hcma_residual", None),
    (flows, "eells_sampson_residual", None),
)

# name, unit, better, computed: the per-layer metrics, reported per pass
PER_LAYER = (
    ("bergman.norming_constants.calls", "count", "lower", False),
    ("bergman.norming_constants.s", "s", "lower", False),
    ("bergman.quad_nodes", "count", "lower", True),
    ("harness.kahler_field.s", "s", "lower", False),
    ("potentials.inversion_slices", "count", "lower", True),
    ("potentials.inversion_targets", "count", "lower", True),
    ("bergman.BergmanFamily.field.s", "s", "lower", False),
    ("bergman.lse_terms", "count", "lower", True),
    ("polytope.lattice_points.calls", "count", "lower", False),
    ("polytope.lattice_points.s", "s", "lower", False),
    ("polytope.lattice_points.distinct", "count", "lower", False),
    ("polytope.lattice_points.useful_ratio", "ratio", "higher", False),
    ("harness.solve_harmonic_map.s", "s", "lower", False),
    ("dirichlet.harmonic_extend.calls", "count", "lower", False),
    ("dirichlet.harmonic_extend.s", "s", "lower", False),
    ("dirichlet.harmonic_extend_disc_fourier.s", "s", "lower", False),
    ("bergman.harmonic_norming.s", "s", "lower", False),
    ("flows.heat_evolve.s", "s", "lower", False),
    ("flows.heat_steps", "count", "lower", True),
    ("flows.hcma_residual.s", "s", "lower", False),
    ("flows.eells_sampson_residual.s", "s", "lower", False),
    ("harness.build_approximants.s", "s", "lower", False),
    ("harness.error_report.s", "s", "lower", False),
    ("trace.warmup_pass_s", "s", "lower", False),
    ("trace.overhead_s", "s", "lower", False),
)

_COMPUTED = {"quad_nodes": "bergman", "inversion_slices": "potentials",
             "inversion_targets": "potentials", "lse_terms": "bergman",
             "heat_steps": "flows"}


def pass_metrics(spans) -> dict[str, float]:
    """Per-layer calls, self times and computed counts of the spans of one pass."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    keys = set()
    for s in spans:
        out[f"{s.layer}.calls"] += 1
        out[f"{s.layer}.s"] += own[s.id]
        for name, value in s.counts.items():
            if name == "key":
                keys.add(value)
            else:
                out[f"{_COMPUTED[name]}.{name}"] += value
    calls = out["polytope.lattice_points.calls"]
    out["polytope.lattice_points.distinct"] = len(keys)
    out["polytope.lattice_points.useful_ratio"] = len(keys) / calls if calls else 0.0
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Median over traced passes of each per-layer metric (0 for layers never reached)."""
    by_pass = defaultdict(list)
    for s in spans:
        by_pass[s.pass_id].append(s)
    per_pass = [pass_metrics(group) for _, group in sorted(by_pass.items())]
    return {name: statistics.median(p.get(name, 0.0) for p in per_pass)
            for name, _, _, _ in PER_LAYER if not name.startswith("trace.")}
