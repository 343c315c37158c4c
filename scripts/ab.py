"""Paired in-process A/B timing of one benchmark workload on two git trees.

    python3 scripts/ab.py OLD NEW --workload disc --pairs 20 [--seed 0]

OLD and NEW are git revisions of this repository (HEAD, a branch, a sha).
Each is exported with `git archive` into a temporary directory (never the
working tree), and its `src/toricmaps` is imported under its own package
name, with the one `from toricmaps import` line of its
`perfbench/workloads.py` rewritten to that name in the copy.  Both trees
then run in one interpreter: every pair draws one input from the seed
stream, runs it through both trees, OLD first in even pairs and NEW first
in odd ones (ABBA), after one untimed warm-up pass per tree.

The two trees' pass records (`PassOutput.record()`) must be equal; when
they are not, the largest difference of each differing key is printed and
the exit status is 1.  The timing summary is the median of the paired
ratios NEW/OLD, the two-sided sign-test p-value of "NEW is faster as often
as it is slower", and a percentile bootstrap interval of that median.

Both trees share one heap and one process, so only pass times compare this
way; `peak_rss_mb` and `setup_s` need the per-process runs of
`perfbench/run.py`.  This is a tool next to the benchmark, not its claim
protocol.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import math
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
IMPORT_LINE = "from toricmaps import "


def summarize(ratios, confidence: float = 0.95, n_boot: int = 2000, seed: int = 0) -> dict:
    """Median of the paired ratios, the sign test's two-sided p-value (ties,
    ratios of exactly 1, dropped) and a percentile bootstrap interval of the
    median, resampled with a fixed seed."""
    r = np.asarray(ratios, dtype=float)
    below, above = int(np.sum(r < 1.0)), int(np.sum(r > 1.0))
    n = below + above
    tail = sum(math.comb(n, i) for i in range(min(below, above) + 1)) / 2.0**n
    boot = np.median(np.random.default_rng(seed).choice(r, size=(n_boot, r.size)), axis=1)
    lo, hi = np.quantile(boot, [(1 - confidence) / 2, (1 + confidence) / 2])
    return {"median": float(np.median(r)), "faster": below, "slower": above,
            "sign_p": min(1.0, 2.0 * tail), "interval": (float(lo), float(hi))}


def largest_differences(a: dict, b: dict) -> dict:
    """Key -> largest |a - b| of the keys whose values are not equal."""
    out = {}
    for key in sorted(set(a) | set(b)):
        if a.get(key) == b.get(key):
            continue
        if key not in a or key not in b or len(a[key]) != len(b[key]):
            out[key] = math.inf
        else:
            out[key] = float(np.max(np.abs(np.subtract(a[key], b[key]))))
    return out


def export(rev: str, dest: Path) -> Path:
    """`git archive` of `rev`'s src/ and perfbench/ into dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src", "perfbench"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, filter="data")
    return dest


def load_tree(tree: Path, tag: str):
    """The tree's workloads module, reaching its src/ as package `toricmaps_<tag>`."""
    package = f"toricmaps_{tag}"
    init = tree / "src" / "toricmaps" / "__init__.py"
    spec = importlib.util.spec_from_file_location(package, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[package] = module
    spec.loader.exec_module(module)
    path = tree / "perfbench" / "workloads.py"
    text = path.read_text()
    if text.count(IMPORT_LINE) != 1:
        raise SystemExit(f"{path}: expected one {IMPORT_LINE!r} line")
    path.write_text(text.replace(IMPORT_LINE, f"from {package} import "))
    spec = importlib.util.spec_from_file_location(f"workloads_{tag}", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads         # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


def timed(workload, params) -> tuple[float, dict]:
    t0 = time.perf_counter()
    out = workload.run(params)
    return time.perf_counter() - t0, out.record()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        trees = [load_tree(export(rev, Path(tmp) / tag), tag)
                 for rev, tag in ((args.old, "old"), (args.new, "new"))]
        sides = {tag: t.WORKLOADS[args.workload](args.seed)
                 for tag, t in zip(("old", "new"), trees)}
        draw = sides["old"].draw                           # one input stream for both trees
        params = draw()
        for w in sides.values():                           # warm-up, untimed
            timed(w, params)
        ratios, diffs = [], {}
        for i in range(args.pairs):
            params = draw()
            runs = {tag: timed(sides[tag], params)
                    for tag in (("old", "new") if i % 2 == 0 else ("new", "old"))}
            (t_old, rec_old), (t_new, rec_new) = runs["old"], runs["new"]
            ratios.append(t_new / t_old)
            for key, d in largest_differences(rec_new, rec_old).items():
                diffs[key] = max(diffs.get(key, 0.0), d)
            print(f"# pair {i}: old {t_old:.4f} s, new {t_new:.4f} s, new/old {ratios[-1]:.3f}",
                  flush=True)
    s = summarize(ratios)
    print(f"{args.workload} seed {args.seed}, {args.pairs} ABBA pairs, {args.new} vs {args.old}: "
          f"new/old median {s['median']:.3f}, 95% bootstrap interval "
          f"{s['interval'][0]:.3f} .. {s['interval'][1]:.3f}, new faster in "
          f"{s['faster']}/{s['faster'] + s['slower']}, sign-test p = {s['sign_p']:.3g}")
    if diffs:
        print("pass records differ; largest |new - old| per key:")
        for key, d in diffs.items():
            print(f"  {key}: {d:.3e}")
        return 1
    print("pass records equal in every pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
