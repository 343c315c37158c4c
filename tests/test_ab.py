"""The statistics of `scripts/ab.py` (paired in-process A/B timing) on
synthetic ratios; the script's end-to-end A/A run is a CI step."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "scripts" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_sign_test_is_the_exact_binomial_tail():
    s = ab.summarize([0.9] * 10)
    assert (s["faster"], s["slower"]) == (10, 0)
    assert s["sign_p"] == pytest.approx(2 / 2**10, rel=1e-15)
    assert s["median"] == 0.9 and s["interval"] == (0.9, 0.9)
    # 8 of 10 faster: 2 (1 + 10 + 45) / 1024
    assert ab.summarize([0.9] * 8 + [1.1] * 2)["sign_p"] == pytest.approx(112 / 1024, rel=1e-15)
    # ratios of exactly 1 are ties, dropped from the test
    s = ab.summarize([1.0, 1.0, 1.0, 0.8])
    assert (s["faster"], s["slower"], s["sign_p"]) == (1, 0, 1.0)


def test_balanced_ratios_show_no_change():
    s = ab.summarize([0.95, 1.05] * 10)
    assert s["median"] == pytest.approx(1.0) and s["sign_p"] == 1.0
    lo, hi = s["interval"]
    assert 0.95 <= lo <= 1.0 <= hi <= 1.05


def test_a_shifted_sample_is_resolved():
    rng = np.random.default_rng(1)
    ratios = 0.85 * np.exp(rng.normal(0.0, 0.05, 40))
    s = ab.summarize(ratios)
    lo, hi = s["interval"]
    assert lo < 0.85 < hi < 1.0
    assert s["sign_p"] < 1e-9
    # the interval is a fixed-seed bootstrap: the same ratios give the same interval
    assert ab.summarize(ratios)["interval"] == s["interval"]


def test_largest_differences_names_only_the_keys_that_differ():
    old = {"C0": [1.0, 2.0], "gap": [3.0], "gone": [1.0]}
    new = {"C0": [1.0, 2.5], "gap": [3.0], "added": [0.0]}
    assert ab.largest_differences(new, old) == {"C0": 0.5, "added": np.inf, "gone": np.inf}
    assert ab.largest_differences(old, dict(old)) == {}
