"""
End-to-end acceptance suite: one test per verifiable claim, each printing
a PASS/FAIL line with the measured numbers.

Run with `pytest tests/test_acceptance.py -v -s` to see every line, or via
the CLI (`toricmaps all`), which executes the same checks.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from toricmaps import acceptance
from toricmaps.harness import ERROR_COLUMNS, ErrorReport


def _run(check):
    res = check()
    print()
    print(res.line())
    assert res.passed, res.detail


def test_legendre_involution():
    _run(acceptance.check_legendre_involution)


def test_gradient_hessian_duality():
    _run(acceptance.check_gradient_hessian_duality)


def test_norming_constant_oracle():
    _run(acceptance.check_norming_oracle)


def test_norming_peak_duality_identity():
    _run(acceptance.check_duality_identity)


def test_szego_normalization():
    _run(acceptance.check_szego_normalization)


def test_geodesic_c0_convergence():
    # gates the mean-adjusted error at observed order >= 1 in k (the c/k
    # envelope, inside the Song-Zelditch log(k)/k bound);
    # eps * k / log k is only reported, see README "Known limitations"
    _run(acceptance.check_geodesic_c0)


def test_geodesic_c1_c2_convergence():
    _run(acceptance.check_geodesic_c1_c2)


C0_ORDER = 1.0                                  # the c/k envelope
C1_C2_ORDER = math.log(0.9) / math.log(0.5)     # doubling ratio <= 0.9


def test_c0_gate_bites():
    ks = (8, 16, 32, 64)
    # the measured C0 without the mean adjustment: decreasing, but k * eps_k
    # grows like log(k+1) because the removed normalization is still in it
    unadjusted = acceptance.order_gate(ks, [0.2756, 0.1774, 0.1094, 0.0652], C0_ORDER)
    assert not unadjusted.passed and 0 < min(unadjusted.orders) < 1
    stalled = acceptance.order_gate(ks, [1e-3, 5e-4, 4e-4, 4e-4], C0_ORDER)
    assert not stalled.passed and stalled.orders[-1] == 0.0
    assert acceptance.order_gate(ks, [0.06 / k**2 for k in ks], C0_ORDER).passed
    # the measured mean-adjusted C0 passes with margin: orders from 1.6 to 1.9
    adjusted = acceptance.order_gate(ks, [9.43e-4, 3.08e-4, 8.94e-5, 2.42e-5], C0_ORDER)
    assert adjusted.passed and min(adjusted.orders) > 1.5
    assert str(adjusted) == "p = [1.614, 1.785, 1.885] (need >= 1)"
    with pytest.raises(ValueError):
        acceptance.order_gate((16, 8), [1e-3, 5e-4], C0_ORDER)


def test_c1_c2_gate_bites(monkeypatch):
    ks = (8, 16, 32, 64)
    # every derivative column of the measured run passes
    report = acceptance.geodesic_run()[0].report
    assert all(acceptance.order_gate(ks, report.column(c), C1_C2_ORDER).passed
               for c in ERROR_COLUMNS[1:])
    fast = [1e-2 * 0.3**i for i in range(4)]
    assert acceptance.order_gate(ks, fast, C1_C2_ORDER).passed
    slow = acceptance.order_gate(ks, [1e-2 * 0.95**i for i in range(4)], C1_C2_ORDER)
    assert not slow.passed
    assert min(slow.orders) == pytest.approx(math.log2(1 / 0.95))

    # the check gates every derivative column of the run, fails on one bad
    # column and names it
    def check(levels=ks, **columns):
        run = SimpleNamespace(report=ErrorReport(
            levels=levels, norms={c: np.array(columns.get(c, fast)) for c in ERROR_COLUMNS}))
        monkeypatch.setattr(acceptance, "geodesic_run", lambda: (run, 0.0))
        return acceptance.check_geodesic_c1_c2()

    assert check().passed
    slow = check(C2_yy=[1e-2 * 0.95**i for i in range(4)])
    assert not slow.passed and "failing: ['C2_yy']" in slow.detail
    stalled = check(C1_rho=[1e-2, 3e-3, 9e-4, 9e-4])
    assert not stalled.passed and "failing: ['C1_rho']" in stalled.detail
    for col in ERROR_COLUMNS[1:]:
        res = check(**{col: [1e-2 * 0.95**i for i in range(4)]})
        assert not res.passed and f"failing: [{col!r}]" in res.detail
    # three levels against four errors
    with pytest.raises(ValueError):
        check(levels=(8, 16, 32))


def test_order_gate_window_bites():
    # a window of orders, as the complex-Hessian check uses it
    window = (math.log2(2.5), math.log2(6.0))
    assert acceptance.order_gate((1, 2), [1.0, 0.25], *window).passed
    assert not acceptance.order_gate((1, 2), [1.0, 0.5], *window).passed
    assert not acceptance.order_gate((1, 2), [1.0, 0.1], *window).passed
    assert str(acceptance.order_gate((1, 2), [1.0, 0.25], *window)) == \
        "p = [2.000] (need in [1.322, 2.585])"


def _old_c0_rule(ks, eps):
    """The C0 gate as it was: eps strictly decreasing and k * eps never growing."""
    k, eps = np.asarray(ks, dtype=float), np.asarray(eps, dtype=float)
    return bool(np.all(np.diff(eps) < 0) and np.all(np.diff(k * eps) <= 0))


def _old_c1_c2_rule(eps):
    """The C1/C2 gate on one column as it was: strictly decreasing, ratios <= 0.9."""
    eps = np.asarray(eps, dtype=float)
    return bool(np.all(np.diff(eps) < 0) and np.all(eps[1:] / eps[:-1] <= 0.9))


def test_order_gate_matches_the_old_rules():
    rng = np.random.default_rng(20260)
    ks = (8, 16, 32, 64)
    # doubling ratios spread over both thresholds, with exact ties at 0.5
    ratios = rng.uniform(0.2, 1.1, size=(4000, 3))
    ratios[::7, 1] = 0.5
    seqs = rng.uniform(1e-6, 1.0, size=(4000, 1)) * np.cumprod(
        np.concatenate([np.ones((4000, 1)), ratios], axis=1), axis=1)
    verdicts = {True: 0, False: 0}
    for eps in seqs:
        new = acceptance.order_gate(ks, eps, C0_ORDER).passed
        assert new == _old_c0_rule(ks, eps), eps.tolist()
        verdicts[new] += 1
        step = eps[1:] / eps[:-1]
        if np.all(np.abs(step - 0.9) > 1e-12 * 0.9):
            assert acceptance.order_gate(ks, eps, C1_C2_ORDER).passed == _old_c1_c2_rule(eps)
    assert min(verdicts.values()) > 100
    # on a tie the C1/C2 bound is the old threshold itself: 0.5 ** order is 0.9
    assert 0.5 ** C1_C2_ORDER == 0.9
    assert acceptance.order_gate((8, 16), [1.0, 0.9], C1_C2_ORDER).passed


def test_order_gate_zero_nan_and_negative_errors():
    # a zero after a positive error is order +inf: it passes a lower bound and
    # fails an upper one; 0 then 0 has no order and fails
    zero = acceptance.order_gate((16, 64), [1e-3, 0.0], 0.5)
    assert zero.passed and zero.orders == (math.inf,)
    assert not acceptance.order_gate((1, 2), [1e-3, 0.0], 1.0, 3.0).passed
    assert not acceptance.order_gate((8, 64), [0.0, 0.0], 1.0).passed
    assert not acceptance.order_gate((8, 64), [0.0, 1e-3], 1.0).passed
    with pytest.raises(ValueError, match="scale 16 has error nan"):
        acceptance.order_gate((8, 16, 32), [1e-3, math.nan, 1e-4], 1.0)
    with pytest.raises(ValueError, match="scale 32 has error -1e-05"):
        acceptance.order_gate((8, 16, 32), [1e-3, 1e-4, -1e-5], 1.0)


def test_checks_give_a_verdict_on_a_zero_finer_error(monkeypatch):
    """The Szego, complex-Hessian and flow-duality checks on a finer error of
    exactly 0: order +inf, which passes their lower bounds and fails the
    complex-Hessian check's upper bound."""
    monkeypatch.setattr(acceptance, "_fs_table", lambda k: k)
    monkeypatch.setattr(acceptance, "szego_sum",
                        lambda k, phi, rho: np.ones_like(rho) + (k == 16) * 1e-2)
    res = acceptance.check_szego_normalization()
    assert res.passed and "p = [inf]" in res.detail

    sups = iter([1e-5, 0.0])
    monkeypatch.setattr(acceptance, "loop_family", lambda **kw: SimpleNamespace(domain=None))
    monkeypatch.setattr(acceptance, "kahler_field", lambda family, rho: SimpleNamespace(values=None))
    monkeypatch.setattr(acceptance, "hcma_residual", lambda *args, **kw: SimpleNamespace(
        sup=next(sups), fiber_hessian_min=1.0))
    res = acceptance.check_hcma_residual()
    assert not res.passed and "p = [inf] (need in [1.322, 2.585])" in res.line()

    monkeypatch.setattr(acceptance, "_flow_residual", lambda n_t, *rest: 1e-6 if n_t == 33 else 0.0)
    res = acceptance.check_flow_duality()
    assert res.passed and "p = [inf]" in res.detail


def test_run_checks_reports_a_check_that_raises(capsys):
    def raising():
        raise ValueError("scale 8 has error nan")

    def passing():
        return acceptance.CheckResult("passing", True, "ok")

    results = acceptance.run_checks((raising, passing))
    assert [r.passed for r in results] == [False, True]
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  raising: raised ValueError: scale 8 has error nan", "PASS  passing: ok"]


def test_disc_c0_and_kernel_crosscheck():
    _run(acceptance.check_disc_c0_crosscheck)


def test_hcma_residual_second_order():
    _run(acceptance.check_hcma_residual)


def test_flow_duality():
    _run(acceptance.check_flow_duality)


def test_metric_ratio_bounds():
    _run(acceptance.check_ratio_bounds)


def test_peak_asymptotics():
    _run(acceptance.check_peak_asymptotics)


def test_localization():
    _run(acceptance.check_localization)
