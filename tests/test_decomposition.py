import math

import pytest

from etazeros.decomposition import (
    POSITIVITY_A_MAX,
    average_bound_margins,
    check_theorem7,
    check_theorem8,
    check_theorem9,
    check_theorem10,
    interval_average,
    interval_contributions,
    make_plan,
    pair_kernel,
    telescoping_partial_sums,
    upper_integral,
)
from etazeros.quadrature import (
    IntegrandSpec,
    integrate_finite,
    integrate_to_infinity,
)


# ---------------------------------------------------------------------------
# Plan structure.

def test_plan_structure():
    plan = make_plan(0.5, 100.0)
    assert plan.K == 11
    assert plan.c == pytest.approx(math.exp(math.pi / 100.0), rel=1e-15)
    assert plan.R == pytest.approx(math.exp(0.22 * math.pi), rel=1e-14)
    t0, t1 = plan.half_period(plan.K)
    assert t0 == pytest.approx(plan.R)
    assert t1 == pytest.approx(plan.R * plan.c)
    # sine is nonnegative on the first half period, nonpositive on the second
    b = plan.b
    mid = math.sqrt(t0 * t1)
    assert math.sin(b * math.log(mid)) > 0
    assert math.sin(b * math.log(mid * plan.c)) < 0


def test_plan_validation():
    with pytest.raises(ValueError):
        make_plan(1.5, 100.0)


# ---------------------------------------------------------------------------
# Paired tail vs direct tail.

@pytest.mark.parametrize("b", (100.0, 1000.0))
def test_paired_sum_equals_direct_tail(b):
    plan = make_plan(0.5, b)
    v_pair, e_pair = upper_integral(plan)
    v_dir, e_dir = integrate_to_infinity(
        IntegrandSpec("fermi", "sin", a=0.5, b=b), plan.R, paired=False)
    assert abs(v_pair - v_dir) < 1e-9


def test_single_interval_regroups():
    # the period integral of f sin equals the sum of its two half-wave parts
    plan = make_plan(0.5, 100.0)
    k = plan.K
    spec = IntegrandSpec("fermi", "sin", a=0.5, b=100.0)
    t0, t1 = plan.half_period(k)
    t2 = plan.endpoint(2 * k + 2)
    whole, _ = integrate_finite(spec, t0, t2)
    part1, _ = integrate_finite(spec, t0, t1)
    part2, _ = integrate_finite(spec, t1, t2)
    assert whole == pytest.approx(part1 + part2, abs=2e-15)


def test_half_wave_change_of_variable():
    # the negative half-wave maps onto the positive one by t = u c, which
    # is what the pair kernel h(u) = f(u) - c f(u c) folds in:
    # int_(t1)^(t2) f sin dt = int_(t0)^(t1) h sin du - int_(t0)^(t1) f sin du
    plan = make_plan(0.5, 100.0)
    b = plan.b
    k = plan.K
    t0, t1 = plan.half_period(k)
    t2 = plan.endpoint(2 * k + 2)
    f = IntegrandSpec("fermi", "sin", a=0.5, b=b)
    lhs, _ = integrate_finite(f, t1, t2)
    h_half, _ = integrate_finite(f.paired, t0, t1)
    f_half, _ = integrate_finite(f, t0, t1)
    assert lhs == pytest.approx(h_half - f_half, abs=5e-15)


def test_positivity_of_contributions():
    plan = make_plan(0.5, 100.0)
    rows = interval_contributions(plan, 21)
    assert [r["k"] for r in rows] == list(range(plan.K, plan.K + 21))
    assert all(r["contribution"] > 0 for r in rows)
    assert rows[-1]["cumulative"] == pytest.approx(
        sum(r["contribution"] for r in rows), rel=1e-12)


# ---------------------------------------------------------------------------
# Tail telescoping.

@pytest.mark.parametrize("a,b,R", [(0.5, 100.0, 2.0), (0.2, 1000.0, 1.0),
                                   (0.731, 100.0, 1.0)])
def test_tail_telescoping_report(a, b, R):
    rep = check_theorem7(a, b, R)
    assert rep.passed, rep.to_text()


def test_tail_bounds_collapse_at_large_b():
    rep = check_theorem7(0.5, 1e4, 2.0)
    assert rep.passed
    margins = [r.margin for r in rep.rows if r.margin is not None]
    assert all(0 < m < 1e-6 for m in margins)  # bounds close in but stay strict


def test_telescoping_partial_sums():
    lhs, rhs = telescoping_partial_sums(0.5, 100.0, 5)
    assert abs(lhs - rhs) < 1e-11


# ---------------------------------------------------------------------------
# Sine averages.

def test_average_closed_form_vs_quadrature():
    closed, by_quad = interval_average(0, 10.0)
    assert closed == pytest.approx(0.635492, abs=1e-6)
    assert abs(closed - by_quad) < 1e-12 * closed
    lo, hi = average_bound_margins(10.0)
    assert lo > 0 and hi > 0
    assert 2.0 / math.pi - 2.0 / (math.pi * 100.0) < closed < 2.0 / math.pi


def test_average_is_k_free():
    c0, _ = interval_average(0, 100.0)
    c37, q37 = interval_average(37, 100.0)
    assert c0 == c37
    assert abs(c37 - q37) < 1e-12 * c37


def test_average_limit_large_b():
    closed, _ = interval_average(0, 1e4)
    assert abs(closed - 2.0 / math.pi) < 1e-8


def test_check_theorem8():
    rep = check_theorem8()
    assert rep.passed, rep.to_text()


# ---------------------------------------------------------------------------
# Half-period sandwich.

def test_sandwich_at_plan_start():
    plan = make_plan(0.5, 100.0)
    rep = check_theorem9(plan.K, 100.0, 0.5)
    assert rep.passed, rep.to_text()


def test_sandwich_far_interval():
    rep = check_theorem9(200, 1000.0, 0.7)
    assert rep.passed, rep.to_text()


def test_sandwich_reduces_to_average_bounds_for_flat_kernel():
    # with h == 1 the middle term is the sine average times the width, so the
    # sandwich is exactly the average bracketing
    b, k = 100.0, 11
    t0 = math.exp(2 * k * math.pi / b)
    t1 = math.exp((2 * k + 1) * math.pi / b)
    mid, _ = integrate_finite(IntegrandSpec("unit", "sin", b=b), t0, t1)
    lower = (2.0 / math.pi - 2.0 / (math.pi * b * b)) * (t1 - t0)
    upper = (2.0 / math.pi) * (t1 - t0)
    assert lower < mid < upper


def test_sandwich_hypothesis_guard():
    with pytest.raises(ValueError):
        check_theorem9(5, 50.0, 0.5)


# ---------------------------------------------------------------------------
# Kernel positivity.

def test_positivity_default_grid():
    rep = check_theorem10()
    assert rep.passed, rep.to_text()


def test_positivity_near_the_edge():
    assert pair_kernel(1.0, 0.731, 100.0) > 0


def test_probe_outside_region_goes_negative():
    rep = check_theorem10()
    probes = [r for r in rep.rows if not r.gating and "probe" in r.label]
    assert probes
    assert any(r.margin < 0 for r in probes)


def test_positivity_threshold_value():
    assert POSITIVITY_A_MAX == pytest.approx(0.7310585786, abs=1e-9)


def test_large_t_scale():
    # at t = 32, a = 0.5, b = 10 the kernel tracks
    # t^(a-1) e^-t (1 - e^(a pi/b - t(e^(pi/b)-1)))
    t, a, b = 32.0, 0.5, 10.0
    got = float(pair_kernel(t, a, b))
    approx = t ** (a - 1.0) * math.exp(-t) * (
        1.0 - math.exp(a * math.pi / b - t * math.expm1(math.pi / b)))
    assert got > 0
    assert got == pytest.approx(approx, rel=1e-10)
