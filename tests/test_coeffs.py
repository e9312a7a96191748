import math
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etazeros import coeffs


# ---------------------------------------------------------------------------
# Independent oracles.

def bernoulli_bruteforce(n_max):
    """Recurrence sum_{k<=n} C(n+1,k) B_k = 0 solved row by row, no sharing
    with the library's memoized path."""
    out = [Fraction(1)]
    for m in range(1, n_max + 1):
        s = sum(Fraction(comb(m + 1, k)) * out[k] for k in range(m))
        out.append(-s / (m + 1))
    return out


def g_coefficients_by_series_division(n_max):
    """Maclaurin coefficients of 1/(e^t + 1) by exact power-series division.

    (e^t + 1) has coefficients [2, 1, 1/2!, 1/3!, ...]; invert term by term.
    """
    denom = [Fraction(2)] + [Fraction(1, factorial(k)) for k in range(1, n_max + 1)]
    inv = [Fraction(1, 2)]
    for n in range(1, n_max + 1):
        acc = sum(denom[k] * inv[n - k] for k in range(1, n + 1))
        inv.append(-acc / denom[0])
    return inv  # inv[n] == g^(n)(0)/n!


APPENDIX_VALUES = {
    0: Fraction(1, 2),
    1: Fraction(-1, 4),
    3: Fraction(1, 8),
    5: Fraction(-1, 4),
    7: Fraction(17, 16),
    9: Fraction(-31, 4),
    11: Fraction(691, 8),
    13: Fraction(-5461, 4),
    15: Fraction(929569, 32),
}


# ---------------------------------------------------------------------------
# Bernoulli numbers.

def test_bernoulli_base_cases():
    assert coeffs.bernoulli(0) == 1
    assert coeffs.bernoulli(1) == Fraction(-1, 2)
    assert coeffs.bernoulli(2) == Fraction(1, 6)


def test_bernoulli_against_bruteforce():
    brute = bernoulli_bruteforce(30)
    for n in range(31):
        assert coeffs.bernoulli(n) == brute[n]


def test_bernoulli_against_mpmath_bernfrac():
    # B_0 .. B_101: every Bernoulli number a coefficient table can hold
    mpmath = pytest.importorskip("mpmath")
    for n in range(coeffs.MAX_INDEX + 2):
        p, q = mpmath.bernfrac(n)
        assert coeffs.bernoulli(n) == Fraction(int(p), int(q)), n


def test_bernoulli_12():
    assert coeffs.bernoulli(12) == Fraction(-691, 2730)
    # cross-check through the derivative identity: g^(11)(0) = 691/8
    assert coeffs.g_deriv_at_zero(11) == Fraction(691, 8)


def test_bernoulli_odd_vanish():
    for n in range(3, 60, 2):
        assert coeffs.bernoulli(n) == 0


# ---------------------------------------------------------------------------
# g^(n)(0).

def test_g_deriv_appendix_values_exact():
    for n, val in APPENDIX_VALUES.items():
        assert coeffs.g_deriv_at_zero(n) == val


def test_g_deriv_matches_series_division_oracle():
    inv = g_coefficients_by_series_division(40)
    for n in range(41):
        assert coeffs.g_over_factorial(n) == inv[n]


def test_g_deriv_even_zero():
    for m in range(1, 25):
        assert coeffs.g_deriv_at_zero(2 * m) == 0


def test_g_deriv_sign_pattern():
    for m in range(0, 12):
        assert coeffs.g_deriv_at_zero(4 * m + 1) < 0
    for m in range(1, 12):
        assert coeffs.g_deriv_at_zero(4 * m - 1) > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=60))
def test_g_deriv_identity_property(n):
    lhs = coeffs.g_deriv_at_zero(n)
    rhs = Fraction(1 - 2 ** (n + 1), n + 1) * coeffs.bernoulli(n + 1)
    assert lhs == rhs


def test_coefficient_table_build():
    table = coeffs.CoefficientTable.build(20)
    assert table.max_index == 20
    assert len(table.bernoulli) == 22
    assert table.g_deriv[7] == Fraction(17, 16)
    got = table.g_over_factorial_f64[7]
    assert got == float(Fraction(17, 16) / factorial(7))


def test_coefficient_table_refuses_beyond_cap():
    with pytest.raises(ValueError):
        coeffs.CoefficientTable.build(coeffs.MAX_INDEX + 1)


# ---------------------------------------------------------------------------
# zeta at even integers.

def test_zeta_even_small():
    assert coeffs.zeta_even(1) == pytest.approx(math.pi ** 2 / 6, rel=1e-14)
    assert coeffs.zeta_even(2) == pytest.approx(math.pi ** 4 / 90, rel=1e-14)


def test_zeta_even_inside_direct_sum_bracket():
    for m in (1, 2, 3, 5):
        lo, hi = coeffs.zeta_direct_bracket(m, tol=1e-12)
        val = coeffs.zeta_even(m)
        assert lo - 5e-15 * abs(val) <= val <= hi + 5e-15 * abs(val)


def test_zeta_even_large_m_graceful():
    # zeta(40) = 1 + 2^-40 + 3^-40 + ... ~= 1 + 9.0949e-13; the (2 pi)^40
    # power costs a few ulp, so "graceful" here means a few e-15 absolute
    val = coeffs.zeta_even(20)
    expected_excess = 2.0 ** -40 + 3.0 ** -40
    assert abs((val - 1.0) - expected_excess) < 5e-15


def test_odd_zeta_margin_positive_and_tiny():
    # (1 - 2^-2m) zeta(2m) - 1 = 3^-2m (1 + o(1)); stays positive at m = 20
    m20 = coeffs.odd_zeta_margin(20)
    assert 0 < m20 < 1e-18
    assert m20 == pytest.approx(3.0 ** -40, rel=1e-3)
    assert coeffs.odd_zeta_margin(1) == pytest.approx(math.pi ** 2 / 8 - 1, rel=1e-9)


def test_zeta_direct_bracket_contains_mpmath_zeta():
    mpmath = pytest.importorskip("mpmath")
    for tol in (1e-12, 2.5e-13):
        for m in range(1, 21):
            lo, hi = coeffs.zeta_direct_bracket(m, tol)
            with mpmath.workdps(40):
                ref = mpmath.zeta(2 * m)
            slack = 4 * math.ulp(float(ref))
            assert lo - slack <= ref <= hi + slack, (tol, m)
            assert 0 <= hi - lo <= tol, (tol, m)


def test_odd_zeta_margin_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for m in range(1, 21):
        with mpmath.workdps(40):
            ref = (1 - mpmath.mpf(2) ** (-2 * m)) * mpmath.zeta(2 * m) - 1
        assert abs(coeffs.odd_zeta_margin(m) - ref) <= 1e-14 * ref, m


# ---------------------------------------------------------------------------
# Coefficient ratio bounds.

def test_coefficient_ratio_two_routes_agree():
    # exact-rational route vs the even-zeta closed form
    for m in (1, 2, 3):
        exact = coeffs.coefficient_ratio(m)
        z4m = coeffs.zeta_even(2 * m)
        z4m2 = coeffs.zeta_even(2 * m + 1)
        closed = ((1 - 2.0 ** (-4 * m)) * z4m
                  / ((1 - 2.0 ** (-4 * m - 2)) * z4m2)) * math.pi ** 2
        assert exact == pytest.approx(closed, rel=1e-12)


def test_coefficient_ratio_m2_window():
    # the m = 2 ratio over pi^2 sits inside (1, 1.00013814), margin ~ 5e-9
    r = coeffs.coefficient_ratio_exact(2)
    assert r == Fraction(306, 31)
    rel = float(coeffs._ratio_margins(r)[0])
    assert 0 < rel < coeffs.RATIO_UPPER_BOUND - 1.0


def test_coefficient_ratio_large_m_approaches_pi2():
    r = coeffs.coefficient_ratio_exact(10)
    assert abs(float(coeffs._ratio_margins(r)[0])) < 1e-10


def test_coefficient_ratio_strictly_decreasing_exact():
    prev = coeffs.coefficient_ratio_exact(1)
    for m in range(2, 13):
        cur = coeffs.coefficient_ratio_exact(m)
        assert cur < prev
        prev = cur


def test_coefficient_ratio_above_pi2_exact():
    # the slack is ~ (8/9) 3^(-4m): below one ulp of pi^2 from m = 9 on, so
    # the strict comparison is decided in exact rationals
    for m in range(1, 13):
        lower, upper = coeffs._ratio_margins(coeffs.coefficient_ratio_exact(m))
        assert lower > 0
        assert (upper > 0) == (m >= 2)


# ---------------------------------------------------------------------------
# The packaged structural verification.

def test_check_theorem4_all_pass():
    rep = coeffs.check_theorem4(m_max=15, tol=1e-12)
    assert rep.passed, rep.to_text()


def test_check_theorem4_m1_ratio_informational():
    rep = coeffs.check_theorem4(m_max=15, tol=1e-12)
    m1_rows = [r for r in rep.rows if r.label.startswith("ratio") and "m=1" in r.label]
    assert m1_rows and all(not r.gating for r in m1_rows)
    upper = [r for r in m1_rows if "upper" in r.label][0]
    assert not upper.passed  # the m >= 2 hypothesis is sharp: fails at m = 1


def test_check_theorem4_reports_margins():
    rep = coeffs.check_theorem4(m_max=10, tol=1e-12)
    assert rep.min_margin() is not None and rep.min_margin() > 0


def test_check_theorem4_strict_lower_bound_reads_coefficient(monkeypatch):
    # halving |g^(5)(0)/5!| puts it below 2/pi^6: the m = 3 row must fail
    true_g = coeffs.g_over_factorial

    def halved(n):
        return true_g(n) / 2 if n == 5 else true_g(n)

    monkeypatch.setattr(coeffs, "g_over_factorial", halved)
    rep = coeffs.check_theorem4(m_max=5, tol=1e-12)
    rows = {r.label: r for r in rep.rows}
    assert not rows["strict lower bound slack m=3"].passed
    assert all(rows[f"strict lower bound slack m={m}"].passed for m in (1, 2, 4, 5))


def test_check_theorem4_zeta_form_tol_is_relative():
    # the zeta bracket width enters scaled to the coefficient's size, so it
    # adds at most a few ulps to the relative tolerance
    eps = 2.0 ** -52
    rep = coeffs.check_theorem4(m_max=20, tol=1e-12)
    rows = [r for r in rep.rows if "zeta form" in r.label]
    assert len(rows) == 20
    for r in rows:
        assert r.tol <= (1e-12 + 8 * eps) * abs(r.lhs), r.label


def test_tanh_form_at_zero():
    assert coeffs.g_value(0.0) == 0.5


def test_check_theorem4_ratio_margins_match_mpmath():
    # the slack of the ratio sandwich is about (8/9) 3^(-4m) on the lower
    # side, under one ulp of pi^2 from m = 9, so a margin formed in floats
    # reads 0 there; the exact margins must stay positive and accurate
    mpmath = pytest.importorskip("mpmath")
    rep = coeffs.check_theorem4(m_max=20, tol=1e-12)
    rows = {r.label: r for r in rep.rows}
    with mpmath.workdps(60):
        for m in range(2, 11):
            r = coeffs.coefficient_ratio_exact(m)
            over = mpmath.mpf(r.numerator) / r.denominator / mpmath.pi ** 2
            refs = {"lower": over - 1,
                    "upper": mpmath.mpf("1.00013814") - over}
            for side, ref in refs.items():
                margin = rows[f"ratio {side} bound m={m}"].margin
                assert margin > 0, (side, m)
                assert abs(margin - ref) <= 0.01 * ref, (side, m)
            assert float(coeffs._ratio_margins(r)[0]) == \
                rows[f"ratio lower bound m={m}"].margin
