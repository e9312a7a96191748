import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etazeros.zerofinder as zerofinder
from etazeros.quadrature import QuadratureSpec
from etazeros.special import ComplexPoint, F, Gamma
from etazeros.zerofinder import (
    EtaConvergenceError,
    ZeroBracket,
    ZeroRefinementError,
    eta_err_floor,
    eta_oracle,
    find_zeros,
    gamma_modulus_critical,
    refine_zero,
    scan_critical_line,
    zeta_oracle,
)

Q = QuadratureSpec()

# ordinates derived by bisecting the eta oracle itself (frozen at 1e-6)
ZERO_1 = 14.134725
ZERO_2 = 21.022040
ZERO_3 = 25.010858


# ---------------------------------------------------------------------------
# The eta oracle.

def test_eta_at_one_alternating_harmonic():
    v = eta_oracle(1.0)
    assert v.re == pytest.approx(math.log(2.0), rel=1e-13)
    assert v.im == 0.0


def test_eta_at_two():
    v = eta_oracle(2.0)
    assert v.re == pytest.approx(math.pi ** 2 / 12.0, rel=1e-13)


def test_eta_partial_sum_bracket():
    # for real s the alternating partial sums bracket the limit
    s = 0.7
    terms = [(-1) ** (n - 1) * n ** -s for n in range(1, 4002)]
    import itertools
    partial = list(itertools.accumulate(terms))
    lo, hi = min(partial[-2:]), max(partial[-2:])
    v = eta_oracle(s).re
    assert lo <= v <= hi


def test_eta_small_near_first_zero():
    v = eta_oracle(ComplexPoint(0.5, ZERO_1), tol=1e-11)
    assert math.hypot(v.re, v.im) < 1e-6


def test_eta_tol_honored_by_self_consistency():
    # a second run at a much finer tolerance is the reference
    s = ComplexPoint(0.5, 37.0)
    coarse = eta_oracle(s, tol=1e-8)
    fine = eta_oracle(s, tol=1e-12)
    assert abs(complex(coarse.re, coarse.im)
               - complex(fine.re, fine.im)) < 1e-8


def test_eta_unreachable_tolerance_raises():
    with pytest.raises(EtaConvergenceError) as ei:
        eta_oracle(ComplexPoint(0.5, 5000.0), tol=1e-12)
    assert ei.value.achieved > 1e-12


def test_eta_rejects_left_halfplane():
    with pytest.raises(ValueError):
        eta_oracle(ComplexPoint(-0.2, 3.0))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.1, max_value=0.9),
       st.floats(min_value=0.0, max_value=40.0))
def test_eta_conjugate_symmetry(a, b):
    up = eta_oracle(ComplexPoint(a, b), tol=1e-10)
    dn = eta_oracle(ComplexPoint(a, -b), tol=1e-10)
    assert dn.re == pytest.approx(up.re, abs=1e-12 + 1e-9 * abs(up.re))
    assert dn.im == pytest.approx(-up.im, abs=1e-12 + 1e-9 * abs(up.im))


def test_zeta_oracle_at_half():
    v = zeta_oracle(0.5)
    assert v.re == pytest.approx(-1.4603545088095868, rel=1e-11)


def test_zeta_oracle_known_values():
    assert zeta_oracle(2.0).re == pytest.approx(math.pi ** 2 / 6.0, rel=1e-12)
    # Apery's constant via the alternating route
    assert zeta_oracle(3.0).re == pytest.approx(1.2020569031595943, rel=1e-12)


def test_gamma_modulus_closed_form_matches_quadrature():
    for b in (5.0, 10.0, 14.0):
        closed = gamma_modulus_critical(b)
        quad = abs(Gamma(ComplexPoint(0.5, b), Q).value)
        assert quad == pytest.approx(closed, rel=1e-9)


# ---------------------------------------------------------------------------
# Scanning.

def test_scan_finds_three_brackets_both_methods():
    for method in ("oracle", "integral"):
        brackets = scan_critical_line(10.0, 30.0, 0.25, Q, method=method)
        assert len(brackets) == 3, (method, brackets)
        spans = [(b.b_lo, b.b_hi) for b in brackets]
        for (lo, hi), z in zip(spans, (ZERO_1, ZERO_2, ZERO_3)):
            assert lo <= z <= hi


def test_scan_empty_below_first_zero():
    assert scan_critical_line(1.0, 10.0, 0.25, Q, method="oracle") == []


def test_scan_fine_window():
    brackets = scan_critical_line(14.0, 14.3, 0.01, Q, method="oracle")
    assert len(brackets) == 1
    assert brackets[0].b_lo <= ZERO_1 <= brackets[0].b_hi


def test_scan_bracket_invariant():
    for br in scan_critical_line(10.0, 30.0, 0.25, Q, method="oracle"):
        assert br.indicator_lo * br.indicator_hi < 0


def test_scan_mirrored_range():
    # F2 is odd in b, so the mirrored window brackets the mirrored ordinates
    neg = scan_critical_line(-30.0, -10.0, 0.25, Q, method="integral")
    pos = scan_critical_line(10.0, 30.0, 0.25, Q, method="integral")
    assert len(neg) == len(pos) == 3
    for nb, pb in zip(sorted(-b.b_hi for b in neg), sorted(b.b_lo for b in pos)):
        assert nb == pytest.approx(pb, abs=1e-12)


def test_scan_validates_step():
    with pytest.raises(ValueError):
        scan_critical_line(10.0, 30.0, 0.75, Q)


# ---------------------------------------------------------------------------
# Refinement.

def test_refine_first_zero_oracle():
    brackets = scan_critical_line(14.0, 14.3, 0.01, Q, method="oracle")
    z = refine_zero(brackets[0], 1e-6, Q)
    assert z.b_star == pytest.approx(ZERO_1, abs=1e-5)
    assert z.residual < 1e-6
    assert z.residual_eta < 1e-6


def test_refine_first_zero_integral():
    brackets = scan_critical_line(14.0, 14.3, 0.01, Q, method="integral")
    z = refine_zero(brackets[0], 1e-6, Q)
    assert z.b_star == pytest.approx(ZERO_1, abs=1e-5)
    assert z.residual < 1e-6


def test_refine_rejects_spurious_bracket():
    # near b = 18 one component of eta changes sign while |eta| stays at
    # neighborhood scale: a sign change that is not a zero of F
    lo_b, hi_b = 18.0, 18.25
    lo = eta_oracle(ComplexPoint(0.5, lo_b), tol=1e-11)
    hi = eta_oracle(ComplexPoint(0.5, hi_b), tol=1e-11)
    assert (lo.im > 0) != (hi.im > 0)  # the sign change is real
    fake = ZeroBracket(b_lo=lo_b, b_hi=hi_b, indicator_lo=lo.im,
                       indicator_hi=hi.im, component=1, method="oracle",
                       dip=0.0, median=1.0)
    with pytest.raises(ZeroRefinementError) as ei:
        refine_zero(fake, 1e-6, Q)
    assert 18.0 <= ei.value.b_best <= 18.25
    assert ei.value.residual_eta > 0.1  # |eta| stayed at O(1): not a zero


def test_refine_rejects_spurious_integral_bracket():
    # F2 crosses zero between 18.50 and 18.75 while |F| stays at
    # neighborhood scale (a nodal crossing, not a zero of F)
    f_lo = F(ComplexPoint(0.5, 18.50), Q).value
    f_hi = F(ComplexPoint(0.5, 18.75), Q).value
    gam = gamma_modulus_critical(18.6)
    assert (f_lo.im > 0) != (f_hi.im > 0)
    fake = ZeroBracket(b_lo=18.50, b_hi=18.75,
                       indicator_lo=f_lo.im / gam, indicator_hi=f_hi.im / gam,
                       component=1, method="integral", dip=0.0, median=1.0)
    with pytest.raises(ZeroRefinementError):
        refine_zero(fake, 1e-6, Q)


def _count_evals(monkeypatch):
    """Count the F and eta evaluations the zero finder makes from here on."""
    counts = {"F": 0, "eta": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(zerofinder, "F", counted("F", zerofinder.F))
    monkeypatch.setattr(zerofinder, "eta_oracle",
                        counted("eta", zerofinder.eta_oracle))
    return counts


@pytest.mark.parametrize("method", ["oracle", "integral"])
def test_refine_first_zero_takes_few_evaluations(monkeypatch, method):
    # the scan step's bracket [14, 14.25]: bisection to width 1e-9 would
    # take 28 steps, plus the evaluation at b* and the cross-check
    bracket = scan_critical_line(10.0, 30.0, 0.25, Q, method=method)[0]
    assert bracket.b_hi - bracket.b_lo == 0.25
    counts = _count_evals(monkeypatch)
    z = refine_zero(bracket, 1e-6, Q)
    assert z.b_star == pytest.approx(ZERO_1, abs=1e-5)
    assert counts["F"] + counts["eta"] <= 12, counts


# bisection needs 28 halvings to take 0.25 below 1e-9; ITP with n0 = 1
# allows one step more, then come b* and the cross-check
_WORST_CASE_EVALS = 28 + 1 + 2


@pytest.mark.parametrize("shape", [
    lambda x: x ** 3,                        # triple root: secants crawl
    lambda x: math.tanh(x * 1e7),            # a step 1e-7 wide
], ids=["triple-root", "steep-tanh"])
@pytest.mark.parametrize("b0", [14.0 + 0.25 / math.e, 14.000001, 14.2])
def test_refine_worst_case_is_bounded(monkeypatch, shape, b0):
    counts = _count_evals(monkeypatch)
    line_evals = []

    def line_eval(b, q, method):
        line_evals.append(b)
        v = shape(b - b0)
        return v, 0.0, abs(v), 0.0, complex(v)

    monkeypatch.setattr(zerofinder, "_line_eval", line_eval)
    bracket = ZeroBracket(b_lo=14.0, b_hi=14.25, indicator_lo=shape(14.0 - b0),
                          indicator_hi=shape(14.25 - b0), component=0,
                          method="integral", dip=0.0, median=1.0)
    try:
        b_star = refine_zero(bracket, 1e-6, Q).b_star
    except ZeroRefinementError as exc:      # the oracle sees no zero at b0
        b_star = exc.b_best
    assert abs(b_star - b0) < 5e-10
    assert len(line_evals) + counts["F"] + counts["eta"] <= _WORST_CASE_EVALS


# ---------------------------------------------------------------------------
# The full pipeline and cross-route agreement.

def test_find_zeros_three_ordinates():
    zeros, scan_rows = find_zeros(10.0, 30.0, 0.25, 1e-6, Q)
    assert len(zeros) == 3
    got = [z["b_star"] for z in zeros]
    for g, expect in zip(got, (ZERO_1, ZERO_2, ZERO_3)):
        assert g == pytest.approx(expect, abs=1e-5)
    assert all(z["residual"] < 1e-6 for z in zeros)
    assert len(scan_rows) == 81
    assert all(len(r) == 4 for r in scan_rows)


def test_integral_route_resolves_first_zero_sharply():
    zeros, _ = find_zeros(13.0, 15.0, 0.25, 1e-6, Q)
    assert len(zeros) == 1
    z = zeros[0]
    assert z["b_star_integral"] is not None
    assert abs(z["b_star_integral"] - z["b_star"]) < 1e-6


def test_oracle_integral_agreement_off_zero():
    # |F_integral - gamma * eta| compared at max(|F|, 1e-9) scale: a relative
    # test away from zeros, an absolute one (1e-16) where |F| has sunk
    # below the floor
    for b in (5.0, 14.2, 21.0, 25.0, 30.0):
        s = ComplexPoint(0.5, b)
        f = F(s, Q).value.value
        rhs = Gamma(s, Q).value.value * eta_oracle(s, tol=1e-12).value
        denom = max(abs(f), 1e-9)
        assert abs(f - rhs) / denom < 1e-7


def test_eta_err_floor_scales_with_b():
    assert eta_err_floor(ComplexPoint(0.5, 100.0)) > \
        eta_err_floor(ComplexPoint(0.5, 10.0))


def test_find_zeros_empty_range():
    zeros, scan_rows = find_zeros(2.0, 8.0, 0.25, 1e-6, Q)
    assert zeros == []
    assert len(scan_rows) == 25


def test_find_zeros_budget_and_accuracy(monkeypatch):
    # each scan takes 121 evaluations of its route; the 12 refinements
    # (6 zeros, two routes) add about 10 each
    counts = _count_evals(monkeypatch)
    zeros, _ = find_zeros(10.0, 40.0, 0.25, 1e-6, Q)
    assert counts["F"] <= 200 and counts["eta"] <= 200, counts
    assert len(zeros) == 6
    assert all(z["integral_certified"] and z["route_gap"] <= 1e-9
               for z in zeros)
    mpmath = pytest.importorskip("mpmath")
    for k, z in enumerate(zeros, start=1):
        assert abs(z["b_star"] - float(mpmath.zetazero(k).imag)) <= 5e-10


def test_scan_leaves_numpy_ma_unimported():
    # np.median on a list imports numpy.ma (13-25 ms per process)
    code = ("import sys\n"
            "from etazeros.zerofinder import find_zeros\n"
            "find_zeros(13.0, 15.0)\n"
            "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
