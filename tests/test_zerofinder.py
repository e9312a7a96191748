import cmath
import itertools
import math
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import etazeros.cli as cli
import etazeros.quadrature as quadrature
import etazeros.special as special
import etazeros.zerofinder as zerofinder
from etazeros.special import F, Gamma, one_minus_two_pow
from etazeros.zerofinder import (
    ZeroBracket,
    ZeroRefinementError,
    eta_oracle,
    find_zeros,
    refine_zero,
    scan_critical_line,
    scan_F,
)

EPS = math.ulp(1.0)

# ordinates derived by bisecting the eta oracle itself (frozen at 1e-6)
ZERO_1 = 14.134725
ZERO_2 = 21.022040
ZERO_3 = 25.010858


# ---------------------------------------------------------------------------
# The eta oracle.

def test_eta_at_one_alternating_harmonic():
    v, _ = eta_oracle(1.0)
    assert v.real == pytest.approx(math.log(2.0), rel=1e-13)
    assert v.imag == 0.0


def test_eta_at_two():
    v, _ = eta_oracle(2.0)
    assert v.real == pytest.approx(math.pi ** 2 / 12.0, rel=1e-13)


def test_eta_partial_sum_bracket():
    # for real s the alternating partial sums bracket the limit
    s = 0.7
    terms = [(-1) ** (n - 1) * n ** -s for n in range(1, 4002)]
    import itertools
    partial = list(itertools.accumulate(terms))
    lo, hi = min(partial[-2:]), max(partial[-2:])
    v = eta_oracle(s)[0].real
    assert lo <= v <= hi


def test_eta_small_near_first_zero():
    v, _ = eta_oracle(complex(0.5, ZERO_1))
    assert abs(v) < 1e-6


def test_eta_rejects_left_halfplane():
    with pytest.raises(ValueError):
        eta_oracle(complex(-0.2, 3.0))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.1, max_value=0.9),
       st.floats(min_value=0.0, max_value=40.0))
def test_eta_conjugate_symmetry(a, b):
    up, _ = eta_oracle(complex(a, b))
    dn, _ = eta_oracle(complex(a, -b))
    assert dn.real == pytest.approx(up.real, abs=1e-12 + 1e-9 * abs(up.real))
    assert dn.imag == pytest.approx(-up.imag, abs=1e-12 + 1e-9 * abs(up.imag))


def _borwein_sum_exact(mpmath, s, n):
    """Borwein's Algorithm 1 sum -2^(-n) sum_(j < 2n) e_j (j + 1)^(-s) for
    eta, with e_j = (-1)^j (sum_(k <= j - n) C(n, k) - 2^n) in exact
    integers and the powers at mpmath's working precision."""
    total, partial = mpmath.mpf(0), 0
    for j in range(2 * n):
        if j >= n:
            partial += math.comb(n, j - n)
        e_j = (-1) ** j * (partial - 2 ** n)
        total += e_j * mpmath.power(j + 1, -s)
    return -total / 2 ** n


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.05, max_value=2.0),
       st.floats(min_value=-60.0, max_value=60.0),
       st.integers(min_value=1, max_value=20))
@example(0.1, 0.0, 20)          # real terms, the most cancellation
@example(0.5, 60.0, 1)
def test_eta_weighted_sum_matches_averaging_passes(a, b, n):
    # Borwein's e_j form is the last entry of n pairwise averaging passes
    # over the 2n partial sums, and the float sum of 2n weighted terms
    # equals it within its own rounding floor
    mpmath = pytest.importorskip("mpmath")
    value, floor = zerofinder._eta_sum(complex(a, b), n)
    with mpmath.workdps(40):
        s = mpmath.mpc(a, b)
        ref = _borwein_sum_exact(mpmath, s, n)
        partial = [*itertools.accumulate(
            (-1) ** (l - 1) * mpmath.power(l, -s) for l in range(1, 2 * n + 1))]
        for _ in range(n):
            partial = [(x + y) / 2 for x, y in zip(partial, partial[1:])]
        assert abs(partial[-1] - ref) <= mpmath.mpf(10) ** -35 * abs(ref)
        err = abs(mpmath.mpc(value.real, value.imag) - ref)
    assert err <= floor, (a, b, n, float(err), floor)


@pytest.mark.parametrize("a", [0.01, 0.05, 0.2, 0.9, 2.0, 5.0])
@pytest.mark.parametrize("b", [0.0, 1.0, 7.0, 25.0, 60.0])
def test_eta_truncation_bound_holds(a, b):
    # Borwein's bound 8^(-n) (1 + |t| / sigma) e^(pi |t| / 2) on the exact
    # 2n-term sum, against 60-digit mpmath, for every n up to 48
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        s = mpmath.mpc(a, b)
        eta = mpmath.altzeta(s)
        for n in range(2, 49):
            err = abs(_borwein_sum_exact(mpmath, s, n) - eta)
            bound = (mpmath.mpf(8) ** -n * (1 + mpmath.mpf(b) / a)
                     * mpmath.exp(mpmath.pi * b / 2))
            assert err <= bound, (a, b, n, float(err), float(bound))


def _binomial_tail_from_lists(n):
    """Reference tail from the list of all n + 1 exact binomials and the
    list of their running sums."""
    comb = [1] * (n + 1)
    for j in range(n):
        comb[j + 1] = comb[j] * (n - j) // (j + 1)
    tails = [*itertools.accumulate(reversed(comb))][::-1]
    return [t / (1 << n) for t in tails]


def test_find_zeros_builds_each_eta_weight_once():
    # the scan on [1000, 1010] passes 8 n of eta's weights and refinement
    # goes back to each bracket's: every n is built once, as many builds as
    # entries (with room for 4 entries there were 14 builds)
    zerofinder._tail_weights.cache_clear()
    zerofinder.find_zeros(1000.0, 1010.0)
    info = zerofinder._tail_weights.cache_info()
    assert info.misses == info.currsize == 8, info


@pytest.mark.parametrize("m", [0, 1, 2, 7, 50, 100, 1023, 1024, 1500, 1520])
def test_binomial_weights(m):
    # m > 1023: 2^m overflows a float, the rounded weights must not; the
    # single pass rounds the same exact integers as the reference lists
    tail = zerofinder._tail_weights(m)
    assert list(tail) == _binomial_tail_from_lists(m)
    assert len(tail) == m + 1
    assert tail[0] == 1.0 and tail[m] == 2.0 ** -m
    assert all(x >= y for x, y in zip(tail, tail[1:]))
    for j in range(1, m + 1):
        assert abs(tail[j] + tail[m + 1 - j] - 1.0) <= EPS


def test_tail_weights_round_as_int_over_int():
    # each entry is rounded from the top bits of its exact tail sum, with a
    # guard and a sticky bit, into the subnormal range at large n; int / int
    # rounds the same sums once, correctly, for every n up to 2048 and at the
    # n of b near 1e4 and 2e4
    build = zerofinder._tail_weights.__wrapped__
    for n in (*range(2049), 7579, 15020):
        assert list(build(n)) == _binomial_tail_from_lists(n), n


def test_eta_builds_its_terms_once(monkeypatch):
    # one call makes its 2n terms in one piece and sums them once; n is the
    # least with 8^(-n) (1 + b / a) e^(pi b / 2) <= e^-40
    made = []
    terms = zerofinder._alternating_terms

    def counted(s, m):
        made.append(m)
        return terms(s, m)

    monkeypatch.setattr(zerofinder, "_alternating_terms", counted)
    heights = (0.0, 14.1, 1000.7)
    for b in heights:
        eta_oracle(complex(0.5, b))
    assert made == [40, 64, 1558]
    for b, m in zip(heights, made):
        n = m // 2
        log_bound = math.log1p(2 * b) + math.pi * b / 2 - n * math.log(8)
        assert log_bound <= -40 < log_bound + math.log(8)


def test_eta_at_the_smallest_sigma():
    # t / sigma overflows to inf here; the bound's log form does not
    v, v_err = eta_oracle(complex(5e-324, 10.0))
    assert cmath.isfinite(v) and math.isfinite(v_err)


# (0.48697, 723.732) and (0.2341, 650.516): where an estimated floor,
# (n + 4 b) 3e-16 max(1, |eta|), came closest to the error or fell below it
@pytest.mark.parametrize("a, b", [
    *itertools.product([0.2, 0.5, 0.8],
                       [14.13, 37.0, 55.5, 56.9, 100.3, 480.3, 700.5,
                        1000.7]),
    (0.48697, 723.7320), (0.2341, 650.516)])
def test_eta_within_tol_of_mpmath(a, b):
    mpmath = pytest.importorskip("mpmath")
    v, v_err = eta_oracle(complex(a, b))
    with mpmath.workdps(30):
        err = abs(mpmath.mpc(v.real, v.imag)
                  - mpmath.altzeta(mpmath.mpc(a, b)))
    assert err <= v_err / 4, (a, b, float(err), v_err)


@pytest.mark.parametrize("b", [125.5, 480.3, 1000.7, 5000.3, 2e4])
@pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
def test_eta_err_bounds_error_against_mpmath(a, b):
    # up to the height bound, where err is mostly the rounding floor
    mpmath = pytest.importorskip("mpmath")
    v, v_err = eta_oracle(complex(a, b))
    with mpmath.workdps(30):
        err = abs(mpmath.mpc(v.real, v.imag)
                  - mpmath.altzeta(mpmath.mpc(a, b)))
    assert err <= v_err / 4, (a, b, float(err), v_err)


def zeta_oracle(s):
    """zeta(s) = eta(s) / (1 - 2^(1-s)), the oracle route's zeta."""
    return eta_oracle(s)[0] / one_minus_two_pow(s)


def test_zeta_oracle_at_half():
    v = zeta_oracle(0.5)
    assert v.real == pytest.approx(-1.4603545088095868, rel=1e-11)


def test_zeta_oracle_known_values():
    assert zeta_oracle(2.0).real == pytest.approx(math.pi ** 2 / 6.0,
                                                  rel=1e-12)
    # Apery's constant via the alternating route
    assert zeta_oracle(3.0).real == pytest.approx(1.2020569031595943,
                                                  rel=1e-12)


# ---------------------------------------------------------------------------
# Scanning.

def test_scan_finds_three_brackets():
    brackets = scan_critical_line(10.0, 30.0, 0.25)
    assert len(brackets) == 3, brackets
    spans = [(b.b_lo, b.b_hi) for b in brackets]
    for (lo, hi), z in zip(spans, (ZERO_1, ZERO_2, ZERO_3)):
        assert lo <= z <= hi


@pytest.mark.parametrize("b_min,b_max,points,count", [
    (10.0, 30.0, 81, 3), (100.0, 110.0, 41, 4), (1000.0, 1003.0, 13, 2)])
def test_integral_z_shares_the_scan_signs(b_min, b_max, points, count):
    # at every point of the eta scan grid the integral route's Z clears its
    # own bound and has the oracle route's sign, so F's Z changes sign in
    # exactly the scan's brackets: the shared zeros at scan resolution
    bs = zerofinder._grid(b_min, b_max, 0.25)
    assert len(bs) == points
    with quadrature.line_request([complex(0.5, b) for b in bs]):
        integral = [zerofinder._line_eval(b, "integral") for b in bs]
    for b, (zc, err) in zip(bs, integral):
        oracle = zerofinder._line_eval(b, "oracle")[0].real
        assert abs(zc.real) > err, (b, zc, err)
        assert (zc.real > 0) == (oracle > 0), (b, zc, oracle)
    brackets = scan_critical_line(b_min, b_max, 0.25)
    assert len(brackets) == count
    assert [(br.b_lo, br.b_hi) for br in brackets] == [
        (bs[i], bs[i + 1]) for i in range(len(bs) - 1)
        if (integral[i][0].real > 0) != (integral[i + 1][0].real > 0)]


def test_scan_empty_below_first_zero():
    assert scan_critical_line(1.0, 10.0, 0.25) == []


def test_scan_fine_window():
    brackets = scan_critical_line(14.0, 14.3, 0.01)
    assert len(brackets) == 1
    assert brackets[0].b_lo <= ZERO_1 <= brackets[0].b_hi


def test_scan_bracket_invariant():
    for br in scan_critical_line(10.0, 30.0, 0.25):
        assert br.indicator_lo * br.indicator_hi < 0


def test_scan_mirrored_range():
    # Z is even in b, so the mirrored window brackets the mirrored ordinates
    neg = scan_critical_line(-30.0, -10.0, 0.25)
    pos = scan_critical_line(10.0, 30.0, 0.25)
    assert len(neg) == len(pos) == 3
    for nb, pb in zip(sorted(-b.b_hi for b in neg), sorted(b.b_lo for b in pos)):
        assert nb == pytest.approx(pb, abs=1e-12)


def test_scan_validates_step():
    with pytest.raises(ValueError):
        scan_critical_line(10.0, 30.0, 0.75)


# ---------------------------------------------------------------------------
# Refinement.

def test_refine_first_zero_oracle():
    brackets = scan_critical_line(14.0, 14.3, 0.01)
    z = refine_zero(brackets[0])
    assert z.b_star == pytest.approx(ZERO_1, abs=1e-5)
    assert z.residual < 1e-6
    assert z.residual_eta < 1e-6


def _fabricated_bracket(lo_b, hi_b):
    # endpoint signs made up for a step where Z keeps one sign (|Z| ~ 2.3
    # between the zeros at 14.13 and 21.02): a bracket that is not a zero
    return ZeroBracket(b_lo=lo_b, b_hi=hi_b, indicator_lo=1.0,
                       indicator_hi=-1.0)


def test_refine_rejects_spurious_bracket():
    lo = zerofinder._line_eval(18.0, "oracle")[0].real
    hi = zerofinder._line_eval(18.25, "oracle")[0].real
    assert lo > 0 and hi > 0        # no sign change of Z in this step
    with pytest.raises(ZeroRefinementError,
                       match=r"\[18\.0000, 18\.2500\] proves no zero"
                       ) as ei:
        refine_zero(_fabricated_bracket(18.0, 18.25))
    # every ITP value is positive, so the bracket closes on its made-up
    # negative end, whose unbounded error proves nothing
    assert ei.value.b_best == pytest.approx(18.25, abs=1e-9)


@pytest.mark.parametrize("flip_next", [False, True],
                         ids=["next-positive", "next-negative"])
def test_a_zero_value_on_the_grid_proves_nothing(monkeypatch, capsys,
                                                 flip_next):
    # Z read as 0.0 at the grid point b = 20, between Z(19.75) > 0 and
    # Z(20.25) of either sign: the scan takes refine_zero's sign test, so
    # no bracket it emits is refused as a usage error (exit 3), and an end
    # at 0.0 proves no zero, so 20.0 is neither accepted nor counted twice
    line_eval = zerofinder._line_eval

    def zero_at_20(b, method):
        zc, err = line_eval(b, method)
        if b == 20.0:
            zc = 0j
        elif flip_next and b == 20.25:
            zc = -zc
        return zc, err

    monkeypatch.setattr(zerofinder, "_line_eval", zero_at_20)
    brackets = scan_critical_line(10.0, 30.0, 0.25)
    assert all((br.indicator_lo > 0) != (br.indicator_hi > 0)
               for br in brackets)
    code = cli.main(["zeros", "--b-min", "10", "--b-max", "30"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert "bracket [19.7500, 20.0000] proves no zero" in out.err


def test_no_proof_raises_and_exits_1(monkeypatch, capsys):
    # eta's error bound inflated 1e15 times: no value of Z near a zero
    # clears it, so the first bracket fails, visibly
    eta = zerofinder.eta_oracle

    def inflated(s):
        value, err = eta(s)
        return value, err * 1e15

    monkeypatch.setattr(zerofinder, "eta_oracle", inflated)
    with pytest.raises(ZeroRefinementError) as ei:
        find_zeros(10.0, 30.0)
    assert ei.value.b_best == pytest.approx(ZERO_1, abs=1e-5)
    code = cli.main(["zeros", "--b-min", "10", "--b-max", "30"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert "bracket [14.0000, 14.2500] proves no zero" in out.err


@pytest.mark.parametrize("b_min,b_max", [
    (10.0, 40.0), (100.0, 110.0), (1000.0, 1010.0), (5000.0, 5003.0),
    (19996.0, 19998.0)])
def test_proven_intervals_hold_mpmath_zeros(b_min, b_max):
    # the proven interval of each oracle zero holds mpmath's ordinate, and
    # the signs of Z at its ends are mpmath's.  The proof margin falls with
    # height: below 19996 the final bracket, narrower than REFINE_WIDTH,
    # proves its zero; near 19997.3 it does not, and the interval is the
    # narrowest bracket of the same ITP sequence that does (4e-6 wide)
    mpmath = pytest.importorskip("mpmath")
    zeros = [refine_zero(br) for br in
             scan_critical_line(b_min, b_max, 0.25)]
    first = int(mpmath.nzeros(b_min)) + 1
    assert len(zeros) == int(mpmath.nzeros(b_max)) - first + 1
    for k, z in enumerate(zeros, start=first):
        lo, hi = z.proven_lo, z.proven_hi
        assert lo <= z.b_star <= hi
        assert lo < float(mpmath.zetazero(k).imag) < hi
        (zc_lo, err_lo), (zc_hi, err_hi) = (
            zerofinder._line_eval(b, "oracle") for b in (lo, hi))
        assert zerofinder._proves(zc_lo.real, err_lo, zc_hi.real, err_hi)
        with mpmath.workdps(25):
            signs = [mpmath.siegelz(b) > 0 for b in (lo, hi)]
        assert signs == [zc_lo.real > 0, zc_hi.real > 0]
        width = hi - lo
        if b_min == 19996.0:
            assert zerofinder.REFINE_WIDTH < width < 1e-5
        else:
            assert width < zerofinder.REFINE_WIDTH


def _count_evals(monkeypatch):
    """Count the F (ray integral) and eta evaluations the zero finder makes
    from here on."""
    counts = {"F": 0, "eta": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # every name an etazeros module binds the ray integral to
    ray = quadrature._ray_integral
    for name, mod in list(sys.modules.items()):
        if name.startswith("etazeros") and mod is not None:
            for attr, value in list(vars(mod).items()):
                if value is ray:
                    monkeypatch.setattr(mod, attr, counted("F", ray))
    monkeypatch.setattr(zerofinder, "eta_oracle",
                        counted("eta", zerofinder.eta_oracle))
    return counts


# refinement runs on the oracle route alone; the id names it
@pytest.mark.parametrize("method", ["oracle"])
def test_refine_first_zero_takes_few_evaluations(monkeypatch, method):
    # the scan step's bracket [14, 14.25]: bisection to width 1e-9 would
    # take 28 steps, plus the evaluation at b*
    bracket = scan_critical_line(10.0, 30.0, 0.25)[0]
    assert bracket.b_hi - bracket.b_lo == 0.25
    counts = _count_evals(monkeypatch)
    z = refine_zero(bracket)
    assert z.b_star == pytest.approx(ZERO_1, abs=1e-5)
    assert counts["F"] + counts["eta"] <= 12, counts


# bisection needs 28 halvings to take 0.25 below 1e-9; ITP with n0 = 1
# allows one step more, then comes b*
_WORST_CASE_EVALS = 28 + 1 + 1


@pytest.mark.parametrize("shape", [
    lambda x: x ** 3,                        # triple root: secants crawl
    lambda x: math.tanh(x * 1e7),            # a step 1e-7 wide
], ids=["triple-root", "steep-tanh"])
@pytest.mark.parametrize("b0", [14.0 + 0.25 / math.e, 14.000001, 14.2])
def test_refine_worst_case_is_bounded(monkeypatch, shape, b0):
    counts = _count_evals(monkeypatch)
    line_evals = []

    def line_eval(b, method):
        line_evals.append(b)
        return complex(shape(b - b0)), 0.0

    monkeypatch.setattr(zerofinder, "_line_eval", line_eval)
    bracket = ZeroBracket(b_lo=14.0, b_hi=14.25, indicator_lo=shape(14.0 - b0),
                          indicator_hi=shape(14.25 - b0))
    b_star = refine_zero(bracket).b_star
    assert abs(b_star - b0) < 5e-10
    assert len(line_evals) + counts["F"] + counts["eta"] <= _WORST_CASE_EVALS


# ---------------------------------------------------------------------------
# The full pipeline and cross-route agreement.

def test_find_zeros_three_ordinates():
    zeros = find_zeros(10.0, 30.0, 0.25)
    assert len(zeros) == 3
    got = [z["b_star"] for z in zeros]
    for g, expect in zip(got, (ZERO_1, ZERO_2, ZERO_3)):
        assert g == pytest.approx(expect, abs=1e-5)
    assert all(z["residual"] < 1e-6 for z in zeros)
    scan_rows = scan_F(10.0, 30.0, 0.25)
    assert len(scan_rows) == 81
    assert all(len(r) == 4 for r in scan_rows)


def test_integral_route_resolves_first_zero_sharply():
    zeros = find_zeros(13.0, 15.0, 0.25)
    assert len(zeros) == 1
    z = zeros[0]
    assert z["b_star_integral"] is not None
    assert abs(z["b_star_integral"] - z["b_star"]) < 1e-6


def test_oracle_integral_agreement_off_zero():
    # |F_integral - gamma * eta| compared at max(|F|, 1e-9) scale: a relative
    # test away from zeros, an absolute one (1e-16) where |F| has sunk
    # below the floor
    for b in (5.0, 14.2, 21.0, 25.0, 30.0):
        s = complex(0.5, b)
        f, _ = F(s)
        rhs = Gamma(s)[0] * eta_oracle(s)[0]
        denom = max(abs(f), 1e-9)
        assert abs(f - rhs) / denom < 1e-7


def test_find_zeros_empty_range():
    assert find_zeros(2.0, 8.0, 0.25) == []
    assert len(scan_F(2.0, 8.0, 0.25)) == 25


def test_find_zeros_refuses_an_absurd_grid_at_once(monkeypatch):
    # a step of 1e-300 on [10, 12] asks for ~2e300 points; the grid refuses
    # it before building a list or evaluating anything
    def no_eval(*args):
        raise AssertionError("evaluated a grid point")
    monkeypatch.setattr(zerofinder, "_line_eval", no_eval)
    with pytest.raises(ValueError, match="scan points"):
        find_zeros(10.0, 12.0, 1e-300)
    with pytest.raises(ValueError, match="scan points"):
        scan_F(10.0, 12.0, 1e-300)
    # the default step over the CLI's whole height range (0, 2e4] passes
    assert zerofinder.MAX_GRID_POINTS >= 2.0e4 / 0.25 + 1
    # the cap counts points: a grid of exactly the cap passes, one more not
    monkeypatch.setattr(zerofinder, "MAX_GRID_POINTS", 9)
    assert len(zerofinder._grid(10.0, 12.0, 0.25)) == 9
    with pytest.raises(ValueError, match="scan points"):
        zerofinder._grid(10.0, 12.25, 0.25)


def test_find_zeros_budget_and_accuracy(monkeypatch):
    # the oracle scan takes 121 evaluations and its 6 refinements about 9
    # each; the integral route's certificate takes 2 ray evaluations a zero
    counts = _count_evals(monkeypatch)
    zeros = find_zeros(10.0, 40.0, 0.25)
    assert counts["eta"] >= 121 and counts["eta"] <= 200, counts
    assert counts["F"] <= 12, counts
    assert len(zeros) == 6
    assert all(z["integral_certified"] and z["route_gap"] <= 1e-9
               for z in zeros)
    mpmath = pytest.importorskip("mpmath")
    for k, z in enumerate(zeros, start=1):
        assert abs(z["b_star"] - float(mpmath.zetazero(k).imag)) <= 5e-10


def test_ordinates_within_1e12_of_mpmath():
    # b* is one regula falsi step inside the final bracket; the bracket's
    # midpoint sat up to 4.8e-11 from the zero on this window
    mpmath = pytest.importorskip("mpmath")
    zeros = find_zeros(10.0, 60.0, 0.25)
    assert len(zeros) == 13
    for k, z in enumerate(zeros, start=1):
        with mpmath.workdps(25):
            ref = float(mpmath.zetazero(k).imag)
        for key in ("b_star", "b_star_integral"):
            assert abs(z[key] - ref) <= 1e-12, (k, key, z[key] - ref)


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


# ---------------------------------------------------------------------------
# Hardy's Z on both routes, and windows past b = 400.

@pytest.mark.parametrize("b", [14.13, 100.3, 480.3, 1000.7])
@pytest.mark.parametrize("method", ["oracle", "integral"])
def test_hardy_z_within_err_of_mpmath(method, b):
    mpmath = pytest.importorskip("mpmath")
    zc, err = zerofinder._line_eval(b, method)
    assert abs(zc.real - float(mpmath.siegelz(b))) <= err, (zc, err)
    assert abs(zc.imag) <= err
    assert err <= 1e-8


@pytest.mark.parametrize("b", [14.13, 480.3, 1000.7])
def test_integral_z_is_the_bridge_composition(b):
    # the integral route's Z is e^(i theta) zeta with zeta from the scaled
    # F by the bridge identity, with no algebra of its own
    s = complex(0.5, b)
    zeta, _ = special.zeta_from_F(s, *special.F(s, scaled=True))
    theta, _ = special.riemann_siegel_theta(b)
    assert zerofinder._line_eval(b, "integral")[0] == (
        cmath.exp(1j * theta) * zeta)


def test_hardy_z_is_even():
    for method in ("oracle", "integral"):
        up = zerofinder._line_eval(30.5, method)
        dn = zerofinder._line_eval(-30.5, method)
        assert up == dn


@pytest.mark.parametrize("b_min,b_max,count", [(400.0, 405.0, 3),
                                               (480.0, 490.0, 7)])
def test_find_zeros_high_windows(b_min, b_max, count):
    # zeros 0.25 to 1 apart, and past b ~ 476 |Gamma(1/2 + ib)| and F
    # underflow to 0: each zero is still a sign change of Z on both routes
    mpmath = pytest.importorskip("mpmath")
    zeros = find_zeros(b_min, b_max, 0.25)
    assert len(zeros) == count
    first = int(mpmath.nzeros(b_min)) + 1
    for k, z in enumerate(zeros, start=first):
        assert z["integral_certified"] and z["route_gap"] <= 1e-9
        assert abs(z["b_star"] - float(mpmath.zetazero(k).imag)) <= 5e-10
    assert len(scan_F(b_min, b_max, 0.25)) == int((b_max - b_min) / 0.25) + 1


def test_find_zeros_keeps_a_zero_the_integral_route_cannot_certify(
        monkeypatch):
    # the integral route's Z, lifted by 1 around the second zero, keeps one
    # sign there: the oracle's zero stays, uncertified
    line_eval = zerofinder._line_eval

    def offset(b, method):
        zc, err = line_eval(b, method)
        if method == "integral" and abs(b - ZERO_2) < 1e-3:
            zc += 1.0
        return zc, err

    monkeypatch.setattr(zerofinder, "_line_eval", offset)
    zeros = find_zeros(10.0, 30.0, 0.25)
    assert [z["b_star"] for z in zeros] == pytest.approx(
        [ZERO_1, ZERO_2, ZERO_3], abs=1e-5)
    assert [z["integral_certified"] for z in zeros] == [True, False, True]
    assert zeros[1]["b_star_integral"] is None
    assert zeros[1]["route_gap"] is None


def test_find_zeros_past_the_eta_floor():
    # past b ~ 1000 eta's rounding floor is near 1e-10; the oracle carries
    # it into Z's bound, and the zero still refines and certifies
    mpmath = pytest.importorskip("mpmath")
    zeros = find_zeros(1400.0, 1402.0, 0.25)
    first = int(mpmath.nzeros(1400.0)) + 1
    assert len(zeros) == int(mpmath.nzeros(1402.0)) - first + 1 == 1
    z = zeros[0]
    assert z["integral_certified"] and z["route_gap"] <= 1e-9
    assert abs(z["b_star"] - float(mpmath.zetazero(first).imag)) <= 5e-10
