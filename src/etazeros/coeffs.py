"""Exact rational coefficients of the alternating kernel g(t) = 1/(e^t + 1).

Everything here is driven by two exact facts:

* the Bernoulli numbers B_n (first-kind convention, B_1 = -1/2) come from
  the integer tangent numbers T_k of tan x = sum T_k x^(2k-1)/(2k-1)! as
  B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), with B_0 = 1 and B_n = 0 for
  odd n >= 3, and

* the derivatives of g at the origin are
  g^(n)(0) = (1 - 2^(n+1)) / (n+1) * B_{n+1}.

All values are kept as ``fractions.Fraction`` and never rounded; floating
views are produced by one final correctly-rounded conversion.  The structural
consequences checked by :func:`check_theorem4` are:

1. g^(2m)(0) = 0 for m >= 1,
2. g^(4m+1)(0) < 0 for m >= 0,
3. g^(4m-1)(0) > 0 for m >= 1,
4. g^(2m-1)(0)/(2m-1)! = (-1)^m (1 - 2^(-2m)) zeta(2m) * 2 / pi^(2m),
5. the ratio of consecutive odd coefficient magnitudes lies strictly between
   pi^2 and 1.00013814 * pi^2 once m >= 2,
6. 2/pi^(2m) < |g^(2m-1)(0)|/(2m-1)! (strict),
7. g(t) = 1/2 - tanh(t/2)/2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .report import VerificationReport

#: Largest derivative order held in a CoefficientTable.  The geometric decay
#: of |g^(n)(0)|/n! ~ 2/pi^(n+1) means ~65 terms already push series tails
#: below 1e-15 scale at R < 2; 100 leaves wide headroom while keeping the
#: exact factorials cheap.
MAX_INDEX = 100

RATIO_UPPER_BOUND = 1.00013814  # strict upper bound for the odd-coefficient ratio / pi^2

# 35-digit rational bracket for pi: the strict ratio comparisons r_m <> pi^2
# are decided exactly against these (the true slack shrinks like 3^(-4m),
# far below one ulp of float pi^2 once m >= 9).
PI_LO = Fraction(314159265358979323846264338327950288, 10 ** 35)
PI_HI = PI_LO + Fraction(1, 10 ** 35)

_bernoulli_cache: list[Fraction] = []


def _tangent_numbers(k_max: int) -> list[int]:
    """T_1 .. T_k_max, in place in one integer list (R. P. Brent and
    D. Harvey, "Fast computation of Bernoulli, Tangent and Secant numbers",
    2011, Algorithm TangentNumbers)."""
    t = [0, 1]
    for k in range(2, k_max + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, k_max + 1):
        for j in range(k, k_max + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def bernoulli(n: int) -> Fraction:
    """B_n as an exact Fraction (B_1 = -1/2 convention), memoized.

    A miss fills the cache from the tangent numbers up to
    max(n, MAX_INDEX + 1), which covers every coefficient table at once.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= len(_bernoulli_cache):
        bern = [Fraction(1), Fraction(-1, 2)]
        for k, t in enumerate(_tangent_numbers(max(n, MAX_INDEX + 1) // 2),
                              start=1):
            q = 4 ** k
            bern += [Fraction((-1) ** (k - 1) * 2 * k * t, q * (q - 1)),
                     Fraction(0)]
        _bernoulli_cache[:] = bern
    return _bernoulli_cache[n]


def g_deriv_at_zero(n: int) -> Fraction:
    """Exact n-th derivative of g(t) = 1/(e^t + 1) at t = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Fraction(1 - 2 ** (n + 1), n + 1) * bernoulli(n + 1)


def g_over_factorial(n: int) -> Fraction:
    """Exact Maclaurin coefficient g^(n)(0) / n!."""
    return g_deriv_at_zero(n) / factorial(n)


def g_over_factorial_f64(n: int) -> float:
    return float(g_over_factorial(n))


@dataclass(frozen=True)
class CoefficientTable:
    """Memoized exact table of B_n and g^(n)(0) up to ``max_index``."""

    max_index: int
    bernoulli: tuple[Fraction, ...]            # B_0 .. B_{max_index+1}
    g_deriv: tuple[Fraction, ...]              # g^(0)(0) .. g^(max_index)(0)
    g_over_factorial_f64: tuple[float, ...]    # float(g^(n)(0)/n!)

    @classmethod
    def build(cls, max_index: int) -> "CoefficientTable":
        if not 0 <= max_index <= MAX_INDEX:
            raise ValueError(f"max_index must be in [0, {MAX_INDEX}], got {max_index}")
        bern = tuple(bernoulli(n) for n in range(max_index + 2))
        gd = tuple(g_deriv_at_zero(n) for n in range(max_index + 1))
        gof = tuple(float(gd[n] / factorial(n)) for n in range(max_index + 1))
        return cls(max_index=max_index, bernoulli=bern, g_deriv=gd,
                   g_over_factorial_f64=gof)


def g_value(t: float) -> float:
    """g(t) = 1/(e^t + 1), stable for all real t (no overflow)."""
    if t >= 0:
        e = math.exp(-t)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(t))


# ---------------------------------------------------------------------------
# zeta(2m): closed form from B_{2m}, plus an independent direct-sum bracket.

def zeta_even(m: int) -> float:
    """zeta(2m) = (-1)^(m+1) (2 pi)^(2m) B_{2m} / (2 (2m)!).

    The rational factor is exact; the only rounding is the float conversion
    and the (2 pi)^(2m) power, so the result is accurate to a few ulp.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if 2 * m > MAX_INDEX + 1:
        raise ValueError(f"2m exceeds the exact table cap {MAX_INDEX + 1}")
    rational = Fraction((-1) ** (m + 1), 2 * factorial(2 * m)) * bernoulli(2 * m)
    return float(rational) * (2.0 * math.pi) ** (2 * m)


def _power_sum_bracket(p: int, n0: int, h: int, tol: float) -> tuple[float, float]:
    """Bracket [lo, hi] of width <= ``tol`` for sum_{k>=0} (n0 + h k)^(-p), p >= 2.

    The terms below a = n0 + h N are summed directly; the tail is the
    Euler-Maclaurin series (DLMF 2.10.1 with the upper end sent to infinity)

        sum_{k>=0} f(a + h k) = int_a^inf f / h + f(a)/2
                                - sum_{j>=1} B_2j/(2j)! h^(2j-1) f^(2j-1)(a),

    for f(x) = x^(-p).  Every even-order derivative of f is positive, so the
    remainder R_j left after j-1 correction terms has the sign (-1)^(j+1) of
    the j-th term, and R_j - R_(j+1) is that term (DLMF 2.10.2): R_j lies
    between 0 and the j-th term, so the sum lies between the partial sum
    through term j-1 and the one through term j.  Each term is rounded once
    from an exact rational and ``math.fsum`` rounds the total once, so lo and
    hi are the exact bracket ends to within a few ulps.

    Term j+1 over term j is at most ((p + 2j) h / (2 pi a))^2, since
    |B_2j|/(2j)! = 2 zeta(2j)/(2 pi)^(2j); with N = p + ln(1/tol) direct
    terms, a > h (p + ln(1/tol)), so it stays below 1/pi^2 for
    j <= ln(1/tol) and the loop ends within that many terms.
    """
    n_direct = p + max(0, math.ceil(-math.log(tol)))
    a = n0 + h * n_direct
    parts = [1 / (n0 + h * k) ** p for k in range(n_direct)]
    parts.append(1 / (h * (p - 1) * a ** (p - 1)))      # integral
    parts.append(1 / (2 * a ** p))                        # f(a)/2
    rising = p                                            # p (p+1) ... (p+2j-2)
    for j in itertools.count(1):
        term = Fraction(bernoulli(2 * j) * h ** (2 * j - 1) * rising,
                        factorial(2 * j) * a ** (p + 2 * j - 1))
        if abs(term) <= tol / 2:
            break
        parts.append(float(term))
        rising *= (p + 2 * j - 1) * (p + 2 * j)
    inner = math.fsum(parts)
    outer = math.fsum(parts + [float(term)])
    return min(inner, outer), max(inner, outer)


def zeta_direct_bracket(m: int, tol: float = 1e-12) -> tuple[float, float]:
    """Bracket [lo, hi] for zeta(2m) of width <= ``tol``, from the definition.

    sum_{n>=1} n^(-2m) is summed directly up to n = 2m + ln(1/tol) and its
    tail is bracketed by Euler-Maclaurin with the signed remainder (see
    :func:`_power_sum_bracket`).  It does not use the B_{2m} closed form of
    :func:`zeta_even`: Bernoulli numbers enter only as Euler-Maclaurin
    weights on a tail that starts past n = 2m.  The ends carry a few ulps of
    rounding, so ``tol`` should exceed a few ulps of zeta(2m).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _power_sum_bracket(2 * m, 1, 1, tol)


def odd_zeta_margin(m: int) -> float:
    """(1 - 2^(-2m)) zeta(2m) - 1 = sum over odd n >= 3 of n^(-2m), computed
    without cancellation.

    This is the strict slack in 2/pi^(2m) < |g^(2m-1)(0)|/(2m-1)!; at large m
    it is ~3^(-2m) and would vanish entirely if formed by subtraction.  The
    sum is the midpoint of an Euler-Maclaurin bracket with step 2 (see
    :func:`_power_sum_bracket`) whose width is 2^(-60) of the leading term
    3^(-2m), so the result is correct to a few ulps.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    lo, hi = _power_sum_bracket(2 * m, 3, 2, 3.0 ** (-2 * m) * 2.0 ** -60)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Odd-coefficient ratio (consecutive magnitudes) and its bounds.

def coefficient_ratio_exact(m: int) -> Fraction:
    """Exact [g^(4m-1)(0)/(4m-1)!] / [-g^(4m+1)(0)/(4m+1)!]."""
    if m < 1:
        raise ValueError("m must be >= 1")
    num = g_over_factorial(4 * m - 1)
    den = -g_over_factorial(4 * m + 1)
    return num / den


def coefficient_ratio(m: int) -> float:
    return float(coefficient_ratio_exact(m))


def ratio_over_pi2_minus_one(m: int) -> float:
    """coefficient_ratio(m)/pi^2 - 1, small-positive at large m.

    Formed exactly as r/PI_HI^2 - 1 and rounded once, so it is a lower bound
    on the true value, short of it by under 1e-35 absolute; at m >= 9 the
    true value is below one ulp of pi^2 and float(r)/pi^2 - 1 reads 0.
    """
    return float(_ratio_margins(coefficient_ratio_exact(m))[0])


def _ratio_margins(r: Fraction) -> tuple[Fraction, Fraction]:
    """Exact lower bounds on r/pi^2 - 1 and RATIO_UPPER_BOUND - r/pi^2 from
    the 35-digit pi bracket; each is positive exactly when its strict bound
    holds for every pi in [PI_LO, PI_HI]."""
    return (r / (PI_HI * PI_HI) - 1,
            Fraction(100013814, 10 ** 8) - r / (PI_LO * PI_LO))


def ratio_bounds_exact(m: int) -> tuple[bool, bool]:
    """Exact verdicts (r_m > pi^2, r_m < RATIO_UPPER_BOUND * pi^2), decided in
    rational arithmetic against the 35-digit pi bracket."""
    lower, upper = _ratio_margins(coefficient_ratio_exact(m))
    return lower > 0, upper > 0


# ---------------------------------------------------------------------------
# Structural verification.

def check_theorem4(m_max: int = 15, tol: float = 1e-12) -> VerificationReport:
    """Verify the sign/zero structure and the ratio and zeta-form identities
    of the odd derivatives, for derivative orders n <= 2*m_max + 1.

    The zeta values used in the equality rows come from the direct-sum
    Euler-Maclaurin bracket, not from the B_{2m} closed form, so the two
    routes are independent.  The bracket is taken to width 1e-15, near the
    float resolution of zeta(2m) in [1, 1.65]; its width, scaled by
    (1 - 4^(-m)) 2/pi^(2m) to the size of the coefficient, is added to the
    relative tolerance ``tol``.  The strict lower bound
    2/pi^(2m) < |g^(2m-1)(0)|/(2m-1)! is decided exactly, as
    |g^(2m-1)(0)|/(2m-1)! * PI_LO^(2m)/2 > 1 in rationals (PI_LO < pi); its
    reported margin is the cancellation-free odd-harmonic sum
    (1 - 2^(-2m)) zeta(2m) - 1.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    n_cap = 2 * m_max + 1
    if n_cap > MAX_INDEX:
        raise ValueError("m_max exceeds the exact table cap")
    rep = VerificationReport(name="theorem4")
    table = CoefficientTable.build(n_cap)

    # parts 1-3: exact zero/sign pattern over all n <= n_cap
    ok_zero = all(table.g_deriv[n] == 0 for n in range(2, n_cap + 1, 2))
    rep.add("even-derivatives-vanish", ok_zero, note=f"n even, 2..{n_cap}")
    ok_neg = all(table.g_deriv[n] < 0 for n in range(1, n_cap + 1, 4))
    rep.add("n=4m+1 derivatives negative", ok_neg)
    ok_pos = all(table.g_deriv[n] > 0 for n in range(3, n_cap + 1, 4))
    rep.add("n=4m-1 derivatives positive", ok_pos)

    pi2 = math.pi * math.pi
    odd = {m: g_over_factorial(2 * m - 1) for m in range(1, m_max + 1)}
    for m, coef in odd.items():
        exact = float(coef)
        zl, zh = zeta_direct_bracket(m, 1e-15)
        scale = (1.0 - 0.25 ** m) * 2.0 / math.pi ** (2 * m)
        closed = (-1.0) ** m * scale * (0.5 * (zl + zh))
        rep.add_equality(f"odd-coefficient zeta form m={m}", exact, closed,
                         tol * abs(exact) + scale * (zh - zl))

    for m, coef in odd.items():
        lhs = abs(coef) * PI_LO ** (2 * m) / 2
        rep.add(f"strict lower bound slack m={m}", lhs > 1,
                margin=odd_zeta_margin(m), lhs=float(lhs), rhs=1.0,
                note="exact-rational comparison; margin (1-2^-2m) zeta(2m) - 1 "
                     "via odd-harmonic sum")

    # ratio sandwich for consecutive odd magnitudes, m >= 2; pass/fail and
    # margins decided exactly (the slack shrinks like 3^(-4m), below one ulp
    # of pi^2 from m = 9), each margin rounded once for reporting.
    # The m = 1 cell is informational: the upper bound genuinely fails there.
    for m in range(1, 2 * m_max // 4 + 1):
        if 4 * m + 1 > n_cap:
            break
        r = coefficient_ratio_exact(m)
        lower, upper = _ratio_margins(r)
        r_over_pi2 = float(r) / pi2
        gating = m >= 2
        rep.add(f"ratio lower bound m={m}", lower > 0, gating=gating,
                margin=float(lower), lhs=r_over_pi2, rhs=1.0,
                note="exact-rational comparison")
        rep.add(f"ratio upper bound m={m}", upper > 0, gating=gating,
                margin=float(upper), lhs=r_over_pi2, rhs=RATIO_UPPER_BOUND,
                note="exact-rational comparison" if gating
                else "hypothesis needs m >= 2")

    # hyperbolic closed form g(t) = 1/2 - tanh(t/2)/2 on sampled t
    for t in (0.0, 0.5, -0.5, 1.0, 2.0, -2.0, 5.0, 10.0, 30.0, 700.0):
        rep.add_equality(f"tanh form t={t:g}", g_value(t),
                         0.5 - 0.5 * math.tanh(0.5 * t), 4e-16 + 4e-16 * abs(g_value(t)))

    return rep
