"""Closed-form series for the head of the oscillatory integral.

When the upper endpoint sits on an even phase node, R = exp(2K pi / b) with
integer K >= 1 (so that b log R is an exact multiple of 2 pi), the head
integral collapses to a coefficient series:

    int_0^R t^(a-1) sin(b log t)/(e^t + 1) dt
        = - sum_{n>=0} g^(n)(0) b R^(n+a) / (n! ((n+a)^2 + b^2)),

where g^(n)(0) are the exact derivatives from :mod:`etazeros.coeffs`.  The
series inherits the radius of convergence pi of the kernel's Maclaurin
expansion, so R < pi is a hard requirement, and the phase alignment is not
cosmetic: with b log R off the 2 pi lattice the identity picks up a residual
head term and fails by O(1e-3) (see the tests).

Even-order terms vanish identically (g^(2m)(0) = 0 for m >= 1), so the sum
runs over n = 0, 1 and odd n >= 3 only.  Truncation is certified by the
geometric envelope |g^(n)(0)|/n! <= 2 zeta(2) / pi^(n+1).

The same R < pi leaves the quarter disc |t| <= R free of poles, which gives
the series its independent oracle, :func:`lower_integral_by_quadrature`: by
Cauchy's theorem the head is the segment 0 -> iR minus the arc R -> iR,
where t^(ib) decays like e^(-b phi) and a few Gauss panels of kernel values
take it to about 1e-16.

The head-versus-tail structure also yields a strict lower bound for the head
integral when R is pushed to its largest admissible value under 2:

    head > -R^a / (b (e^R + 1)) - 0.47177 R^a / b^3      (a <= 0.1, b >= 100)

checked numerically by :func:`check_theorem5`, together with the alternate
printed variant of that bound (sign-flipped first term and 1/b^2 second
term), which the report carries as a non-gating row because it is empirically
false -- the margins make that visible at a glance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coeffs import CoefficientTable, MAX_INDEX, g_value
from .errors import NonConvergenceError
from .quadrature import _arc_head
from .report import VerificationReport

__all__ = [
    "SeriesEval", "SeriesError", "choose_K_R", "series_lower_integral",
    "maclaurin_kernel", "check_theorem5", "theorem5_internal_constants",
]

_TWO_PI = 2.0 * math.pi
_TAIL_C = 2.0 * (math.pi ** 2 / 6.0)   # envelope constant 2 zeta(2)

_table_cache: dict[int, CoefficientTable] = {}


def _table(n: int = MAX_INDEX) -> CoefficientTable:
    if n not in _table_cache:
        _table_cache[n] = CoefficientTable.build(n)
    return _table_cache[n]


class SeriesError(NonConvergenceError):
    pass


@dataclass(frozen=True)
class SeriesEval:
    """A truncated series value with its rigorous tail bound."""

    value: float
    terms_used: int
    tail_bound: float
    K: int
    R: float


def choose_K_R(b: float, cap: float = 2.0) -> tuple[int, float]:
    """Largest integer K >= 1 with R = exp(2 K pi / b) <= cap.

    Needs b >= 2 pi / log(cap); the boundary case (R hitting cap exactly) is
    protected by a relative slack of 1e-12 so that float rounding of
    exp(2 K pi / b) cannot reject the admissible K.
    """
    if not b > 0:
        raise ValueError("b must be positive")
    if not 1.0 < cap <= math.pi:
        raise ValueError("cap must be in (1, pi]")
    K = math.floor(b * math.log(cap) / _TWO_PI + 1e-9)
    while math.exp(2.0 * (K + 1) * math.pi / b) <= cap * (1.0 + 1e-12):
        K += 1
    while K >= 1 and math.exp(2.0 * K * math.pi / b) > cap * (1.0 + 1e-12):
        K -= 1
    if K < 1:
        raise ValueError(
            f"b = {b:g} is too small for K >= 1 at cap {cap:g} "
            f"(needs b >= {_TWO_PI / math.log(cap):.4f})")
    return K, math.exp(2.0 * K * math.pi / b)


def _check_phase(b: float, K: int, R: float) -> None:
    phase = b * math.log(R) / _TWO_PI
    if abs(phase - K) > 1e-8 * max(1.0, abs(phase)):
        raise ValueError(
            f"R must equal exp(2 K pi / b): got phase {phase:.9f} (K = {K})")


def _series_sum(a: float, b: float, R: float,
                tol: float) -> tuple[float, int, float]:
    """Compensated sum of -g^(n)(0) b R^(n+a) / (n! ((n+a)^2 + b^2)).

    Returns (value, terms_used, tail_bound).  R^(n+a) is carried by repeated
    multiplication and renormalized against exp((n+a) log R) every 16 odd
    steps to stop drift.
    """
    if not 0.0 < R < math.pi:
        raise SeriesError(f"series radius is pi; R = {R:g} is inadmissible")
    table = _table()
    gof = table.g_over_factorial_f64
    log_r = math.log(R)
    ratio = R / math.pi
    total = 0.0
    comp = 0.0

    def add(x: float) -> None:
        nonlocal total, comp
        y = x - comp
        t = total + y
        comp = (t - total) - y
        total = t

    def tail_bound_after(n: int) -> float:
        # sum_{m > n} |g^(m)(0)|/m! * b R^(m+a) / ((m+a)^2 + b^2)
        #   <= 2 zeta(2) (R/pi)^(n+1) / (1 - R/pi) * R^a / b
        return (_TAIL_C * ratio ** (n + 1) / (1.0 - ratio)
                * R ** a / b)

    r_pow = math.exp(a * log_r)                  # R^(0+a)
    add(-gof[0] * b * r_pow / (a * a + b * b))
    r_pow *= R
    add(-gof[1] * b * r_pow / ((1.0 + a) ** 2 + b * b))
    n = 1
    terms = 2
    r_sq = R * R
    while True:
        bound = tail_bound_after(n)
        if bound <= tol:
            return total, terms, bound
        n += 2
        if n > table.max_index:
            raise SeriesError(
                f"tail bound {bound:.3e} still above tol {tol:.3e} at the "
                f"coefficient cap n = {table.max_index}")
        if n % 32 == 1:
            r_pow = math.exp((n + a) * log_r)    # periodic renormalization
        else:
            r_pow *= r_sq
        add(-gof[n] * b * r_pow / ((n + a) ** 2 + b * b))
        terms += 1


def series_lower_integral(a: float, b: float, K: int, R: float,
                          tol: float = 1e-12) -> SeriesEval:
    """The head integral int_0^R f(t, a) sin(b log t) dt by its coefficient
    series, truncated once the geometric tail bound drops under ``tol``
    (absolute).

    Preconditions: 0 < a < 1; K >= 1; R = exp(2 K pi / b) (phase-aligned) and
    R < pi.  A misaligned R raises ValueError -- the identity genuinely
    requires the alignment, it is not a convention.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    if K < 1:
        raise ValueError("K >= 1 required (the phase alignment needs it)")
    _check_phase(b, K, R)
    if R >= math.pi:
        raise SeriesError(f"series radius is pi; R = {R:g} >= pi")
    value, terms, bound = _series_sum(a, b, R, tol)
    return SeriesEval(value=value, terms_used=terms, tail_bound=bound,
                      K=K, R=R)


def maclaurin_kernel(x: float, tol: float = 1e-15) -> float:
    """sum g^(n)(0) x^n / n! for |x| < pi; converges to 1/(e^x + 1)."""
    if abs(x) >= math.pi:
        raise SeriesError("kernel series radius is pi")
    table = _table()
    gof = table.g_over_factorial_f64
    total = gof[0] + gof[1] * x
    x_pow = x
    ratio = abs(x) / math.pi
    n = 1
    while _TAIL_C * ratio ** (n + 1) / (1.0 - ratio) > tol:
        n += 2
        if n > table.max_index:
            break
        x_pow *= x * x
        total += gof[n] * x_pow
    return total


# ---------------------------------------------------------------------------
# The strict head-integral lower bound.

def head_bound_primary(a: float, b: float, R: float) -> float:
    """-R^a/(b (e^R + 1)) - 0.47177 R^a / b^3."""
    ra = R ** a
    return -ra / (b * (math.exp(R) + 1.0)) - 0.47177 * ra / b ** 3


def head_bound_alternate(a: float, b: float, R: float) -> float:
    """+R^a/(b (e^R + 1)) - 0.47177 R^a / b^2: the sign-flipped / b^2 variant
    that circulates alongside the primary form; kept for empirical contrast
    (it fails, and the report shows by how much)."""
    ra = R ** a
    return ra / (b * (math.exp(R) + 1.0)) - 0.47177 * ra / b ** 2


def theorem5_internal_constants(a: float, b: float) -> dict:
    """The two internal aggregates behind the bound's constant 0.47177:

    * ``bracket``: the n in {0, 1, 3, 5} part of
      sum g^(n)(0) R^n / n! * (n+a)^2 / ((n+a)^2 + b^2); its magnitude stays
      under 0.76667 / b^2 on the admissible (a, R) region;
    * ``pair_tail``: the paired remainder sum over m >= 2 of the n = 4m-1 and
      n = 4m+1 terms; it exceeds 0.29490227 / b^2.
    """
    (K, R) = choose_K_R(b, 2.0)
    table = _table()
    gof = table.g_over_factorial_f64

    def w(n: int) -> float:
        na = n + a
        return gof[n] * R ** n * (na * na / (na * na + b * b))

    bracket = sum(w(n) for n in (0, 1, 3, 5))
    pair_tail = 0.0
    m = 2
    while 4 * m + 1 <= table.max_index:
        c_m = w(4 * m - 1) + w(4 * m + 1)
        pair_tail += c_m
        if abs(c_m) < 1e-22 * max(abs(pair_tail), 1e-30):
            break
        m += 1
    return {"K": K, "R": R, "bracket": bracket, "pair_tail": pair_tail}


def check_theorem5(a: float, b: float) -> VerificationReport:
    """Strict lower bound for the head integral at the largest admissible
    R <= 2: series value > -R^a/(b(e^R+1)) - 0.47177 R^a/b^3.

    Hypotheses: 0 < a <= 0.1, b >= 100.  The report also carries, non-gating:
    the alternate printed variant of the bound, the kernel-series identity
    sum g^(n)(0) R^n / n! = 1/(e^R + 1) used inside the derivation, and the
    two internal constants.
    """
    if not 0.0 < a <= 0.1:
        raise ValueError("hypothesis needs 0 < a <= 0.1")
    if not b >= 100.0:
        raise ValueError("hypothesis needs b >= 100")
    rep = VerificationReport(name="theorem5")
    K, R = choose_K_R(b, 2.0)
    tol = 1e-12 * R ** a / b
    ev = series_lower_integral(a, b, K, R, tol)
    lhs = ev.value

    primary = head_bound_primary(a, b, R)
    rep.add_inequality(
        f"head bound a={a:g} b={b:g}", lhs - primary - ev.tail_bound,
        lhs=lhs, rhs=primary,
        note=f"series tail {ev.tail_bound:.1e} subtracted from the margin")

    alternate = head_bound_alternate(a, b, R)
    rep.add_inequality(
        f"alternate-form variant a={a:g} b={b:g}", lhs - alternate,
        gating=False, lhs=lhs, rhs=alternate,
        note="sign-flipped first term and 1/b^2: empirically false")

    ident = maclaurin_kernel(R)
    rep.add_equality(f"kernel series at R={R:.6f}", ident, g_value(R), 1e-12)

    consts = theorem5_internal_constants(a, b)
    rep.add_inequality(
        f"low-order bracket bound a={a:g} b={b:g}",
        0.76667 / b ** 2 - abs(consts["bracket"]),
        lhs=abs(consts["bracket"]), rhs=0.76667 / b ** 2)
    rep.add_inequality(
        f"paired remainder bound a={a:g} b={b:g}",
        consts["pair_tail"] - 0.29490227 / b ** 2,
        lhs=consts["pair_tail"], rhs=0.29490227 / b ** 2)
    return rep


def lower_integral_by_quadrature(a: float, b: float,
                                 R: float) -> tuple[float, float]:
    """The head integral int_0^R t^(a-1) sin(b log t)/(e^t + 1) dt and a
    bound on its error, by quadrature around the quarter disc |t| <= R
    (the series' oracle; needs 0 < R < pi).

    It is Im of the complex head taken by Gauss panels on the arc
    t = R e^(i phi) and the segment 0 -> iR, from kernel values alone: no
    coefficient of the series enters, and R need not sit on a phase node.
    """
    value, err = _arc_head(complex(a, b), R)
    return value.imag, err
