"""Oscillation pairing for the tail integral, and the inequality suite that
rides on it.

With phase nodes t_j = exp(j pi / b), c = exp(pi / b) and R = t_2K the
largest even node at or below 2, the tail splits into full periods whose
negative half-wave folds back onto the positive one:

    int_R^inf f(t, a) sin(b log t) dt
        = sum_{k >= K} int_{t_2k}^{t_2k+1} h(t, a, b) sin(b log t) dt,

    h(t, a, b) = t^(a-1) (q(t) - e^(a pi/b) q(c t)),   q = 1/(e^t + 1).

Everything downstream follows from three properties of h:

* its own tail integral telescopes: int_R^inf h dt = int_R^(cR) f dt, which
  traps it between (c-1) c^(a-1) R^a / (e^(cR)+1) and (c-1) R^a / (e^R+1)
  because the integrand decreases;
* the half-period average of sin(b log t) has the k-free closed form
  A = (1 + e^(-pi/b)) / (b (b^-2 + 1)(1 - e^(-pi/b))), wedged strictly
  between 2/pi - 2/(pi b^2) and 2/pi;
* h > 0 on t >= 1, 0 < a <= e/(e+1), so each half-period contribution is a
  positive number sandwiched by the min/max of h times the sine average.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .quadrature import (
    TAIL_CUTOFF,
    IntegrandSpec,
    integrate_finite,
    integrate_to_infinity,
)
from .report import VerificationReport

__all__ = [
    "choose_K_R", "DecompositionPlan", "make_plan", "upper_integral",
    "interval_contributions", "interval_average", "check_theorem7",
    "check_theorem9", "check_theorem10", "pair_kernel",
]

R_MAX = 2.0                            # the paper's head radius R <= 2
_TWO_PI = 2.0 * math.pi

#: largest a for which h(t, a, b) > 0 is guaranteed on all t >= 1, b > 0
POSITIVITY_A_MAX = math.e / (math.e + 1.0)


def choose_K_R(b: float) -> tuple[int, float]:
    """Largest integer K >= 1 with R = exp(2 K pi / b) <= R_MAX = 2.

    Needs b >= 2 pi / log 2, checked first, so no exponent overflows at a
    tiny b; the boundary case (R hitting 2 exactly) is protected by a
    relative slack of 1e-12 so that float rounding of exp(2 K pi / b)
    cannot reject the admissible K.
    """
    if not b > 0:
        raise ValueError("b must be positive")
    b_min = _TWO_PI / math.log(R_MAX)
    if b < b_min:
        raise ValueError(
            f"b = {b:g} is too small for K >= 1 at R <= {R_MAX:g} "
            f"(needs b >= {b_min:.4f})")
    K = math.floor(b * math.log(R_MAX) / _TWO_PI + 1e-9)
    while math.exp(2.0 * (K + 1) * math.pi / b) <= R_MAX * (1.0 + 1e-12):
        K += 1
    while math.exp(2.0 * K * math.pi / b) > R_MAX * (1.0 + 1e-12):
        K -= 1
    return K, math.exp(2.0 * K * math.pi / b)


def pair_kernel(t, a: float, b: float):
    """h(t, a, b) at the points t > 0, by the pair kernel's stable form, as
    a numpy array."""
    import numpy as np
    t = np.asarray(t, dtype=np.float64)
    spec = IntegrandSpec("pair_fermi", a=a, b=b)
    return t ** (a - 1.0) * spec.smooth(np)(t)


class DecompositionPlan(namedtuple("DecompositionPlan",
                                   "a b K R c truncation_k")):
    """Pairing layout for the tail integral at parameters (a, b): R is
    exp(2 K pi / b), c is exp(pi / b) and truncation_k the last period index
    before the quadrature cutoff."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, K: int, R: float, c: float,
                truncation_k: int):
        if not 0.0 < a < 1.0:
            raise ValueError("a must lie in (0, 1)")
        if not b > 0:
            raise ValueError("b must be positive")
        if c <= 1.0 or R < 1.0:
            raise ValueError("plan needs c > 1 and R >= 1")
        return super().__new__(cls, a, b, K, R, c, truncation_k)

    def endpoint(self, j: int) -> float:
        """t_j = exp(j pi / b)."""
        return math.exp(j * math.pi / self.b)

    def half_period(self, k: int) -> tuple[float, float]:
        """[t_2k, t_2k+1]: the positive half of period k."""
        return self.endpoint(2 * k), self.endpoint(2 * k + 1)


def make_plan(a: float, b: float) -> DecompositionPlan:
    """Plan with the largest R = exp(2 K pi / b) <= 2 and the truncation
    period index taken from the quadrature cutoff t = TAIL_CUTOFF."""
    K, R = choose_K_R(b)
    trunc_k = int(math.ceil(b * math.log(TAIL_CUTOFF) / (2.0 * math.pi))) + 1
    return DecompositionPlan(a=a, b=b, K=K, R=R,
                             c=math.exp(math.pi / b), truncation_k=trunc_k)


def upper_integral(plan: DecompositionPlan) -> tuple[float, float]:
    """The tail integral int_R^inf f sin(b log t) dt evaluated as the paired
    half-period sum; (value, err_est)."""
    spec = IntegrandSpec("fermi", "sin", a=plan.a, b=plan.b)
    return integrate_to_infinity(spec, plan.R, paired=True)


def interval_contributions(plan: DecompositionPlan,
                           count: int) -> list[dict]:
    """Per-period contributions int_{t_2k}^{t_2k+1} h sin dt for
    k = K .. K+count-1, with running cumulative sums.  Raises ValueError,
    before any integral, when the last half period ends past the float
    range."""
    try:
        plan.endpoint(2 * (plan.K + count) - 1)
    except OverflowError:
        raise ValueError(
            f"count = {count} half periods from k = {plan.K} at "
            f"b = {plan.b:g} end past the float range") from None
    spec = IntegrandSpec("pair_fermi", "sin", a=plan.a, b=plan.b)
    rows = []
    running = 0.0
    for k in range(plan.K, plan.K + count):
        lo, hi = plan.half_period(k)
        val, err = integrate_finite(spec, lo, hi)
        running += val
        rows.append({"k": k, "t_lo": lo, "t_hi": hi,
                     "contribution": val, "cumulative": running,
                     "err_est": err})
    return rows


# ---------------------------------------------------------------------------
# Tail telescoping and its bounds.

def check_theorem7(a: float, b: float, R: float) -> VerificationReport:
    """Tail telescoping int_R^inf h dt = int_R^(cR) f dt plus the strict
    bounds that follow from f decreasing:

        (c-1) c^(a-1) R^a / (e^(cR)+1)  <  int  <  (c-1) R^a / (e^R+1).

    The orientation of the upper bound is forced by monotonicity: the width
    times the left-endpoint value of a decreasing integrand over [R, cR] can
    only sit above the integral.

    Stated for b >= 1 (c <= e^pi).  Below it e^(cR) overflows (b = 0.5,
    R = 2), and q(c t) is so small that h is f to rounding, so the two sides
    of the telescoping integrate the same values.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    if not (b >= 1.0 and R >= 1.0):
        raise ValueError("stated for b >= 1 and R >= 1")
    rep = VerificationReport(name="theorem7")
    c = math.exp(math.pi / b)
    tag = f"a={a:g} b={b:g} R={R:g}"

    lhs, lhs_err = integrate_to_infinity(
        IntegrandSpec("pair_fermi", a=a, b=b), R)
    rhs, rhs_err = integrate_finite(IntegrandSpec("fermi", a=a), R, c * R)
    rep.add_equality(f"tail telescopes {tag}", lhs, rhs,
                     1e-10 * max(1.0, abs(rhs)) + lhs_err + rhs_err)

    cm1 = math.expm1(math.pi / b)
    lower = cm1 * c ** (a - 1.0) * R ** a / (math.exp(c * R) + 1.0)
    upper = cm1 * R ** a / (math.exp(R) + 1.0)
    rep.add_inequality(f"strict lower {tag}", lhs - lower - lhs_err,
                       lhs=lower, rhs=lhs)
    rep.add_inequality(f"strict upper {tag}", upper - lhs - lhs_err,
                       lhs=lhs, rhs=upper)
    return rep


# ---------------------------------------------------------------------------
# The half-period sine average.

def _sine_average(b: float) -> float:
    """A = (1 + e^(-pi/b)) / (b (b^-2 + 1) (1 - e^(-pi/b)))."""
    e = math.exp(-math.pi / b)
    return (1.0 + e) / (b * (b ** -2 + 1.0) * (-math.expm1(-math.pi / b)))


def interval_average(k: int, b: float) -> tuple[float, float]:
    """Average of sin(b log t) over [t_2k, t_2k+1], returned both ways:
    (closed form, direct quadrature).  The closed form
    :func:`_sine_average` carries no k at all; the quadrature side of
    course runs on the actual interval."""
    if not b >= 10.0:
        raise ValueError("average bounds stated for b >= 10")
    lo = math.exp(2 * k * math.pi / b)
    hi = math.exp((2 * k + 1) * math.pi / b)
    integral, _ = integrate_finite(IntegrandSpec("unit", "sin", b=b), lo, hi)
    width = lo * math.expm1(math.pi / b)
    return _sine_average(b), integral / width


def average_bound_margins(b: float) -> tuple[float, float]:
    """(A - (2/pi - 2/(pi b^2)), 2/pi - A): both strictly positive."""
    A = _sine_average(b)
    lower = 2.0 / math.pi - 2.0 / (math.pi * b * b)
    return A - lower, 2.0 / math.pi - A


def check_theorem8(b_values, closed_vs_quad) -> VerificationReport:
    """Closed form vs quadrature for the sine average on the (b, k) pairs
    ``closed_vs_quad``, plus its strict bracketing between
    2/pi - 2/(pi b^2) and 2/pi at each of ``b_values``."""
    rep = VerificationReport(name="theorem8")
    for b, k in closed_vs_quad:
        closed, by_quad = interval_average(int(k), b)
        rep.add_equality(f"closed form vs quadrature b={b:g} k={k}", closed,
                         by_quad, 1e-12 * abs(closed))
    for b in b_values:
        m_lo, m_hi = average_bound_margins(b)
        rep.add_inequality(f"average above 2/pi - 2/(pi b^2), b={b:g}", m_lo)
        rep.add_inequality(f"average below 2/pi, b={b:g}", m_hi)
    return rep


# ---------------------------------------------------------------------------
# Half-period sandwich and kernel positivity.

_SAMPLES = 2 ** 10


def check_theorem9(k: int, b: float, a: float) -> VerificationReport:
    """Sandwich for one positive half-period:

        (2/pi - 2/(pi b^2)) M1 (t1 - t0)
            < int_{t0}^{t1} h sin(b log t) dt < (2/pi) M2 (t1 - t0)

    with M1/M2 the min/max of h over [t0, t1], obtained by dense sampling
    (2^10 + 1 points including endpoints).  Each margin must also clear the
    sampling uncertainty, estimated from the largest adjacent-sample jump.
    """
    if not b >= 100.0:
        raise ValueError("stated for b >= 100")
    import numpy as np
    rep = VerificationReport(name="theorem9")
    t0 = math.exp(2 * k * math.pi / b)
    t1 = math.exp((2 * k + 1) * math.pi / b)
    ts = np.linspace(t0, t1, _SAMPLES + 1)
    hs = pair_kernel(ts, a, b)
    m1, m2 = float(np.min(hs)), float(np.max(hs))
    uncertainty = float(np.max(np.abs(np.diff(hs)))) * (t1 - t0)

    mid, mid_err = integrate_finite(IntegrandSpec("pair_fermi", "sin", a=a, b=b),
                                    t0, t1)
    lower = (2.0 / math.pi - 2.0 / (math.pi * b * b)) * m1 * (t1 - t0)
    upper = (2.0 / math.pi) * m2 * (t1 - t0)
    tag = f"a={a:g} b={b:g} k={k}"
    rep.add_inequality(f"sandwich lower {tag}", mid - lower,
                       min_margin=uncertainty + mid_err, lhs=lower, rhs=mid,
                       note=f"sampling uncertainty {uncertainty:.2e}")
    rep.add_inequality(f"sandwich upper {tag}", upper - mid,
                       min_margin=uncertainty + mid_err, lhs=mid, rhs=upper,
                       note=f"sampling uncertainty {uncertainty:.2e}")
    return rep


DEFAULT_T_GRID = (1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 32.0)
DEFAULT_A_GRID = (0.01, 0.1, 0.3, 0.5, 0.731)


def check_theorem10(b_grid, t_grid=DEFAULT_T_GRID,
                    a_grid=DEFAULT_A_GRID) -> VerificationReport:
    """Positivity of the paired kernel on t >= 1, 0 < a <= e/(e+1), any
    b > 0, on the grid, with the minimum and its location reported.
    One probe just outside the hypothesis region (a = 0.9, t = 1) is
    informational: the kernel does go negative there, which is what makes
    the a-threshold meaningful."""
    import numpy as np
    rep = VerificationReport(name="theorem10")
    h_min = math.inf
    at = None
    for a in a_grid:
        if not 0.0 < a <= POSITIVITY_A_MAX + 1e-12:
            raise ValueError(f"a = {a} outside the positivity hypothesis")
        for b in b_grid:
            ts = np.asarray(t_grid, dtype=np.float64)
            if np.any(ts < 1.0):
                raise ValueError("t grid must start at 1")
            hs = pair_kernel(ts, a, b)
            i = int(np.argmin(hs))
            if hs[i] < h_min:
                h_min = float(hs[i])
                at = (float(ts[i]), a, b)
            rep.add_inequality(f"h > 0 on t-grid, a={a:g} b={b:g}",
                               float(np.min(hs)))
    rep.add(f"grid minimum {h_min:.6e} at (t, a, b) = {at}", h_min > 0,
            margin=h_min)

    probe_a, probe_t = 0.9, 1.0
    for b in b_grid:
        val = float(pair_kernel(probe_t, probe_a, b))
        rep.add(f"outside-region probe a={probe_a} t={probe_t} b={b:g}: "
                f"h = {val:.3e}", True, gating=False, margin=val,
                note="sign probe only; no claim gated here")
    return rep
