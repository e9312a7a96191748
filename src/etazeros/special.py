"""The named strip functions: the alternating-kernel integral F, gamma, the
Bose-kernel integral G, and the zeta quotient.

    F(s)     = int_0^inf t^(s-1)/(e^t + 1) dt          (Re s > 0)
    Gamma(s) = int_0^inf t^(s-1) e^(-t) dt = exp(log Gamma(s))
    G(s)     = int_0^inf t^(s-1)/(e^t - 1) dt = F(s) / (1 - 2^(1-s))
    zeta(s)  = G(s) / Gamma(s)

The bridge identity (1 - 2^(1-s)) Gamma(s) zeta(s) = F(s) gives G on all of
Re s > 0 (on 0 < Re s <= 1 its own integral diverges at 0) and makes F and
zeta share their zero sets in the strip.

F is the one quadrature here.  Writing s = a + ib, it decays like
e^(-pi |b| / 2) while its integrand mass on the real axis stays O(1), so a
real-axis quadrature carries an absolute rounding floor near 1e-18 that
swamps it past |b| ~ 25.  F is therefore taken by
:func:`etazeros.quadrature.integrate_line` on a ray rotated towards the
imaginary axis, whose error scales with the value itself.

Gamma is the exponential of Stirling's series for log Gamma (remainder
bound: DLMF 5.11.ii), which also gives the Riemann-Siegel theta that turns
zeta on the critical line into the real function Z.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .coeffs import bernoulli
from .quadrature import QuadratureError, integrate_line
from .report import VerificationReport

__all__ = [
    "ComplexPoint", "ComplexValue", "StripEval",
    "F", "G", "Gamma", "zeta_strip", "check_theorem1",
    "log_gamma", "riemann_siegel_theta",
]


@dataclass(frozen=True)
class ComplexPoint:
    """A point s = a + ib, stored by real and imaginary part."""

    a: float
    b: float

    @classmethod
    def of(cls, s) -> "ComplexPoint":
        if isinstance(s, ComplexPoint):
            return s
        if isinstance(s, complex):
            return cls(s.real, s.imag)
        return cls(float(s), 0.0)

    @property
    def s(self) -> complex:
        return complex(self.a, self.b)

    def in_strip(self) -> bool:
        return 0.0 < self.a < 1.0


@dataclass(frozen=True)
class ComplexValue:
    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError(f"non-finite complex value ({self.re}, {self.im})")

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    def __abs__(self) -> float:
        return math.hypot(self.re, self.im)


@dataclass(frozen=True)
class StripEval:
    """A complex evaluation with a bound on the modulus of its error."""

    value: ComplexValue
    err: float
    method: str


def F(s) -> StripEval:
    """F(s) = int_0^inf t^(s-1)/(e^t+1) dt as (F1, F2); requires Re s > 0.

    err bounds the modulus of the error; it scales with
    |F| ~ e^(-pi |b|/2), not with the real-axis integrand mass.  The
    value at -b is the exact conjugate of the value at |b|.
    """
    value, err = integrate_line(ComplexPoint.of(s).s)
    return StripEval(ComplexValue(value.real, value.imag), err, "integral-ray")


# Stirling's series: log Gamma(z) = (z - 1/2) log z - z + log(2 pi)/2
#   + sum_{k=1}^{K} B_2k / (2k (2k-1) z^(2k-1)) + R_K(z), used once |z| >= 10
# (smaller z are shifted up by log Gamma(z) = log Gamma(z + 1) - log z).
# For Re z > 0, |R_K| is at most the first omitted term times
# sec^(2K+2)(arg z / 2) <= 2^(K+1) (DLMF 5.11.ii): with K = 10 and |z| >= 10
# that is below 3e-17.
_STIRLING_MIN_ABS = 10.0
_STIRLING_TERMS = tuple(float(bernoulli(2 * k)) / (2 * k * (2 * k - 1))
                        for k in range(1, 12))
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = math.ulp(1.0)


def log_gamma(s) -> tuple[complex, float]:
    """log Gamma(s) for Re s > 0, on the branch continuous from the real axis
    (so Im log Gamma(1/2 + ib) grows like b log b), by Stirling's series;
    returns the value and a bound on its error, remainder plus rounding.
    """
    z = ComplexPoint.of(s).s
    if not z.real > 0:
        raise ValueError("log_gamma needs Re s > 0")
    shift, size = 0j, 0.0   # size: sum of the terms' moduli, for rounding
    while abs(z) < _STIRLING_MIN_ABS:
        term = cmath.log(z)
        shift, size, z = shift + term, size + abs(term), z + 1.0
    lead = (z - 0.5) * cmath.log(z) - z
    inv2 = 1.0 / (z * z)
    series = 0j
    for c in reversed(_STIRLING_TERMS[:-1]):
        series = series * inv2 + c
    r, k = abs(z), len(_STIRLING_TERMS)
    sec2 = 2.0 / (1.0 + z.real / r)             # sec^2(arg z / 2)
    remainder = abs(_STIRLING_TERMS[-1]) * sec2 ** k / r ** (2 * k - 1)
    size += abs(lead) + r + 2.0
    return (lead + _HALF_LOG_2PI + series / z - shift,
            remainder + 8.0 * _EPS * size)


def Gamma(s) -> StripEval:
    """gamma(s) = exp(log Gamma(s)) by Stirling's series; requires Re s > 0.

    err is |gamma| (expm1(lg_err) + 4 eps), and never less than the smallest
    subnormal, so a gamma that underflows to 0 (past |b| ~ 470 on the
    critical line) stays unresolved.  Raises :class:`QuadratureError` where
    gamma overflows (Re s beyond ~ 171).
    """
    lg, lg_err = log_gamma(s)
    try:
        val = cmath.exp(lg)
        mod = abs(val)
    except OverflowError:
        raise QuadratureError(
            f"gamma(s) overflows at s = {ComplexPoint.of(s).s}") from None
    err = max(mod * (math.expm1(lg_err) + 4.0 * _EPS), math.ulp(0.0))
    return StripEval(ComplexValue(val.real, val.imag), err, "stirling")


def riemann_siegel_theta(b: float) -> tuple[float, float]:
    """theta(b) = Im log Gamma(1/4 + ib/2) - (b/2) log pi and a bound on its
    error; e^(i theta(b)) zeta(1/2 + ib) is real (Hardy's Z)."""
    lg, err = log_gamma(complex(0.25, 0.5 * b))
    half_log_pi = 0.5 * b * math.log(math.pi)
    return lg.imag - half_log_pi, err + 2.0 * _EPS * abs(half_log_pi)


def one_minus_two_pow(s) -> complex:
    """1 - 2^(1-s); zero-free for Re s in (0, 1)."""
    p = ComplexPoint.of(s)
    return 1.0 - cmath.exp((1.0 - p.s) * math.log(2.0))


def G(s) -> StripEval:
    """G(s) = int_0^inf t^(s-1)/(e^t-1) dt = F(s)/(1 - 2^(1-s)) by the
    bridge identity, for Re s > 0; on 0 < Re s <= 1 the identity is also
    what continues G past the divergence of its integral at 0."""
    p = ComplexPoint.of(s)
    f = F(p)
    denom = one_minus_two_pow(p)
    val = f.value.value / denom
    return StripEval(ComplexValue(val.real, val.imag), f.err / abs(denom),
                     "via-identity")


def zeta_strip(s) -> StripEval:
    """zeta(s) = G(s)/gamma(s) for Re s > 0.

    Both sides keep their relative accuracy until gamma(s) underflows
    (|b| beyond ~ 470 on the critical line); there the guard below refuses
    rather than returning a meaningless quotient.
    """
    p = ComplexPoint.of(s)
    g = G(p)
    gam = Gamma(p)
    gam_abs = abs(gam.value)
    if gam_abs <= 4.0 * gam.err:
        raise QuadratureError(
            "gamma(s) is not resolved above its error; "
            "zeta quotient would be meaningless", value=None, err_est=gam.err)
    val = g.value.value / gam.value.value
    rel = (g.err / max(abs(g.value), 1e-300)) + gam.err / gam_abs
    return StripEval(ComplexValue(val.real, val.imag), abs(val) * rel,
                     f"quotient({g.method})")


def check_theorem1(points) -> VerificationReport:
    """Bridge identity on a strip grid: F(s) computed by quadrature must match
    (1 - 2^(1-s)) gamma(s) zeta(s) = gamma(s) eta(s), whose right side takes
    no quadrature: gamma from Stirling's series and eta from the accelerated
    alternating series.

    Every cell is relative to |F|; where F underflows to 0 the cell cannot
    be checked and fails.
    """
    from .zerofinder import eta_oracle      # zerofinder imports this module
    rep = VerificationReport(name="theorem1")
    for s in points:
        p = ComplexPoint.of(s)
        if not p.in_strip():
            rep.add(f"s={p.a:g}+{p.b:g}i outside strip", False,
                    gating=False, note="excluded: hypothesis needs 0 < a < 1")
            continue
        f = F(p)
        gam = Gamma(p)
        eta = eta_oracle(p.s, tol=1e-12).value
        # (1 - 2^(1-s)) G = (1 - 2^(1-s)) zeta gamma = eta * gamma
        rhs = gam.value.value * eta
        f_abs = abs(f.value)
        rel = abs(f.value.value - rhs) / f_abs if f_abs else None
        rep.add(f"a={p.a:g} b={p.b:g}", rel is not None and rel <= 1e-7,
                discrepancy=rel, tol=1e-7, lhs=f_abs, rhs=abs(rhs))
    return rep
