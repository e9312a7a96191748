"""The named strip functions: the alternating-kernel integral F, gamma,
and zeta by the bridge identity.

    F(s)     = int_0^inf t^(s-1)/(e^t + 1) dt          (Re s > 0)
    Gamma(s) = int_0^inf t^(s-1) e^(-t) dt = exp(log Gamma(s))
    zeta(s)  = F(s) / ((1 - 2^(1-s)) Gamma(s))

The bridge identity (1 - 2^(1-s)) Gamma(s) zeta(s) = F(s) makes F and zeta
share their zero sets in the strip, and gives zeta from F on all of
Re s > 0, also on 0 < Re s <= 1, where the Bose integral
int_0^inf t^(s-1)/(e^t - 1) dt = Gamma(s) zeta(s) diverges at 0.  Each
evaluator takes a number s and returns (value, err), err bounding the
modulus of the value's error.

F is the one quadrature here.  Writing s = a + ib, it decays like
e^(-pi |b| / 2) while its integrand mass on the real axis stays O(1), so a
real-axis quadrature carries an absolute rounding floor near 1e-18 that
swamps it past |b| ~ 25.  F is therefore taken by
:func:`etazeros.quadrature.integrate_line` on a ray rotated towards the
imaginary axis, whose error scales with the value itself.  Past |b| ~ 470
F and Gamma underflow, so :func:`zeta_from_F` takes F's scale out of Gamma
in one exponential (``F(s, scaled=True)``, ``Gamma(s, log_scale)``).

Gamma is the exponential of Stirling's series for log Gamma (remainder
bound: DLMF 5.11.ii), which also gives the Riemann-Siegel theta that turns
zeta on the critical line into the real function Z.  The bridge identity's
check against eta, suite 1, runs in :mod:`etazeros.verify`.
"""

from __future__ import annotations

import cmath
import math

from .quadrature import QuadratureError, integrate_line

__all__ = [
    "F", "Gamma", "zeta_from_F", "log_gamma", "riemann_siegel_theta",
]


def F(s, scaled: bool = False):
    """F(s) = int_0^inf t^(s-1)/(e^t+1) dt for Re s > 0, and its err.

    err scales with |F| ~ e^(-pi |b|/2), not with the real-axis integrand
    mass.  The value at -b is the exact conjugate of the value at |b|.
    With ``scaled``, (I, err_I, log_scale) of the same ray, F =
    exp(log_scale) I (:func:`etazeros.quadrature.integrate_line`).
    """
    return integrate_line(complex(s), scaled)


# Stirling's series: log Gamma(z) = (z - 1/2) log z - z + log(2 pi)/2
#   + sum_{k=1}^{K} B_2k / (2k (2k-1) z^(2k-1)) + R_K(z), used once |z| >= 10
# (smaller z are shifted up by log Gamma(z) = log Gamma(z + 1) - log z).
# For Re z > 0, |R_K| is at most the first omitted term times
# sec^(2K+2)(arg z / 2) <= 2^(K+1) (DLMF 5.11.ii): with K = 10 and |z| >= 10
# that is below 3e-17.  The coefficients B_2k / (2k (2k-1)), k = 1 .. 11,
# are exact fractions p / q (int / int division rounds them correctly), so
# this layer needs no Bernoulli numbers from :mod:`etazeros.coeffs`.
_STIRLING_MIN_ABS = 10.0
_STIRLING_PAIRS = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188),
                   (-691, 360360), (1, 156), (-3617, 122400), (43867, 244188),
                   (-174611, 125400), (77683, 5796))
_STIRLING_TERMS = tuple(p / q for p, q in _STIRLING_PAIRS)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = math.ulp(1.0)


def log_gamma(s) -> tuple[complex, float]:
    """log Gamma(s) for Re s > 0, on the branch continuous from the real axis
    (so Im log Gamma(1/2 + ib) grows like b log b), by Stirling's series;
    returns the value and a bound on its error, remainder plus rounding.
    """
    z = complex(s)
    if not (z.real > 0 and cmath.isfinite(z)):
        raise ValueError("log_gamma needs a finite s with Re s > 0")
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


def Gamma(s, log_scale=0.0) -> tuple[complex, float]:
    """gamma(s) = exp(log Gamma(s)) by Stirling's series for Re s > 0, and
    its err; with ``log_scale``, gamma(s) exp(-log_scale) in one exponential.

    err is |value| (expm1(lg_err) + 4 eps), and never less than the smallest
    subnormal, so a gamma that underflows to 0 (past |b| ~ 470 on the
    critical line) stays unresolved.  A nonzero log_scale adds the rounding
    of the exponent's terms, 4 eps (|log_scale| + |log Gamma|), to lg_err.
    Raises :class:`QuadratureError` where the value overflows.
    """
    lg, lg_err = log_gamma(s)
    if log_scale:
        lg_err += 4.0 * _EPS * (abs(log_scale) + abs(lg))
        lg -= log_scale
    try:
        val = cmath.exp(lg)
        mod = abs(val)
    except OverflowError:
        raise QuadratureError(
            f"gamma(s) overflows at s = {complex(s)}") from None
    return val, max(mod * (math.expm1(lg_err) + 4.0 * _EPS), math.ulp(0.0))


def riemann_siegel_theta(b: float) -> tuple[float, float]:
    """theta(b) = Im log Gamma(1/4 + ib/2) - (b/2) log pi and a bound on its
    error; e^(i theta(b)) zeta(1/2 + ib) is real (Hardy's Z)."""
    lg, err = log_gamma(complex(0.25, 0.5 * b))
    half_log_pi = 0.5 * b * math.log(math.pi)
    return lg.imag - half_log_pi, err + 2.0 * _EPS * abs(half_log_pi)


def one_minus_two_pow(s) -> complex:
    """1 - 2^(1-s); zero-free for Re s in (0, 1)."""
    return 1.0 - cmath.exp((1.0 - complex(s)) * math.log(2.0))


def zeta_from_F(s, integral: complex, err: float, log_scale
                ) -> tuple[complex, float] | None:
    """zeta(s) = exp(log_scale - log Gamma(s)) I / (1 - 2^(1-s)) and its err,
    for Re s > 0, from F(s) = exp(log_scale) I with error ``err`` in I: the
    output of ``F(s, scaled=True)``, or a plain F with log_scale = 0.

    None where 1 - 2^(1-s) vanishes (the pole s = 1 and its companions on
    Re s = 1) and where Gamma(s, log_scale) is not resolved above its error
    (a plain F past |b| ~ 470); Gamma raises where it overflows.  An I
    inside its err still gives a value, so Hardy's Z keeps its bound next
    to a zero; callers that print zeta hold it back there.
    """
    denom = one_minus_two_pow(s)
    if abs(denom) < 1e-12:
        return None
    g, g_err = Gamma(s, log_scale)
    g_abs = abs(g)
    if g_abs <= 4.0 * g_err:
        return None
    val = integral / denom / g
    return val, err / abs(denom * g) + abs(val) * g_err / g_abs
