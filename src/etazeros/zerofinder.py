"""Critical-line zero location for the Riemann zeta function through the
alternating-kernel integral F: inside the strip, zeta and F share zeros, so
ordinates can be hunted on either.

On the critical line the indicator is Hardy's function

    Z(b) = e^(i theta(b)) zeta(1/2 + ib),

real for real b, with theta the Riemann-Siegel theta of Stirling's series
(:func:`etazeros.special.riemann_siegel_theta`).  Its zeros are the zeta
zeros, and each simple one is a sign change, so a bracket is any scan step
where Z changes sign.  Two independent routes evaluate it:

* the *oracle* route from the alternating series
  eta(s) = sum (-1)^(n-1) n^(-s) (one binomial-tail-weighted sum of the
  terms, O(n), equal to iterated binomial averaging of the partial sums):
  Z = Re(e^(i theta) eta / (1 - 2^(1/2 - ib))), and
* the *integral* route from F by quadrature on a rotated ray:
  Z = Re(e^(i theta) F / ((1 - 2^(1/2 - ib)) Gamma(1/2 + ib))).  The ray
  integral comes unscaled, as F = e^(i phi s) I, and Gamma from Stirling's
  log Gamma, so the factors e^(-phi b) and |Gamma| ~ e^(-pi b / 2), which
  underflow past b ~ 470, cancel in log form to at most e^4.

Each route carries its own error bound on Z, which also bounds the rounding
left in Im(e^(i theta) zeta).  Each refines its own brackets by ITP steps
(regula falsi, truncated toward the midpoint and projected into a radius
that keeps bisection's worst case within one step): about 10 evaluations
per zero with the one at b* and the cross-check, at most 31 from a
0.25-wide scan step, with b* within 1e-9 of the other route's.  A refined
point is certified only where |Z| sits below what the refining route can
resolve and the other route agrees.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import _ray_integral
from .special import (
    ComplexPoint,
    ComplexValue,
    F,  # noqa: F401  (re-exported; perfbench's tracer test rebinds zerofinder.F)
    log_gamma,
    one_minus_two_pow,
    riemann_siegel_theta,
)

__all__ = [
    "EtaConvergenceError", "ZeroRefinementError",
    "ZeroBracket", "LocatedZero",
    "eta_oracle", "zeta_oracle",
    "scan_critical_line", "refine_zero", "find_zeros",
]


class EtaConvergenceError(RuntimeError):
    def __init__(self, message: str, value: complex, achieved: float):
        super().__init__(message)
        self.value = value
        self.achieved = achieved


class ZeroRefinementError(RuntimeError):
    """Refinement could not certify a zero; carries the best point found."""

    def __init__(self, message: str, b_best: float, residual: float,
                 residual_eta: float):
        super().__init__(message)
        self.b_best = b_best
        self.residual = residual
        self.residual_eta = residual_eta


# ---------------------------------------------------------------------------
# The accelerated alternating series.

@functools.lru_cache(maxsize=128)
def _binomial_weights(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(tail, pmf) of Binomial(m, 1/2): tail[j] = P(X >= j) and
    pmf[j] = P(X = j) for j = 0 .. m.

    Each is rounded once from exact integers; int / int division rounds
    correctly and cannot overflow, so m > 1023, where 2^m leaves the float
    range, needs no scaling.
    """
    comb = [1] * (m + 1)
    for j in range(m):
        comb[j + 1] = comb[j] * (m - j) // (j + 1)
    tails = [*itertools.accumulate(reversed(comb))][::-1]
    denom = 1 << m
    tail = np.array([t / denom for t in tails])
    pmf = np.array([c / denom for c in comb])
    tail.flags.writeable = pmf.flags.writeable = False  # shared via the cache
    return tail, pmf


def _alternating_terms(s: complex, lo: int, hi: int) -> np.ndarray:
    """(-1)^(l-1) l^(-s) for l = lo + 1 .. hi."""
    n = np.arange(lo + 1, hi + 1, dtype=np.float64)
    signs = np.where(n % 2 == 1, 1.0, -1.0)
    return signs * np.exp(-s * np.log(n))


def _eta_averaged(terms: np.ndarray, keep: int = 6) -> tuple[complex, float]:
    """(value, drift) of m = n - keep passes of pairwise averaging over the
    n partial sums of ``terms``, as weighted sums of the terms.

    After m passes, kept entry i (from 0) is sum_l a_l tail[l - i] over the
    terms a_l (l from 0), with tail[j <= 0] = 1 and tail[j > m] = 0 (P.
    Borwein, "An efficient algorithm for the Riemann zeta function", CMS
    Conf. Proc. 27, 2000, Algorithm 1).  The value is entry keep - 1, and
    the drift is |e_(keep-1) - e_(keep-2)| + |e_(keep-2) - e_(keep-3)|,
    each step e_i - e_(i-1) summed directly as sum_l a_l pmf[l - i]: as a
    difference of two tail sums it would cancel to about eps sum |a_l|,
    far above the step itself.
    """
    tail, pmf = _binomial_weights(len(terms) - keep)
    # complex terms as (re, im) rows, so each weighted sum is a real product
    ri = terms.view(np.float64).reshape(-1, 2)
    v = ri[:keep - 1].sum(axis=0) + tail @ ri[keep - 1:]
    step = pmf @ ri[keep - 1:]
    step_prev = pmf @ ri[keep - 2:-1]
    drift = math.hypot(*step) + math.hypot(*step_prev)
    return complex(v[0], v[1]), drift


def eta_oracle(s, tol: float = 1e-12) -> ComplexValue:
    """eta(s) = sum (-1)^(n-1) n^(-s) as one binomial-tail-weighted sum of
    its terms, in O(n) (Borwein's Algorithm 1, equal to iterated binomial
    averaging of the partial sums); needs Re s > 0.

    Term count starts near 1.5|Im s| + 20 and grows, keeping the terms
    already summed, until the last-transform drift is under ``tol``.  The
    rounding floor of the weighted sum is about (n_terms + 4 |Im s|) * eps;
    asking for less raises :class:`EtaConvergenceError` with the achieved
    error.
    """
    p = ComplexPoint.of(s)
    if not p.a > 0:
        raise ValueError("eta series needs Re s > 0")
    sc = p.s
    babs = abs(p.b)
    n_terms = int(math.ceil(1.5 * babs)) + 20
    terms = _alternating_terms(sc, 0, n_terms)
    best = None
    for _ in range(6):
        value, drift = _eta_averaged(terms)
        floor = (n_terms + 4.0 * babs) * 3e-16 * max(1.0, abs(value))
        err = max(4.0 * drift, floor)
        if best is None or err < best[1]:
            best = (value, err)
        if err <= tol:
            return ComplexValue(value.real, value.imag)
        if drift > floor and n_terms < 40_000:
            grown = min(int(n_terms * 1.6) + 16, 40_000)
            terms = np.concatenate(
                (terms, _alternating_terms(sc, n_terms, grown)))
            n_terms = grown
        else:
            break  # at the rounding floor; more terms cannot help
    value, err = best
    raise EtaConvergenceError(
        f"eta series reached {err:.2e}, requested {tol:.2e}", value, err)


def zeta_oracle(s, tol: float = 1e-12) -> ComplexValue:
    """zeta(s) = eta(s) / (1 - 2^(1-s)), valid off the zeros of the
    denominator, which all sit on Re s = 1."""
    p = ComplexPoint.of(s)
    eta = eta_oracle(p, tol)
    denom = one_minus_two_pow(p)
    if abs(denom) < 1e-12:
        raise ZeroDivisionError("1 - 2^(1-s) vanishes at this point")
    val = eta.value / denom
    return ComplexValue(val.real, val.imag)


# ---------------------------------------------------------------------------
# Scan indicator.

@dataclass(frozen=True)
class ZeroBracket:
    """A scan step over which Z changes sign, with Z at its ends."""

    b_lo: float
    b_hi: float
    indicator_lo: float
    indicator_hi: float
    method: str             # "integral" or "oracle"


@dataclass(frozen=True)
class LocatedZero:
    b_star: float
    residual: float         # raw |F(1/2 + i b_star)|
    method: str
    residual_eta: float     # |Z(b_star)| = |zeta(1/2 + i b_star)|
    noise_eta: float        # the method's own error bound on Z there
    bracket: ZeroBracket | None = None


_ORACLE_TOL = 1e-11


def _line_eval(b: float, method: str):
    """(zc, err, raw) at s = 1/2 + ib.

    zc = e^(i theta(b)) zeta(1/2 + ib): its real part is Hardy's Z(b) and
    its imaginary part only rounding; err bounds |zc - Z(b)|.  raw is the
    method's own value (F or eta).  Z is even in b, so both routes work at
    |b| and conjugate raw back.
    """
    s = complex(0.5, abs(b))
    theta, theta_err = riemann_siegel_theta(s.imag)
    denom = one_minus_two_pow(s)
    if method == "integral":
        integral, ray_err, phi = _ray_integral("fermi", s)
        lg, lg_err = log_gamma(s)
        # F = e^(i phi s) integral; e^(i theta) e^(i phi s) / Gamma(s) is
        # formed in one exponential
        w = cmath.exp(complex(-phi * s.imag - lg.real,
                              theta + 0.5 * phi - lg.imag)) / denom
        zc = w * integral
        err = abs(w) * ray_err + abs(zc) * (theta_err + lg_err)
        raw = cmath.exp(1j * phi * s) * integral
    elif method == "oracle":
        raw = eta_oracle(s, tol=_ORACLE_TOL).value
        zc = cmath.exp(1j * theta) * raw / denom
        err = _ORACLE_TOL / abs(denom) + abs(zc) * theta_err
    else:
        raise ValueError(f"unknown method {method!r}")
    return zc, err, (raw.conjugate() if b < 0 else raw)


def scan_critical_line(b_min: float, b_max: float, step: float,
                       method: str = "integral", *,
                       _raw: list | None = None) -> list[ZeroBracket]:
    """March s = 1/2 + ib over the grid b_min + i step and emit a bracket
    at every step where Z(b) changes sign.

    ``_raw``, if given, receives (b, unscaled F or eta) at every grid point,
    so :func:`find_zeros` reuses the scan instead of evaluating it again.
    """
    if not 0 < step <= 0.5:
        raise ValueError("step must be in (0, 0.5]")
    if not b_min < b_max:
        raise ValueError("need b_min < b_max")
    n = int(math.floor((b_max - b_min) / step + 1e-9)) + 1
    bs = [b_min + i * step for i in range(n)]
    evals = [_line_eval(b, method) for b in bs]
    if _raw is not None:
        _raw.extend((b, e[2]) for b, e in zip(bs, evals))
    z = [e[0].real for e in evals]
    return [ZeroBracket(b_lo=bs[i], b_hi=bs[i + 1], indicator_lo=z[i],
                        indicator_hi=z[i + 1], method=method)
            for i in range(n - 1)
            if z[i] == 0.0 or (z[i] > 0) != (z[i + 1] > 0)]


# ---------------------------------------------------------------------------
# Refinement.

REFINE_WIDTH = 1e-9     # refinement stops once the bracket is narrower
_ITP_KAPPA1 = 0.2       # truncation step 0.2 w^2 / w0 (Oliveira & Takahashi)
# Floor of the truncation step.  Once w^2 falls below an ulp of b the
# truncation vanishes in rounding and regula falsi returns the same point
# again; stepping REFINE_WIDTH / 4 past a converged estimate instead puts
# the sign change in a bracket of width <= REFINE_WIDTH / 2 within two steps.
_MIN_STEP = REFINE_WIDTH / 4


def refine_zero(bracket: ZeroBracket,
                zero_tol: float = 1e-6) -> LocatedZero:
    """Shrink the bracket around the sign change of Z to width < 1e-9 by ITP
    steps, take b* by one regula falsi step inside the final bracket, then
    certify the point:

    * the raw residual |F(1/2 + i b*)| must be below ``zero_tol``, and
    * |Z(b*)| must be below max(zero_tol, 8 x the refining method's error
      bound on Z at b*) -- this is the test with discriminating power, since
      |F| alone sinks below any absolute threshold at large b whether or not
      a zero is present, and
    * the independent route's |Z(b*)| must be below max(zero_tol, 8 x that
      route's bound).

    ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS 47,
    2020) takes the regula falsi point of the bracket w = hi - lo, moves it
    toward the midpoint by max(0.2 w^2 / w0, 2.5e-10), and projects it into
    the interval about the midpoint that keeps the next bracket within
    2^n0 = 2 times the width bisection would have after as many steps.  Near
    a simple zero it converges superlinearly (7 or 8 steps from a 0.25 scan
    step); on any sign change, however badly conditioned, it takes at most
    n + 1 steps, where n is bisection's count (28 from width 0.25), so one
    refinement costs at most n + 3 evaluations with the one at b* and the
    cross-check.

    Failure raises :class:`ZeroRefinementError` carrying the best point (the
    designed outcome for a bracket whose ends do not bound a zero).
    """
    method = bracket.method
    lo, hi = bracket.b_lo, bracket.b_hi
    f_lo, f_hi = bracket.indicator_lo, bracket.indicator_hi
    if not (f_lo > 0) != (f_hi > 0):
        raise ValueError("bracket endpoints do not straddle a sign change")
    w0 = hi - lo
    step = 0
    while hi - lo >= REFINE_WIDTH:
        w = hi - lo
        mid = 0.5 * (lo + hi)
        x_f = (f_hi * lo - f_lo * hi) / (f_hi - f_lo)
        toward = math.copysign(1.0, mid - x_f)
        delta = max(_ITP_KAPPA1 * w * w / w0, _MIN_STEP)
        x_t = x_f + toward * delta if delta <= abs(mid - x_f) else mid
        radius = w0 / 2 ** step - 0.5 * w     # n0 = 1 step over bisection
        x = x_t if abs(x_t - mid) <= radius else mid - toward * radius
        step += 1
        f_x = _line_eval(x, method)[0].real
        if f_x == 0.0:
            lo = hi = x
            break
        if (f_x > 0) == (f_lo > 0):
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
    # one regula falsi step from the values in hand, at no evaluation; a
    # bracket closed by f_x == 0 clamps it to x
    b_star = min(max((f_hi * lo - f_lo * hi) / (f_hi - f_lo), lo), hi)

    zc, noise = _line_eval(b_star, method)[:2]
    z_residual = abs(zc.real)
    s_star = complex(0.5, b_star)
    residual_raw = (z_residual * abs(one_minus_two_pow(s_star))
                    * math.exp(log_gamma(s_star)[0].real))
    # cross-check on the independent route, gated by *that* route's bound
    zc_cross, noise_cross = _line_eval(
        b_star, "oracle" if method == "integral" else "integral")[:2]
    z_gate = max(zero_tol, 8.0 * noise)
    cross_gate = max(zero_tol, 8.0 * noise_cross)

    ok = (residual_raw < zero_tol and z_residual < z_gate
          and abs(zc_cross.real) < cross_gate)
    if not ok:
        raise ZeroRefinementError(
            f"bracket [{bracket.b_lo:.4f}, {bracket.b_hi:.4f}] did not "
            f"certify: residual {residual_raw:.3e}, |Z| "
            f"{z_residual:.3e} vs gate {z_gate:.3e}",
            b_best=b_star, residual=residual_raw, residual_eta=z_residual)
    return LocatedZero(b_star=b_star, residual=residual_raw, method=method,
                       residual_eta=z_residual, noise_eta=noise,
                       bracket=bracket)


def find_zeros(b_min: float, b_max: float, step: float = 0.25,
               zero_tol: float = 1e-6):
    """Full pipeline: scan Z with both routes on one grid, pair the brackets
    by grid step, and refine each bracket with its own route.

    Returns (zeros, scan_rows):
      zeros: list of dicts, one per located zero, with the oracle ordinate,
        the integral ordinate (None where the integral scan saw no sign
        change in that step), residuals, and route agreement;
      scan_rows: the integral-route scan (b, F1, F2, |F|) for plotting.
    """
    oracle_brackets = scan_critical_line(b_min, b_max, step, method="oracle")
    integral_raw: list = []
    integral_brackets = {
        ib.b_lo: ib for ib in scan_critical_line(
            b_min, b_max, step, method="integral", _raw=integral_raw)}

    zeros = []
    for ob in oracle_brackets:
        ib = integral_brackets.pop(ob.b_lo, None)
        try:
            oracle_zero = refine_zero(ob, zero_tol)
        except ZeroRefinementError:
            continue  # the oracle cannot certify a zero here
        entry = {"b_star": oracle_zero.b_star, "method": "oracle",
                 "residual": oracle_zero.residual,
                 "residual_eta": oracle_zero.residual_eta,
                 "b_star_integral": None, "residual_integral": None,
                 "residual_eta_integral": None, "route_gap": None,
                 "integral_certified": False}
        if ib is not None:
            try:
                z = refine_zero(ib, zero_tol)
                b_int, res, res_eta = z.b_star, z.residual, z.residual_eta
                entry["integral_certified"] = True
            except ZeroRefinementError as exc:
                b_int, res, res_eta = exc.b_best, exc.residual, exc.residual_eta
            entry.update(b_star_integral=b_int, residual_integral=res,
                         residual_eta_integral=res_eta,
                         route_gap=abs(b_int - oracle_zero.b_star))
        zeros.append(entry)
    for ib in integral_brackets.values():
        try:
            z = refine_zero(ib, zero_tol)
        except ZeroRefinementError:
            continue  # the integral route cannot certify a zero here
        zeros.append({
            "b_star": z.b_star, "residual": z.residual,
            "residual_eta": z.residual_eta, "method": "integral",
            "b_star_integral": z.b_star, "residual_integral": z.residual,
            "residual_eta_integral": z.residual_eta, "route_gap": None,
            "integral_certified": True,
        })
    zeros.sort(key=lambda z: z["b_star"])

    scan_rows = [(b, f.real, f.imag, abs(f)) for b, f in integral_raw]
    return zeros, scan_rows
