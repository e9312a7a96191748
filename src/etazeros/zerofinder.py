"""Critical-line zero location for the Riemann zeta function through the
alternating-kernel integral F: inside the strip, zeta and F share zeros, so
a zero located on one route can be certified on the other.

On the critical line the indicator is Hardy's function

    Z(b) = e^(i theta(b)) zeta(1/2 + ib),

real for real b, with theta the Riemann-Siegel theta of Stirling's series
(:func:`etazeros.special.riemann_siegel_theta`).  Its zeros are the zeta
zeros, and each simple one is a sign change, so a bracket is any scan step
where Z changes sign.  Two independent routes evaluate it:

* the *oracle* route from the alternating series
  eta(s) = sum (-1)^(n-1) n^(-s) by Borwein's Algorithm 1 (one
  binomial-tail-weighted sum of 2n terms, n ~ 0.75 |b| + 20 from a proven
  truncation bound): Z = Re(e^(i theta) eta / (1 - 2^(1/2 - ib))), and
* the *integral* route from F by quadrature on a rotated ray:
  Z = Re(e^(i theta) zeta), zeta by :func:`etazeros.special.zeta_from_F`
  from the scaled F, where F's scale e^(-phi b) and |Gamma| ~ e^(-pi b / 2),
  which underflow past b ~ 470, cancel in one exponential to at most e^4.

Each route carries its own error bound on Z, which also bounds the rounding
left in Im(e^(i theta) zeta).  Like F and Gamma, eta returns (value, err),
and its err, a truncation bound plus a rounding floor, is the oracle route's
bound.  An eta call sums its 2n terms as lists of floats with cmath, each
part exactly rounded, at every height, so the oracle route never loads
numpy.

Each route has one job: eta locates and proves, F certifies.  The oracle
route scans Z on the grid and refines each bracket once by ITP steps
(regula falsi, truncated toward the midpoint and projected into a radius
that keeps bisection's worst case within one step), about 9 evaluations
per zero with the one at b*, at most 30 from a 0.25-wide scan step.  One
rule proves a zero on either route: Z takes opposite signs at two points,
each beyond its own error bound there (:func:`_proves`).  The oracle route
applies it to every bracket of its ITP sequence and keeps the narrowest
that passes as the zero's proven interval; a scan bracket whose sequence
has none raises :class:`ZeroRefinementError`.  Once every bracket is
refined, the integral route certifies the zeros on its own values: the
same rule at b* - h and b* + h for some h from 1e-10 doubling up to 1e-6,
which proves a zero within h of b*.  The certificate runs in rounds, one h
for every zero still open, and the 2 rays per zero of a round are one
quadrature request (:func:`etazeros.quadrature.line_request`), whose
executor is picked for them together.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections import namedtuple

from .errors import ZeroRefinementError
from .quadrature import line_request
from .special import (F, log_gamma, one_minus_two_pow, riemann_siegel_theta,
                      zeta_from_F)

__all__ = [
    "ZeroRefinementError",
    "ZeroBracket", "LocatedZero",
    "eta_oracle",
    "scan_critical_line", "refine_zero", "find_zeros", "scan_F",
]


# ---------------------------------------------------------------------------
# The accelerated alternating series.

# A scan's calls share n over ~1.3 in b, and refinement goes back to each
# bracket's n once the scan has passed it: find_zeros(1000, 1010) takes 8 n,
# built once each with 8 entries (14 times with 4).  An entry at b = 2e4
# holds 0.5 MB.
@functools.lru_cache(maxsize=8)
def _tail_weights(n: int) -> tuple[float, ...]:
    """tail[j] = P(X >= j) for X ~ Binomial(n, 1/2), j = 0 .. n, from one
    pass down from j = n over two exact integers, C(n, j) and the tail sum;
    C(n, j - 1) = C(n, j) j / (n - j + 1) divides exactly.  Each entry is
    the tail sum over 2^n, rounded once by :func:`_over_power_of_two`, so
    n > 1023, where 2^n leaves the float range, needs no scaling.
    """
    tail = [0.0] * (n + 1)
    comb = total = 1
    for j in range(n, 0, -1):
        tail[j] = _over_power_of_two(total, n)
        comb = comb * j // (n - j + 1)
        total += comb
    tail[0] = _over_power_of_two(total, n)
    return tuple(tail)


def _over_power_of_two(x: int, n: int) -> float:
    """x / 2^n for integers 0 <= x <= 2^n, rounded to nearest with ties to
    even as the float ``x / (1 << n)`` is, from the top bits of x: the bits
    down to the result's ulp (2^-1074 in the subnormal range) and a guard
    bit below it.  Only a set guard bit under an even result needs the rest,
    the sticky bit: whether any bit below the guard is set."""
    ulp = max(x.bit_length() - n - 53, -1074)   # log2 of the result's ulp
    shift = n + ulp                             # bits of x below that ulp
    if shift <= 0:
        return math.ldexp(x, -n)                # x < 2^53: exact
    top = x >> (shift - 1)
    q = top >> 1
    if top & 1 and (q & 1 or x & ((1 << (shift - 1)) - 1)):
        q += 1
    return math.ldexp(q, ulp)


# log l for l = 1, 2, ..., grown on demand; a longer table replaces a
# shorter one whole, so a reader never sees one half built
_LOG_L = ()


def _alternating_terms(s: complex, m: int):
    """(-1)^(l-1) l^(-s) as a list and log l as a tuple, l = 1 .. m."""
    global _LOG_L
    log_l = _LOG_L
    if m > len(log_l):
        log_l += tuple(map(math.log, range(len(log_l) + 1, m + 1)))
        _LOG_L = log_l
    log_l = log_l[:m]
    neg_s = -s
    terms = [cmath.exp(neg_s * x) for x in log_l]
    terms[1::2] = [-t for t in terms[1::2]]
    return terms, log_l


def _eta_sum(s: complex, n: int) -> tuple[complex, float]:
    """Borwein's sum of the first 2n terms a_l of eta(s), weighted by 1 for
    l <= n and by P(X > l - n - 1), X ~ Binomial(n, 1/2), beyond (the last
    entry of n pairwise averaging passes over the partial sums), and a bound
    on its rounding, eps sum |w_l a_l| (3 + |s| log(l) / 2 + log2(2n)), for
    log l carried through |s|, exp, weight, product and a pairwise sum.  Each
    part is summed exactly rounded, inside that bound.
    """
    terms, log_l = _alternating_terms(s, 2 * n)
    terms[n - 1:] = map(operator.mul, terms[n - 1:], _tail_weights(n))
    size = list(map(abs, terms))
    floor = math.ulp(1.0) * (
        (3.0 + math.log2(2 * n)) * math.fsum(size)
        + 0.5 * abs(s) * math.fsum(map(operator.mul, size, log_l)))
    return complex(math.fsum([t.real for t in terms]),
                   math.fsum([t.imag for t in terms])), floor


def eta_oracle(s) -> tuple[complex, float]:
    """eta(s) = sum (-1)^(n-1) n^(-s) by Algorithm 1 of P. Borwein, "An
    efficient algorithm for the Riemann zeta function" (CMS Conf. Proc. 27,
    2000), and a bound on its error; needs Re s > 0.

    The 2n weighted terms leave an error of at most 8^(-n) (1 + |t| / sigma)
    e^(pi |t| / 2) at s = sigma + it; n is the least that makes it e^-40 or
    less, about 0.75 |t| + 20.  err is that bound plus :func:`_eta_sum`'s
    rounding floor.  2n stops at 40,000 terms (|t| ~ 2.6e4); past that err
    carries the larger bound.
    """
    s = complex(s)
    if not (s.real > 0 and cmath.isfinite(s)):
        raise ValueError("eta series needs a finite s with Re s > 0")
    sigma, t = s.real, abs(s.imag)
    # log((1 + t / sigma) e^(pi t / 2)), with no t / sigma to overflow
    log_growth = math.log(sigma + t) - math.log(sigma) + 0.5 * math.pi * t
    n = min(math.ceil((log_growth + 40.0) / math.log(8.0)), 20_000)
    value, floor = _eta_sum(s, n)
    log_trunc = log_growth - n * math.log(8.0)
    trunc = math.exp(log_trunc) if log_trunc < 709.0 else math.inf
    return value, floor + trunc


# ---------------------------------------------------------------------------
# Scan indicator.

class ZeroBracket(namedtuple(
        "ZeroBracket", "b_lo b_hi indicator_lo indicator_hi err_lo err_hi",
        defaults=(math.inf, math.inf))):
    """A scan step over which the oracle route's Z changes sign, with Z at
    its ends and eta's error bounds there.  The bounds default to inf, so
    the ends of a bracket made by hand prove nothing."""

    __slots__ = ()


class LocatedZero(namedtuple(
        "LocatedZero", "b_star residual residual_eta proven_lo proven_hi")):
    """A zero located and proved on the oracle route: residual is
    |F(1/2 + i b_star)|, from |Z| and |Gamma|, and residual_eta
    |Z(b_star)| = |zeta(1/2 + i b_star)|.  Z has a zero in
    [proven_lo, proven_hi], which holds b_star: the narrowest bracket of
    the refinement whose ends' values prove it."""

    __slots__ = ()


def _proves(f_lo: float, err_lo: float, f_hi: float, err_hi: float) -> bool:
    """Whether two values of Z, each with its error bound, prove a zero
    between their points: opposite signs, and each |Z| above its own bound.
    A value of 0.0 proves nothing."""
    return ((f_lo > 0) != (f_hi > 0) and abs(f_lo) > err_lo
            and abs(f_hi) > err_hi)


def _line_eval(b: float, method: str):
    """(zc, err) at s = 1/2 + ib.

    zc = e^(i theta(b)) zeta(1/2 + ib): its real part is Hardy's Z(b) and
    its imaginary part only rounding; err bounds |zc - Z(b)|.  Z is even in
    b, so both routes work at |b|.
    """
    s = complex(0.5, abs(b))
    theta, theta_err = riemann_siegel_theta(s.imag)
    if method == "integral":
        zeta, zeta_err = zeta_from_F(s, *F(s, scaled=True))
        zc = cmath.exp(1j * theta) * zeta
        err = zeta_err + abs(zc) * theta_err
    elif method == "oracle":
        eta, eta_err = eta_oracle(s)
        denom = one_minus_two_pow(s)
        zc = cmath.exp(1j * theta) * eta / denom
        err = eta_err / abs(denom) + abs(zc) * theta_err
    else:
        raise ValueError(f"unknown method {method!r}")
    return zc, err


# The most points a scan grid may hold; the default step over the whole
# height range the CLI admits, |b| <= 2e4, makes 80,001.
MAX_GRID_POINTS = 10 ** 6


def _grid(b_min: float, b_max: float, step: float) -> list[float]:
    """The scan grid b_min + i step, i = 0, 1, ..., up to b_max; raises
    ValueError, before building it, for more than MAX_GRID_POINTS points."""
    if not 0 < step <= 0.5:
        raise ValueError("step must be in (0, 0.5]")
    if not b_min < b_max:
        raise ValueError("need b_min < b_max")
    steps = (b_max - b_min) / step + 1e-9
    if not steps < MAX_GRID_POINTS:
        raise ValueError(
            f"step {step:g} on [{b_min:g}, {b_max:g}] makes more than "
            f"{MAX_GRID_POINTS} scan points")
    n = int(math.floor(steps)) + 1
    return [b_min + i * step for i in range(n)]


def scan_critical_line(b_min: float, b_max: float,
                       step: float) -> list[ZeroBracket]:
    """March s = 1/2 + ib over the grid b_min + i step and emit a bracket
    at every step where the oracle route's Z(b) changes sign, by
    :func:`refine_zero`'s test: a step whose ends differ in whether Z > 0.
    The integral route does not scan; it certifies (:func:`_certify`)."""
    bs = _grid(b_min, b_max, step)
    evals = [_line_eval(b, "oracle") for b in bs]
    z = [zc.real for zc, _ in evals]
    return [ZeroBracket(b_lo=bs[i], b_hi=bs[i + 1], indicator_lo=z[i],
                        indicator_hi=z[i + 1],
                        err_lo=evals[i][1], err_hi=evals[i + 1][1])
            for i in range(len(bs) - 1)
            if (z[i] > 0) != (z[i + 1] > 0)]


def scan_F(b_min: float, b_max: float, step: float
           ) -> list[tuple[float, float, float, float]]:
    """(b, F1, F2, |F|) of F(1/2 + ib) at every point of the scan grid, the
    whole grid as one request."""
    points = [complex(0.5, b) for b in _grid(b_min, b_max, step)]
    rows = []
    with line_request(points):
        for s in points:
            f, _ = F(s)
            rows.append((s.imag, f.real, f.imag, abs(f)))
    return rows


# ---------------------------------------------------------------------------
# Refinement.

REFINE_WIDTH = 1e-9     # refinement stops once the bracket is narrower
_ITP_KAPPA1 = 0.2       # truncation step 0.2 w^2 / w0 (Oliveira & Takahashi)
# Floor of the truncation step.  Once w^2 falls below an ulp of b the
# truncation vanishes in rounding and regula falsi returns the same point
# again; stepping REFINE_WIDTH / 4 past a converged estimate instead puts
# the sign change in a bracket of width <= REFINE_WIDTH / 2 within two steps.
_MIN_STEP = REFINE_WIDTH / 4


def refine_zero(bracket: ZeroBracket) -> LocatedZero:
    """Shrink the bracket around the sign change of the oracle route's Z to
    width < 1e-9 by ITP steps and take b* by one regula falsi step inside
    the final bracket.  The zero is accepted on a proof: some bracket of the
    sequence, the first one included, has ends whose values of Z pass
    :func:`_proves` with eta's own error bounds.  The narrowest such
    bracket is the zero's proven interval.  At height |Z| near the zero
    sinks toward its bound, so the final bracket may prove nothing while a
    wider one did.

    ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS 47,
    2020) takes the regula falsi point of the bracket w = hi - lo, moves it
    toward the midpoint by max(0.2 w^2 / w0, 2.5e-10), and projects it into
    the interval about the midpoint that keeps the next bracket within
    2^n0 = 2 times the width bisection would have after as many steps.  Near
    a simple zero it converges superlinearly (7 or 8 steps from a 0.25 scan
    step); on any sign change, however badly conditioned, it takes at most
    n + 1 steps, where n is bisection's count (28 from width 0.25), so one
    refinement costs at most n + 2 evaluations with the one at b*.

    A sequence with no proven bracket raises :class:`ZeroRefinementError`
    carrying b*, before Z is evaluated there.
    """
    lo, hi = bracket.b_lo, bracket.b_hi
    f_lo, f_hi = bracket.indicator_lo, bracket.indicator_hi
    err_lo, err_hi = bracket.err_lo, bracket.err_hi
    if not (f_lo > 0) != (f_hi > 0):
        raise ValueError("bracket endpoints do not straddle a sign change")
    proven = (lo, hi) if _proves(f_lo, err_lo, f_hi, err_hi) else None
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
        zc, err = _line_eval(x, "oracle")
        f_x = zc.real
        if f_x == 0.0:
            lo = hi = x
            break
        if (f_x > 0) == (f_lo > 0):
            lo, f_lo, err_lo = x, f_x, err
        else:
            hi, f_hi, err_hi = x, f_x, err
        if _proves(f_lo, err_lo, f_hi, err_hi):
            proven = (lo, hi)
    # one regula falsi step from the values in hand, at no evaluation; a
    # bracket closed by f_x == 0 clamps it to x
    b_star = min(max((f_hi * lo - f_lo * hi) / (f_hi - f_lo), lo), hi)
    if proven is None:
        raise ZeroRefinementError(
            f"bracket [{bracket.b_lo:.4f}, {bracket.b_hi:.4f}] proves no "
            f"zero: after {step} ITP steps no bracket has Z of opposite "
            f"signs beyond its error bound at both ends",
            b_best=b_star)

    z_residual = abs(_line_eval(b_star, "oracle")[0].real)
    s_star = complex(0.5, b_star)
    residual_raw = (z_residual * abs(one_minus_two_pow(s_star))
                    * math.exp(log_gamma(s_star)[0].real))
    return LocatedZero(b_star=b_star, residual=residual_raw,
                       residual_eta=z_residual, proven_lo=proven[0],
                       proven_hi=proven[1])


_CERTIFY_H0 = 1e-10     # first half-width of the sign-change certificate
_CERTIFY_H_MAX = 1e-6   # ... doubled up to this


def _certify(b_stars: list[float]) -> list[float | None]:
    """A zero of the integral route's Z near each b* the oracle route
    located, proved by a sign change on F's values alone.

    Z is evaluated at b* - h and b* + h for h = 1e-10, 2e-10, ... up to
    1e-6, in rounds: each round takes one h for every b* still open, its
    rays as one request (:func:`etazeros.quadrature.line_request`).  At the
    first h where the two values prove a zero between them
    (:func:`_proves`), the result is one regula falsi step through the two
    values.  None where no h gives such a pair.
    """
    found = [None] * len(b_stars)
    pending = list(range(len(b_stars)))
    h = _CERTIFY_H0
    while pending and h <= _CERTIFY_H_MAX:
        ends = [(b_stars[i] - h, b_stars[i] + h) for i in pending]
        points = [b for pair in ends for b in pair]
        with line_request([complex(0.5, abs(b)) for b in points]):
            evals = iter([_line_eval(b, "integral") for b in points])
        left = []
        for i, (lo, hi) in zip(pending, ends):
            (zc_lo, err_lo), (zc_hi, err_hi) = next(evals), next(evals)
            f_lo, f_hi = zc_lo.real, zc_hi.real
            if _proves(f_lo, err_lo, f_hi, err_hi):
                found[i] = (f_hi * lo - f_lo * hi) / (f_hi - f_lo)
            else:
                left.append(i)
        pending = left
        h *= 2.0
    return found


def find_zeros(b_min: float, b_max: float, step: float = 0.25) -> list[dict]:
    """Full pipeline: scan Z on the oracle route, refine each bracket once,
    then certify the refined zeros on the integral route, in rounds.  A
    bracket the oracle route cannot prove raises
    :class:`ZeroRefinementError`.

    Returns one dict per located zero: the oracle ordinate ``b_star`` with
    its ``residual`` and ``residual_eta``, and ``b_star_integral``, the
    integral route's own sign-change point, with ``route_gap``, its
    distance from ``b_star``.  Where the integral route cannot certify the
    zero, ``integral_certified`` is False and both are None.
    """
    located = [refine_zero(bracket)
               for bracket in scan_critical_line(b_min, b_max, step)]
    certified = _certify([z.b_star for z in located])
    return [{
        "b_star": z.b_star, "method": "oracle", "residual": z.residual,
        "residual_eta": z.residual_eta, "b_star_integral": b_int,
        "route_gap": None if b_int is None else abs(b_int - z.b_star),
        "integral_certified": b_int is not None,
    } for z, b_int in zip(located, certified)]
