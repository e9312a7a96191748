"""Critical-line zero location for the Riemann zeta function through the
alternating-kernel integral F: inside the strip, zeta and F share zeros, so
ordinates can be hunted by watching F(1/2 + ib).

Two independent routes are kept strictly separate:

* the *integral* route evaluates F by quadrature on a rotated ray (module
  ``special``), and
* the *oracle* route evaluates the alternating series
  eta(s) = sum (-1)^(n-1) n^(-s) with iterated binomial averaging of the
  partial sums, so that F = gamma * eta never touches the quadrature code.

|gamma(1/2 + ib)| = sqrt(pi / cosh(pi b)) decays like e^(-pi b / 2), so both
routes are compared on the gamma-normalized (eta) scale.  The integral
route's resolution there is its own error estimate, (err_re + err_im) /
|gamma|: the ray quadrature carries an error that scales with |F| itself,
about 1e-12 on the eta scale up to b ~ 100, so it resolves ordinates as
sharply as the oracle.  (Real-axis quadrature of F, with its absolute floor
near 1e-18 against an O(1) integrand mass, could not: ~4e-5 near b = 21,
~1e-3 near b = 25, and no dips at all past b ~ 30.)  Each located zero
records both its raw residual |F| and its gamma-normalized (eta-scale)
residual, and refinement rejects brackets whose eta-scale residual stays
above what the refining method could possibly resolve (that is what unmasks
a sign change of one component that is not a zero of F).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .special import ComplexPoint, ComplexValue, F

__all__ = [
    "EtaConvergenceError", "ZeroRefinementError",
    "ZeroBracket", "LocatedZero",
    "eta_oracle", "zeta_oracle", "gamma_modulus_critical",
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

def _eta_averaged(s: complex, n_terms: int, keep: int = 6) -> tuple[complex, float]:
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    signs = np.where(n % 2 == 1, 1.0, -1.0)
    terms = signs * np.exp(-s * np.log(n))
    partial = np.cumsum(terms)
    while len(partial) > keep:
        partial = 0.5 * (partial[:-1] + partial[1:])
    drift = abs(partial[-1] - partial[-2]) + abs(partial[-2] - partial[-3])
    return complex(partial[-1]), float(drift)


def eta_oracle(s, tol: float = 1e-12) -> ComplexValue:
    """eta(s) = sum (-1)^(n-1) n^(-s) by iterated binomial averaging of the
    partial sums; needs Re s > 0.

    Term count starts near 1.5|Im s| + 20 and grows until the last-transform
    drift is under ``tol``.  The rounding floor of the averaged sum is about
    (n_terms + 4 |Im s|) * eps; asking for less raises
    :class:`EtaConvergenceError` with the achieved error.
    """
    p = ComplexPoint.of(s)
    if not p.a > 0:
        raise ValueError("eta series needs Re s > 0")
    sc = p.s
    babs = abs(p.b)
    n_terms = int(math.ceil(1.5 * babs)) + 20
    best = None
    for _ in range(6):
        value, drift = _eta_averaged(sc, n_terms)
        floor = (n_terms + 4.0 * babs) * 3e-16 * max(1.0, abs(value))
        err = max(4.0 * drift, floor)
        if best is None or err < best[1]:
            best = (value, err)
        if err <= tol:
            return ComplexValue(value.real, value.imag)
        if drift > floor and n_terms < 40_000:
            n_terms = min(int(n_terms * 1.6) + 16, 40_000)
        else:
            break  # at the rounding floor; more terms cannot help
    value, err = best
    raise EtaConvergenceError(
        f"eta series reached {err:.2e}, requested {tol:.2e}", value, err)


def eta_err_floor(s) -> float:
    """Rounding floor of the eta oracle at s (used for honest gating)."""
    p = ComplexPoint.of(s)
    n_terms = int(math.ceil(2.4 * abs(p.b))) + 52
    return (n_terms + 4.0 * abs(p.b)) * 3e-16


def zeta_oracle(s, tol: float = 1e-12) -> ComplexValue:
    """zeta(s) = eta(s) / (1 - 2^(1-s)), valid off the zeros of the
    denominator, which all sit on Re s = 1."""
    from .special import one_minus_two_pow
    p = ComplexPoint.of(s)
    eta = eta_oracle(p, tol)
    denom = one_minus_two_pow(p)
    if abs(denom) < 1e-12:
        raise ZeroDivisionError("1 - 2^(1-s) vanishes at this point")
    val = eta.value / denom
    return ComplexValue(val.real, val.imag)


def gamma_modulus_critical(b: float) -> float:
    """|gamma(1/2 + ib)| = sqrt(pi / cosh(pi b)), in log form for large b."""
    x = math.pi * abs(b)
    if x > 700.0:
        return math.exp(0.5 * (math.log(2.0 * math.pi) - x))
    return math.sqrt(math.pi / math.cosh(x))


# ---------------------------------------------------------------------------
# Scan indicator.

@dataclass(frozen=True)
class ZeroBracket:
    """A sign-change step of one component of the line indicator, with a
    certified |value| dip (interpolated local minimum under a tenth of the
    neighborhood median)."""

    b_lo: float
    b_hi: float
    indicator_lo: float
    indicator_hi: float
    component: int          # 0: real part, 1: imaginary part
    method: str             # "integral" or "oracle"
    dip: float              # interpolated eta-scale minimum inside the step
    median: float           # neighborhood eta-scale median


@dataclass(frozen=True)
class LocatedZero:
    b_star: float
    residual: float         # raw |F(1/2 + i b_star)|
    method: str
    residual_eta: float     # gamma-normalized residual (eta scale)
    noise_eta: float        # method's own eta-scale resolution floor there
    bracket: ZeroBracket | None = None


def _line_eval(b: float, q: QuadratureSpec, method: str):
    """(re, im, magnitude, noise, raw) of the line indicator at s = 1/2 + ib.
    The first four are on the gamma-normalized (eta) scale so magnitudes are
    comparable across a window where |gamma| itself drops by e^(-pi/2) per
    unit of b; ``raw`` is the method's unscaled value (F or eta).

    The integral indicator is F / |gamma| (components keep F's signs); the
    oracle indicator is eta itself (same zeros: F = gamma eta, gamma != 0).
    """
    if method == "integral":
        ev = F(ComplexPoint(0.5, b), q)
        gam = gamma_modulus_critical(b)
        noise = (ev.err_re + ev.err_im) / gam
        return (ev.value.re / gam, ev.value.im / gam,
                math.hypot(ev.value.re, ev.value.im) / gam, noise, ev.value)
    if method == "oracle":
        eta = eta_oracle(ComplexPoint(0.5, b), tol=1e-11)
        mag = math.hypot(eta.re, eta.im)
        return eta.re, eta.im, mag, eta_err_floor(ComplexPoint(0.5, b)), eta
    raise ValueError(f"unknown method {method!r}")


def _crossing_dip(comp_lo, comp_hi, other_lo, other_hi) -> float:
    """|non-flipping component| linearly interpolated at the crossing point
    of the flipping one.

    Near a simple zero *both* components pass through zero, so this
    interpolation lands small; at a nodal crossing of one component alone the
    other stays at neighborhood scale.  That is the dip measure behind the
    bracket filter.
    """
    frac = abs(comp_lo) / max(abs(comp_lo) + abs(comp_hi), 1e-300)
    return abs(other_lo + (other_hi - other_lo) * frac)


DIP_FACTOR = 10.0   # the dip must undercut the neighborhood median tenfold
_MEDIAN_HALF_WINDOW = 8


def scan_critical_line(b_min: float, b_max: float, step: float,
                       q: QuadratureSpec | None = None,
                       method: str = "integral", *,
                       _raw: list | None = None) -> list[ZeroBracket]:
    """March s = 1/2 + ib over the grid and emit brackets where one indicator
    component changes sign *and* the interpolated |indicator| minimum dips a
    factor DIP_FACTOR below the neighborhood median.

    The sign change alone is not enough (each component vanishes on curves
    that are not zeros of F); the dip alone is not enough either (noise);
    together they bracket simple zeros reliably down to the method's noise
    floor.  Magnitudes are compared on the gamma-normalized (eta) scale so
    the median is meaningful across a window where |gamma| itself drops by
    e^(-pi step w / 2) per w steps.

    ``_raw``, if given, receives (b, unscaled F or eta) at every grid point,
    so :func:`find_zeros` reuses the scan instead of evaluating it again.
    """
    if not 0 < step <= 0.5:
        raise ValueError("step must be in (0, 0.5]")
    if not b_min < b_max:
        raise ValueError("need b_min < b_max")
    q = q or DEFAULT_SPEC
    n = int(math.floor((b_max - b_min) / step + 1e-9)) + 1
    bs = [b_min + i * step for i in range(n)]
    evals = [_line_eval(b, q, method) for b in bs]
    if _raw is not None:
        _raw.extend((b, e[4]) for b, e in zip(bs, evals))
    re = [e[0] for e in evals]
    im = [e[1] for e in evals]
    mag = [e[2] for e in evals]

    brackets: list[ZeroBracket] = []
    for i in range(n - 1):
        flips = [c for c, comp in ((0, re), (1, im))
                 if comp[i] == 0.0 or (comp[i] > 0) != (comp[i + 1] > 0)]
        if not flips:
            continue
        lo_w = max(0, i - _MEDIAN_HALF_WINDOW)
        hi_w = min(n, i + 2 + _MEDIAN_HALF_WINDOW)
        med = float(np.median(np.asarray(mag[lo_w:hi_w])))
        dips = {}
        for c in flips:
            comp, other = (re, im) if c == 0 else (im, re)
            dips[c] = _crossing_dip(comp[i], comp[i + 1], other[i], other[i + 1])
        cidx = min(dips, key=dips.get)
        dip = dips[cidx]
        if dip >= med / DIP_FACTOR:
            continue
        comp = im if cidx else re
        brackets.append(ZeroBracket(
            b_lo=bs[i], b_hi=bs[i + 1],
            indicator_lo=comp[i], indicator_hi=comp[i + 1],
            component=cidx, method=method, dip=dip, median=med))
    return brackets


# ---------------------------------------------------------------------------
# Refinement.

BISECTION_WIDTH = 1e-9


def refine_zero(bracket: ZeroBracket, zero_tol: float = 1e-6,
                q: QuadratureSpec | None = None) -> LocatedZero:
    """Bisect the bracket's sign-changing component to width < 1e-9, then
    certify the point:

    * the raw residual |F(1/2 + i b*)| must be below ``zero_tol``, and
    * the eta-scale residual must be below max(zero_tol, 8 x the refining
      method's own eta-scale noise floor at b*) -- this is the test with
      discriminating power, since |F| alone sinks below any absolute
      threshold at large b whether or not a zero is present.

    Failure raises :class:`ZeroRefinementError` carrying the best point (the
    designed outcome for a spurious bracket: a component sign change where
    the full indicator stays at its neighborhood scale).
    """
    q = q or DEFAULT_SPEC
    method = bracket.method
    cidx = bracket.component

    def component(b: float) -> tuple[float, float, float]:
        r, i, mag, noise, _ = _line_eval(b, q, method)
        return (i if cidx else r), mag, noise

    lo, hi = bracket.b_lo, bracket.b_hi
    f_lo = bracket.indicator_lo
    if not (f_lo > 0) != (bracket.indicator_hi > 0):
        raise ValueError("bracket endpoints do not straddle a sign change")
    for _ in range(200):
        if hi - lo < BISECTION_WIDTH:
            break
        mid = 0.5 * (lo + hi)
        f_mid, _, _ = component(mid)
        if f_mid == 0.0:
            lo = hi = mid
            break
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    b_star = 0.5 * (lo + hi)

    _, mag_eta, noise_eta = component(b_star)
    gam = gamma_modulus_critical(b_star)
    residual_raw = mag_eta * gam

    # cross-check on the independent route, gated by *that* route's floor
    s_star = ComplexPoint(0.5, b_star)
    if method == "integral":
        eta = eta_oracle(s_star, tol=1e-11)
        cross = math.hypot(eta.re, eta.im)
        cross_gate = max(zero_tol, 8.0 * eta_err_floor(s_star))
    else:
        ev = F(s_star, q)
        cross = math.hypot(ev.value.re, ev.value.im) / gam
        cross_gate = max(zero_tol, 8.0 * (ev.err_re + ev.err_im) / gam)
    eta_residual = max(mag_eta, 0.0)
    eta_gate = max(zero_tol, 8.0 * noise_eta)

    ok = (residual_raw < zero_tol and eta_residual < eta_gate
          and cross < cross_gate)
    if not ok:
        raise ZeroRefinementError(
            f"bracket [{bracket.b_lo:.4f}, {bracket.b_hi:.4f}] did not "
            f"certify: residual {residual_raw:.3e}, eta-scale "
            f"{eta_residual:.3e} vs gate {eta_gate:.3e}",
            b_best=b_star, residual=residual_raw, residual_eta=eta_residual)
    return LocatedZero(b_star=b_star, residual=residual_raw, method=method,
                       residual_eta=eta_residual, noise_eta=noise_eta,
                       bracket=bracket)


def find_zeros(b_min: float, b_max: float, step: float = 0.25,
               zero_tol: float = 1e-6, q: QuadratureSpec | None = None):
    """Full pipeline: scan with both routes, merge overlapping brackets, and
    refine each bracket with both routes.

    Returns (zeros, scan_rows):
      zeros: list of dicts, one per located zero, with the oracle ordinate,
        the integral ordinate (None where that route found no component
        sign change to bisect), residuals, and route agreement;
      scan_rows: the integral-route scan (b, F1, F2, |F|) for plotting.
    """
    q = q or DEFAULT_SPEC
    oracle_brackets = scan_critical_line(b_min, b_max, step, q, method="oracle")
    integral_raw: list = []
    integral_brackets = scan_critical_line(b_min, b_max, step, q,
                                           method="integral", _raw=integral_raw)

    merged: list[tuple[ZeroBracket, ZeroBracket | None]] = []
    used = set()
    for ob in oracle_brackets:
        partner = None
        for j, ib in enumerate(integral_brackets):
            if j not in used and abs(ib.b_lo - ob.b_lo) < step / 2:
                partner = ib
                used.add(j)
                break
        merged.append((ob, partner))
    extras = [ib for j, ib in enumerate(integral_brackets) if j not in used]

    zeros = []
    for ob, ib in merged:
        try:
            oracle_zero = refine_zero(ob, zero_tol, q)
        except ZeroRefinementError:
            continue  # spurious oracle bracket
        entry = {
            "b_star": oracle_zero.b_star,
            "residual": oracle_zero.residual,
            "residual_eta": oracle_zero.residual_eta,
            "method": "oracle",
            "b_star_integral": None,
            "residual_integral": None,
            "residual_eta_integral": None,
            "route_gap": None,
        }
        int_bracket = ib
        if int_bracket is None:
            # the oracle bracket still gives the integral route something to
            # bisect; rebuild the integral indicator at its endpoints
            r_lo, i_lo, _, _, _ = _line_eval(ob.b_lo, q, "integral")
            r_hi, i_hi, _, _, _ = _line_eval(ob.b_hi, q, "integral")
            for cidx, vlo, vhi in ((1, i_lo, i_hi), (0, r_lo, r_hi)):
                if (vlo > 0) != (vhi > 0):
                    int_bracket = ZeroBracket(
                        b_lo=ob.b_lo, b_hi=ob.b_hi, indicator_lo=vlo,
                        indicator_hi=vhi, component=cidx, method="integral",
                        dip=ob.dip, median=ob.median)
                    break
        if int_bracket is not None:
            try:
                int_zero = refine_zero(int_bracket, zero_tol, q)
                entry["b_star_integral"] = int_zero.b_star
                entry["residual_integral"] = int_zero.residual
                entry["residual_eta_integral"] = int_zero.residual_eta
                entry["route_gap"] = abs(int_zero.b_star - oracle_zero.b_star)
            except ZeroRefinementError as exc:
                entry["b_star_integral"] = exc.b_best
                entry["residual_integral"] = exc.residual
                entry["residual_eta_integral"] = exc.residual_eta
                entry["route_gap"] = abs(exc.b_best - oracle_zero.b_star)
                entry["integral_certified"] = False
        entry.setdefault("integral_certified", entry["b_star_integral"] is not None)
        zeros.append(entry)
    for ib in extras:
        try:
            z = refine_zero(ib, zero_tol, q)
        except ZeroRefinementError:
            continue  # spurious integral bracket, rejected
        zeros.append({
            "b_star": z.b_star, "residual": z.residual,
            "residual_eta": z.residual_eta, "method": "integral",
            "b_star_integral": z.b_star, "residual_integral": z.residual,
            "residual_eta_integral": z.residual_eta, "route_gap": None,
            "integral_certified": True,
        })
    zeros.sort(key=lambda z: z["b_star"])

    scan_rows = [(b, f.re, f.im, abs(f)) for b, f in integral_raw]
    return zeros, scan_rows
