"""Quadrature for power-weighted decaying kernels: one engine, three contours.

Every integral here is int t^(s-1) k(t) dt over a range of t, taken in
u = log t as int e^(s u) k(e^u rot) du (on an arc, in its angle) on Gauss
panels.  One batch gives each panel's G24 value, its error |G24 - G12| and
its rounding floor; one loop bisects every panel whose error stands above
its floor.  On a ray from 0 the head below a small rho comes in closed form
from the kernel's first two Taylor terms, and beyond the last panel the
tail is bounded analytically.  Panel sums go through ``math.fsum`` in panel
order, so results are bit-reproducible.

Whole half-line integrals of the fermi, exp and bose kernels (F, gamma and G
of :mod:`etazeros.special`) go to :func:`integrate_line`, which runs on a ray
rotated towards the imaginary axis.  Each kernel is analytic on Re t > 0
with its poles on the imaginary axis, so by Cauchy's theorem

    int_0^inf t^(s-1) k(t) dt = e^(i theta s) int_0^inf r^(s-1) k(r e^(i theta)) dr

for 0 <= theta < pi/2.  With theta = pi/2 - delta the factor e^(-theta b)
comes out analytically, and what is left to quadrature is only about
e^(delta b) worse conditioned than the integral, which decays like
e^(-pi b / 2).

The fermi head int_0^R t^(s-1) k(t) dt with R < pi, which suite 2 checks
against the paper's coefficient series, goes to :func:`_arc_head`.  The disc
|t| <= R holds no pole, so the head is the segment 0 -> iR minus the arc
t = R e^(i phi), 0 <= phi <= pi/2.  On the arc t^(ib) is the decay
e^(-b phi), so a few panels in phi take it, and past b ~ 30 the whole
segment is below one rounding unit and only its bound is kept.

The paper's other real-axis pieces (direct and paired tails, half periods,
telescoping strips, the bare sine average) all start at a finite lo > 0
and go to :func:`integrate_finite` and :func:`integrate_to_infinity`, which
run on the real axis, rot = 1.  There t^(a-1) k(t) sin(b log t) is
Im e^(s u) k(e^u) with s = a + ib (b = 0 without the sine).  The panels run
in the phase p = b u / pi, counted from lo, and stop at every phase node.
The sine comes from exact offsets to the integer phase nodes,
sin(pi p) = (-1)^k sin(pi (p - k)), so it never picks up a phase error of
size b * ulp(u).

Oscillatory tails admit a second, analytically cancelled form: the integral
of the fermi kernel over a full period [t_2k, t_2k+2] equals the integral of
the paired difference kernel

    h(t, a, b) = t^(a-1) (q(t) - e^(a pi/b) q(t e^(pi/b))),    q = 1/(e^t + 1)

over the half period [t_2k, t_2k+1].  ``integrate_to_infinity(paired=True)``
selects that form.  It is what keeps the absolute rounding noise near
machine scale when the half-waves of each period cancel almost exactly,
which for this family they do, to a factor ~ e^(-pi b / 2).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NonConvergenceError

__all__ = [
    "QuadratureError", "IntegrandSpec", "integrate_finite",
    "integrate_to_infinity", "integrate_line",
]


class QuadratureError(NonConvergenceError):
    """An integral did not converge to the requested tolerance.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message: str, value: float | None = None,
                 err_est: float | None = None):
        super().__init__(message)
        self.value = value
        self.err_est = err_est


# A panel error that stalls above its rounding floor raises only when it also
# exceeds this share of the value; the panel loop itself never reads it.
_STALL_TOL = 1e-10
_MAX_DEPTH = 24         # bisections of one panel
# Real-axis integrals to infinity stop at t = 60, where the kernel's mass is
# below e^-60; the analytic tail bound beyond it goes into err for any a.
TAIL_CUTOFF = 60.0

_KERNELS = ("fermi", "pair_fermi", "unit")


@dataclass(frozen=True)
class IntegrandSpec:
    """One member of the integrand family  t^(a-1) * kernel(t) * trig(b log t)
    of the paper's real-axis pieces.

    kernel:
      ``fermi``       t^(a-1) / (e^t + 1)
      ``pair_fermi``  t^(a-1) (q(t) - e^(a pi/b) q(t e^(pi/b))),  q = 1/(e^t+1)
      ``unit``        1  (bare sine carrier; a ignored)
    trig: None or "sin" of (b log t).
    """

    kernel: str
    trig: str | None = None
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if self.kernel not in _KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.trig not in (None, "sin"):
            raise ValueError(f"unknown trig {self.trig!r}")
        if self.trig is not None and not self.b > 0:
            raise ValueError("oscillatory kinds need b > 0")
        if self.kernel == "pair_fermi" and not self.b > 0:
            raise ValueError("paired kernels need b > 0")
        if self.kernel != "unit" and not self.a > 0:
            raise ValueError("power-weighted kernels need a > 0")

    @property
    def paired(self) -> "IntegrandSpec":
        """The analytically cancelled counterpart (full period -> half period)."""
        if self.kernel != "fermi":
            raise ValueError(f"kernel {self.kernel!r} has no paired form")
        return IntegrandSpec("pair_fermi", self.trig, self.a, self.b)

    # ---- stable evaluation (vectorized; t > 0) ----

    def smooth_factor(self, t: np.ndarray) -> np.ndarray:
        """kernel(t) without its power t^(a-1): bounded near 0, decaying at
        infinity."""
        t = np.asarray(t, dtype=np.float64)
        k = self.kernel
        if k == "unit":
            return np.ones_like(t)
        if k == "fermi":
            e = np.exp(-t)
            return e / (1.0 + e)
        # pair_fermi: q(t) - lambda q(c t), c = e^(pi/b), lambda = e^(a pi/b);
        # numerator written with expm1 so the near-cancellation at large b
        # costs no precision
        apb = self.a * math.pi / self.b
        d = math.expm1(math.pi / self.b)          # c - 1
        lam_m1 = math.expm1(apb)
        e1 = np.exp(-t)
        e2 = np.exp(-(1.0 + d) * t)
        num = -e1 * (np.expm1(apb - d * t) + e2 * lam_m1)
        return num / ((1.0 + e1) * (1.0 + e2))


# ---------------------------------------------------------------------------
# Gauss rules: panel value from n=24, error estimate |G24 - G12|.

_RULE_HI = 24
_RULE_LO = 12
_gauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _gauss_cache:
        _gauss_cache[n] = leggauss(n)
    return _gauss_cache[n]


# ---------------------------------------------------------------------------
# The panel engine: one batch and one refinement loop for every contour.

_EPS = math.ulp(1.0)
_HEAD = 46.0            # the head remainder is below e^(-46)
_PHASE = 12.0           # change of the integrand's log per panel


def _panels(rate: float, decay: float, delta: float, log_pole: float,
            v_lo: float, v_hi: float, u0: float = 0.0, unit: float = 1.0,
            nodes: bool = False) -> np.ndarray:
    """Panel breakpoints on [v_lo, v_hi] of v = (u - u0) / unit, u = log r,
    r = |t|; with ``nodes`` no panel crosses an integer of v.

    Each panel keeps the change of the integrand's log under _PHASE (its
    rate in u is at most |s| + decay r) and its width under the distance,
    in the u plane, to the kernel's poles log(pole) + i delta, ...: the
    first pole for r < pole, the line of poles at distance delta beyond it.
    Panels the rule gets wrong are bisected by the G24/G12 test afterwards.
    """
    exp = math.exp

    # min and max spelled as comparisons: the builtins cost more than the
    # rest of the loop
    def step(x):
        u = u0 + unit * x
        phase = _PHASE / (rate + decay * exp(u))
        pole = 0.5 * (log_pole - u)
        if pole < delta:
            pole = delta
        return (phase if phase <= pole else pole) / unit

    x = v_lo
    whole = np.empty(0)
    if nodes and v_lo == math.floor(v_lo):
        # the step never grows along v, so from an integer start every panel
        # is [k, k + 1] up to the last k with step(k) >= 1 and k + 1 <= v_hi:
        # bisect for that k in the loop's own arithmetic, then emit the
        # stretch at once
        good, bad = v_lo - 1.0, float(math.floor(v_hi))
        while bad - good > 1.0:
            mid = float(math.floor(0.5 * (good + bad)))
            if step(mid) >= 1.0:
                good = mid
            else:
                bad = mid
        whole = np.arange(v_lo, good + 1.0)
        x = good + 1.0
    xs = [x]
    while x < v_hi:
        cap = math.floor(x) + 1.0 if nodes else v_hi
        x += step(x)
        if x > v_hi:
            x = v_hi
        if x > cap:
            x = cap
        xs.append(x)
    return np.concatenate((whole, xs))


def _panel_batch(integrand: Callable, lo: np.ndarray, hi: np.ndarray):
    """(G24 values, |G24 - G12|, rounding floors) of panels [lo, hi].

    ``integrand(lo, hi, x)`` takes the panels' ends as columns and the rule's
    nodes x on [-1, 1], and gives the values at the nodes and their absolute
    rounding in units of eps.  Raises :class:`QuadratureError` when any
    result is not finite: r^(s-1) overflows once r^a does (Re s beyond
    ~ 100), and bisecting such panels would never converge.
    """
    half = 0.5 * (hi - lo)
    xh, wh = _gauss(_RULE_HI)
    xl, wl = _gauss(_RULE_LO)
    with np.errstate(over="ignore", invalid="ignore"):
        fh, rounding = integrand(lo[:, None], hi[:, None], xh)
        fl, _ = integrand(lo[:, None], hi[:, None], xl)
        vh = half * (fh @ wh)
        vl = half * (fl @ wl)
        err = np.abs(vh - vl)
        noise = 2.0 * _EPS * half * (rounding @ wh)
    if not (np.isfinite(err).all() and np.isfinite(noise).all()):
        raise QuadratureError("panel values overflow")
    return vh, err, noise


def _integrate_panels(integrand: Callable, lo: np.ndarray, hi: np.ndarray,
                      head, cond: float):
    """(value, panel error, rounding floor): head plus the sum of the panels
    [lo, hi], refined.

    A panel is done when G24 and G12 agree to 64 times its own rounding
    floor or to its share of the whole floor; the others are bisected, at
    most _MAX_DEPTH times.  The floor adds cond eps |value|
    for the rounding of the sum and of the factors applied to it.  Raises
    :class:`QuadratureError`, carrying the value and its error, when the
    panel error stays above max(64 floor, _STALL_TOL |value|).
    """
    vals, errs, floors = _panel_batch(integrand, lo, hi)
    share = float(np.sum(floors)) / len(lo)
    kept = []
    for _ in range(_MAX_DEPTH):
        done = (errs <= 64.0 * floors) | (errs <= share)
        kept.append((lo[done], vals[done], errs[done], floors[done]))
        lo, hi = lo[~done], hi[~done]
        if not len(lo):
            break
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        vals, errs, floors = _panel_batch(integrand, lo, hi)
    else:
        kept.append((lo, vals, errs, floors))
    lo, vals, errs, floors = (np.concatenate(c) for c in zip(*kept))
    vals = vals[np.argsort(lo, kind="stable")]
    if np.iscomplexobj(vals):
        value = complex(math.fsum(vals.real), math.fsum(vals.imag)) + head
    else:
        value = math.fsum(vals) + head
    panel_err = float(np.sum(errs))
    noise = float(np.sum(floors)) + _EPS * cond * abs(value)
    if panel_err > max(64.0 * noise, _STALL_TOL * abs(value)):
        raise QuadratureError(
            f"panel error {panel_err:.3e} stalled above the rounding floor "
            f"{noise:.3e}", value=value, err_est=panel_err + noise)
    return value, panel_err, noise


def _upper_tail_bound(a: float, t_cut: float, extra: float = 1.0) -> float:
    """Analytic bound on extra int_T^inf t^(a-1) e^-t dt, T = t_cut, for a
    kernel below extra e^-t."""
    geo = (1.0 / (1.0 - max(a - 1.0, 0.0) / t_cut)
           if t_cut > 2.0 * abs(a - 1.0) + 1.0 else 2.0)
    return extra * geo * t_cut ** (a - 1.0) * math.exp(-t_cut)


# ---------------------------------------------------------------------------
# Whole half-line integrals on the rotated ray t = r e^(i theta).

_RAY_DELTA_MAX = 0.2    # tilt of the ray off the imaginary axis ...
_RAY_DELTA_B = 4.0      # ... capped at this / |b|: conditioning e^(delta |b|) <= e^4
_RAY_TAIL = 40.0        # the tail beyond the last panel is below e^(-40)


def _fermi_values(z):
    # with Re z >= 0, 1/(e^z + 1) = w/(1 + w), w = e^(-z), never overflows;
    # 1 + w cancels near a pole, by about |k(z)|
    w = np.exp(-z)
    g = w / (1.0 + w)
    return g, np.abs(g)


def _exp_values(z):
    return np.exp(-z), 0.0


def _bose_values(z):
    # 1 - e^(-z) by expm1, exact as z -> 0; near a pole 2 pi i m it cancels
    # the rounding of z, by about |z k(z)|
    g = np.exp(-z) / -np.expm1(-z)
    return g, np.abs(z * g)


@dataclass(frozen=True)
class _RayKernel:
    """A kernel k(z) of :func:`integrate_line`, analytic on Re z > 0.

    ``values(z)`` gives k(z) and the relative rounding of that evaluation,
    in units of eps, beyond the rounding of z itself.  For |z| <= 1,
    k(z) = c0 z^j0 + c1 z^(j0+1) + rest with |rest| <= |z|^p / head_div;
    the integral needs Re s > -j0.  Once Re z >= 1,
    |k(z)| <= tail_mul e^(-Re z).  The poles nearest the positive real axis
    lie at +-i pole (inf: none).
    """

    values: Callable
    j0: int
    c0: float
    c1: float
    p: float
    head_div: float
    tail_mul: float
    pole: float


_RAY_KERNELS = {
    # 1/(e^z + 1) = 1/2 - z/4 + z^3/48 - z^5/480 + ...: rest < 0.024 |z|^3
    "fermi": _RayKernel(_fermi_values, j0=0, c0=0.5, c1=-0.25, p=3.0,
                        head_div=40.0, tail_mul=2.0, pole=math.pi),
    # e^(-z) = 1 - z + rest, |rest| <= (e - 2) |z|^2 < |z|^2 / 1.39
    "exp": _RayKernel(_exp_values, j0=0, c0=1.0, c1=-1.0, p=2.0,
                      head_div=1.39, tail_mul=1.0, pole=math.inf),
    # 1/(e^z - 1) = 1/z - 1/2 + sum_n B_2n z^(2n-1) / (2n)!, and
    # sum_n |B_2n| / (2n)! = 1 - cot(1/2) / 2 < 1/11 bounds the rest by |z|/11
    "bose": _RayKernel(_bose_values, j0=-1, c0=1.0, c1=-0.5, p=1.0,
                       head_div=11.0, tail_mul=2.0, pole=2.0 * math.pi),
}


def _ray_integrand(kernel: _RayKernel, s: complex, rot: complex,
                   lo: np.ndarray, hi: np.ndarray, x: np.ndarray):
    """The integrand e^(s u) k(e^u rot) at u = mid + half x on panels
    [lo, hi] of u = log r, and its node-wise rounding: |f| times the
    relative rounding in units of eps of the phase b u and the argument
    r rot (each rounded relative to its size) and of the kernel itself."""
    u = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
    r = np.exp(u)
    g, cond = kernel.values(r * rot)
    f = np.exp(s * u) * g
    rel = 4.0 + abs(s) * np.abs(u) + r + cond
    return f, np.abs(f) * rel


def integrate_line(kernel: str, s: complex) -> tuple[complex, float]:
    """int_0^inf t^(s-1) k(t) dt and a bound on the modulus of its error,
    for k = ``fermi`` 1/(e^t + 1) or ``exp`` e^(-t) (Re s > 0), or ``bose``
    1/(e^t - 1) (Re s > 1).

    For b = Im s != 0 the ray has angle theta = pi/2 - delta with
    delta = min(0.2, 4/|b|), so the error scales with the integral itself;
    at b = 0 it is the real axis, and a real s gives an imaginary part of
    exactly 0.  The value at -b is the exact conjugate of the value at |b|.
    err is |e^(i theta s)| times the sum of the panel errors |G24 - G12|,
    the head remainder and tail bounds and the rounding floor.  Raises
    :class:`QuadratureError` when a panel stalls above its rounding floor
    (carrying the unrotated integral of :func:`_ray_integral`), or when a
    panel value or a bound is not finite.
    """
    integral, err, theta = _ray_integral(kernel, s)
    s = complex(s)
    b = abs(s.imag)
    value = cmath.exp(1j * theta * complex(s.real, b)) * integral
    # past b ~ 470 the scale underflows and the value rounds to 0; the
    # smallest subnormal then bounds the error of that rounding
    err = max(math.exp(-theta * b) * err, math.ulp(0.0))
    return (value.conjugate() if s.imag < 0 else value), err


def _ray_head(k: _RayKernel, s: complex,
              rot: complex) -> tuple[float, complex, float]:
    """(u_lo, head, bound): below rho = e^u_lo on the ray the kernel's first
    two series terms integrate in closed form to ``head``, and the rest
    leaves rho^p' / (head_div p') <= e^(-46)."""
    p = s.real + k.p
    u_lo = -_HEAD / p
    rho = math.exp(u_lo)
    j = k.j0
    head = (k.c0 * rot ** j * cmath.exp((s + j) * u_lo) / (s + j)
            + k.c1 * rot ** (j + 1) * cmath.exp((s + j + 1) * u_lo)
            / (s + j + 1))
    return u_lo, head, rho ** p / (k.head_div * p)


def _ray_integral(kernel: str, s: complex) -> tuple[complex, float, float]:
    """(I, err, theta): at s' = a + i|b| the integral of :func:`integrate_line`
    is e^(i theta s') I, and err bounds the error of I.  Callers dividing
    e^(-theta |b|) by a factor of like size do it in log form, where neither
    underflows."""
    if kernel not in _RAY_KERNELS:
        raise ValueError(f"unknown kernel {kernel!r} for the whole line")
    k = _RAY_KERNELS[kernel]
    s = complex(s)
    a, b = s.real, abs(s.imag)
    if not a > -k.j0:
        raise ValueError(f"the {kernel} integral needs Re s > {-k.j0}")
    delta = min(_RAY_DELTA_MAX, _RAY_DELTA_B / b) if b else 0.5 * math.pi
    theta = 0.5 * math.pi - delta
    sigma = math.sin(delta)          # Re of the ray's direction
    rot = complex(sigma, math.cos(delta) if b else 0.0)
    s = complex(a, b)
    u_lo, head, head_bound = _ray_head(k, s, rot)

    # tail: |k(z)| <= tail_mul e^(-sigma r) once sigma r >= 1, so beyond
    # r = X / sigma it is below tail_mul sigma^-a int_X^inf x^(a-1) e^-x dx
    x_top = _RAY_TAIL
    for _ in range(4):
        x_top = _RAY_TAIL + max(a - 1.0, 0.0) * math.log(x_top) \
            - a * math.log(sigma)
    try:
        tail_bound = k.tail_mul * sigma ** -a * _upper_tail_bound(a, x_top)
    except OverflowError:
        tail_bound = math.inf
    if not math.isfinite(tail_bound):
        raise QuadratureError(f"ray tail bound overflows at s = {s}")
    u_hi = math.log(x_top / sigma)

    xs = _panels(abs(s), 1.0, delta, math.log(k.pole), u_lo, u_hi)
    integral, panel_err, noise = _integrate_panels(
        lambda lo, hi, x: _ray_integrand(k, s, rot, lo, hi, x),
        xs[:-1], xs[1:], head, 4.0 + theta * b)
    return integral, panel_err + head_bound + tail_bound + noise, theta


# ---------------------------------------------------------------------------
# The fermi head int_0^R around the pole-free quarter disc |t| <= R.

def _arc_head(s: complex, R: float) -> tuple[complex, float]:
    """int_0^R t^(s-1) / (e^t + 1) dt for Re s > 0, Im s > 0 and
    0 < R < pi, and a bound on the modulus of its error.

    The disc |t| <= R holds no pole of the kernel k, so by Cauchy's theorem
    the real-axis head is the segment 0 -> iR minus the arc R -> iR:

        e^(i pi s/2) int_0^R y^(s-1) k(iy) dy
            - i R^s int_0^(pi/2) e^(i s phi) k(R e^(i phi)) dphi.

    On the arc t^(ib) is the plain decay e^(-b phi), so a few Gauss panels
    take it up to phi = min(pi/2, 46/b).  On the closed quarter disc
    |k| <= M = 1/(2 cos(R/2)), which bounds the arc beyond that by
    R^a M e^(-46)/b and the whole segment by e^(-pi b/2) R^a M / a.  The
    segment goes to the ray engine (rot = i) only where that bound reaches
    one rounding unit of the head's scale R^a/|s|, that is b below about
    30; otherwise the bound goes into err.  err also carries the panel
    errors and rounding floors of both pieces and the rounding of R^s,
    |s log R| eps relative.  Raises ValueError outside the stated range.
    """
    k = _RAY_KERNELS["fermi"]
    s = complex(s)
    a, b = s.real, s.imag
    if not 0.0 < R < k.pole:
        raise ValueError(f"the arc needs 0 < R < {k.pole:g}, got R = {R:g}")
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"the arc needs Re s > 0 and Im s > 0, got {s}")
    log_r = math.log(R)
    r_a = R ** a
    m = 0.5 / math.cos(0.5 * R)
    half_pi = 0.5 * math.pi
    top = min(half_pi, _HEAD / b)

    def arc(lo, hi, x):
        phi = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        g, cond = k.values(R * np.exp(1j * phi))
        f = np.exp(1j * s * phi) * g
        return f, np.abs(f) * (4.0 + abs(s) * phi + R + cond)

    # panels in phi: the integrand's log moves by at most |s| + R per unit
    # of phi, and the pole pi i sits at phi = pi/2 - i log(pi/R)
    xs = _panels(abs(s) + R, 0.0, math.log(k.pole / R), half_pi, 0.0, top)
    arc_val, arc_err, arc_noise = _integrate_panels(
        arc, xs[:-1], xs[1:], 0.0, 4.0 + abs(s * log_r))
    value = -1j * cmath.exp(s * log_r) * arc_val
    err = r_a * (arc_err + arc_noise)
    if top < half_pi:
        err += r_a * m * math.exp(-b * top) / b

    seg_bound = math.exp(-half_pi * b) * r_a * m / a
    if seg_bound <= _EPS * r_a / abs(s):
        return value, err + seg_bound
    u_lo, head, head_bound = _ray_head(k, s, 1j)
    xs = _panels(abs(s), 1.0, 0.0, math.log(k.pole), u_lo, log_r)
    seg, seg_err, seg_noise = _integrate_panels(
        lambda lo, hi, x: _ray_integrand(k, s, 1j, lo, hi, x),
        xs[:-1], xs[1:], head, 4.0 + half_pi * abs(s))
    scale = cmath.exp(0.5j * math.pi * s)
    return (value + scale * seg,
            err + abs(scale) * (seg_err + seg_noise + head_bound))


# ---------------------------------------------------------------------------
# Real-axis integrals, in the phase counted from a finite endpoint.

def _axis_integral(spec: IntegrandSpec, lo: float, hi: float,
                   paired: bool = False) -> tuple[float, float]:
    """int_lo^hi spec(t) dt for 0 < lo < hi <= inf: (value, err).

    The panels run in v = (u - u0) / unit, u = log t, from the anchor
    u0 = log lo, with unit = pi/b for the sine kinds and 1 otherwise.  The
    anchor's phase b u0 / pi is n0 + f0 with n0 an integer, so at
    v = k + off the sine is (-1)^(n0 + k) sin(pi (f0 + off)) from small
    numbers alone.  ``paired`` integrates the pair kernel on the even half
    periods [2j, 2j + 1] of v.
    """
    work = spec.paired if paired else spec
    osc = spec.trig is not None
    sr = 1.0 if spec.kernel == "unit" else spec.a       # Re s
    s = complex(sr, spec.b if osc else 0.0)
    unit = math.pi / spec.b if osc else 1.0
    u0 = math.log(lo)
    p0 = s.imag * u0 / math.pi
    n0 = round(p0)
    f0 = p0 - n0
    # the kernel is below tail_mul e^(-decay t); its poles nearest the real
    # axis lie at +-i pole
    decay, tail_mul, pole = 1.0, 1.0, math.pi
    if work.kernel == "pair_fermi":
        tail_mul = 1.0 + math.exp(spec.a * math.pi / spec.b)
        pole = math.pi * math.exp(-math.pi / spec.b)
    elif work.kernel == "unit":
        decay, pole = 0.0, math.inf

    tail_bound = 0.0
    if math.isinf(hi):
        top = max(TAIL_CUTOFF, 2.0 * lo)
        v_hi = math.log(top / lo) / unit
        if paired:
            v_hi = 2.0 * math.ceil(0.5 * v_hi)
        tail_bound = _upper_tail_bound(spec.a, lo * math.exp(unit * v_hi),
                                       tail_mul)
    else:
        v_hi = math.log(hi / lo) / unit

    # oscillatory panels stay inside half periods, where the node rounding
    # of the Gauss rule is not amplified by cancellation within a panel
    vs = _panels(abs(s), decay, 0.5 * math.pi, math.log(pole), 0.0, v_hi,
                 u0, unit, nodes=osc)
    lo_v, hi_v = vs[:-1], vs[1:]
    if paired:
        even = np.floor(lo_v) % 2.0 == 0.0
        lo_v, hi_v = lo_v[even], hi_v[even]

    def integrand(lo, hi, x):
        k = np.floor(lo)
        off = (lo - k) + 0.5 * (hi - lo) * (x + 1.0)
        u = u0 + unit * (k + off)
        t = np.exp(u)
        g = unit * np.exp(sr * u) * work.smooth_factor(t)
        # relative rounding of g: e^(sr u) and the kernel move with the
        # rounding of u, by at most sr + decay t per unit of u
        rel = 4.0 + (sr + decay * t) * (1.0 + abs(u0) + np.abs(u))
        if not osc:
            return g, np.abs(g) * rel
        phase = f0 + off                 # b u / pi = n0 + k + phase
        sign = 1.0 - 2.0 * ((n0 + k) % 2.0)
        return (g * sign * np.sin(math.pi * phase),
                np.abs(g) * (rel + 2.0 * math.pi * np.abs(phase)))

    value, panel_err, noise = _integrate_panels(integrand, lo_v, hi_v, 0.0,
                                                4.0)
    return value, panel_err + tail_bound + noise


# ---------------------------------------------------------------------------
# Public real-axis operations.

def integrate_finite(spec: IntegrandSpec, lo: float,
                     hi: float) -> tuple[float, float]:
    """Integral over [lo, hi], 0 < lo < hi < inf, with an error estimate.

    The error contract is |value - true| <= max(err_est, 1e-10 |value|)
    barring pathological integrands outside the declared family.  A head
    from 0 goes around the quarter disc instead
    (:func:`etazeros.series.lower_integral_by_quadrature`).  Raises
    :class:`QuadratureError` on non-convergence.
    """
    if not 0.0 < lo < hi < math.inf:
        raise ValueError("need 0 < lo < hi < inf (a head from 0 goes around "
                         "the arc: series.lower_integral_by_quadrature)")
    return _axis_integral(spec, lo, hi)


def integrate_to_infinity(spec: IntegrandSpec, lo: float, *,
                          paired: bool = False) -> tuple[float, float]:
    """Integral over [lo, infinity), truncated at t = max(TAIL_CUTOFF, 2 lo)
    with the analytic tail folded into the error estimate.

    ``paired=True`` sums the pair kernel over the half periods
    [lo c^(2j), lo c^(2j+1)], c = e^(pi/b), one per full period of the
    direct integrand; the pairing holds from any lo, and the paper takes
    lo = R on an even phase node.
    """
    if not lo > 0:
        raise ValueError("need lo > 0 (use integrate_line for [0, inf))")
    if spec.kernel == "unit":
        raise ValueError("bare sine carrier is not integrable to infinity")
    if paired and spec.trig is None:
        raise ValueError("paired form applies to oscillatory kinds only")
    return _axis_integral(spec, lo, math.inf, paired)
