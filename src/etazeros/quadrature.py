"""Quadrature for power-weighted decaying kernels: one engine, three contours.

Every integral here is int t^(s-1) k(t) dt over a range of t, taken in
u = log t as int e^(s u) k(e^u rot) du (on an arc, in its angle) on Gauss
panels.  One batch gives each panel's G24 value, its error |G24 - G12| and
its rounding floor; one loop bisects every panel whose error stands above
its floor.  On a ray from 0 the head below a small rho comes in closed form
from the kernel's first two Taylor terms, and beyond the last panel the
tail is bounded analytically.  Panel sums go through ``math.fsum``, which is
exactly rounded whatever the order of the panels, so results are
bit-reproducible.

The panels run on one of two executors.  The array executor evaluates a
whole level of panels at once with numpy, in chunks; the float executor
evaluates one panel at a time, its 36 nodes (G24's and G12's) in one call
of the integrand, with ``math`` and ``cmath``.  Both run the same integrand
formula, Gauss rules, done test, bisection budget, stall check and
exactly rounded sum; their values differ only by the rounding of numpy's
and libm's exp and sin and of the rule sums: by 2 ulp on verify's and
decompose's half periods, by up to ~100 ulp where t nears 700 and e^-t
amplifies the rounding of t, and by ~1e-15 relative on the ray (err covers
each).  A call whose integrals all run on floats never loads numpy, which
costs a fresh process 65-100 ms, so :func:`_run` picks the executor once per
integral, by the size of what is asked for at once, never by what happens
to be loaded: an integral, or a request, of at most _FLOAT_PANELS = 1024
initial panels runs on floats, a larger one on arrays.  A float panel takes
35-45 us on the ray and 30-45 us on the real axis (the paired kernel's the
most), against 2-5 us on arrays, so 1024 of them take about 35-45 ms, half
of what importing numpy costs.  That is one ray up to b ~ 300 (~4.5 |b|
panels), one paired tail up to b ~ 1890 (~0.54 b) and the arc's 3-5.  A
request (:func:`line_request`) holds rays and real-axis integrals together:
a caller that needs many of them, and so loads numpy anyway, runs them all
on arrays, not small integral after small integral on floats.

Each integral has a budget of _BISECT_PER_PANEL bisections per initial
panel plus _BISECT_EXTRA, shared by all its panels on either executor: a
panel that never passes the done test (a kernel outside the family, a bad
rule) raises :class:`QuadratureError` once the budget is spent, instead of
splitting into millions of panels.

The whole half-line integral F(s) of the fermi kernel k(t) = 1/(e^t + 1)
goes to :func:`integrate_line`, which runs on a ray rotated towards the
imaginary axis.  The kernel is analytic on Re t > 0 with its poles on the
imaginary axis, so by Cauchy's theorem

    int_0^inf t^(s-1) k(t) dt = e^(i theta s) int_0^inf r^(s-1) k(r e^(i theta)) dr

for 0 <= theta < pi/2.  With theta = pi/2 - delta the factor e^(-theta b)
comes out analytically, and what is left to quadrature is only about
e^(delta b) worse conditioned than the integral, which decays like
e^(-pi b / 2).  Gamma comes from Stirling's series and G from the bridge
identity (:mod:`etazeros.special`), so no other kernel takes the ray.

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
import contextlib
import contextvars
import functools
import itertools
import math
import operator
import sys
from collections import namedtuple
from collections.abc import Callable

from .errors import NonConvergenceError

__all__ = [
    "QuadratureError", "IntegrandSpec", "integrate_finite",
    "integrate_to_infinity", "integrate_line", "line_request", "unscale",
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
# Bisections one integral of N initial panels may make, over all its panels:
# 8 N + 256.  Every integral of the tests, verify --all and the CLI's edge
# calls (a from 1e-6 to 60, b up to 2e4) converges within N + 32; a panel
# that stalls spends the budget in 2 (8 N + 256) panel evaluations, where
# a per-panel depth of 24 let it split into 2^24 panels.
_BISECT_PER_PANEL = 8
_BISECT_EXTRA = 256
# Real-axis integrals of a decaying kernel stop at t = 60, where its mass is
# below e^-60, or past it at lo + min(lo, 60); the analytic tail bound beyond
# goes into err for any a.
TAIL_CUTOFF = 60.0

_KERNELS = ("fermi", "pair_fermi", "unit")
_LOG_MAX = math.log(sys.float_info.max)     # e^x is finite for x <= this
_UNDERFLOW = -math.log(math.ulp(0.0))       # e^-t is 0 or subnormal past it
_ULP0 = math.ulp(0.0)                       # the spacing of subnormals
_TINY = sys.float_info.min                  # the smallest normal float


class IntegrandSpec(namedtuple("IntegrandSpec", "kernel trig a b",
                               defaults=(None, 1.0, 0.0))):
    """One member of the integrand family  t^(a-1) * kernel(t) * trig(b log t)
    of the paper's real-axis pieces.

    kernel:
      ``fermi``       t^(a-1) / (e^t + 1)
      ``pair_fermi``  t^(a-1) (q(t) - e^(a pi/b) q(t e^(pi/b))),  q = 1/(e^t+1)
      ``unit``        1  (bare sine carrier; a ignored)
    trig: None or "sin" of (b log t).
    """

    __slots__ = ()

    def __new__(cls, kernel: str, trig: str | None = None, a: float = 1.0,
                b: float = 0.0):
        if kernel not in _KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}")
        if trig not in (None, "sin"):
            raise ValueError(f"unknown trig {trig!r}")
        if trig is not None and not b > 0:
            raise ValueError("oscillatory kinds need b > 0")
        if kernel == "pair_fermi" and not (b > 0 and math.pi / b <= _LOG_MAX):
            raise ValueError("paired kernels need b > 0 with e^(pi/b) in "
                             "the float range")
        if kernel != "unit" and not a > 0:
            raise ValueError("power-weighted kernels need a > 0")
        return super().__new__(cls, kernel, trig, a, b)

    @property
    def paired(self) -> "IntegrandSpec":
        """The analytically cancelled counterpart (full period -> half period)."""
        if self.kernel != "fermi":
            raise ValueError(f"kernel {self.kernel!r} has no paired form")
        return IntegrandSpec("pair_fermi", self.trig, self.a, self.b)

    # ---- stable evaluation (t > 0) ----

    def smooth(self, xp):
        """kernel(t) without its power t^(a-1), as a function of t with the
        kernel's constants computed once: bounded near 0, decaying at
        infinity.  ``xp`` is the namespace of t's arithmetic: ``math`` for a
        float, ``numpy`` for an array.  The unit kernel gives 1.0."""
        k = self.kernel
        if k == "unit":
            return lambda t: 1.0
        exp = xp.exp
        if k == "fermi":
            def fermi(t):
                e = exp(-t)
                return e / (1.0 + e)
            return fermi
        # pair_fermi: q(t) - lambda q(c t), c = e^(pi/b), lambda = e^(a pi/b);
        # numerator written with expm1 so the near-cancellation at large b
        # costs no precision
        expm1 = xp.expm1
        apb = self.a * math.pi / self.b
        d = math.expm1(math.pi / self.b)          # c - 1
        c = 1.0 + d
        lam_m1 = math.expm1(apb)

        def pair_fermi(t):
            e1 = exp(-t)
            e2 = exp(-c * t)
            num = -e1 * (expm1(apb - d * t) + e2 * lam_m1)
            return num / ((1.0 + e1) * (1.0 + e2))
        return pair_fermi


# ---------------------------------------------------------------------------
# Gauss rules: panel value from n=24, error estimate |G24 - G12|.

_RULE_HI = 24
_RULE_LO = 12

# The Gauss-Legendre rules on [-1, 1] are symmetric, so each is written as
# its positive nodes and their weights, (x, w) ascending in x, and mirrored.
# The digits are numpy's leggauss(n), which is exactly symmetric, printed to
# round-trip: the mirrored arrays are its arrays bit for bit, with no
# eigensolve, no numpy.polynomial and no dependence on the host's LAPACK.
_GAUSS_HALF = {
    24: ((0.06405689286260563, 0.12793819534675202),
         (0.1911188674736163, 0.12583745634682825),
         (0.3150426796961634, 0.1216704729278033),
         (0.4337935076260451, 0.11550566805372552),
         (0.5454214713888396, 0.10744427011596556),
         (0.6480936519369755, 0.09761865210411393),
         (0.7401241915785544, 0.0861901615319532),
         (0.820001985973903, 0.07334648141108016),
         (0.8864155270044011, 0.05929858491543636),
         (0.9382745520027328, 0.04427743881741941),
         (0.9747285559713095, 0.02853138862893356),
         (0.9951872199970213, 0.01234122979998869)),
    12: ((0.1252334085114689, 0.2491470458134027),
         (0.3678314989981802, 0.2334925365383546),
         (0.5873179542866175, 0.20316742672306573),
         (0.7699026741943047, 0.16007832854334642),
         (0.9041172563704748, 0.10693932599531907),
         (0.9815606342467192, 0.04717533638651141)),
}


def _mirror(half) -> tuple[tuple[float, ...], tuple[float, ...]]:
    x, w = zip(*half)
    return tuple(-v for v in reversed(x)) + x, tuple(reversed(w)) + w


# (nodes, weights) by rule size
_GAUSS = {n: _mirror(half) for n, half in _GAUSS_HALF.items()}


@functools.cache
def _gauss_arrays(n: int):
    """_GAUSS[n] as numpy arrays, for the array executor."""
    import numpy as np
    return tuple(np.array(c) for c in _GAUSS[n])


# ---------------------------------------------------------------------------
# The panel engine: breakpoints, the G24/G12 rule, the done test and the
# panel sum, shared by the array and the float executor.

_EPS = math.ulp(1.0)
_HEAD = 46.0            # the head remainder is below e^(-46)
_PHASE = 12.0           # change of the integrand's log per panel


def _panels(rate: float, decay: float, delta: float, log_pole: float,
            v_lo: float, v_hi: float, u0: float = 0.0, unit: float = 1.0,
            nodes: bool = False) -> list[float]:
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
    xs = []
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
        xs = [v_lo + j for j in range(int(good - v_lo) + 1)]
        x = good + 1.0
    xs.append(x)
    while x < v_hi:
        cap = math.floor(x) + 1.0 if nodes else v_hi
        x += step(x)
        if x > v_hi:
            x = v_hi
        if x > cap:
            x = cap
        xs.append(x)
    return xs


def _gauss(half, fh, fl, rounding, dot):
    """(G24 value, |G24 - G12|, rounding floor) of panels of half-width
    ``half`` from the values fh and fl at the two rules' nodes and the
    rounding at the G24 nodes; ``dot(f, n)`` sums f times rule n's weights.
    A subnormal value carries at least the spacing of subnormals, ulp(0.0),
    where eps times its size underflows.
    """
    vh = half * dot(fh, _RULE_HI)
    err = abs(vh - half * dot(fl, _RULE_LO))
    floor = 2.0 * _EPS * half * dot(rounding, _RULE_HI)
    return vh, err, floor + _ULP0 * (abs(vh) < _TINY)


def _done_test(floor_sum: float, count: int) -> Callable:
    """The test a panel passes when it is done: G24 and G12 agree to 64
    times its own rounding floor, or to its share of the floor of the
    ``count`` initial panels, whose floors sum to ``floor_sum``.  Takes
    floats or arrays."""
    share = floor_sum / count
    return lambda err, floor: (err <= 64.0 * floor) | (err <= share)


def _fsum(vals):
    """``math.fsum`` of real values, or of complex ones part by part, from a
    list or an array."""
    if not isinstance(vals[0], complex):
        return math.fsum(vals)
    if isinstance(vals, list):
        return complex(math.fsum([v.real for v in vals]),
                       math.fsum([v.imag for v in vals]))
    return complex(math.fsum(vals.real), math.fsum(vals.imag))


def _spent(vals, err: float, head) -> QuadratureError:
    """The error of an integral whose bisection budget is spent, carrying
    head plus its panels' values, done or not, and the sum of their errors
    and floors."""
    value = _fsum(vals) + head
    return QuadratureError(
        f"bisection budget spent with panel error {err:.3e} left",
        value=value, err_est=err)


def _total(vals, panel_err: float, floor_sum: float, head, cond: float):
    """(value, panel error, rounding floor) of head plus the done panels,
    from their values, summed by ``math.fsum`` (exactly rounded, so in any
    order), and the sums of their errors and floors.  The floor adds
    cond eps |value| for the rounding of the sum and of the factors applied
    to it.  Raises :class:`QuadratureError`, carrying the value and its
    error, when the panel error stays above max(64 floor,
    _STALL_TOL |value|)."""
    value = _fsum(vals) + head
    noise = floor_sum + _EPS * cond * abs(value)
    if panel_err > max(64.0 * noise, _STALL_TOL * abs(value)):
        raise QuadratureError(
            f"panel error {panel_err:.3e} stalled above the rounding floor "
            f"{noise:.3e}", value=value, err_est=panel_err + noise)
    return value, panel_err, noise


# ---- the array executor: a level of panels at once, with numpy ----------

# Panels per chunk of a batch: a complex temporary of 256 panels x 36 nodes is
# 144 KiB and stays in L2, and a batch's memory does not grow with its panel
# count (~ 4.5|b| panels on the ray).  The chunking changes no bit of any
# result: each weighted sum is a numpy reduction along one row, which sums
# that row on its own, whatever rows share its chunk.
_CHUNK = 256


def _array_dot(f, n):
    return (f * _gauss_arrays(n)[1]).sum(axis=-1)


def _panel_batch(integrand: Callable, lo, hi):
    """(G24 values, |G24 - G12|, rounding floors) of panels [lo, hi], in
    chunks of _CHUNK panels.

    ``integrand(lo, hi, x)`` takes the panels' ends as columns and the row x
    of both rules' nodes on [-1, 1], G24's first, and gives the values at
    the nodes and their absolute rounding in units of eps.  Raises
    :class:`QuadratureError` when any result is not finite: r^(s-1)
    overflows once r^a does (Re s beyond ~ 100), and bisecting such panels
    would never converge.
    """
    import numpy as np
    n = _RULE_HI
    x = np.concatenate((_gauss_arrays(n)[0], _gauss_arrays(_RULE_LO)[0]))
    parts = []
    for start in range(0, len(lo), _CHUNK):
        c_lo, c_hi = lo[start:start + _CHUNK], hi[start:start + _CHUNK]
        with np.errstate(over="ignore", invalid="ignore"):
            f, rounding = integrand(c_lo[:, None], c_hi[:, None], x)
            vh, err, noise = _gauss(0.5 * (c_hi - c_lo), f[:, :n], f[:, n:],
                                    rounding[:, :n], _array_dot)
        if not (np.isfinite(err).all() and np.isfinite(noise).all()):
            raise QuadratureError("panel values overflow")
        parts.append((vh, err, noise))
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(c) for c in zip(*parts))


def _integrate_panels(integrand: Callable, lo, hi, head, cond: float):
    """(value, panel error, rounding floor): head plus the sum of the panels
    [lo, hi], refined on the array executor.

    Every panel that fails the done test is bisected, within the integral's
    budget of bisections; :func:`_total` sums the done ones.  Raises
    :class:`QuadratureError`, carrying the value and err in hand, once the
    budget is spent.
    """
    import numpy as np
    lo, hi = np.asarray(lo), np.asarray(hi)
    vals, errs, floors = _panel_batch(integrand, lo, hi)
    is_done = _done_test(float(np.sum(floors)), len(lo))
    budget = _BISECT_PER_PANEL * len(lo) + _BISECT_EXTRA
    kept = []
    while True:
        done = is_done(errs, floors)
        kept.append((vals[done], errs[done], floors[done]))
        todo = ~done
        lo, hi = lo[todo], hi[todo]
        if not len(lo):
            break
        budget -= len(lo)
        if budget < 0:
            kept.append((vals[todo], errs[todo], floors[todo]))
            vals, errs, floors = (np.concatenate(c) for c in zip(*kept))
            raise _spent(vals, float(np.sum(errs) + np.sum(floors)), head)
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        vals, errs, floors = _panel_batch(integrand, lo, hi)
    vals, errs, floors = (np.concatenate(c) for c in zip(*kept))
    return _total(vals, float(np.sum(errs)), float(np.sum(floors)), head,
                  cond)


# ---- the float executor: one panel at a time, with math and cmath -------

# An integral, or a request, of at most this many initial panels runs on
# the float executor (see the module docstring).  On the critical line that
# is one ray up to b ~ 300, or the 12 certificate rays of a zeros window up
# to b ~ 41; on the real axis, one paired tail up to b ~ 1890.
_FLOAT_PANELS = 1024


def _float_dot(f, n):
    # complex values (the ray's) in one left-to-right sum, which the rounding
    # floor covers; real ones exactly rounded
    w = _GAUSS[n][1]
    if isinstance(f[0], complex):
        return sum(map(operator.mul, f, w))
    return math.fsum(map(operator.mul, f, w))


def _float_panel(integrand: Callable, lo: float, hi: float, nodes):
    """(lo, hi, G24 value, |G24 - G12|, rounding floor) of the panel
    [lo, hi], with one call ``integrand(lo, hi, nodes)`` for the values and
    rounding at both rules' nodes, G24's first.  Raises
    :class:`QuadratureError` where :func:`_panel_batch` does; math's
    OverflowError is that same overflow."""
    try:
        f, rounding = integrand(lo, hi, nodes)
    except OverflowError:
        raise QuadratureError("panel values overflow") from None
    n = _RULE_HI
    vh, err, noise = _gauss(0.5 * (hi - lo), f[:n], f[n:], rounding[:n],
                            _float_dot)
    if not (math.isfinite(err) and math.isfinite(noise)):
        raise QuadratureError("panel values overflow")
    return lo, hi, vh, err, noise


def _integrate_floats(integrand: Callable, lo, hi, head, cond: float):
    """:func:`_integrate_panels` on the float executor: real or complex
    values, one panel at a time."""
    nodes = tuple(_GAUSS[_RULE_HI][0]) + tuple(_GAUSS[_RULE_LO][0])
    level = [_float_panel(integrand, a, b, nodes) for a, b in zip(lo, hi)]
    is_done = _done_test(math.fsum(p[4] for p in level), len(level))
    budget = _BISECT_PER_PANEL * len(level) + _BISECT_EXTRA
    kept = []
    while True:
        todo = []
        for panel in level:
            (kept if is_done(*panel[3:]) else todo).append(panel)
        if not todo:
            break
        budget -= len(todo)
        if budget < 0:
            kept += todo
            raise _spent([p[2] for p in kept],
                         math.fsum(p[3] + p[4] for p in kept), head)
        level = [_float_panel(integrand, *ends, nodes) for a, b, *_ in todo
                 for ends in ((a, 0.5 * (a + b)), (0.5 * (a + b), b))]
    return _total([p[2] for p in kept], math.fsum(p[3] for p in kept),
                  math.fsum(p[4] for p in kept), head, cond)


def _run(panels: int) -> Callable:
    """The executor of an integral, or a request, of ``panels`` initial
    panels: floats up to _FLOAT_PANELS, arrays beyond."""
    return _integrate_floats if panels <= _FLOAT_PANELS else _integrate_panels


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


# The fermi kernel k(z) = 1/(e^z + 1) is analytic on Re z > 0.  For |z| <= 1
# it is 1/2 - z/4 + z^3/48 - z^5/480 + ... = c0 + c1 z + rest with
# |rest| <= |z|^3 / 40; once Re z >= 1, |k(z)| <= 2 e^(-Re z); its poles
# nearest the positive real axis lie at +-i pi.
_HEAD_C0, _HEAD_C1 = 0.5, -0.25
_HEAD_P, _HEAD_DIV = 3.0, 40.0
_TAIL_MUL = 2.0
_POLE = math.pi


def _ray_values(s: complex, rot: complex, u, exp, cexp):
    """The integrand e^(s u) k(e^u rot) at u = log r, and its rounding: |f|
    times the relative rounding in units of eps of the phase b u and the
    argument r rot (each rounded relative to its size) and of the kernel
    itself.  ``exp`` and ``cexp`` are the real and the complex exponential
    of u's arithmetic: one formula for a float and for an array."""
    # with Re z >= 0, k(z) = 1/(e^z + 1) = w/(1 + w), w = e^(-z), never
    # overflows; 1 + w cancels near a pole, by about |k(z)|
    r = exp(u)
    w = cexp(-(r * rot))
    g = w / (1.0 + w)
    f = cexp(s * u) * g
    return f, abs(f) * (4.0 + abs(s) * abs(u) + r + abs(g))


def _arc_values(s: complex, R: float, phi, exp, cexp):
    """:func:`_ray_values` on the arc t = R e^(i phi): the integrand
    e^(i s phi) k(R e^(i phi)) at phi, t^s without its factor R^s, and its
    rounding.  ``exp`` goes unused: the arc's arithmetic is all complex."""
    w = cexp(-(R * cexp(1j * phi)))
    g = w / (1.0 + w)
    f = cexp(1j * s * phi) * g
    return f, abs(f) * (4.0 + abs(s) * phi + R + abs(g))


def _ray_integrand(values: Callable, s: complex, rot, lo, hi, x):
    """``values(s, rot, v, exp, cexp)``, :func:`_ray_values` or
    :func:`_arc_values`, at v = mid + half x on panels [lo, hi] of v: on
    arrays for the panels' ends as columns and a row of nodes x, or on one
    float panel for its tuple of nodes."""
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    if isinstance(x, tuple):
        return zip(*[values(s, rot, mid + half * t, math.exp, cmath.exp)
                     for t in x])
    import numpy as np
    return values(s, rot, mid + half * x, np.exp, np.exp)


def integrate_line(s: complex, scaled: bool = False):
    """F(s) = int_0^inf t^(s-1) / (e^t + 1) dt for Re s > 0, and a bound on
    the modulus of its error.

    For b = Im s != 0 the ray has angle theta = pi/2 - delta with
    delta = min(0.2, 4/|b|), so the error scales with the integral itself;
    at b = 0 it is the real axis, and a real s gives an imaginary part of
    exactly 0.  The value at -b is the exact conjugate of the value at |b|.
    err is |e^(i theta s)| times the sum of the panel errors |G24 - G12|,
    the head remainder and tail bounds and the rounding floor.  Raises
    :class:`QuadratureError` when a panel stalls above its rounding floor
    (carrying the unrotated integral of :func:`_ray_integral`), or when a
    panel value or a bound is not finite.  With ``scaled`` it returns
    (I, err_I, log_scale), F = exp(log_scale) I with log_scale =
    i theta (a + i|b|), both conjugated at -b: |I| stays O(1) where F
    underflows.
    """
    integral, err, theta = _ray_integral(s)
    s = complex(s)
    log_scale = 1j * theta * complex(s.real, abs(s.imag))
    if s.imag < 0:
        integral, log_scale = integral.conjugate(), log_scale.conjugate()
    if scaled:
        return integral, err, log_scale
    return unscale(integral, err, log_scale)


def unscale(integral, err, log_scale) -> tuple[complex, float]:
    """(F, err) from the (I, err_I, log_scale) of :func:`integrate_line`;
    at -b (Im log_scale < 0) the exact conjugate of the value at |b|."""
    if log_scale.imag < 0:
        f, f_err = unscale(integral.conjugate(), err, log_scale.conjugate())
        return f.conjugate(), f_err
    # past b ~ 470 the scale underflows and the value rounds to 0; the
    # smallest subnormal then bounds the error of that rounding
    return (cmath.exp(log_scale) * integral,
            max(math.exp(log_scale.real) * err, math.ulp(0.0)))


def _ray_head(s: complex, rot: complex) -> tuple[float, complex, float]:
    """(u_lo, head, bound): below rho = e^u_lo on the ray the kernel's first
    two series terms integrate in closed form to ``head``, and the rest
    leaves rho^p / (40 p) <= e^(-46), p = Re s + 3."""
    p = s.real + _HEAD_P
    u_lo = -_HEAD / p
    rho = math.exp(u_lo)
    head = (_HEAD_C0 * cmath.exp(s * u_lo) / s
            + _HEAD_C1 * rot * cmath.exp((s + 1) * u_lo) / (s + 1))
    return u_lo, head, rho ** p / (_HEAD_DIV * p)


def _ray(s):
    """(s', rot, theta, head, head bound, tail bound, xs) of the ray of
    :func:`integrate_line` at s: s' = a + i|b|, the ray's direction rot and
    angle theta, the closed-form head below the first panel, the bounds on
    the head's remainder and on the tail beyond the last panel, and the
    breakpoints xs, in u = log r, of its initial panels."""
    s = complex(s)
    a, b = s.real, abs(s.imag)
    if not (a > 0 and cmath.isfinite(s)):
        raise ValueError("the fermi integral needs a finite s with Re s > 0")
    delta = min(_RAY_DELTA_MAX, _RAY_DELTA_B / b) if b else 0.5 * math.pi
    theta = 0.5 * math.pi - delta
    sigma = math.sin(delta)          # Re of the ray's direction
    rot = complex(sigma, math.cos(delta) if b else 0.0)
    s = complex(a, b)
    u_lo, head, head_bound = _ray_head(s, rot)

    # tail: |k(z)| <= 2 e^(-sigma r) once sigma r >= 1, so beyond
    # r = X / sigma it is below 2 sigma^-a int_X^inf x^(a-1) e^-x dx
    x_top = _RAY_TAIL
    for _ in range(4):
        x_top = _RAY_TAIL + max(a - 1.0, 0.0) * math.log(x_top) \
            - a * math.log(sigma)
    try:
        tail_bound = _TAIL_MUL * sigma ** -a * _upper_tail_bound(a, x_top)
    except OverflowError:
        tail_bound = math.inf
    if not math.isfinite(tail_bound):
        raise QuadratureError(f"ray tail bound overflows at s = {s}")
    xs = _panels(abs(s), 1.0, delta, math.log(_POLE), u_lo,
                 math.log(x_top / sigma))
    return s, rot, theta, head, head_bound, tail_bound, xs


# The executor of the innermost open line_request; None outside one.
_REQUEST = contextvars.ContextVar("request", default=None)


@contextlib.contextmanager
def line_request(points=(), axes=()):
    """Evaluate :func:`integrate_line` at ``points`` and the real-axis
    integrals ``axes``, each (spec, lo, hi, paired) with hi = inf for
    :func:`integrate_to_infinity`, as one request: inside the block every
    ray and real-axis integral runs on the executor that :func:`_run` picks
    for all of them together, so a caller that needs many integrals, and
    loads numpy for them anyway, does not run small integral after small
    integral on floats.  Raises what the integrals would."""
    sizes = itertools.chain((len(_ray(s)[-1]) - 1 for s in points),
                            (len(_axis(*item)[0]) for item in axes))
    panels = 0
    for size in sizes:
        panels += size
        if panels > _FLOAT_PANELS:
            break
    token = _REQUEST.set(_run(panels))
    try:
        yield
    finally:
        _REQUEST.reset(token)


def _ray_integral(s: complex) -> tuple[complex, float, float]:
    """(I, err, theta): at s' = a + i|b| the integral of :func:`integrate_line`
    is e^(i theta s') I, and err bounds the error of I.  Callers dividing
    e^(-theta |b|) by a factor of like size do it in log form, where neither
    underflows.  It runs on the open request's executor or, outside one, on
    the one for this ray alone."""
    s, rot, theta, head, head_bound, tail_bound, xs = _ray(s)
    run = _REQUEST.get() or _run(len(xs) - 1)
    if run is _integrate_panels:
        # an array at once: the ~4.5|b| breakpoints as float objects would
        # outlive the batch
        import numpy as np
        xs = np.asarray(xs)
    integral, panel_err, noise = run(
        lambda lo, hi, x: _ray_integrand(_ray_values, s, rot, lo, hi, x),
        xs[:-1], xs[1:], head, 4.0 + theta * s.imag)
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
    s = complex(s)
    a, b = s.real, s.imag
    if not 0.0 < R < _POLE:
        raise ValueError(f"the arc needs 0 < R < {_POLE:g}, got R = {R:g}")
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"the arc needs Re s > 0 and Im s > 0, got {s}")
    log_r = math.log(R)
    r_a = R ** a
    m = 0.5 / math.cos(0.5 * R)
    half_pi = 0.5 * math.pi
    top = min(half_pi, _HEAD / b)

    # panels in phi: the integrand's log moves by at most |s| + R per unit
    # of phi, and the pole pi i sits at phi = pi/2 - i log(pi/R)
    xs = _panels(abs(s) + R, 0.0, math.log(_POLE / R), half_pi, 0.0, top)
    arc_val, arc_err, arc_noise = _run(len(xs) - 1)(
        lambda lo, hi, x: _ray_integrand(_arc_values, s, R, lo, hi, x),
        xs[:-1], xs[1:], 0.0, 4.0 + abs(s * log_r))
    value = -1j * cmath.exp(s * log_r) * arc_val
    err = r_a * (arc_err + arc_noise)
    if top < half_pi:
        err += r_a * m * math.exp(-b * top) / b

    seg_bound = math.exp(-half_pi * b) * r_a * m / a
    if seg_bound <= _EPS * r_a / abs(s):
        return value, err + seg_bound
    u_lo, head, head_bound = _ray_head(s, 1j)
    xs = _panels(abs(s), 1.0, 0.0, math.log(_POLE), u_lo, log_r)
    seg, seg_err, seg_noise = _run(len(xs) - 1)(
        lambda lo, hi, x: _ray_integrand(_ray_values, s, 1j, lo, hi, x),
        xs[:-1], xs[1:], head, 4.0 + half_pi * abs(s))
    scale = cmath.exp(0.5j * math.pi * s)
    return (value + scale * seg,
            err + abs(scale) * (seg_err + seg_noise + head_bound))


# ---------------------------------------------------------------------------
# Real-axis integrals, in the phase counted from a finite endpoint.

def _axis(spec: IntegrandSpec, lo: float, hi: float, paired: bool = False):
    """The set-up of int_lo^hi spec(t) dt for 0 < lo < hi <= inf: (lo_v,
    hi_v, tail bound, integrand), its initial panels [lo_v, hi_v] (none when
    e^-t underflows from lo on), the bound on the rest beyond them, and
    ``integrand(xp)``, the panels' integrand in the arithmetic of ``xp``,
    ``math`` or ``numpy``.

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

    # a decaying kernel is cut at max(60, lo + min(lo, 60)), with the bound
    # on the rest in err, so a finite range costs no more panels than an
    # infinite one; past t ~ 744 e^-t underflows and only the bound is left
    top, tail_bound = hi, 0.0
    if decay:
        if lo > _UNDERFLOW:
            return (), (), _upper_tail_bound(spec.a, lo, tail_mul), None
        top = min(hi, max(TAIL_CUTOFF, lo + min(lo, TAIL_CUTOFF)))
    v_hi = math.log(top / lo) / unit
    if paired:
        v_hi = 2.0 * math.ceil(0.5 * v_hi)
    if top < hi:
        tail_bound = _upper_tail_bound(spec.a, lo * math.exp(unit * v_hi),
                                       tail_mul)

    # oscillatory panels stay inside half periods, where the node rounding
    # of the Gauss rule is not amplified by cancellation within a panel
    vs = _panels(abs(s), decay, 0.5 * math.pi, math.log(pole), 0.0, v_hi,
                 u0, unit, nodes=osc)
    lo_v, hi_v = vs[:-1], vs[1:]
    if paired:
        lo_v, hi_v = zip(*[(a, b) for a, b in zip(lo_v, hi_v)
                           if math.floor(a) % 2 == 0])
    grow = 1.0 + abs(u0)

    def integrand(xp):
        # one formula: a float offset with math, or a block of them with
        # numpy
        exp, sin, floor = xp.exp, xp.sin, xp.floor
        smooth = work.smooth(xp)

        def values(k, sign, off):
            u = u0 + unit * (k + off)
            t = exp(u)
            g = unit * exp(sr * u) * smooth(t)
            # relative rounding of g: e^(sr u) and the kernel move with the
            # rounding of u, by at most sr + decay t per unit of u
            rel = 4.0 + (sr + decay * t) * (grow + abs(u))
            if not osc:
                return g, abs(g) * rel
            phase = f0 + off                 # b u / pi = n0 + k + phase
            return (g * sign * sin(math.pi * phase),
                    abs(g) * (rel + 2.0 * math.pi * abs(phase)))

        def panels(lo, hi, x):
            # nodes at v = k + off, offsets from the panel's integer floor
            # k, where the sine's sign is (-1)^(n0 + k)
            k = floor(lo)
            sign = 1.0 - 2.0 * ((n0 + k) % 2.0)
            base, half = lo - k, 0.5 * (hi - lo)
            if xp is math:      # one panel, its tuple of nodes
                return zip(*[values(k, sign, base + half * (t + 1.0))
                             for t in x])
            return values(k, sign, base + half * (x + 1.0))
        return panels

    return lo_v, hi_v, tail_bound, integrand


def _axis_integral(spec: IntegrandSpec, lo: float, hi: float,
                   paired: bool = False) -> tuple[float, float]:
    """int_lo^hi spec(t) dt for 0 < lo < hi <= inf: (value, err), set up by
    :func:`_axis`.  It runs on the open request's executor or, outside one,
    on the one for this integral alone."""
    lo_v, hi_v, tail_bound, integrand = _axis(spec, lo, hi, paired)
    if not lo_v:
        return 0.0, tail_bound
    run = _REQUEST.get() or _run(len(lo_v))
    if run is _integrate_floats:
        xp = math
    else:
        import numpy as xp
    value, panel_err, noise = run(integrand(xp), lo_v, hi_v, 0.0, 4.0)
    return value, panel_err + tail_bound + noise


# ---------------------------------------------------------------------------
# Public real-axis operations.

def integrate_finite(spec: IntegrandSpec, lo: float,
                     hi: float) -> tuple[float, float]:
    """Integral over [lo, hi], 0 < lo < hi < inf, with an error estimate.

    A decaying kernel is cut where :func:`integrate_to_infinity` cuts it,
    when hi lies beyond, with the analytic tail in the error.  The error
    contract is |value - true| <= max(err_est, 1e-10 |value|)
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
    """Integral over [lo, infinity), truncated at
    t = max(TAIL_CUTOFF, lo + min(lo, TAIL_CUTOFF)) with the analytic tail
    folded into the error estimate.

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
