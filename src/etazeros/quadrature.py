"""Quadrature for power-weighted decaying kernels, by two engines.

Whole half-line integrals int_0^inf t^(s-1) k(t) dt of the fermi, exp and
bose kernels (F, gamma and G of :mod:`etazeros.special`) go to
:func:`integrate_line`, which integrates on a ray rotated towards the
imaginary axis.  Each kernel is analytic on Re t > 0 with its poles on the
imaginary axis, so by Cauchy's theorem

    int_0^inf t^(s-1) k(t) dt = e^(i theta s) int_0^inf r^(s-1) k(r e^(i theta)) dr

for 0 <= theta < pi/2.  With theta = pi/2 - delta the factor e^(-theta b)
comes out analytically, and what is left to quadrature is only about
e^(delta b) worse conditioned than the integral, which decays like
e^(-pi b / 2).  Gauss panels run in u = log r; the head near r = 0 and the
tail are taken analytically.

The paper's real-axis pieces (head integrals to R, paired tails, half
periods) go to :func:`integrate_finite` and :func:`integrate_to_infinity`:

* an integrable endpoint singularity t^(a-1) at t = 0, removed exactly by the
  substitution t = u^(1/alpha) on [0, min(1, hi)] for non-oscillatory kinds,
  and graded away geometrically by node-aligned panels for oscillatory kinds;

* log-periodic oscillation sin(b log t) / cos(b log t), integrated on panels
  whose endpoints are the phase nodes t_k = exp(k pi / b).  Panels are
  parameterized by the phase variable phi = b log t, so the trig factor is
  evaluated at exact multiples of pi plus a local offset and never picks up
  phase error of size b * ulp(log t).

Oscillatory tails admit a second, analytically cancelled form: the integral
of the fermi kernel over a full period [t_2k, t_2k+2] equals the integral of
the paired difference kernel

    h(t, a, b) = t^(a-1) (q(t) - e^(a pi/b) q(t e^(pi/b))),    q = 1/(e^t + 1)

over the half period [t_2k, t_2k+1].  ``integrate_to_infinity(paired=True)``
selects that form.  It is what keeps the absolute rounding noise near
machine scale when the half-waves of each period cancel almost exactly,
which for this family they do, to a factor ~ e^(-pi b / 2).

Panel sums are compensated (Kahan or fsum) and accumulated in ascending panel
order, so results are bit-reproducible at fixed settings.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadratureError", "QuadratureSpec", "IntegrandSpec",
    "eval_integrand", "integrate_finite", "integrate_to_infinity",
    "integrate_line",
]


class QuadratureError(RuntimeError):
    """An integral did not converge to the requested tolerance.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message: str, value: float | None = None,
                 err_est: float | None = None):
        super().__init__(message)
        self.value = value
        self.err_est = err_est


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and truncation policy shared by all integral evaluations."""

    target_tol: float = 1e-10          # relative
    max_refinement_depth: int = 24
    truncation_margin: float = 5.0     # extra e-foldings beyond the tail target

    def __post_init__(self):
        if self.target_tol < 1e-14:
            raise ValueError("target_tol below the binary64 floor 1e-14")
        if not 0 < self.max_refinement_depth <= 30:
            raise ValueError("max_refinement_depth must be in (0, 30]")

    def truncation_point(self, a: float, tol: float) -> float:
        """Upper cutoff T whose analytic tail int_T^inf t^(a-1) e^-t dt is
        below ``tol``: solves t - (a-1) log t = -log(tol) + margin, floored
        at 60 (kernel mass e^-60 is negligible at every supported tolerance).
        """
        tol = max(tol, 1e-300)
        rhs = -math.log(tol) + self.truncation_margin
        t = max(rhs, 2.0)
        for _ in range(4):
            t = max(2.0, rhs + (a - 1.0) * math.log(t))
        return max(60.0, t)


DEFAULT_SPEC = QuadratureSpec()

_KERNELS = ("fermi", "pair_fermi", "exp", "unit")
_TRIGS = (None, "sin", "cos")


@dataclass(frozen=True)
class IntegrandSpec:
    """One member of the integrand family  t^(a-1) * kernel(t) * trig(b log t).

    kernel:
      ``fermi``       t^(a-1) / (e^(scale * t) + 1)
      ``pair_fermi``  t^(a-1) (q(t) - e^(a pi/b) q(t e^(pi/b))),  q = 1/(e^t+1)
      ``exp``         t^(a-1) e^(-t)
      ``unit``        1  (bare trig carrier; a ignored)
    trig: None, "sin", or "cos" of (b log t).
    """

    kernel: str
    trig: str | None = None
    a: float = 1.0
    b: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kernel not in _KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.trig not in _TRIGS:
            raise ValueError(f"unknown trig {self.trig!r}")
        if self.trig is not None and not self.b > 0:
            raise ValueError("oscillatory kinds need b > 0")
        if self.kernel == "pair_fermi" and not self.b > 0:
            raise ValueError("paired kernels need b > 0")
        if self.kernel != "unit" and not self.a > 0:
            raise ValueError("power-weighted kernels need a > 0")
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    @property
    def singular_exponent(self) -> float | None:
        """alpha with integrand ~ t^(alpha-1) * bounded near 0 (None: regular)."""
        if self.kernel == "unit":
            return None
        return self.a

    @property
    def paired(self) -> "IntegrandSpec":
        """The analytically cancelled counterpart (full period -> half period)."""
        if self.kernel == "pair_fermi":
            return self
        if self.kernel != "fermi":
            raise ValueError(f"kernel {self.kernel!r} has no paired form")
        if self.scale != 1.0:
            raise ValueError("paired form defined only at scale 1")
        return IntegrandSpec("pair_fermi", self.trig, self.a, self.b)

    # ---- stable evaluation (vectorized; t > 0) ----

    def smooth_factor(self, t: np.ndarray) -> np.ndarray:
        """kernel(t) / t^(alpha-1): bounded near 0, decaying at infinity."""
        t = np.asarray(t, dtype=np.float64)
        k = self.kernel
        if k == "unit":
            return np.ones_like(t)
        if k == "fermi":
            e = np.exp(-self.scale * t)
            return e / (1.0 + e)
        if k == "exp":
            return np.exp(-t)
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

    def kernel_values(self, t: np.ndarray) -> np.ndarray:
        """t^(a-1) * kernel(t), without the trig factor."""
        t = np.asarray(t, dtype=np.float64)
        alpha = self.singular_exponent
        if alpha is None:
            return self.smooth_factor(t)
        return t ** (alpha - 1.0) * self.smooth_factor(t)

    def trig_values(self, t: np.ndarray) -> np.ndarray:
        if self.trig is None:
            return np.ones_like(np.asarray(t, dtype=np.float64))
        phase = self.b * np.log(t)
        return np.sin(phase) if self.trig == "sin" else np.cos(phase)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return self.kernel_values(t) * self.trig_values(t)


def eval_integrand(spec: IntegrandSpec, t):
    """Integrand value(s) at t > 0 (t = 0 allowed where the limit exists)."""
    scalar = np.isscalar(t)
    arr = np.asarray(t, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("integrand domain is t >= 0")
    if np.any(arr == 0):
        alpha = spec.singular_exponent
        limit_exists = (spec.trig is None
                        and (alpha is None or alpha >= 1.0))
        if not limit_exists:
            raise ValueError("t = 0 is outside the domain for this kind")
        safe = np.where(arr == 0.0, 1.0, arr)
        vals = spec(safe)
        at0 = {"fermi": 0.5 if spec.a == 1.0 else 0.0,
               "exp": 1.0 if spec.a == 1.0 else 0.0,
               "unit": 1.0}.get(spec.kernel, 0.0)
        if alpha is not None and alpha > 1.0:
            at0 = 0.0
        out = np.where(arr == 0.0, at0, vals)
        return float(out) if scalar else out
    out = spec(arr)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# Gauss rules: panel value from n=24, error estimate |G24 - G12|.

_RULE_HI = 24
_RULE_LO = 12
_gauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _gauss_cache:
        _gauss_cache[n] = leggauss(n)
    return _gauss_cache[n]


def _kahan_sum(values) -> float:
    total = 0.0
    comp = 0.0
    for v in values:
        y = float(v) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


# ---------------------------------------------------------------------------
# Adaptive integration of a smooth vectorized function on [lo, hi].

def _gauss_segment(f, lo: float, hi: float) -> tuple[float, float]:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xh, wh = _gauss(_RULE_HI)
    xl, wl = _gauss(_RULE_LO)
    vh = half * float(np.dot(wh, f(mid + half * xh)))
    vl = half * float(np.dot(wl, f(mid + half * xl)))
    return vh, abs(vh - vl)


def _adaptive(f, lo: float, hi: float, q: QuadratureSpec,
              abs_tol: float) -> tuple[float, float]:
    segs = [(lo, hi, 0, *_gauss_segment(f, lo, hi))]
    while True:
        total_err = sum(s[4] for s in segs)
        total_val = sum(abs(s[3]) for s in segs)
        budget = max(abs_tol, q.target_tol * total_val)
        if total_err <= budget:
            break
        worst = max(range(len(segs)), key=lambda i: (segs[i][4], -segs[i][0]))
        s_lo, s_hi, depth, _v, _e = segs[worst]
        if depth >= q.max_refinement_depth:
            segs.sort()
            value = _kahan_sum([s[3] for s in segs])
            raise QuadratureError(
                f"no convergence at depth {depth}: err {total_err:.3e} > "
                f"budget {budget:.3e}", value=value, err_est=total_err)
        mid = 0.5 * (s_lo + s_hi)
        segs[worst] = (s_lo, mid, depth + 1, *_gauss_segment(f, s_lo, mid))
        segs.append((mid, s_hi, depth + 1, *_gauss_segment(f, mid, s_hi)))
    segs.sort()
    value = _kahan_sum([s[3] for s in segs])
    return value, sum(s[4] for s in segs)


def _integrate_smooth(spec: IntegrandSpec, lo: float, hi: float,
                      q: QuadratureSpec, abs_tol: float) -> tuple[float, float]:
    """Non-oscillatory finite integral; substitutes away the t^(alpha-1) cusp
    wherever the interval reaches into the cusp region (lo < 1).

    Oscillatory kinds never come here (any b > 0 routes to phase panels,
    whose log-spaced geometry is what resolves trig factors near 0).
    """
    if spec.trig is not None:
        raise ValueError("oscillatory kinds belong to the phase-panel path")
    alpha = spec.singular_exponent
    # the substitution pays off for any fractional exponent below 2: at
    # alpha in (1, 2) the integrand is continuous but its derivative still
    # carries a branch point that starves plain bisection
    if alpha is not None and alpha <= 0.0 and lo == 0.0:
        raise ValueError("integrand not integrable at 0 (exponent <= 0)")
    fractional_cusp = (alpha is not None and 0.0 < alpha < 2.0
                       and abs(alpha - round(alpha)) > 1e-9)
    if not fractional_cusp or lo >= 1.0:
        return _adaptive(spec, lo, hi, q, abs_tol)
    split = min(1.0, hi)
    inv = 1.0 / alpha

    def transformed(u: np.ndarray) -> np.ndarray:
        # int t^(alpha-1) psi(t) dt = (1/alpha) int psi(u^(1/alpha)) du,  u = t^alpha
        t = np.maximum(u, 5e-324) ** inv
        return spec.smooth_factor(t) * inv

    v1, e1 = _adaptive(transformed, lo ** alpha, split ** alpha, q, 0.5 * abs_tol)
    v2, e2 = (0.0, 0.0) if hi <= split else _adaptive(spec, split, hi, q, 0.5 * abs_tol)
    return v1 + v2, e1 + e2


# ---------------------------------------------------------------------------
# Oscillatory integration on phase-node panels.

_CHUNK = 4096
_LOG_FLOOR = -660.0          # lower phase floor: t = e^-660 (far below underflow of t^a)


class _PhasePanels:
    """Panel engine in the phase variable phi = b log t.

    Panel k covers phi in [k pi, (k+1) pi]; its contribution is
    (1/b) int kernel(e^(phi/b)) e^(phi/b) trig(phi) dphi, and with the node
    offset u in [0, 1], trig(k pi + pi u) = (-1)^k trig(pi u) for both trigs.
    """

    def __init__(self, spec: IntegrandSpec, q: QuadratureSpec):
        self.spec = spec
        self.q = q
        self.b = spec.b
        for attr, n in (("hi", _RULE_HI), ("lo", _RULE_LO)):
            x, w = _gauss(n)
            u = 0.5 * (x + 1.0)
            trig = np.sin if spec.trig == "sin" else np.cos
            tu = trig(np.pi * u)
            setattr(self, f"u_{attr}", u)
            setattr(self, f"wt_{attr}", 0.5 * w * tu)

    def batch(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, error estimates, absolute masses) for panels ks."""
        b = self.b
        t = np.exp((ks[:, None] + self.u_hi[None, :]) * (math.pi / b))
        g = self.spec.kernel_values(t) * t
        out_v = (math.pi / b) * (g @ self.wt_hi)
        mass = (math.pi / b) * (np.abs(g) @ np.abs(self.wt_hi))
        t_lo = np.exp((ks[:, None] + self.u_lo[None, :]) * (math.pi / b))
        g_lo = self.spec.kernel_values(t_lo) * t_lo
        out_lo = (math.pi / b) * (g_lo @ self.wt_lo)
        signs = np.where(ks % 2 == 0, 1.0, -1.0)
        return signs * out_v, np.abs(out_v - out_lo), mass

    def adaptive_phi(self, phi_lo: float, phi_hi: float,
                     abs_tol: float) -> tuple[float, float]:
        """Adaptive integral over an arbitrary phase range (edge panels,
        refinement of flagged panels).  Trig sign is evaluated in place."""
        b = self.b
        trig_fn = np.sin if self.spec.trig == "sin" else np.cos

        def f(phi: np.ndarray) -> np.ndarray:
            t = np.exp(phi / b)
            return self.spec.kernel_values(t) * t * trig_fn(phi) / b

        return _adaptive(f, phi_lo, phi_hi, self.q, abs_tol)


def _lower_tail_bound(spec: IntegrandSpec, t: float) -> float:
    """Analytic bound on |int_0^t integrand| (|trig| <= 1)."""
    a = spec.a
    k = spec.kernel
    if t <= 0.0:
        return 0.0
    if k == "unit":
        return t
    if k == "fermi":
        return 0.5 * t ** a / a
    if k == "exp":
        return t ** a / a
    # paired: |delta(t)| <= (c-1) t / 4 + (e^(a pi/b) - 1)/2
    d = math.expm1(math.pi / spec.b)
    lam_m1 = math.expm1(a * math.pi / spec.b)
    return 0.25 * d * t ** (a + 1.0) / (a + 1.0) + 0.5 * lam_m1 * t ** a / a


def _upper_tail_bound(spec: IntegrandSpec, t_cut: float) -> float:
    """Analytic bound on |int_T^inf integrand| via kernel <= C t^(a-1) e^-t."""
    if spec.kernel == "unit":
        raise ValueError("bare trig carrier has no convergent upper tail")
    a = spec.a
    extra = 1.0
    if spec.kernel == "pair_fermi":
        extra = 1.0 + math.exp(spec.a * math.pi / spec.b)
    if spec.kernel == "fermi" and spec.scale != 1.0:
        # kernel <= e^(-scale t); reuse the t substitution
        t_cut = t_cut * spec.scale
        extra /= spec.scale ** a
    geo = (1.0 / (1.0 - max(a - 1.0, 0.0) / t_cut)
           if t_cut > 2.0 * abs(a - 1.0) + 1.0 else 2.0)
    return extra * geo * t_cut ** (a - 1.0) * math.exp(-t_cut)


def _phase_of(x: float, b: float) -> float:
    return b * math.log(x) / math.pi


def _snap_node(phase: float) -> int | None:
    k = round(phase)
    if abs(phase - k) <= 1e-9 * max(1.0, abs(phase)) + 1e-12:
        return int(k)
    return None


def _oscillatory(spec: IntegrandSpec, lo: float, hi: float | None,
                 q: QuadratureSpec, paired: bool,
                 abs_tol: float | None) -> tuple[float, float]:
    """Oscillatory integral over [lo, hi] (hi None = infinity, lo may be 0).

    paired=True (upper range only) integrates the cancelled kernel over half
    periods and requires lo at an even phase node (0 always qualifies).
    """
    # stride-2 half-period device; an explicit pair kernel with
    # paired=False integrates literally
    work = spec.paired if paired else spec
    stride = 2 if paired else 1
    b = spec.b
    floor = 0.0 if abs_tol is None else abs_tol

    tail_hi = 0.0
    edge_hi = None          # (phi_lo, phi_hi) partial top panel
    if hi is None:
        T = q.truncation_point(spec.a, max(floor, 1e-2 * q.target_tol))
        k_hi = math.ceil(_phase_of(T, b))
        if k_hi % 2:
            k_hi += 1
        tail_hi = _upper_tail_bound(work, math.exp(k_hi * math.pi / b))
    else:
        ph = _phase_of(hi, b)
        k = _snap_node(ph)
        if k is None:
            k_hi = math.floor(ph)
            edge_hi = (k_hi * math.pi, ph * math.pi)
        else:
            k_hi = k

    dynamic_lower = lo <= 0.0
    edge_lo = None
    if not dynamic_lower:
        ph = _phase_of(lo, b)
        k = _snap_node(ph)
        if paired:
            if k is None or k % 2:
                raise ValueError("paired integration needs the lower endpoint "
                                 "on an even phase node exp(2k pi / b)")
            k_lo = k
        elif k is None:
            k_lo = math.ceil(ph)
            edge_lo = (ph * math.pi, k_lo * math.pi)
        else:
            k_lo = k

    if (not dynamic_lower and hi is not None and k_lo > k_hi):
        # both endpoints inside one panel: a single adaptive span suffices
        panels = _PhasePanels(work, q)
        v, e = panels.adaptive_phi(_phase_of(lo, b) * math.pi,
                                   _phase_of(hi, b) * math.pi,
                                   max(floor * 0.5, 1e-18))
        return v, e

    panels = _PhasePanels(work, q)

    ks_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    errs_parts: list[np.ndarray] = []
    mass_parts: list[np.ndarray] = []
    acc = 0.0
    mass_acc = 0.0
    tail_lo = 0.0

    def take(ks: np.ndarray):
        nonlocal acc, mass_acc
        vals, errs, mass = panels.batch(ks)
        ks_parts.append(ks)
        vals_parts.append(vals)
        errs_parts.append(errs)
        mass_parts.append(mass)
        acc += float(np.sum(vals))
        mass_acc += float(np.sum(mass))

    if dynamic_lower:
        # never descend past t = e^LOG_FLOOR (well above the t^a underflow)
        k_floor = stride * math.ceil(_LOG_FLOOR * b / math.pi / stride)
        k_cur = k_hi
        while k_cur > k_floor:
            k_next = max(k_cur - stride * _CHUNK, k_floor)
            take(np.arange(k_next, k_cur, stride, dtype=np.int64)[::-1])
            k_cur = k_next
            tail_lo = _lower_tail_bound(work, math.exp(k_cur * math.pi / b))
            stop_tol = 0.05 * max(floor, 1e-16 * mass_acc,
                                  q.target_tol * abs(acc))
            if tail_lo < stop_tol:
                break
        order = slice(None, None, -1)
    else:
        ks = np.arange(k_lo, k_hi, stride, dtype=np.int64)
        for i in range(0, len(ks), _CHUNK):
            take(ks[i:i + _CHUNK])
        order = slice(None)

    if ks_parts:
        ks_all = np.concatenate(ks_parts)[order]
        vals_all = np.concatenate(vals_parts)[order]
        errs_all = np.concatenate(errs_parts)[order]
        mass_all = np.concatenate(mass_parts)[order]
    else:
        ks_all = np.empty(0, dtype=np.int64)
        vals_all = np.empty(0)
        errs_all = np.empty(0)
        mass_all = np.empty(0)

    def edge_contributions(tol: float) -> tuple[float, float]:
        ev_total, ee_total = 0.0, 0.0
        for edge in (edge_lo, edge_hi):
            if edge is not None:
                ev, ee = panels.adaptive_phi(edge[0], edge[1], tol)
                ev_total += ev
                ee_total += ee
        return ev_total, ee_total

    value = _kahan_sum(vals_all)
    edge_v, edge_e = edge_contributions(max(floor * 0.25, 1e-18))
    value += edge_v
    err = float(np.sum(errs_all)) + tail_lo + tail_hi + edge_e

    # panels whose G24/G12 difference is at rounding scale are converged;
    # refining them cannot help, and errors that are absolutely negligible
    # against the budget are not worth chasing either
    rounding_scale = 64.0 * 2.3e-16 * mass_all
    noise_floor = 2e-16 * mass_acc
    budget = max(floor, q.target_tol * abs(value), noise_floor)
    if err > budget and len(errs_all):
        refinable = (errs_all > rounding_scale) & (errs_all > 1e-3 * budget)
        order_idx = np.argsort(np.where(refinable, errs_all, -1.0))[::-1]
        for idx in order_idx[:512]:
            if not refinable[idx]:
                break
            if float(np.sum(errs_all)) + tail_lo + tail_hi <= budget:
                break
            k = int(ks_all[idx])
            v, e = panels.adaptive_phi(k * math.pi, (k + 1) * math.pi,
                                       max(budget / 64.0, rounding_scale[idx]))
            vals_all[idx] = v
            errs_all[idx] = e
        value = _kahan_sum(vals_all) + edge_v
        err = float(np.sum(errs_all)) + tail_lo + tail_hi + edge_e
        if err > max(floor, q.target_tol * abs(value), noise_floor):
            stuck = (errs_all > 2.0 * rounding_scale) & (errs_all > 0.01 * budget)
            if np.any(stuck):
                raise QuadratureError(
                    f"oscillatory integral stalled: err {err:.3e} > budget "
                    f"{budget:.3e}", value=value, err_est=err)
            # remaining error is machine-floor rounding; report it honestly
    return value, err


# ---------------------------------------------------------------------------
# Whole half-line integrals on the rotated ray t = r e^(i theta).

_EPS = math.ulp(1.0)
_RAY_DELTA_MAX = 0.2    # tilt of the ray off the imaginary axis ...
_RAY_DELTA_B = 4.0      # ... capped at this / |b|: conditioning e^(delta |b|) <= e^4
_RAY_TAIL = 40.0        # the tail beyond the last panel is below e^(-40)
_RAY_HEAD = 46.0        # the head remainder is below e^(-46)
_RAY_PHASE = 12.0       # change of the integrand's log per panel


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


def _ray_panels(rate: float, delta: float, log_pole: float, u_lo: float,
                u_hi: float) -> np.ndarray:
    """Panel breakpoints in u = log r on [u_lo, u_hi].

    Each panel keeps the change of the integrand's log under _RAY_PHASE (its
    rate in u is at most |s| + r) and its width under the distance, in the u
    plane, to the kernel's poles log(pole) + i delta, ...: the first pole
    for r < pole, the line of poles at distance delta beyond it.  Panels the
    rule gets wrong are bisected by the G24/G12 test afterwards.
    """
    xs = [u_lo]
    x = u_lo
    while x < u_hi:
        h = min(_RAY_PHASE / (rate + math.exp(x)),
                max(delta, 0.5 * (log_pole - x)))
        x = min(x + h, u_hi)
        xs.append(x)
    return np.asarray(xs)


def _ray_integrand(kernel: _RayKernel, s: complex, rot: complex,
                   u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integrand e^(s u) k(e^u rot) in u = log r, and its node-wise
    relative rounding in units of eps: the phase b u and the argument r rot
    (each rounded relative to its size) and the kernel's own."""
    r = np.exp(u)
    g, cond = kernel.values(r * rot)
    f = np.exp(s * u) * g
    rel = 4.0 + abs(s) * np.abs(u) + r + cond
    return f, rel


def _ray_batch(kernel: _RayKernel, s: complex, rot: complex, lo: np.ndarray,
               hi: np.ndarray):
    """(G24 values, |G24 - G12|, rounding floors) of panels [lo, hi].

    Raises :class:`QuadratureError` when any of them is not finite: r^(s-1)
    overflows once r^a does (Re s beyond ~ 100), and bisecting such panels
    would never converge.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xh, wh = _gauss(_RULE_HI)
    xl, wl = _gauss(_RULE_LO)
    with np.errstate(over="ignore", invalid="ignore"):
        fh, rel = _ray_integrand(kernel, s, rot,
                                 mid[:, None] + half[:, None] * xh)
        fl, _ = _ray_integrand(kernel, s, rot,
                               mid[:, None] + half[:, None] * xl)
        vh = half * (fh @ wh)
        vl = half * (fl @ wl)
        err = np.abs(vh - vl)
        noise = 2.0 * _EPS * half * ((np.abs(fh) * rel) @ wh)
    if not (np.isfinite(err).all() and np.isfinite(noise).all()):
        raise QuadratureError(f"ray panel values overflow at s = {s}")
    return vh, err, noise


# ---------------------------------------------------------------------------
# Public operations.

def integrate_finite(spec: IntegrandSpec, lo: float, hi: float,
                     q: QuadratureSpec | None = None, *,
                     abs_tol: float | None = None) -> tuple[float, float]:
    """Integral over [lo, hi] with an error estimate.

    The error contract is |value - true| <= max(err_est, target_tol * |value|)
    barring pathological integrands outside the declared family.  A singular
    lower endpoint (lo = 0 with exponent in (0, 1)) is handled by exact
    substitution for non-oscillatory kinds and by geometric node panels for
    oscillatory ones.  Raises :class:`QuadratureError` on non-convergence.
    """
    q = q or DEFAULT_SPEC
    if not hi > lo:
        raise ValueError("need hi > lo")
    if lo < 0:
        raise ValueError("need lo >= 0")
    if lo == 0.0:
        alpha = spec.singular_exponent
        if alpha is not None and alpha <= 0.0:
            raise ValueError("integrand not integrable at 0")
    if spec.trig is not None:
        return _oscillatory(spec, lo, hi, q, False, abs_tol)
    return _integrate_smooth(spec, lo, hi, q,
                             0.0 if abs_tol is None else abs_tol)


def integrate_to_infinity(spec: IntegrandSpec, lo: float,
                          q: QuadratureSpec | None = None, *,
                          paired: bool = False,
                          abs_tol: float | None = None) -> tuple[float, float]:
    """Integral over [lo, infinity), truncated at the policy cutoff with the
    analytic tail folded into the error estimate.  For oscillatory kinds the
    cutoff is snapped up to the next phase node."""
    q = q or DEFAULT_SPEC
    if not lo > 0:
        raise ValueError("need lo > 0 (use integrate_line for [0, inf))")
    if spec.kernel == "unit":
        raise ValueError("bare trig carrier is not integrable to infinity")
    if spec.trig is not None:
        return _oscillatory(spec, lo, None, q, paired, abs_tol)
    if paired:
        raise ValueError("paired form applies to oscillatory kinds only")
    floor = 0.0 if abs_tol is None else abs_tol
    T = q.truncation_point(spec.a, max(floor, 1e-2 * q.target_tol))
    T = max(T, 2.0 * lo)
    value, err = _integrate_smooth(spec, lo, T, q, floor)
    return value, err + _upper_tail_bound(spec, T)


def integrate_line(kernel: str, s: complex,
                   q: QuadratureSpec | None = None) -> tuple[complex, float]:
    """int_0^inf t^(s-1) k(t) dt and a bound on the modulus of its error,
    for k = ``fermi`` 1/(e^t + 1) or ``exp`` e^(-t) (Re s > 0), or ``bose``
    1/(e^t - 1) (Re s > 1).

    For b = Im s != 0 the ray has angle theta = pi/2 - delta with
    delta = min(0.2, 4/|b|), so the error scales with the integral itself;
    at b = 0 it is the real axis, and a real s gives an imaginary part of
    exactly 0.  The value at -b is the exact conjugate of the value at |b|.
    err is |e^(i theta s)| times the sum of the panel errors |G24 - G12|,
    the head remainder and tail bounds and the rounding floor.  Raises
    :class:`QuadratureError` when a panel stalls above its rounding floor,
    or when a panel value or a bound is not finite.
    """
    integral, err, theta = _ray_integral(kernel, s, q)
    s = complex(s)
    b = abs(s.imag)
    value = cmath.exp(1j * theta * complex(s.real, b)) * integral
    # past b ~ 470 the scale underflows and the value rounds to 0; the
    # smallest subnormal then bounds the error of that rounding
    err = max(math.exp(-theta * b) * err, math.ulp(0.0))
    return (value.conjugate() if s.imag < 0 else value), err


def _ray_integral(kernel: str, s: complex, q: QuadratureSpec | None = None
                  ) -> tuple[complex, float, float]:
    """(I, err, theta): at s' = a + i|b| the integral of :func:`integrate_line`
    is e^(i theta s') I, and err bounds the error of I.  Callers dividing
    e^(-theta |b|) by a factor of like size do it in log form, where neither
    underflows."""
    if kernel not in _RAY_KERNELS:
        raise ValueError(f"unknown kernel {kernel!r} for the whole line")
    k = _RAY_KERNELS[kernel]
    q = q or DEFAULT_SPEC
    s = complex(s)
    a, b = s.real, abs(s.imag)
    if not a > -k.j0:
        raise ValueError(f"the {kernel} integral needs Re s > {-k.j0}")
    delta = min(_RAY_DELTA_MAX, _RAY_DELTA_B / b) if b else 0.5 * math.pi
    theta = 0.5 * math.pi - delta
    sigma = math.sin(delta)          # Re of the ray's direction
    rot = complex(sigma, math.cos(delta) if b else 0.0)
    s = complex(a, b)

    # head: below rho = e^u_lo the kernel's first two series terms integrate
    # in closed form, and the rest leaves rho^p' / (head_div p') <= e^(-46)
    p = a + k.p
    u_lo = -_RAY_HEAD / p
    rho = math.exp(u_lo)
    j = k.j0
    head = (k.c0 * rot ** j * cmath.exp((s + j) * u_lo) / (s + j)
            + k.c1 * rot ** (j + 1) * cmath.exp((s + j + 1) * u_lo)
            / (s + j + 1))
    head_bound = rho ** p / (k.head_div * p)

    # tail: |k(z)| <= tail_mul e^(-sigma r) once sigma r >= 1, so beyond
    # r = X / sigma it is below tail_mul sigma^-a int_X^inf x^(a-1) e^-x dx
    x_top = _RAY_TAIL
    for _ in range(4):
        x_top = _RAY_TAIL + max(a - 1.0, 0.0) * math.log(x_top) \
            - a * math.log(sigma)
    try:
        tail_bound = k.tail_mul * sigma ** -a * _upper_tail_bound(
            IntegrandSpec("exp", a=a), x_top)
    except OverflowError:
        tail_bound = math.inf
    if not math.isfinite(tail_bound):
        raise QuadratureError(f"ray tail bound overflows at s = {s}")
    u_hi = math.log(x_top / sigma)

    xs = _ray_panels(abs(s), delta, math.log(k.pole), u_lo, u_hi)
    lo, hi = xs[:-1], xs[1:]
    vals, errs, floors = _ray_batch(k, s, rot, lo, hi)
    noise = float(np.sum(floors))
    # a panel is done when G24 and G12 agree to its own rounding floor or
    # its share of the whole integral's floor; the others are bisected
    share = noise / len(lo)
    kept = []
    for _ in range(q.max_refinement_depth):
        done = (errs <= 64.0 * floors) | (errs <= share)
        kept.append((lo[done], vals[done], errs[done], floors[done]))
        lo, hi = lo[~done], hi[~done]
        if not len(lo):
            break
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        vals, errs, floors = _ray_batch(k, s, rot, lo, hi)
    else:
        kept.append((lo, vals, errs, floors))
    lo, vals, errs, floors = (np.concatenate(c) for c in zip(*kept))
    vals = vals[np.argsort(lo, kind="stable")]
    integral = complex(math.fsum(vals.real), math.fsum(vals.imag)) + head
    panel_err = float(np.sum(errs))
    noise = float(np.sum(floors)) \
        + _EPS * (4.0 + theta * b) * abs(integral)
    if panel_err > max(64.0 * noise, q.target_tol * abs(integral)):
        raise QuadratureError(
            f"ray integral stalled: panel error {panel_err:.3e}",
            value=None, err_est=panel_err)
    return integral, panel_err + head_bound + tail_bound + noise, theta
