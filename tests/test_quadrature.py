import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etazeros import quadrature
from etazeros.decomposition import choose_K_R, pair_kernel
from etazeros.special import Gamma
from etazeros.quadrature import (
    _GAUSS,
    _RULE_HI,
    _RULE_LO,
    IntegrandSpec,
    QuadratureError,
    integrate_finite,
    integrate_line,
    integrate_to_infinity,
)

def node(k, b):
    return math.exp(k * math.pi / b)


# ---------------------------------------------------------------------------
# Integrand evaluation.

def test_fermi_kernel_tanh_form():
    # 1/(e^t + 1) = 1/2 - tanh(t/2)/2
    spec = IntegrandSpec("fermi")
    for t in (0.5, 1.0, 2.0, 10.0):
        assert spec.smooth(math)(t) == pytest.approx(
            0.5 - 0.5 * math.tanh(0.5 * t), rel=1e-15)


def test_pair_kernel_positive_inside_region():
    # the paired difference is positive for t >= 1, a <= e/(e+1)
    assert pair_kernel(1.0, 0.5, 100.0) > 0


def test_overflow_safety_and_decay():
    # finite out to t = 1e4 at strip parameters, and non-increasing once past
    # the kernel hump (the paired kernel rises to a maximum near t ~ 1-3)
    ts = np.concatenate([np.linspace(1.0, 50.0, 200),
                         np.geomspace(50.0, 1e4, 200)])
    decay = ts >= 5.0
    for spec in (IntegrandSpec("fermi", a=0.5),
                 IntegrandSpec("fermi", a=0.9),
                 IntegrandSpec("pair_fermi", a=0.5, b=100.0)):
        vals = ts ** (spec.a - 1.0) * spec.smooth(np)(ts)
        assert np.all(np.isfinite(vals))
        assert np.all(np.diff(vals[decay]) <= 0.0)
        assert np.all(vals[decay] >= 0.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=10.0, max_value=2000.0),
       st.floats(min_value=1e-6, max_value=700.0))
def test_pair_fermi_matches_naive_difference(a, b, t):
    # stable form == naive q(t) - e^(a pi/b) q(c t) wherever the naive form
    # itself carries enough precision to compare
    c = math.exp(math.pi / b)
    lam = math.exp(a * math.pi / b)

    def q_(x):
        e = math.exp(-x)
        return e / (1.0 + e)

    naive = t ** (a - 1.0) * (q_(t) - lam * q_(c * t))
    got = float(pair_kernel(t, a, b))
    scale = t ** (a - 1.0) * max(q_(t), lam * q_(c * t), 1e-300)
    assert got == pytest.approx(naive, abs=5e-14 * scale)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules.

@pytest.mark.parametrize("n", [_RULE_LO, _RULE_HI])
def test_gauss_rule_exact_for_polynomials(n):
    # an n-node rule integrates x^k exactly on [-1, 1] for k <= 2n - 1
    x, w = map(np.array, _GAUSS[n])
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(float(np.dot(w, x ** k)) - exact) < 1e-14, k


@pytest.mark.parametrize("n", [_RULE_LO, _RULE_HI])
def test_gauss_rule_matches_scipy(n):
    # scipy serves only as an independent reference here.  Nodes agree
    # within 4 ulps of each node.  Weights cannot be held to that: against
    # the exact rule (40-digit mpmath) both libraries' weights are off by up
    # to ~7 eps absolute, hundreds of ulps of the small end weights, so the
    # two are held to 16 eps of each other.
    sps = pytest.importorskip("scipy.special")
    eps = np.finfo(np.float64).eps
    x, w = map(np.array, _GAUSS[n])
    x_ref, w_ref = sps.roots_legendre(n)
    assert np.all(np.abs(x - x_ref) <= 4 * np.spacing(np.abs(x_ref)))
    assert np.all(np.abs(w - w_ref) <= 16 * eps)


@pytest.mark.parametrize("n", [_RULE_LO, _RULE_HI])
def test_gauss_table_matches_leggauss(n):
    # the literal half-table, mirrored, is numpy's rule to within 4 ulps of
    # every node and weight (bit for bit where leggauss is exactly
    # symmetric, as it is with numpy 2.4)
    from numpy.polynomial.legendre import leggauss
    for got, ref in zip(map(np.array, _GAUSS[n]), leggauss(n)):
        assert got.shape == ref.shape == (n,)
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.abs(ref)))


# ---------------------------------------------------------------------------
# Finite integrals, smooth and singular.

def test_power_singularity():
    # F(1/2) = int_0^inf t^(-1/2)/(e^t + 1) dt = (1 - sqrt 2) zeta(1/2)
    # sqrt(pi): the t^(-1/2) cusp at 0 goes to the ray's closed-form head
    mpmath = pytest.importorskip("mpmath")
    val_full, err_full = integrate_line(0.5)
    assert val_full.imag == 0.0
    with mpmath.workdps(40):
        ref = (1 - mpmath.sqrt(2)) * mpmath.zeta(0.5) * mpmath.sqrt(mpmath.pi)
    assert val_full.real == pytest.approx(float(ref), rel=1e-12)


def test_fermi_log_antiderivative():
    # int_lo^X dt/(e^t+1) = [t - log(1 + e^t)]_lo^X
    spec = IntegrandSpec("fermi", a=1.0)
    lo, X = 0.5, math.log(3.0)
    val, err = integrate_finite(spec, lo, X)

    def anti(t):
        return t - math.log1p(math.exp(t))

    assert val == pytest.approx(anti(X) - anti(lo), rel=1e-13)
    assert err < 1e-12


def test_finite_range_is_cut_like_the_infinite_one():
    # past the cut a decaying kernel's finite range is its infinite one: the
    # same panels and tail bound, not panels out to hi; past t ~ 744 only
    # the bound is left, and it is 0 in floats
    for spec in (IntegrandSpec("fermi", a=0.5),
                 IntegrandSpec("pair_fermi", "sin", a=0.5, b=100.0)):
        for lo in (1.5, 100.0):
            assert (integrate_finite(spec, lo, 1e4)
                    == integrate_to_infinity(spec, lo))
        assert integrate_finite(spec, 800.0, 1e4) == (0.0, 0.0)


def test_real_axis_family_is_enforced():
    # the real axis takes the paper's pieces only: fermi, pair and unit
    # kernels at scale 1, times 1 or a sine, from a finite lo > 0
    for kernel, trig in (("exp", None), ("bose", None), ("fermi", "cos")):
        with pytest.raises(ValueError):
            IntegrandSpec(kernel, trig, a=0.5, b=10.0)
    with pytest.raises(TypeError):
        IntegrandSpec("fermi", a=0.5, scale=2.0)
    with pytest.raises(ValueError):
        IntegrandSpec("pair_fermi", a=0.5, b=10.0).paired
    spec = IntegrandSpec("fermi", "sin", a=0.5, b=12.0)
    with pytest.raises(ValueError):
        integrate_finite(spec, 0.0, node(2, 12.0))


def test_fermi_whole_line_log2():
    val, err = integrate_line(1.0)
    assert val.imag == 0.0
    assert val.real == pytest.approx(math.log(2.0), rel=1e-13)


def test_line_kernels_and_conjugate_symmetry():
    # the whole line takes the fermi kernel alone, on Re s > 0, and gives
    # the exact conjugate at -b
    with pytest.raises(ValueError):
        integrate_line(complex(0.0, 10.0))
    up, err_up = integrate_line(complex(0.5, 7.0))
    dn, err_dn = integrate_line(complex(0.5, -7.0))
    assert dn == up.conjugate() and err_dn == err_up


# ---------------------------------------------------------------------------
# Oscillatory integrals.

def test_sine_half_period_closed_form():
    # int over [e^(2k pi/b), e^((2k+1) pi/b)] of sin(b log t) dt
    #   = (e^((2k+1) pi/b) + e^(2k pi/b)) / (b (b^-2 + 1))
    for b, k in ((10.0, 0), (10.0, 5), (100.0, 50), (1000.0, 3)):
        spec = IntegrandSpec("unit", "sin", b=b)
        lo, hi = node(2 * k, b), node(2 * k + 1, b)
        val, err = integrate_finite(spec, lo, hi)
        closed = (hi + lo) / (b * (b ** -2 + 1.0))
        assert val == pytest.approx(closed, rel=1e-13)


def test_oscillatory_lower_integral_against_series_free_reference():
    # int_0^R t^(a-1) sin(b log t)/(e^t+1) dt at modest b, around the arc,
    # cross-checked by brute-force adaptive integration on the real axis
    from etazeros.series import lower_integral_by_quadrature
    a, b = 0.5, 12.0
    K = 1
    R = node(2 * K, b)
    val, err = lower_integral_by_quadrature(a, b, R)

    # independent brute force: midpoint-refined Simpson on [eps, R] in log t
    import scipy.integrate as si
    def f(u):
        t = np.exp(u)
        return t ** a * np.sin(b * u) / (np.exp(t) + 1.0)
    brute, brute_err = si.quad(f, -60.0, math.log(R), limit=4000, epsabs=1e-13)
    assert val == pytest.approx(brute, abs=5e-11)


def test_paired_equals_direct_one_period():
    # int over a full period [t_2k, t_2k+2] of f sin == int over the first
    # half [t_2k, t_2k+1] of h sin
    for a in (0.1, 0.5, 0.9):
        for b in (100.0, 300.0):
            K = int(b * math.log(2.0) / (2.0 * math.pi))
            for k in (K, K + 5, K + 50):
                direct = IntegrandSpec("fermi", "sin", a=a, b=b)
                paired = direct.paired
                lo, mid, hi = node(2 * k, b), node(2 * k + 1, b), node(2 * k + 2, b)
                v_direct, e_direct = integrate_finite(direct, lo, hi)
                v_pair, e_pair = integrate_finite(paired, lo, mid)
                tol = 2.0 * quadrature._STALL_TOL * max(abs(v_pair), 1e-12) + 2e-15
                assert abs(v_direct - v_pair) < tol + e_direct + e_pair


def test_paired_whole_upper_range():
    # paired tail == direct tail over [R, inf)
    a, b = 0.5, 100.0
    K = int(b * math.log(2.0) / (2.0 * math.pi))
    R = node(2 * K, b)
    spec = IntegrandSpec("fermi", "sin", a=a, b=b)
    v_direct, e_d = integrate_to_infinity(spec, R, paired=False)
    v_pair, e_p = integrate_to_infinity(spec, R, paired=True)
    assert abs(v_direct - v_pair) < 1e-9


def test_cos_kind_runs():
    # the cos (b log t) weight of the fermi kernel is Re F(0.5 + 50i)
    val, err = integrate_line(complex(0.5, 50.0))
    assert math.isfinite(val.real) and err < 1e-8


# ---------------------------------------------------------------------------
# Error handling and stability contracts.

def test_non_convergence_raises_with_payload(monkeypatch):
    # F(1/2) on the real axis with a 4/2-point rule pair: two bisections per
    # initial panel cannot bring the panels to their rounding floor, and
    # the spent budget carries the best value with an error that bounds it
    from numpy.polynomial.legendre import leggauss
    monkeypatch.setitem(quadrature._GAUSS, 4, leggauss(4))
    monkeypatch.setitem(quadrature._GAUSS, 2, leggauss(2))
    monkeypatch.setattr(quadrature, "_RULE_HI", 4)
    monkeypatch.setattr(quadrature, "_RULE_LO", 2)
    monkeypatch.setattr(quadrature, "_BISECT_PER_PANEL", 2)
    monkeypatch.setattr(quadrature, "_BISECT_EXTRA", 0)
    with pytest.raises(QuadratureError) as ei:
        integrate_line(0.5)
    assert ei.value.value is not None
    assert ei.value.err_est is not None and ei.value.err_est > 0
    f_half = (1.0 - math.sqrt(2.0)) * -1.4603545088095868 * math.sqrt(math.pi)
    assert abs(ei.value.value - f_half) <= ei.value.err_est


@pytest.mark.parametrize("a", [100.0, 120.0])
def test_line_overflow_raises(a):
    # r^(s-1) on the ray (a = 100) or the tail bound (a = 120) overflows
    with pytest.raises(QuadratureError):
        integrate_line(complex(a, 1.0))


def test_refinement_consistency(monkeypatch):
    # doubling the bisection budget must not move a converged value by more
    # than its reported error estimate
    # (the sin kind of the fermi kernel is Im F(0.3 + 40i))
    s = complex(0.3, 40.0)
    v2, e2 = integrate_line(s)
    monkeypatch.setattr(quadrature, "_BISECT_PER_PANEL",
                        quadrature._BISECT_PER_PANEL // 2)
    monkeypatch.setattr(quadrature, "_BISECT_EXTRA",
                        quadrature._BISECT_EXTRA // 2)
    v1, e1 = integrate_line(s)
    assert abs(v1.imag - v2.imag) <= max(e1, e2) + 1e-15


def test_arbitrary_endpoint_oscillatory_panels():
    # antiderivative of sin(b log t) is t (sin(b log t) - b cos(b log t))
    # / (1 + b^2); endpoints deliberately off the phase nodes exercise a
    # phase anchored off the node lattice and a partial top half period.
    # At b = 0.05 a half period is pi/b = 63 in log t, so every range sits
    # inside one partial half period and the panel rule is in charge
    for b in (40.0, 0.05):
        spec = IntegrandSpec("unit", "sin", b=b)

        def anti(t):
            return t * (math.sin(b * math.log(t))
                        - b * math.cos(b * math.log(t))) / (1.0 + b * b)

        for lo, hi in ((0.37, 2.83), (1.0, 1.04), (0.095, 61.7)):
            val, err = integrate_finite(spec, lo, hi)
            assert val == pytest.approx(anti(hi) - anti(lo),
                                        abs=1e-12 * hi + err), (b, lo, hi)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.15, max_value=4.0))
def test_gamma_kernel_error_contract(a):
    # |value - gamma(a)| <= max(err_est, target_tol |value|) across the
    # whole supported exponent range, singular and regular alike
    value, err = Gamma(a)
    val = value.real
    true = math.gamma(a)
    assert abs(val - true) <= max(err, quadrature._STALL_TOL * abs(val)) + 1e-15 * true


def test_real_axis_err_est_bounds_error_against_mpmath():
    # |value - ref| <= err_est for the real-axis pieces the verify suites
    # compare: suite 6's direct and paired tails, suite 7's telescoping
    # pair and one suite-9 half period, against 30-digit mpmath
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    a, b = 0.5, 100.0
    K = int(b * math.log(2.0) / (2.0 * math.pi))
    R = node(2 * K, b)

    def f_u(u):       # Im e^(su) / (e^(e^u) + 1), s = a + ib
        return mp.exp(a * u) * mp.sin(b * u) / (mp.exp(mp.exp(u)) + 1)

    u_lo, u_hi = mp.log(R), mp.log(70)
    tail_ref = mp.quad(f_u, mp.linspace(u_lo, u_hi, 31))
    spec = IntegrandSpec("fermi", "sin", a=a, b=b)
    for paired in (False, True):
        v, e = integrate_to_infinity(spec, R, paired=paired)
        assert abs(v - tail_ref) <= e, paired

    c = mp.exp(mp.pi / b)

    def q_(t):
        return 1 / (mp.exp(t) + 1)

    def h(t):
        return t ** (a - 1) * (q_(t) - c ** a * q_(c * t))

    v, e = integrate_to_infinity(IntegrandSpec("pair_fermi", a=a, b=b), 1.0)
    assert abs(v - mp.quad(h, [1, 2, 5, 10, 20, 40, 80])) <= e
    v, e = integrate_finite(IntegrandSpec("fermi", a=a), 1.0,
                            math.exp(math.pi / b))
    ref = mp.quad(lambda t: t ** (a - 1) * q_(t), [1, mp.mpf(math.exp(math.pi / b))])
    assert abs(v - ref) <= e

    t0, t1 = node(2 * K, b), node(2 * K + 1, b)
    v, e = integrate_finite(IntegrandSpec("pair_fermi", "sin", a=a, b=b),
                            t0, t1)
    ref = mp.quad(lambda t: h(t) * mp.sin(b * mp.log(t)), [t0, t1])
    assert abs(v - ref) <= e


def _panels_by_loop(rate, decay, delta, log_pole, v_lo, v_hi, u0=0.0,
                    unit=1.0, nodes=False):
    """The reference: the breakpoint loop without the whole-panel stretch."""
    xs = [v_lo]
    x = v_lo
    while x < v_hi:
        u = u0 + unit * x
        h = min(quadrature._PHASE / (rate + decay * math.exp(u)),
                max(delta, 0.5 * (log_pole - u))) / unit
        x = min(x + h, v_hi)
        if nodes:
            x = min(x, math.floor(xs[-1]) + 1.0)
        xs.append(x)
    return np.asarray(xs)


def test_panels_fast_path_matches_loop(monkeypatch):
    # every breakpoint set of suites 2, 6, 7 and 9 (suite 2's arcs, direct
    # and paired tails, half periods) is bit-identical to the loop's; so are
    # tails at small b, where the step falls below one half period and the
    # loop takes over from the stretch, and the rays of F
    from etazeros import verify
    panels = quadrature._panels
    calls = []

    def recorded(*args, **kwargs):
        xs = panels(*args, **kwargs)
        calls.append((args, kwargs, xs))
        return xs

    monkeypatch.setattr(quadrature, "_panels", recorded)
    for n in (2, 6, 7, 9):
        verify.run_theorem(n)
    for b in (3.0, 10.0, 30.0):
        spec = IntegrandSpec("fermi", "sin", a=0.5, b=b)
        integrate_to_infinity(spec, 1.0)
        integrate_to_infinity(spec, 1.0, paired=True)
    for b in (14.1, 485.0):
        integrate_line(complex(0.5, b))
    whole = split = 0
    for args, kwargs, xs in calls:
        assert np.array_equal(xs, _panels_by_loop(*args, **kwargs)), args
        if not kwargs.get("nodes"):
            continue
        widths = np.diff(xs)
        whole += int(np.sum(widths == 1.0))
        split += int(np.sum(widths[:-1] < 1.0))
    assert whole > 2_000         # mostly whole half periods of the tails
    assert split                 # and the loop ran past a stretch


# ---------------------------------------------------------------------------
# Chunked panel batches.

def _chunk_cases():
    from etazeros import decomposition
    rays = [quadrature._ray_integral(complex(0.5, b))
            for b in (14.13, 862.69, 5000.3)]
    plan = decomposition.make_plan(0.5, 1000.0)
    tail = integrate_to_infinity(
        IntegrandSpec("fermi", "sin", a=0.5, b=1000.0), plan.R)   # suite 6
    arc = quadrature._arc_head(complex(0.5, 12.0), 2.0)
    return [repr(v) for v in (*rays, tail, arc)]


def test_chunking_changes_no_value(monkeypatch):
    # a chunk above every batch size evaluates each batch at once; every
    # (value, err) keeps its bits
    batch = quadrature._panel_batch
    sizes = []

    def recorded(integrand, lo, hi):
        sizes.append(len(lo))
        return batch(integrand, lo, hi)

    monkeypatch.setattr(quadrature, "_panel_batch", recorded)
    chunked = _chunk_cases()
    assert max(sizes) > 50 * quadrature._CHUNK      # ~2e4 panels at 5000.3
    monkeypatch.setattr(quadrature, "_CHUNK", 10 * max(sizes))
    assert _chunk_cases() == chunked


@pytest.mark.parametrize("n", [255, 256, 257, 258, 513, 769])
def test_chunk_boundaries_change_no_value(monkeypatch, n):
    # each panel's weighted sum reduces its own row, so where the chunks
    # end changes no bit; 257, 513 and 769 end in a chunk of one row
    s, rot = complex(0.5, 300.0), complex(0.01, math.sqrt(1.0 - 1e-4))
    xs = np.linspace(-3.0, 2.0, n + 1)

    def batch():
        return quadrature._panel_batch(
            lambda lo, hi, x: quadrature._ray_integrand(
                quadrature._ray_values, s, rot, lo, hi, x),
            xs[:-1], xs[1:])

    chunked = batch()
    monkeypatch.setattr(quadrature, "_CHUNK", n)
    for got, want in zip(chunked, batch()):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The float and the array executor.

_EXECUTORS = ("_integrate_floats", "_integrate_panels")


def _on(monkeypatch, run, f, *args):
    """f(*args) with every integral on the executor named ``run``, picked
    through the size limit as any caller's would be."""
    limit = math.inf if run == "_integrate_floats" else 0
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_FLOAT_PANELS", limit)
        return f(*args)


@functools.cache
def _float_cases():
    """(spec, lo, hi, paired) of every real-axis integral that runs on the
    float executor in suites 7, 8 and 9 and in decompose's default rows at
    b = 100, 700 and 2e4."""
    from etazeros import decomposition, verify
    axis, floats = quadrature._axis_integral, quadrature._integrate_floats
    cases, on_floats = [], []

    def recorded_floats(*args):
        on_floats.append(True)
        return floats(*args)

    def recorded_axis(spec, lo, hi, paired=False):
        on_floats.clear()
        result = axis(spec, lo, hi, paired)
        if on_floats:
            cases.append((spec, lo, hi, paired))
        return result

    quadrature._axis_integral = recorded_axis
    quadrature._integrate_floats = recorded_floats
    try:
        for n in (7, 8, 9):
            verify.run_theorem(n)
        for b in (100.0, 700.0, 2e4):
            decomposition.interval_contributions(
                decomposition.make_plan(0.5, b), 20)
    finally:
        quadrature._axis_integral, quadrature._integrate_floats = axis, floats
    return tuple(cases)


def _both_executors(monkeypatch, spec, lo, hi, paired):
    """(value, err) of the real-axis integral on floats, then on arrays."""
    return [_on(monkeypatch, run, quadrature._axis_integral, spec, lo, hi,
                paired) for run in _EXECUTORS]


def test_small_integrals_run_on_floats():
    # suites 7, 8 and 9 hold 40 of them; decompose's 60 rows are all small
    assert len(_float_cases()) == 100


def test_executors_agree_to_a_few_ulp(monkeypatch):
    # the same integrand, rules and refinement; only exp, sin and the rule
    # sums round differently
    for case in _float_cases():
        (vf, _), (va, _) = _both_executors(monkeypatch, *case)
        assert abs(vf - va) <= 8 * math.ulp(max(abs(vf), abs(va))), case


def test_executors_err_est_bounds_error_against_mpmath(monkeypatch):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for spec, lo, hi, paired in _float_cases():
            a, b = mp.mpf(spec.a), mp.mpf(spec.b)

            def q_(t):
                return 1 / (mp.exp(t) + 1)

            def f(t):
                if spec.kernel == "unit":
                    v = mp.mpf(1)
                elif spec.kernel == "fermi":
                    v = t ** (a - 1) * q_(t)
                else:
                    c = mp.exp(mp.pi / b)
                    v = t ** (a - 1) * (q_(t) - c ** a * q_(c * t))
                return v * mp.sin(b * mp.log(t)) if spec.trig else v

            points = [lo, hi] if hi < math.inf else (
                [lo] + [x for x in (2, 5, 10, 20, 40, 80) if x > lo]
                + [mp.inf])
            ref = mp.quad(f, points)
            for v, e in _both_executors(monkeypatch, spec, lo, hi, paired):
                assert abs(v - ref) <= e, (spec, lo, hi)


def test_float_executor_overflow_is_a_quadrature_error():
    # t^(a-1) at a = 200 leaves the float range on [50, 60]: math raises
    # OverflowError where numpy gives inf, and both end as the same error
    spec = IntegrandSpec("fermi", a=200.0)
    lo, hi = 50.0, 60.0
    with pytest.raises(QuadratureError, match="panel values overflow"):
        integrate_finite(spec, lo, hi)
    assert len(quadrature._panels(
        spec.a, 1.0, 0.5 * math.pi, math.log(math.pi), 0.0,
        math.log(hi / lo), math.log(lo))) - 1 <= quadrature._FLOAT_PANELS


# ---------------------------------------------------------------------------
# The ray on both executors, requests and the bisection budget.

@pytest.mark.parametrize("b", [5.0, 14.1347, 25.0, 40.9, 200.0])
@pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
def test_ray_executors_agree_within_err_of_mpmath(monkeypatch, a, b):
    # one integrand formula on two executors: the rays agree within both
    # errs, and each is within its err of Gamma eta; I = F e^(-i theta s)
    mp = pytest.importorskip("mpmath")
    s = complex(a, b)
    rays = [_on(monkeypatch, run, quadrature._ray_integral, s)
            for run in _EXECUTORS]
    (i_f, e_f, theta), (i_a, e_a, _) = rays
    assert abs(i_f - i_a) <= e_f + e_a
    with mp.workdps(40):
        z = mp.mpc(a, b)
        ref = mp.gamma(z) * mp.altzeta(z) * mp.exp(-1j * mp.mpf(theta) * z)
        for i, e, _ in rays:
            assert abs(mp.mpc(i.real, i.imag) - ref) <= e, (s, i, e)


def _recorded_runs(monkeypatch):
    """The names of the executors each ray runs on from here on."""
    runs = []
    for name in _EXECUTORS:
        def wrapper(*args, _run=getattr(quadrature, name), _name=name):
            runs.append(_name)
            return _run(*args)
        monkeypatch.setattr(quadrature, name, wrapper)
    return runs


def test_a_request_runs_all_its_rays_on_one_executor(monkeypatch):
    # the executor goes by the initial panels of the whole request: a few
    # rays at low b on floats, many on arrays, each ray alone by its own
    small = [complex(0.5, b) for b in (14.0, 21.0, 25.0)]
    large = [complex(0.5, b) for b in range(10, 60)]
    panels = [len(quadrature._ray(s)[-1]) - 1 for s in large]
    assert sum(panels) > quadrature._FLOAT_PANELS >= max(panels)
    runs = _recorded_runs(monkeypatch)
    for points, want in ((small, "_integrate_floats"),
                         (large, "_integrate_panels")):
        runs.clear()
        with quadrature.line_request(points):
            for s in points:
                integrate_line(s)
        assert runs == [want] * len(points)
    runs.clear()
    for s in large:
        integrate_line(s)
    assert runs == ["_integrate_floats"] * len(large)
    assert quadrature._REQUEST.get() is None


def test_a_lone_ray_takes_floats_up_to_the_request_size():
    ray = quadrature._ray
    for b, run in ((300.0, quadrature._integrate_floats),
                   (320.0, quadrature._integrate_panels)):
        panels = len(ray(complex(0.5, b))[-1]) - 1
        assert quadrature._run(panels) is run, (b, panels)


def test_suite6_asks_for_its_tails_at_once(monkeypatch):
    # suite 6's default grid holds four tails, ~1,790 panels together: they
    # run on arrays as one request, where the two at b = 100 alone would
    # take floats; a lone paired tail at b = 1000, ~540 panels, takes floats
    from etazeros import decomposition, verify
    plans = [decomposition.make_plan(0.5, b) for b in verify.B_GRIDS[6]]
    tails = [(IntegrandSpec("fermi", "sin", a=0.5, b=plan.b), plan.R,
              math.inf, paired) for plan in plans for paired in (True, False)]
    sizes = [len(quadrature._axis(*tail)[0]) for tail in tails]
    assert sum(sizes) > quadrature._FLOAT_PANELS >= max(sizes[:2])
    runs = _recorded_runs(monkeypatch)
    assert verify.run_theorem(6).passed
    assert runs == ["_integrate_panels"] * 4
    runs.clear()
    decomposition.upper_integral(plans[-1])
    assert runs == ["_integrate_floats"]
    assert quadrature._REQUEST.get() is None


def _mp_tail(mp, a, b, R):
    """int_R^inf t^(a-1) sin(b log t) / (e^t + 1) dt at 30 digits: Im of
    F(s) = Gamma(s) eta(s), s = a + ib, less Im of the head from 0 to R
    (R < pi), whose kernel's Maclaurin series,
    c_n = (1 - 2^(n+1)) B_(n+1) / (n+1)!, integrates term by term."""
    with mp.workdps(30):
        s, R = mp.mpc(a, b), mp.mpf(R)
        head, r_pow, n = mp.mpc(0), R ** s, 0
        while (R / mp.pi) ** n > mp.mpf(10) ** -32:
            c = (1 - mp.mpf(2) ** (n + 1)) * mp.bernoulli(n + 1) \
                / mp.factorial(n + 1)
            head += c * r_pow / (s + n)
            r_pow *= R
            n += 1
        return mp.im(mp.gamma(s) * mp.altzeta(s) - head)


@pytest.mark.parametrize("b", [100.0, 500.0, 1000.0, 1900.0])
@pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
def test_tail_executors_agree_within_err_of_mpmath(monkeypatch, a, b):
    # the series route's paired tail and suite 6's direct one, from R to
    # infinity, on both executors: they agree within both errs, and each
    # is within its err of the tail Gamma eta leaves beyond the head
    mp = pytest.importorskip("mpmath")
    _, R = choose_K_R(b)
    ref = _mp_tail(mp, a, b, R)
    spec = IntegrandSpec("fermi", "sin", a=a, b=b)
    for paired in (True, False):
        tails = _both_executors(monkeypatch, spec, R, math.inf, paired)
        (v_f, e_f), (v_a, e_a) = tails
        assert abs(v_f - v_a) <= e_f + e_a, paired
        with mp.workdps(30):
            for v, e in tails:
                assert abs(v - ref) <= e, (paired, v, e)


@pytest.mark.parametrize("run", _EXECUTORS)
def test_a_stalled_panel_spends_the_budget_at_once(monkeypatch, run):
    # with one G24 weight dropped no panel passes the done test; the
    # integral raises once its budget is spent, with the value and err in
    # hand, where a per-panel depth of 24 ran for minutes
    import time
    x, w = quadrature._GAUSS[quadrature._RULE_HI]
    monkeypatch.setitem(quadrature._GAUSS, quadrature._RULE_HI,
                        (x, (*w[:5], 0.0, *w[6:])))
    monkeypatch.setattr(quadrature, "_gauss_arrays", functools.cache(
        quadrature._gauss_arrays.__wrapped__))
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="budget") as ei:
        _on(monkeypatch, run, quadrature._ray_integral, complex(0.5, 14.13))
    assert time.perf_counter() - start < 1.0
    assert ei.value.value is not None and ei.value.err_est > 0
    if run == "_integrate_floats":      # and a real-axis integral of floats
        start = time.perf_counter()
        with pytest.raises(QuadratureError, match="budget"):
            integrate_finite(IntegrandSpec("fermi", a=0.5), 1.0, 2.0)
        assert time.perf_counter() - start < 1.0
