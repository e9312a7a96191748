import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etazeros import quadrature
from etazeros.decomposition import pair_kernel
from etazeros.quadrature import (
    _RULE_HI,
    _RULE_LO,
    IntegrandSpec,
    QuadratureError,
    _gauss,
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
        assert spec.smooth_factor(t) == pytest.approx(
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
        vals = ts ** (spec.a - 1.0) * spec.smooth_factor(ts)
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
    x, w = _gauss(n)
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
    x, w = _gauss(n)
    x_ref, w_ref = sps.roots_legendre(n)
    assert np.all(np.abs(x - x_ref) <= 4 * np.spacing(np.abs(x_ref)))
    assert np.all(np.abs(w - w_ref) <= 16 * eps)


# ---------------------------------------------------------------------------
# Finite integrals, smooth and singular.

def test_power_singularity():
    # int_0^inf t^(-1/2) e^-t dt = gamma(1/2) = sqrt(pi): the t^(-1/2) cusp
    # at 0 goes to the ray's closed-form head
    val_full, err_full = integrate_line("exp", 0.5)
    assert val_full.imag == 0.0
    assert val_full.real == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_fermi_log_antiderivative():
    # int_lo^X dt/(e^t+1) = [t - log(1 + e^t)]_lo^X
    spec = IntegrandSpec("fermi", a=1.0)
    lo, X = 0.5, math.log(3.0)
    val, err = integrate_finite(spec, lo, X)

    def anti(t):
        return t - math.log1p(math.exp(t))

    assert val == pytest.approx(anti(X) - anti(lo), rel=1e-13)
    assert err < 1e-12


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
    val, err = integrate_line("fermi", 1.0)
    assert val.imag == 0.0
    assert val.real == pytest.approx(math.log(2.0), rel=1e-13)


def test_gamma_kernel_factorial():
    # int_0^inf t e^-t dt = 1
    val, _ = integrate_line("exp", 2.0)
    assert val.real == pytest.approx(1.0, rel=1e-13)


def test_bose_kernel_zeta2():
    # int_0^inf t/(e^t - 1) dt = zeta(2) gamma(2) = pi^2/6
    val, _ = integrate_line("bose", 2.0)
    assert val.real == pytest.approx(math.pi ** 2 / 6.0, rel=1e-12)


def test_line_kernels_and_conjugate_symmetry():
    with pytest.raises(ValueError):
        integrate_line("pair_fermi", complex(0.5, 10.0))
    with pytest.raises(ValueError):
        # the bose head 1/z integrates only for Re s > 1
        integrate_line("bose", complex(1.0, 10.0))
    up, err_up = integrate_line("exp", complex(0.5, 7.0))
    dn, err_dn = integrate_line("exp", complex(0.5, -7.0))
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
    val, err = integrate_line("fermi", complex(0.5, 50.0))
    assert math.isfinite(val.real) and err < 1e-8


# ---------------------------------------------------------------------------
# Error handling and stability contracts.

def test_non_convergence_raises_with_payload(monkeypatch):
    # gamma(1/2) on the real axis: the panel rule spans the e^(-t) kernel's
    # head in a few panels that two bisections cannot resolve, and the
    # stall carries the best value with an error that bounds it
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 2)
    with pytest.raises(QuadratureError) as ei:
        integrate_line("exp", 0.5)
    assert ei.value.value is not None
    assert ei.value.err_est is not None and ei.value.err_est > 0
    assert abs(ei.value.value - math.sqrt(math.pi)) <= ei.value.err_est


@pytest.mark.parametrize("a", [100.0, 120.0])
def test_line_overflow_raises(a):
    # r^(s-1) on the ray (a = 100) or the tail bound (a = 120) overflows
    with pytest.raises(QuadratureError):
        integrate_line("fermi", complex(a, 1.0))


def test_refinement_consistency(monkeypatch):
    # doubling the refinement depth must not move a converged value by more
    # than its reported error estimate
    # (the sin kind of the fermi kernel is Im F(0.3 + 40i))
    s = complex(0.3, 40.0)
    v2, e2 = integrate_line("fermi", s)
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", quadrature._MAX_DEPTH // 2)
    v1, e1 = integrate_line("fermi", s)
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
    val, err = integrate_line("exp", a)
    val = val.real
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
        integrate_line("fermi", complex(0.5, b))
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
