import cmath
import math

import pytest

from etazeros.special import (
    F,
    Gamma,
    log_gamma,
    one_minus_two_pow,
    riemann_siegel_theta,
    zeta_from_F,
)
from etazeros.quadrature import QuadratureError, unscale
from etazeros.verify import check_theorem1

FIRST_ZERO = 14.134725  # derived by the eta oracle (see test_zerofinder)


def zeta(s):
    """zeta(s) from the scaled F(s) by the bridge identity, as
    (value, err)."""
    return zeta_from_F(s, *F(s, scaled=True))


def test_F_at_one_is_log2():
    value, _ = F(1.0)
    assert value.real == pytest.approx(math.log(2.0), rel=1e-12)
    assert value.imag == 0.0


def test_F_at_two():
    # F(2) = (1 - 2^-1) G(2) with G(2) = zeta(2) gamma(2) = pi^2/6;
    # oracle route: alternating sum of n^-2 converges to pi^2/12
    value, _ = F(2.0)
    assert value.real == pytest.approx(math.pi ** 2 / 12.0, rel=1e-12)


def test_F_small_at_first_zero():
    value, _ = F(complex(0.5, FIRST_ZERO))
    assert abs(value) < 1e-5


def test_gamma_integer_and_half():
    assert Gamma(1.0)[0].real == pytest.approx(1.0, rel=1e-12)
    assert Gamma(5.0)[0].real == pytest.approx(24.0, rel=1e-12)
    assert Gamma(0.5)[0].real == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_zeta_from_F_at_even_integers():
    # off the strip too, zeta comes from F through the bridge identity
    assert zeta(2.0)[0].real == pytest.approx(math.pi ** 2 / 6.0, rel=1e-11)
    assert zeta(4.0)[0].real == pytest.approx(math.pi ** 4 / 90.0, rel=1e-11)


def test_zeta_from_F_is_the_bridge_quotient():
    # zeta = I / (1 - 2^(1-s)) / exp(log Gamma - log_scale): F's scale and
    # gamma meet in one exponential
    s = complex(0.5, 25.0)
    integral, err, log_scale = F(s, scaled=True)
    expected = (integral / one_minus_two_pow(s)
                / cmath.exp(log_gamma(s)[0] - log_scale))
    assert zeta_from_F(s, integral, err, log_scale)[0] == expected
    # a plain F (log_scale = 0) gives the plain quotient F / (1 - 2^(1-s))
    # / gamma bit for bit
    f, f_err = F(s)
    assert zeta_from_F(s, f, f_err, 0.0)[0] == (
        f / one_minus_two_pow(s) / Gamma(s)[0])


def test_scaled_F_is_F():
    # exp(log_scale) I is F's value, and -b gives the conjugates; unscale
    # gives F's (value, err) bit for bit, signed zeros too past b ~ 470
    for a, b in ((0.5, 25.0), (0.2, 100.0), (0.8, 3.0), (2.0, 0.0),
                 (0.5, 480.3), (0.8, 1000.7)):
        integral, err, log_scale = F(complex(a, b), scaled=True)
        assert cmath.exp(log_scale) * integral == F(complex(a, b))[0]
        dn = F(complex(a, -b), scaled=True)
        assert dn[0] == integral.conjugate()
        assert dn[2] == log_scale.conjugate()
        for s, scaled in ((complex(a, b), (integral, err, log_scale)),
                          (complex(a, -b), dn)):
            assert repr(unscale(*scaled)) == repr(F(s))


def test_zeta_from_F_overflow_is_a_quadrature_error():
    # gamma(175 + i) overflows: an error of the evaluation, not of Python
    with pytest.raises(QuadratureError, match="overflows"):
        zeta_from_F(complex(175.0, 1.0), 1e300, 1.0, 0.0)


def test_F_rejects_left_halfplane():
    with pytest.raises(ValueError):
        F(-0.5)


def test_zeta_at_two():
    assert zeta(2.0)[0].real == pytest.approx(math.pi ** 2 / 6.0, rel=1e-11)


def test_zeta_at_half():
    # zeta(1/2) = eta(1/2)/(1 - sqrt(2)); reference from the eta oracle
    from etazeros.zerofinder import eta_oracle
    ref = eta_oracle(0.5)[0] / one_minus_two_pow(0.5)
    got, _ = zeta(0.5)
    assert got.real == pytest.approx(ref.real, rel=1e-10)
    assert got.real == pytest.approx(-1.4603545, abs=1e-6)


def test_zeta_near_first_zero():
    value, _ = zeta(complex(0.5, FIRST_ZERO))
    assert abs(value) < 1e-4


def test_zeta_refuses_noise_quotient():
    # a plain F (log_scale = 0) at 1/2 + 500i has underflowed to 0 with
    # gamma ~ e^-785: no quotient to return
    s = complex(0.5, 500.0)
    assert zeta_from_F(s, *F(s), 0.0) is None


@pytest.mark.parametrize("a,b", [(a, b) for a in (0.2, 0.5, 0.8)
                                 for b in (480.0, 1000.7, 5000.3)]
                         + [(0.5, 2e4)])
def test_zeta_from_scaled_F_up_to_the_height_bound(a, b):
    # past b ~ 470 F and gamma underflow, but the scaled F and
    # gamma exp(-log_scale) stay O(1): zeta keeps its digits up to the CLI's
    # height bound, within its err of mpmath
    mpmath = pytest.importorskip("mpmath")
    value, err = zeta(complex(a, b))
    with mpmath.workdps(30):
        ref = mpmath.zeta(mpmath.mpc(a, b))
        assert abs(mpmath.mpc(value) - ref) <= err, (a, b, err)
    assert err <= 1e-6 * abs(value), (a, b, err)


@pytest.mark.parametrize("b", [40.0, 100.0])
def test_zeta_strip_within_err_est_of_mpmath(b):
    # |gamma(1/2 + ib)| is 5e-28 at b = 40 and 1e-68 at b = 100; Stirling's
    # series resolves it, so the quotient keeps its relative accuracy
    mpmath = pytest.importorskip("mpmath")
    value, err = zeta(complex(0.5, b))
    with mpmath.workdps(40):
        ref = mpmath.zeta(mpmath.mpc(0.5, b))
        assert abs(mpmath.mpf(value.real) - ref.real) <= err
        assert abs(mpmath.mpf(value.imag) - ref.imag) <= err


def test_conjugate_symmetry():
    for (a, b) in ((0.3, 7.0), (0.5, 14.2), (0.8, 23.0)):
        up, _ = F(complex(a, b))
        dn, _ = F(complex(a, -b))
        assert dn.real == up.real
        assert dn.imag == -up.imag


def test_identity_chain_strip_grid():
    # |(1 - 2^(1-s)) zeta - eta_ref| / |(1 - 2^(1-s)) zeta|, zeta from the
    # scaled F, on the 3 x 5 strip grid, within the errors both routes
    # claim, which stay below 1e-7 relative
    points = [complex(a, b)
              for a in (0.2, 0.5, 0.8)
              for b in (5.0, 10.0, 14.1347, 50.0, 100.0)]
    rep = check_theorem1(points)
    assert rep.passed, rep.to_text()
    rows = [r for r in rep.rows if r.gating]
    assert len(rows) == 15
    assert all(r.tol <= 1e-7 for r in rows), rep.to_text()


def test_theorem1_excludes_outside_strip():
    rep = check_theorem1([complex(1.0, 2 * math.pi / math.log(2.0))])
    assert rep.rows[0].gating is False
    assert "excluded" in rep.rows[0].note


def test_small_b_against_library_gamma():
    # below the verification grids (b < 5) the panels get very wide and the
    # per-panel refinement path carries the load; cross-check against
    # scipy's complex gamma times our eta series
    import scipy.special as sps
    from etazeros.zerofinder import eta_oracle
    for a, b in ((0.5, 0.2), (0.3, 1.0), (0.8, 2.5)):
        s = complex(a, b)
        f, _ = F(s)
        ref = complex(sps.gamma(s)) * eta_oracle(s)[0]
        assert abs(f - ref) < 1e-10 * abs(ref) + 1e-14


def test_imaginary_part_matches_series_plus_decomposition():
    # F2 from the complex evaluation vs head series + paired tail, within
    # the sum of the three stated error bounds
    from etazeros.decomposition import make_plan, upper_integral
    from etazeros.series import choose_K_R, series_lower_integral
    for b in (100.0, 200.0):
        f, f_err = F(complex(0.5, b))
        K, R = choose_K_R(b)
        head, head_err = series_lower_integral(0.5, b, K, R, tol=1e-13)
        tail, tail_err = upper_integral(make_plan(0.5, b))
        assert abs(f.imag - (head + tail)) <= head_err + tail_err + f_err


ERR_GRID_A = (0.1, 0.3, 0.5, 0.7, 0.9)
ERR_GRID_B = (0.2, 5.0, 14.134725, 21.02204, 25.010858, 40.0, 60.0)


@pytest.mark.parametrize("b", ERR_GRID_B)
def test_F_err_est_bounds_error_against_mpmath(b):
    # the reference Gamma(s) eta(s) at 40 digits; each component of F must
    # lie within its own error estimate of it, however small |F| gets
    mpmath = pytest.importorskip("mpmath")
    for a in ERR_GRID_A:
        value, err = F(complex(a, b))
        with mpmath.workdps(40):
            s = mpmath.mpc(a, b)
            ref = mpmath.gamma(s) * mpmath.altzeta(s)
            d_re = abs(mpmath.mpf(value.real) - ref.real)
            d_im = abs(mpmath.mpf(value.imag) - ref.imag)
        assert d_re <= err, (a, b, float(d_re), err)
        assert d_im <= err, (a, b, float(d_im), err)


def test_F_is_quadrature_only_and_reproducible(monkeypatch):
    # the integral route must not lean on the eta oracle it is checked against
    import etazeros.zerofinder as zf

    def refuse(*args, **kwargs):
        raise AssertionError("F called the eta oracle")

    monkeypatch.setattr(zf, "eta_oracle", refuse)
    s = complex(0.5, 40.0)
    assert F(s) == F(s)


def _assert_within_err(value, err, ref, mpmath):
    d_re = abs(mpmath.mpf(value.real) - ref.real)
    d_im = abs(mpmath.mpf(value.imag) - ref.imag)
    assert d_re <= err, (float(d_re), err)
    assert d_im <= err, (float(d_im), err)


@pytest.mark.parametrize("b", [0.0, 5.0, 14.13, 40.0, 100.0, 300.0])
def test_gamma_err_est_bounds_error_against_mpmath(b):
    mpmath = pytest.importorskip("mpmath")
    for a in (0.1, 0.5, 0.9, 2.0, 5.0):
        value, err = Gamma(complex(a, b))
        with mpmath.workdps(40):
            _assert_within_err(value, err, mpmath.gamma(mpmath.mpc(a, b)),
                               mpmath)
        assert err <= 1e-8 * abs(value), (a, b)


@pytest.mark.parametrize("a,b", [(2.0, 0.0), (4.0, 0.0), (2.0, 10.0),
                                 (1.5, 30.0), (3.0, 100.0)])
def test_G_direct_matches_mpmath(a, b):
    # the Bose integral G = gamma zeta, off the strip where it converges:
    # its zeta factor comes from F through the bridge identity
    mpmath = pytest.importorskip("mpmath")
    value, err = zeta(complex(a, b))
    with mpmath.workdps(40):
        _assert_within_err(value, err, mpmath.zeta(mpmath.mpc(a, b)), mpmath)
    assert err <= 1e-10 * abs(value), (a, b)


# ---------------------------------------------------------------------------
# Stirling's log Gamma and the Riemann-Siegel theta.

STIRLING_B = (1.0, 14.13, 100.3, 401.0, 1000.7)


@pytest.mark.parametrize("b", STIRLING_B)
def test_log_gamma_within_err_of_mpmath(b):
    mpmath = pytest.importorskip("mpmath")
    for a in (0.25, 0.5, 3.0):
        value, err = log_gamma(complex(a, b))
        ref = mpmath.loggamma(mpmath.mpc(a, b))
        assert abs(value - complex(ref)) <= err, (a, b)
        assert err <= 1e-13 * max(1.0, abs(value)), (a, b, err)


@pytest.mark.parametrize("b", STIRLING_B)
def test_riemann_siegel_theta_within_err_of_mpmath(b):
    mpmath = pytest.importorskip("mpmath")
    for sign in (1.0, -1.0):
        value, err = riemann_siegel_theta(sign * b)
        assert abs(value - float(mpmath.siegeltheta(sign * b))) <= err, b


def test_stirling_pairs_are_the_exact_coefficients():
    # the literal p / q are B_2k / (2k (2k - 1)), k = 1 .. 11, and each term
    # is their correctly rounded quotient
    from fractions import Fraction

    from etazeros.coeffs import bernoulli
    from etazeros.special import _STIRLING_PAIRS, _STIRLING_TERMS
    assert len(_STIRLING_PAIRS) == len(_STIRLING_TERMS) == 11
    for k, ((p, q), term) in enumerate(
            zip(_STIRLING_PAIRS, _STIRLING_TERMS), start=1):
        exact = bernoulli(2 * k) / (2 * k * (2 * k - 1))
        assert Fraction(p, q) == exact, k
        assert term == float(exact), k


def test_log_gamma_shift_and_branch():
    # small |z| is shifted up by log Gamma(z) = log Gamma(z + 1) - log z;
    # the branch is the continuous one, not the principal log of Gamma
    value, err = log_gamma(0.5)
    assert abs(value - 0.5 * math.log(math.pi)) <= err
    value, _ = log_gamma(complex(0.5, 100.0))
    assert value.imag > 300.0
    with pytest.raises(ValueError):
        log_gamma(complex(-0.5, 3.0))

