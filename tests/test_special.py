import math

import pytest

from etazeros.quadrature import QuadratureError
from etazeros.special import (
    ComplexPoint,
    F,
    G,
    Gamma,
    check_theorem1,
    log_gamma,
    one_minus_two_pow,
    riemann_siegel_theta,
    zeta_strip,
)

FIRST_ZERO = 14.134725  # derived by the eta oracle (see test_zerofinder)


def test_F_at_one_is_log2():
    ev = F(1.0)
    assert ev.value.re == pytest.approx(math.log(2.0), rel=1e-12)
    assert ev.value.im == 0.0


def test_F_at_two():
    # F(2) = (1 - 2^-1) G(2) with G(2) = zeta(2) gamma(2) = pi^2/6;
    # oracle route: alternating sum of n^-2 converges to pi^2/12
    ev = F(2.0)
    assert ev.value.re == pytest.approx(math.pi ** 2 / 12.0, rel=1e-12)


def test_F_small_at_first_zero():
    ev = F(ComplexPoint(0.5, FIRST_ZERO))
    assert abs(ev.value) < 1e-5


def test_gamma_integer_and_half():
    assert Gamma(1.0).value.re == pytest.approx(1.0, rel=1e-12)
    assert Gamma(5.0).value.re == pytest.approx(24.0, rel=1e-12)
    assert Gamma(0.5).value.re == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_G_direct_values():
    # off the strip too, G comes from F through the bridge identity
    g2 = G(2.0)
    assert g2.method == "via-identity"
    assert g2.value.re == pytest.approx(math.pi ** 2 / 6.0, rel=1e-11)
    g4 = G(4.0)
    assert g4.value.re == pytest.approx(math.pi ** 4 / 15.0, rel=1e-11)


def test_G_strip_is_definitional():
    s = ComplexPoint(0.5, 25.0)
    g = G(s)
    assert g.method == "via-identity"
    f = F(s)
    expected = f.value.value / one_minus_two_pow(s)
    assert g.value.value == expected


def test_G_rejects_left_halfplane():
    with pytest.raises(ValueError):
        G(-0.5)


def test_zeta_at_two():
    assert zeta_strip(2.0).value.re == pytest.approx(math.pi ** 2 / 6.0,
                                                        rel=1e-11)


def test_zeta_at_half():
    # zeta(1/2) = eta(1/2)/(1 - sqrt(2)); reference from the eta oracle
    from etazeros.zerofinder import zeta_oracle
    ref = zeta_oracle(0.5, tol=1e-13)
    got = zeta_strip(0.5)
    assert got.value.re == pytest.approx(ref.re, rel=1e-10)
    assert got.value.re == pytest.approx(-1.4603545, abs=1e-6)


def test_zeta_near_first_zero():
    z = zeta_strip(ComplexPoint(0.5, FIRST_ZERO))
    assert abs(z.value) < 1e-4


def test_zeta_refuses_noise_quotient():
    # |gamma(1/2 + 500i)| ~ e^-785 underflows to 0: no quotient to return
    with pytest.raises(QuadratureError):
        zeta_strip(ComplexPoint(0.5, 500.0))


@pytest.mark.parametrize("b", [40.0, 100.0])
def test_zeta_strip_within_err_est_of_mpmath(b):
    # |gamma(1/2 + ib)| is 5e-28 at b = 40 and 1e-68 at b = 100; Stirling's
    # series resolves it, so the quotient keeps its relative accuracy
    mpmath = pytest.importorskip("mpmath")
    z = zeta_strip(ComplexPoint(0.5, b))
    with mpmath.workdps(40):
        ref = mpmath.zeta(mpmath.mpc(0.5, b))
        assert abs(mpmath.mpf(z.value.re) - ref.real) <= z.err
        assert abs(mpmath.mpf(z.value.im) - ref.imag) <= z.err


def test_conjugate_symmetry():
    for (a, b) in ((0.3, 7.0), (0.5, 14.2), (0.8, 23.0)):
        up = F(ComplexPoint(a, b))
        dn = F(ComplexPoint(a, -b))
        assert dn.value.re == up.value.re
        assert dn.value.im == -up.value.im


def test_identity_chain_strip_grid():
    # |F - (1 - 2^(1-s)) gamma zeta_ref| / |F| < 1e-7 on the 3 x 5 strip
    # grid; the right side is gamma * eta_ref
    points = [ComplexPoint(a, b)
              for a in (0.2, 0.5, 0.8)
              for b in (5.0, 10.0, 14.1347, 50.0, 100.0)]
    rep = check_theorem1(points)
    assert rep.passed, rep.to_text()
    assert len([r for r in rep.rows if r.gating]) == 15


def test_theorem1_excludes_outside_strip():
    rep = check_theorem1([ComplexPoint(1.0, 2 * math.pi / math.log(2.0))])
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
        f = F(ComplexPoint(a, b))
        ref = complex(sps.gamma(s)) * eta_oracle(s, tol=1e-12).value
        assert abs(f.value.value - ref) < 1e-10 * abs(ref) + 1e-14


def test_imaginary_part_matches_series_plus_decomposition():
    # F2 from the complex evaluation vs head series + paired tail, within
    # the sum of the three stated error bounds
    from etazeros.decomposition import make_plan, upper_integral
    from etazeros.series import choose_K_R, series_lower_integral
    for b in (100.0, 200.0):
        s = ComplexPoint(0.5, b)
        f = F(s)
        K, R = choose_K_R(b, 2.0)
        head = series_lower_integral(0.5, b, K, R, tol=1e-13)
        tail, tail_err = upper_integral(make_plan(0.5, b))
        assert abs(f.value.im - (head.value + tail)) \
            <= head.tail_bound + tail_err + f.err


ERR_GRID_A = (0.1, 0.3, 0.5, 0.7, 0.9)
ERR_GRID_B = (0.2, 5.0, 14.134725, 21.02204, 25.010858, 40.0, 60.0)


@pytest.mark.parametrize("b", ERR_GRID_B)
def test_F_err_est_bounds_error_against_mpmath(b):
    # the reference Gamma(s) eta(s) at 40 digits; each component of F must
    # lie within its own error estimate of it, however small |F| gets
    mpmath = pytest.importorskip("mpmath")
    for a in ERR_GRID_A:
        ev = F(ComplexPoint(a, b))
        with mpmath.workdps(40):
            s = mpmath.mpc(a, b)
            ref = mpmath.gamma(s) * mpmath.altzeta(s)
            d_re = abs(mpmath.mpf(ev.value.re) - ref.real)
            d_im = abs(mpmath.mpf(ev.value.im) - ref.imag)
        assert d_re <= ev.err, (a, b, float(d_re), ev.err)
        assert d_im <= ev.err, (a, b, float(d_im), ev.err)


def test_F_is_quadrature_only_and_reproducible(monkeypatch):
    # the integral route must not lean on the eta oracle it is checked against
    import etazeros.zerofinder as zf

    def refuse(*args, **kwargs):
        raise AssertionError("F called the eta oracle")

    monkeypatch.setattr(zf, "eta_oracle", refuse)
    s = ComplexPoint(0.5, 40.0)
    first = F(s)
    again = F(s)
    assert (first.value.re, first.value.im, first.err) == \
        (again.value.re, again.value.im, again.err)
    assert first.method == "integral-ray"


def _assert_within_err(ev, ref, mpmath):
    d_re = abs(mpmath.mpf(ev.value.re) - ref.real)
    d_im = abs(mpmath.mpf(ev.value.im) - ref.imag)
    assert d_re <= ev.err, (float(d_re), ev.err)
    assert d_im <= ev.err, (float(d_im), ev.err)


@pytest.mark.parametrize("b", [0.0, 5.0, 14.13, 40.0, 100.0, 300.0])
def test_gamma_err_est_bounds_error_against_mpmath(b):
    mpmath = pytest.importorskip("mpmath")
    for a in (0.1, 0.5, 0.9, 2.0, 5.0):
        ev = Gamma(ComplexPoint(a, b))
        with mpmath.workdps(40):
            _assert_within_err(ev, mpmath.gamma(mpmath.mpc(a, b)), mpmath)
        assert ev.err <= 1e-8 * abs(ev.value), (a, b)


@pytest.mark.parametrize("a,b", [(2.0, 0.0), (4.0, 0.0), (2.0, 10.0),
                                 (1.5, 30.0), (3.0, 100.0)])
def test_G_direct_matches_mpmath(a, b):
    mpmath = pytest.importorskip("mpmath")
    ev = G(ComplexPoint(a, b))
    assert ev.method == "via-identity"
    with mpmath.workdps(40):
        s = mpmath.mpc(a, b)
        _assert_within_err(ev, mpmath.gamma(s) * mpmath.zeta(s), mpmath)
    assert ev.err <= 1e-10 * abs(ev.value), (a, b)


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


def test_log_gamma_shift_and_branch():
    # small |z| is shifted up by log Gamma(z) = log Gamma(z + 1) - log z;
    # the branch is the continuous one, not the principal log of Gamma
    value, err = log_gamma(0.5)
    assert abs(value - 0.5 * math.log(math.pi)) <= err
    value, _ = log_gamma(complex(0.5, 100.0))
    assert value.imag > 300.0
    with pytest.raises(ValueError):
        log_gamma(complex(-0.5, 3.0))

