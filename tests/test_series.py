import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etazeros import quadrature
from etazeros.coeffs import g_value
from etazeros.series import (
    _series_sum,
    check_theorem5,
    choose_K_R,
    lower_integral_by_quadrature,
    maclaurin_kernel,
    series_lower_integral,
    theorem5_internal_constants,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Node choice.

def test_choose_K_R_b100():
    K, R = choose_K_R(100.0)
    assert K == 11
    assert R == pytest.approx(math.exp(0.22 * math.pi), rel=1e-14)
    assert R == pytest.approx(1.99601, abs=1e-5)


def test_choose_K_R_b1000():
    K, R = choose_K_R(1000.0)
    assert K == 110
    assert R == pytest.approx(math.exp(0.22 * math.pi), rel=1e-14)


def test_choose_K_R_boundary_hits_cap():
    b = TWO_PI / math.log(2.0)
    K, R = choose_K_R(b)
    assert K == 1
    assert R == pytest.approx(2.0, rel=1e-12)


def test_choose_K_R_is_one_object_through_every_layer():
    # it lives in decomposition; series and the package take it from there
    import etazeros
    from etazeros import decomposition, series
    assert series.choose_K_R is decomposition.choose_K_R is choose_K_R
    assert etazeros.choose_K_R is choose_K_R


def test_choose_K_R_too_small_b():
    with pytest.raises(ValueError):
        choose_K_R(5.0)  # needs b >= 2 pi / log 2 ~ 9.06


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=10.0, max_value=5000.0))
def test_choose_K_R_postconditions(b):
    K, R = choose_K_R(b)
    assert K >= 1
    assert R <= 2.0 * (1.0 + 1e-12)
    # maximality: one more period oversteps the cap
    assert math.exp(2.0 * (K + 1) * math.pi / b) > 2.0 * (1.0 - 1e-12)
    assert R * math.exp(2.0 * math.pi / b) > 2.0 * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# Series vs quadrature.

def test_series_matches_quadrature_spot():
    K, R = choose_K_R(100.0)
    sv, _ = series_lower_integral(0.5, 100.0, K, R, tol=1e-13)
    qv, _ = lower_integral_by_quadrature(0.5, 100.0, R)
    assert abs(sv - qv) < 1e-10


@pytest.mark.parametrize("a", (0.1, 0.5, 0.9))
@pytest.mark.parametrize("b", (100.0, 316.0, 1000.0))
def test_series_matches_quadrature_grid(a, b):
    K, R = choose_K_R(b)
    sv, _ = series_lower_integral(a, b, K, R, tol=1e-13)
    qv, _ = lower_integral_by_quadrature(a, b, R)
    assert abs(sv - qv) < 1e-9


def test_tail_bound_honesty():
    # adding ten more terms moves the value by less than the reported bound
    K, R = choose_K_R(100.0)
    v1, n1, bound1 = _series_sum(0.5, 100.0, R, tol=1e-10)
    v2, n2, _ = _series_sum(0.5, 100.0, R, tol=1e-10 * (R / math.pi) ** 20)
    assert n2 >= n1 + 10
    assert abs(v2 - v1) <= bound1


def test_coefficient_cap_returns_the_bound_reached():
    # a tolerance the table cannot reach truncates at its last coefficient
    # and reports the bound there instead of failing
    K, R = choose_K_R(100.0)
    value, bound = series_lower_integral(0.5, 100.0, K, R, tol=0.0)
    fine, fine_bound = series_lower_integral(0.5, 100.0, K, R, tol=1e-17)
    assert 0.0 < bound <= fine_bound
    assert abs(value - fine) <= fine_bound


def test_phase_alignment_is_load_bearing():
    # R' = R e^(pi/(2b)) breaks b log R = 2 K pi; the series formula then
    # no longer equals the integral (the residual head term survives)
    a, b = 0.5, 100.0
    K, R = choose_K_R(b)
    r_shift = R * math.exp(math.pi / (2.0 * b))
    v_series, _, _ = _series_sum(a, b, r_shift, tol=1e-13)
    v_quad, _ = lower_integral_by_quadrature(a, b, r_shift)
    assert abs(v_series - v_quad) > 1e-6


def _mp_head(mp, a, b, R):
    """int_0^R t^(s-1)/(e^t+1) dt, s = a + ib, at 30 digits: the kernel's
    Maclaurin series c_n = (1 - 2^(n+1)) B_(n+1)/(n+1)!, from mpmath's own
    Bernoulli numbers, integrated term by term to sum c_n R^(s+n)/(s+n)."""
    with mp.workdps(30):
        s, R = mp.mpc(a, b), mp.mpf(R)
        r_pow, total, n = R ** s, mp.mpc(0), 0
        while (R / mp.pi) ** n > mp.mpf(10) ** -32:
            c = (1 - mp.mpf(2) ** (n + 1)) * mp.bernoulli(n + 1) \
                / mp.factorial(n + 1)
            total += c * r_pow / (s + n)
            r_pow *= R
            n += 1
        return total


def _mp_head_check(mp, a, b, R):
    """Asserts the arc's err bounds its distance to :func:`_mp_head`;
    returns err."""
    with mp.workdps(30):
        ref = _mp_head(mp, a, b, R)
        v, e = quadrature._arc_head(complex(a, b), R)
        assert abs(mp.mpc(v) - ref) <= e, (a, b, R)
    return e


@pytest.mark.parametrize("b", (100.0, 316.0, 1000.0))
def test_arc_head_err_bounds_error_against_mpmath(b):
    # suite 2's grid, on the phase node and off it by the quarter half
    # period of test_phase_alignment_is_load_bearing: the arc needs no
    # alignment, and its bound stays near 1e-16
    mp = pytest.importorskip("mpmath")
    _, R = choose_K_R(b)
    for a in (0.1, 0.5, 0.9):
        for r in (R, R * math.exp(math.pi / (2.0 * b))):
            assert _mp_head_check(mp, a, b, r) < 2e-16


@pytest.mark.parametrize("b", (10.0, 12.0, 30.0))
def test_arc_head_small_b_against_mpmath(monkeypatch, b):
    # below b ~ 30 the segment 0 -> iR is integrated, above it its bound
    # e^(-pi b/2) R^a / (2 a cos(R/2)) is folded in; R runs up to 2.85,
    # where the pole at i pi is 0.1 off the arc's end in phi.  Both pieces
    # run on floats, and then on arrays once the size limit sends them there
    mp = pytest.importorskip("mpmath")
    for on_arrays in (False, True):
        if on_arrays:
            monkeypatch.setattr(quadrature, "_FLOAT_PANELS", 0)
        for a in (0.1, 0.5, 0.9):
            for R in (1.0, 2.0, 2.5, 2.85):
                assert _mp_head_check(mp, a, b, R) < 1e-15


def test_arc_head_takes_few_panels(monkeypatch):
    # the real-axis head at a = 0.1, b = 1000 spans about 15 b / pi half
    # periods, some 5,000 panels; on the arc t^(ib) decays like e^(-b phi),
    # and its few panels run on floats, or on arrays past the size limit
    counts = {"floats": 0, "arrays": 0}
    batch, panel = quadrature._panel_batch, quadrature._float_panel

    def counted_batch(integrand, lo, hi):
        counts["arrays"] += len(lo)
        return batch(integrand, lo, hi)

    def counted_panel(*args):
        counts["floats"] += 1
        return panel(*args)

    monkeypatch.setattr(quadrature, "_panel_batch", counted_batch)
    monkeypatch.setattr(quadrature, "_float_panel", counted_panel)
    _, R = choose_K_R(1000.0)
    for run, other, limit in (("floats", "arrays", quadrature._FLOAT_PANELS),
                              ("arrays", "floats", 0)):
        monkeypatch.setattr(quadrature, "_FLOAT_PANELS", limit)
        counts.update(floats=0, arrays=0)
        lower_integral_by_quadrature(0.1, 1000.0, R)
        assert 0 < counts[run] <= 64 and counts[other] == 0, (run, counts)


@pytest.mark.parametrize("R", (math.pi, 3.2))
def test_arc_head_refuses_the_pole_radius(R):
    with pytest.raises(ValueError):
        lower_integral_by_quadrature(0.5, 100.0, R)


def test_misaligned_R_rejected_by_public_op():
    with pytest.raises(ValueError):
        series_lower_integral(0.5, 100.0, 11, 1.99, tol=1e-10)


def test_radius_refusal():
    with pytest.raises(ValueError):
        _series_sum(0.5, 100.0, 3.2, tol=1e-10)


def test_K_zero_rejected():
    with pytest.raises(ValueError):
        series_lower_integral(0.5, 100.0, 0, 1.0, tol=1e-10)


def test_even_terms_do_not_contribute():
    # the term count covers n = 0, 1 and odd n >= 3 only; for ~60
    # coefficient orders that is ~32 terms, not ~60
    _, R = choose_K_R(100.0)
    _, terms, _ = _series_sum(0.5, 100.0, R, tol=1e-13)
    assert terms < 40


def test_kernel_series_identity():
    K, R = choose_K_R(100.0)
    assert abs(maclaurin_kernel(R) - g_value(R)) < 1e-12


# ---------------------------------------------------------------------------
# The strict head bound.

@pytest.mark.parametrize("a", (0.01, 0.05, 0.1))
@pytest.mark.parametrize("b", (100.0, 300.0, 1000.0))
def test_head_bound_margin_positive(a, b):
    rep = check_theorem5(a, b)
    assert rep.passed, rep.to_text()


def test_head_bound_scales_with_dominant_term():
    # margin tracks the 0.47177 R^a / b^3 correction plus the small positive
    # aggregate; check the observed margin against the window (0, R^a/b^3)
    for b in (100.0, 1000.0):
        rep = check_theorem5(0.05, b)
        row = [r for r in rep.rows if r.label.startswith("head bound")][0]
        K, R = choose_K_R(b)
        assert 0.0 < row.margin < 1.0 * R ** 0.05 / b ** 3


def test_alternate_variant_is_reported_false():
    rep = check_theorem5(0.05, 100.0)
    alt = [r for r in rep.rows if "alternate" in r.label][0]
    assert not alt.gating
    assert alt.margin < 0  # empirically false, visible in the report


def test_internal_constants():
    consts = theorem5_internal_constants(0.05, 100.0)
    b = 100.0
    assert abs(consts["bracket"]) < 0.76667 / b ** 2
    assert consts["pair_tail"] > 0.29490227 / b ** 2


def test_hypothesis_validation():
    with pytest.raises(ValueError):
        check_theorem5(0.5, 100.0)   # a too large
    with pytest.raises(ValueError):
        check_theorem5(0.05, 50.0)   # b too small
