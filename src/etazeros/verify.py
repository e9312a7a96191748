"""Registry of the numbered verification suites exposed by ``verify``.

:data:`B_GRIDS` pins every suite's default b grid here, so a bare
``verify --theorem N`` is reproducible without flag archaeology; a
``--grid`` override replaces the b grid of every suite but 4, which has
none and refuses one.  Suites 1, 2 and 6 compose their two routes here,
the others run a layer's own check.
Suite numbering:

  1  bridge identity F = (1 - 2^(1-s)) gamma zeta = gamma eta on a strip grid
  2  head-integral series vs arc-contour quadrature
  4  coefficient structure: parity, signs, zeta forms, ratio sandwich
  5  strict head-integral lower bound
  6  paired tail sum vs direct tail quadrature
  7  tail telescoping and its strict bounds
  8  half-period sine average: closed form and bracketing
  9  half-period sandwich via min/max of the paired kernel
 10  paired-kernel positivity on its region

(3 is subsumed by the exact coefficient identities inside suite 4; the text
of suite 2 covers the series identity whose derivation it cross-checks.)
"""

from __future__ import annotations

import math

from . import coeffs, decomposition, series, special, zerofinder
from .decomposition import choose_K_R
from .quadrature import IntegrandSpec, integrate_to_infinity, line_request
from .report import VerificationReport

__all__ = ["run_theorem", "run_all", "THEOREM_NUMBERS", "check_theorem1"]

_EPS = math.ulp(1.0)

# Each suite's default b grid; suite 4 checks exact coefficient identities
# and has none.
B_GRIDS = {
    1: (5.0, 10.0, 14.1347, 50.0, 100.0),
    2: (100.0, 316.0, 1000.0),
    4: None,
    5: (100.0, 300.0, 1000.0),
    6: (100.0, 1000.0),
    7: (100.0, 1000.0),
    8: (10.0, 31.6, 100.0, 316.0, 1000.0),
    9: (100.0, 1000.0),
    10: (1.0, 10.0, 100.0, 1000.0),
}

THEOREM1_GRID_A = (0.2, 0.5, 0.8)
THEOREM2_GRID_A = (0.1, 0.5, 0.9)
THEOREM5_GRID_A = (0.01, 0.05, 0.1)
THEOREM7_GRID_R = (1.0, 2.0)
THEOREM7_GRID_A = (0.2, 0.5, 0.731)
THEOREM9_GRID_A = (0.2, 0.5)

# The (b, k) half periods suite 8's default run compares closed form and
# quadrature on; a --grid compares every b at k = 0, 5 and 50.
THEOREM8_CLOSED_VS_QUAD = ((10.0, 0), (10.0, 5), (100.0, 0), (100.0, 5),
                           (100.0, 50), (1000.0, 0), (1000.0, 5), (1000.0, 50))


def _claimed(err1: float, err2: float, lhs: float, rhs: float) -> float:
    """Tolerance of two routes held to the precision both claim: the sum of
    their error bounds plus the rounding of the comparison."""
    return err1 + err2 + 4.0 * _EPS * max(abs(lhs), abs(rhs))


def check_theorem1(points) -> VerificationReport:
    """Bridge identity on strip points: F(s) from special's quadrature must
    match (1 - 2^(1-s)) gamma(s) zeta(s) = gamma(s) eta(s), whose right side
    is zerofinder's alternating series for eta, with no quadrature.

    Both sides are divided by gamma, so no cell underflows: F / gamma is
    (1 - 2^(1-s)) zeta of ``special.zeta_from_F`` on the scaled F.  Each cell
    is relative to it, held to the precision both routes claim (their errs
    plus 4 eps of the larger side), and passes only where |I| > 4 err_I.
    The F of every cell in the strip is one request.
    """
    rep = VerificationReport(name="theorem1")
    points = [complex(s) for s in points]
    with line_request([s for s in points if 0.0 < s.real < 1.0]):
        for s in points:
            a, b = s.real, s.imag
            if not 0.0 < a < 1.0:
                rep.add(f"s={a:g}+{b:g}i outside strip", False, gating=False,
                        note="excluded: hypothesis needs 0 < a < 1")
                continue
            integral, i_err, log_scale = special.F(s, scaled=True)
            zeta, zeta_err = special.zeta_from_F(s, integral, i_err,
                                                 log_scale)
            eta, eta_err = zerofinder.eta_oracle(s)
            denom = special.one_minus_two_pow(s)
            lhs = denom * zeta
            lhs_abs = abs(lhs)
            rel = tol = None
            if lhs_abs:
                rel = abs(lhs - eta) / lhs_abs
                tol = _claimed(abs(denom) * zeta_err, eta_err,
                               lhs, eta) / lhs_abs
            rep.add(f"a={a:g} b={b:g}",
                    abs(integral) > 4.0 * i_err and rel <= tol,
                    discrepancy=rel, tol=tol, lhs=lhs_abs, rhs=abs(eta))
    return rep


def _run_theorem1(bs) -> VerificationReport:
    return check_theorem1([complex(a, b) for a in THEOREM1_GRID_A for b in bs])


def _run_theorem2(bs) -> VerificationReport:
    rep = VerificationReport(name="theorem2")
    for a in THEOREM2_GRID_A:
        for b in bs:
            K, R = choose_K_R(b)
            sv, st = series.series_lower_integral(a, b, K, R, tol=1e-17)
            qv, qe = series.lower_integral_by_quadrature(a, b, R)
            rep.add_equality(f"series vs quadrature a={a:g} b={b:g}",
                             sv, qv, _claimed(st, qe, sv, qv),
                             note=f"tail {st:.1e}, quad err {qe:.1e}")
    return rep


def _run_theorem4(bs) -> VerificationReport:
    return coeffs.check_theorem4(m_max=20, tol=1e-12)


def _run_theorem5(bs) -> VerificationReport:
    rep = VerificationReport(name="theorem5")
    for a in THEOREM5_GRID_A:
        for b in bs:
            rep.extend(series.check_theorem5(a, b))
    return rep


def _run_theorem6(bs) -> VerificationReport:
    # the paired and the direct tail of every b, as one request
    rep = VerificationReport(name="theorem6")
    plans = [decomposition.make_plan(0.5, b) for b in bs]
    specs = [IntegrandSpec("fermi", "sin", a=0.5, b=plan.b) for plan in plans]
    tails = [(spec, plan.R, math.inf, paired)
             for spec, plan in zip(specs, plans) for paired in (True, False)]
    with line_request(axes=tails):
        for spec, plan in zip(specs, plans):
            v_pair, e_pair = decomposition.upper_integral(plan)
            v_dir, e_dir = integrate_to_infinity(spec, plan.R)
            rep.add_equality(f"paired sum vs direct tail a=0.5 b={plan.b:g}",
                             v_pair, v_dir,
                             _claimed(e_pair, e_dir, v_pair, v_dir),
                             note=f"err estimates {e_pair:.1e} / {e_dir:.1e}")
    return rep


def _run_theorem7(bs) -> VerificationReport:
    rep = VerificationReport(name="theorem7")
    for R in THEOREM7_GRID_R:
        for a in THEOREM7_GRID_A:
            for b in bs:
                rep.extend(decomposition.check_theorem7(a, b, R))
    return rep


def _run_theorem8(bs) -> VerificationReport:
    # the table's own grid, not a --grid equal to it, keeps the eight pairs
    pairs = (THEOREM8_CLOSED_VS_QUAD if bs is B_GRIDS[8]
             else [(b, k) for b in bs for k in (0, 5, 50)])
    return decomposition.check_theorem8(bs, pairs)


def _run_theorem9(bs) -> VerificationReport:
    rep = VerificationReport(name="theorem9")
    for a in THEOREM9_GRID_A:
        for b in bs:
            K, _ = choose_K_R(b)
            for k in (K, K + 10):
                rep.extend(decomposition.check_theorem9(k, b, a))
    return rep


def _run_theorem10(bs) -> VerificationReport:
    return decomposition.check_theorem10(bs)


_RUNNERS = {
    1: _run_theorem1,
    2: _run_theorem2,
    4: _run_theorem4,
    5: _run_theorem5,
    6: _run_theorem6,
    7: _run_theorem7,
    8: _run_theorem8,
    9: _run_theorem9,
    10: _run_theorem10,
}

THEOREM_NUMBERS = tuple(sorted(_RUNNERS))


def run_theorem(n: int, b_grid=None) -> VerificationReport:
    """Run suite ``n`` on ``b_grid``, or on its default grid in
    :data:`B_GRIDS` when ``b_grid`` is empty."""
    if n not in _RUNNERS:
        raise ValueError(f"no verification suite numbered {n}; "
                         f"available: {THEOREM_NUMBERS}")
    if b_grid and B_GRIDS[n] is None:
        raise ValueError(f"verification suite {n} has no b grid to override")
    return _RUNNERS[n](b_grid or B_GRIDS[n])


def run_all() -> list[VerificationReport]:
    return [run_theorem(n) for n in THEOREM_NUMBERS]
