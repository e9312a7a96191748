"""Registry of the numbered verification suites exposed by ``verify``.

Each runner pins its default grid here, so a bare ``verify --theorem N`` is
reproducible without flag archaeology; a ``--grid`` override replaces the b
grid where that makes sense.  Suite numbering:

  1  bridge identity (1 - 2^(1-s)) G = F on a strip grid
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

from . import coeffs, decomposition, series, special
from .quadrature import IntegrandSpec, integrate_to_infinity
from .report import VerificationReport
from .series import choose_K_R

__all__ = ["run_theorem", "run_all", "THEOREM_NUMBERS"]

_EPS = math.ulp(1.0)

THEOREM1_GRID_A = (0.2, 0.5, 0.8)
THEOREM1_GRID_B = (5.0, 10.0, 14.1347, 50.0, 100.0)

THEOREM2_GRID_A = (0.1, 0.5, 0.9)
THEOREM2_GRID_B = (100.0, 316.0, 1000.0)

THEOREM5_GRID_A = (0.01, 0.05, 0.1)
THEOREM5_GRID_B = (100.0, 300.0, 1000.0)

THEOREM6_GRID_B = (100.0, 1000.0)

THEOREM7_GRID_R = (1.0, 2.0)
THEOREM7_GRID_A = (0.2, 0.5, 0.731)
THEOREM7_GRID_B = (100.0, 1000.0)

THEOREM9_GRID_A = (0.2, 0.5)
THEOREM9_GRID_B = (100.0, 1000.0)


def _claimed(err1: float, err2: float, lhs: float, rhs: float) -> float:
    """Tolerance of two routes held to the precision both claim: the sum of
    their error bounds plus the rounding of the comparison."""
    return err1 + err2 + 4.0 * _EPS * max(abs(lhs), abs(rhs))


def _run_theorem1(b_grid=None) -> VerificationReport:
    bs = b_grid or THEOREM1_GRID_B
    points = [special.ComplexPoint(a, b) for a in THEOREM1_GRID_A for b in bs]
    return special.check_theorem1(points)


def _run_theorem2(b_grid=None) -> VerificationReport:
    rep = VerificationReport(name="theorem2")
    bs = b_grid or THEOREM2_GRID_B
    for a in THEOREM2_GRID_A:
        for b in bs:
            K, R = choose_K_R(b, 2.0)
            ev = series.series_lower_integral(a, b, K, R, tol=1e-17)
            qv, qe = series.lower_integral_by_quadrature(a, b, R)
            rep.add_equality(f"series vs quadrature a={a:g} b={b:g}",
                             ev.value, qv,
                             _claimed(ev.tail_bound, qe, ev.value, qv),
                             note=f"tail {ev.tail_bound:.1e}, quad err {qe:.1e}")
    return rep


def _run_theorem4(b_grid=None) -> VerificationReport:
    return coeffs.check_theorem4(m_max=20, tol=1e-12)


def _run_theorem5(b_grid=None) -> VerificationReport:
    rep = VerificationReport(name="theorem5")
    bs = b_grid or THEOREM5_GRID_B
    for a in THEOREM5_GRID_A:
        for b in bs:
            rep.extend(series.check_theorem5(a, b))
    return rep


def _run_theorem6(b_grid=None) -> VerificationReport:
    rep = VerificationReport(name="theorem6")
    bs = b_grid or THEOREM6_GRID_B
    for b in bs:
        plan = decomposition.make_plan(0.5, b)
        v_pair, e_pair = decomposition.upper_integral(plan)
        v_dir, e_dir = integrate_to_infinity(
            IntegrandSpec("fermi", "sin", a=0.5, b=b), plan.R)
        rep.add_equality(f"paired sum vs direct tail a=0.5 b={b:g}",
                         v_pair, v_dir, _claimed(e_pair, e_dir, v_pair, v_dir),
                         note=f"err estimates {e_pair:.1e} / {e_dir:.1e}")
    return rep


def _run_theorem7(b_grid=None) -> VerificationReport:
    rep = VerificationReport(name="theorem7")
    bs = b_grid or THEOREM7_GRID_B
    for R in THEOREM7_GRID_R:
        for a in THEOREM7_GRID_A:
            for b in bs:
                rep.extend(decomposition.check_theorem7(a, b, R))
    return rep


def _run_theorem8(b_grid=None) -> VerificationReport:
    if b_grid:
        return decomposition.check_theorem8(
            b_values=tuple(b_grid),
            closed_vs_quad=tuple((b, k) for b in b_grid for k in (0, 5, 50)))
    return decomposition.check_theorem8()


def _run_theorem9(b_grid=None) -> VerificationReport:
    rep = VerificationReport(name="theorem9")
    bs = b_grid or THEOREM9_GRID_B
    for a in THEOREM9_GRID_A:
        for b in bs:
            K, _ = choose_K_R(b, 2.0)
            for k in (K, K + 10):
                rep.extend(decomposition.check_theorem9(k, b, a))
    return rep


def _run_theorem10(b_grid=None) -> VerificationReport:
    if b_grid:
        return decomposition.check_theorem10(b_grid=tuple(b_grid))
    return decomposition.check_theorem10()


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
    if n not in _RUNNERS:
        raise ValueError(f"no verification suite numbered {n}; "
                         f"available: {THEOREM_NUMBERS}")
    return _RUNNERS[n](b_grid)


def run_all() -> list[VerificationReport]:
    return [run_theorem(n) for n in THEOREM_NUMBERS]
