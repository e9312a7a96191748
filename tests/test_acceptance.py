"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criterion 9 matches the zero ordinates of the two independent routes to
1e-5.  It depends on F being resolved on the eta scale: |gamma(1/2+ib)| ~
e^(-pi b/2), so a quadrature whose absolute error stays near binary64's
resolution of an O(1) integrand mass (real-axis quadrature, floor ~1e-18)
blurs the integral-route ordinates to ~4e-5 at b ~ 21 and ~1e-3 at b ~ 25.
That floor is a property of the real-axis contour, not of the integral:
``special.F`` integrates on a ray rotated towards the imaginary axis, where
the factor e^(-theta b) comes out analytically, and its error scales with
|F| itself.  See the README's numerical honesty notes.
"""

import json
import math
import time
from fractions import Fraction

import pytest

from etazeros import verify
from etazeros.cli import main
from etazeros.coeffs import (
    CoefficientTable,
    _ratio_margins,
    coefficient_ratio_exact,
)

def report(n, ok, detail):
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


APPENDIX = {
    0: Fraction(1, 2), 1: Fraction(-1, 4), 3: Fraction(1, 8),
    5: Fraction(-1, 4), 7: Fraction(17, 16), 9: Fraction(-31, 4),
    11: Fraction(691, 8), 13: Fraction(-5461, 4), 15: Fraction(929569, 32),
}


def test_c01_coefficient_table_exact(capsys):
    code, out = run_cli(capsys, "coeffs", "--n-max", "15", "--format", "json")
    rows = {r["n"]: Fraction(r["g_n_numerator"], r["g_n_denominator"])
            for r in json.loads(out)}
    ok = code == 0
    for n, want in APPENDIX.items():
        ok = ok and rows[n] == want          # exact match, zero tolerance
    for n in (2, 4, 6, 8, 10, 12, 14):
        ok = ok and rows[n] == 0
    assert report(1, ok, "nine exact odd-derivative values and the seven "
                         "interleaved zeros, n <= 15"), out


def test_c02_bridge_identity_grid():
    t0 = time.perf_counter()
    rep = verify.run_theorem(1)
    dt = time.perf_counter() - t0
    worst = max(r.discrepancy for r in rep.rows if r.discrepancy is not None)
    ok = rep.passed and dt < 30.0
    assert report(2, ok, f"15-point strip grid, worst relative "
                         f"discrepancy {worst:.2e} (within both routes' err), "
                         f"{dt:.1f}s"), \
        rep.to_text()


def test_c03_series_equivalence_grid():
    t0 = time.perf_counter()
    rep = verify.run_theorem(2)
    dt = time.perf_counter() - t0
    worst = max(r.discrepancy for r in rep.rows)
    ok = rep.passed and dt < 20.0
    assert report(3, ok, f"9 (a, b) combinations, worst |series - quadrature|"
                         f" {worst:.2e} (tol: series tail + quadrature err),"
                         f" {dt:.1f}s"), \
        rep.to_text()


def test_c04_coefficient_structure_and_ratio_window():
    rep = verify.run_theorem(4)       # m_max = 20: derivatives to n = 41
    table = CoefficientTable.build(41)
    signs_ok = (all(table.g_deriv[n] == 0 for n in range(2, 41, 2))
                and all(table.g_deriv[n] < 0 for n in range(1, 42, 4))
                and all(table.g_deriv[n] > 0 for n in range(3, 42, 4)))
    ratio = coefficient_ratio_exact(2)
    rel = float(ratio) / math.pi ** 2
    lower, upper = _ratio_margins(ratio)
    above, below = lower > 0, upper > 0
    margin = 1.00013814 - rel
    ok = rep.passed and signs_ok and above and below and margin > 0
    assert report(4, ok, f"signs/zeros exact to n = 41; m = 2 ratio/pi^2 = "
                         f"{rel:.12f} inside (1, 1.00013814), upper margin "
                         f"{margin:.2e}"), rep.to_text()


def test_c05_head_bound_grid():
    rep = verify.run_theorem(5)
    head_rows = [r for r in rep.rows if r.label.startswith("head bound")]
    alt_rows = [r for r in rep.rows if "alternate" in r.label]
    min_margin = min(r.margin for r in head_rows)
    ok = rep.passed and len(head_rows) == 9 and all(not r.gating for r in alt_rows)
    assert report(5, ok, f"9 cells, min margin {min_margin:.2e}; "
                         f"alternate printed variant reported informationally "
                         f"(its margins are negative: "
                         f"{all(r.margin < 0 for r in alt_rows)})"), rep.to_text()


def test_c06_pairing_and_tail_telescoping():
    rep6 = verify.run_theorem(6)
    rep7 = verify.run_theorem(7)
    worst6 = max(r.discrepancy for r in rep6.rows)
    eq7 = [r for r in rep7.rows if r.discrepancy is not None]
    ok = rep6.passed and rep7.passed and worst6 < 1e-9
    assert report(6, ok, f"paired vs direct tail {worst6:.2e} (tol: the two "
                         f"err estimates); "
                         f"telescoping equality and strict bounds over "
                         f"{len(eq7)} cells"), rep6.to_text() + rep7.to_text()


def test_c07_sine_average():
    rep = verify.run_theorem(8)
    eq = [r for r in rep.rows if r.discrepancy is not None]
    worst = max(r.discrepancy / abs(r.lhs) for r in eq)
    ok = rep.passed and worst < 1e-12
    assert report(7, ok, f"closed form vs quadrature to {worst:.2e} relative "
                         f"(tol 1e-12); strict bracketing on five b values"), \
        rep.to_text()


def test_c08_sandwich_and_positivity():
    rep9 = verify.run_theorem(9)
    rep10 = verify.run_theorem(10)
    min_row = [r for r in rep10.rows if r.label.startswith("grid minimum")][0]
    ok = rep9.passed and rep10.passed and min_row.margin > 0
    assert report(8, ok, f"half-period sandwich over 8 (a, b, k) cells; "
                         f"kernel grid minimum {min_row.margin:.3e} > 0"), \
        rep9.to_text() + rep10.to_text()


def test_c09_zero_location(capsys):
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "zeros", "--b-min", "10", "--b-max", "30",
                        "--step", "0.25")
    dt = time.perf_counter() - t0
    zeros = json.loads(out)
    n_ok = code == 0 and len(zeros) == 3
    res_ok = all(z["residual"] < 1e-6 for z in zeros)
    gaps = [z["route_gap"] for z in zeros]
    gap_ok = all(g is not None and g < 1e-5 for g in gaps)
    time_ok = dt < 60.0
    residuals = ", ".join(f"{z['residual']:.1e}" for z in zeros)
    gap_text = ", ".join("none" if g is None else f"{g:.1e}" for g in gaps)
    detail = (f"{len(zeros)} zeros in {dt:.1f}s; residuals [{residuals}]; "
              f"route gaps [{gap_text}] vs 1e-5")
    ok = n_ok and res_ok and gap_ok and time_ok
    report(9, ok, detail)
    assert n_ok, "must find exactly three zeros"
    assert res_ok, "raw residual |F| must be below 1e-6 at each"
    assert time_ok, "runtime budget 60 s"
    assert gap_ok, (
        f"integral-route ordinates must match oracle ordinates within 1e-5; "
        f"measured gaps {gaps}. A gap this large means F's quadrature is "
        f"not resolved on the eta scale, |F| / |gamma| (see notes).")


def test_c10_determinism(capsys):
    code1, out1 = run_cli(capsys, "verify", "--all", "--format", "json")
    code2, out2 = run_cli(capsys, "verify", "--all", "--format", "json")
    ok = code1 == code2 == 0 and out1 == out2 and len(out1) > 1000
    assert report(10, ok, f"two runs of verify --all --format json: "
                          f"{len(out1)} bytes, byte-identical: {out1 == out2}")
