"""Reference values (mpmath, computed outside the timed region) and the
per-call output checks.

A check never raises and never aborts a run: it returns an Outcome whose
``reason`` names what failed, and the caller counts it in ``fail_ratio``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

#: zeros: the integral ordinate must lie this close to the oracle one
#: (acceptance criterion 9).
CROSS_ROUTE_GAP = 1e-5
#: zeros: the CLI's default --zero-tol, used to match reference ordinates.
ZERO_TOL = 1e-6


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    info: dict = field(default_factory=dict)


def _opt(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def reference(argv):
    """The reference an output of ``argv`` is checked against, or None."""
    cmd = argv[0]
    if cmd == "zeros":
        lo, hi = float(_opt(argv, "--b-min")), float(_opt(argv, "--b-max"))
        ords, n = [], 1
        while True:
            t = float(mpmath.zetazero(n).imag)
            if t > hi:
                return ords
            if t >= lo:
                ords.append(t)
            n += 1
    if cmd == "eval":
        with mpmath.workdps(40):
            s = mpmath.mpc(float(_opt(argv, "--a")), float(_opt(argv, "--b")))
            return mpmath.gamma(s) * mpmath.altzeta(s)
    if cmd == "coeffs":
        out = []
        for n in range(int(_opt(argv, "--n-max")) + 1):
            p, q = mpmath.bernfrac(n + 1)
            out.append(Fraction(1 - 2 ** (n + 1), n + 1) * Fraction(p, q))
        return out
    return None


def _check_zeros(out, ref):
    zeros = json.loads(out)
    found = [z["b_star"] for z in zeros]
    matched = sum(1 for t in ref if any(abs(b - t) <= ZERO_TOL for b in found))
    cross = sum(1 for z in zeros
                if z["route_gap"] is not None
                and z["route_gap"] < CROSS_ROUTE_GAP)
    info = {"zeros_found": matched, "zeros_cross_verified": cross}
    if matched < len(ref):
        return Outcome(False, f"missed {len(ref) - matched} of {len(ref)} "
                              f"reference zeros", info)
    if len(found) > matched:
        return Outcome(False, f"{len(found) - matched} extra zeros", info)
    return Outcome(True, info=info)


def _check_eval(out, f_ref):
    d = json.loads(out)
    with mpmath.workdps(40):
        err = abs(mpmath.mpc(d["F_re"], d["F_im"]) - f_ref)
        if err <= d["err_est"]:
            return Outcome(True)
        return Outcome(False, f"|F - F_ref| = {mpmath.nstr(err, 3)} exceeds "
                              f"err_est = {d['err_est']:.3g}")


def _check_coeffs(out, ref):
    rows = json.loads(out)
    if len(rows) != len(ref):
        return Outcome(False, f"{len(rows)} rows, expected {len(ref)}")
    for r, g in zip(rows, ref):
        n = r["n"]
        if Fraction(r["g_n_numerator"], r["g_n_denominator"]) != g:
            return Outcome(False, f"g_{n}(0) differs from the Bernoulli form")
        if r["g_n_over_n_factorial"] != float(g / math.factorial(n)):
            return Outcome(False, f"g_{n}(0)/{n}! is not the rounded exact "
                                  f"value")
    return Outcome(True)


def _check_verify(code, out):
    d = json.loads(out)
    gating = [c for r in d["reports"] for c in r["checks"] if c["gating"]]
    info = {"checks_run": len(gating),
            "gating_failed": sum(1 for c in gating if not c["passed"])}
    if code != 0 or d["passed"] is not True:
        return Outcome(False, f"verify reported passed={d['passed']} with "
                              f"exit {code}", info)
    return Outcome(True, info=info)


def check(argv, code: int, out: str, ref) -> Outcome:
    """Check one call's exit code and stdout against its reference."""
    cmd = argv[0]
    try:
        if cmd == "verify":
            return _check_verify(code, out)
        if code != 0:
            return Outcome(False, f"exit code {code}")
        if cmd == "zeros":
            return _check_zeros(out, ref)
        if cmd == "eval":
            return _check_eval(out, ref)
        if cmd == "coeffs":
            return _check_coeffs(out, ref)
        json.loads(out)     # decompose: well-formed output is all we check
        return Outcome(True)
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(False, f"unreadable output: {exc!r}")
