"""Evaluate F(s) = int_0^inf t^(s-1)/(e^t + 1) dt and zeta(s), check the
paper's theorems, and locate the zeros of zeta on the critical line.

Subcommands
-----------
eval       evaluate F(s) and zeta(s) at one strip point
coeffs     emit the exact coefficient table (JSON or aligned text)
verify     run a numbered verification suite (or all of them)
decompose  dump the pairing plan and per-interval contributions
zeros      scan the critical line and refine the bracketed zeros

Exit status: 0 success, 1 a gating verification cell failed or a zeros
bracket proved no zero (named on stderr), 2 numerical non-convergence,
3 usage error, which includes a number option that is not finite, a height
b with |b| above 2e4, a zeros grid of more than 1e6 points, a negative
--count or one whose half periods end past the float range, and an --out
path that cannot be opened.

Output is deterministic: repeated runs with the same arguments produce
byte-identical bytes (no timestamps, sorted JSON keys, fixed float
rendering); CSV carries 17 significant digits.
"""

# Start-up.  Each handler imports the layer names it calls when it runs, so
# loading the CLI loads no layer, a rebinding of a layer function (special.F,
# say) sees every call, and coeffs, --help and usage errors run without
# numpy; so do eta sums, and integrals small enough for the float executor
# (etazeros.quadrature): a ray up to b ~ 300, the series route's paired tail
# up to b ~ 1890, decompose's half periods.  OPENBLAS_NUM_THREADS defaults
# to 1 (a value already set is kept): no arithmetic goes through BLAS, but
# OpenBLAS starts a second thread on a 2-core host when numpy loads.
# Finalization's collections would trace the ~22k objects left by the
# imports pass after pass, so the CLI freezes the collector at exit
# (gc.freeze as an atexit hook): the import heap goes to the permanent
# generation and is freed by teardown and the OS instead.  Code that
# imports the layers without the CLI never touches the collector.

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import re
import sys

from .errors import NonConvergenceError, ZeroRefinementError
from .report import fmt17

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token starting "-<digit>" or "-.<digit>" is a value, not an option
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message)


# The largest |b| any subcommand takes.  Memory barely grows with |b|: eta's
# binomial weights come from one pass that holds two exact integers, and
# the ray's ~4.5|b| panels stream through the Gauss rules in fixed chunks,
# leaving ~130 bytes per panel.  At |b| = 2e4 one eval peaks near 40 MiB of
# RSS on the integral route (28 MiB once numpy is imported), 33 MiB on the
# series route, whose ~10,800-panel paired tail runs on arrays, and 21 MiB
# on the oracle route, which loads no numpy (14.5 MiB after import); in
# process the ray takes 57 MiB at 4e4.  A cold eta call takes 0.09-0.10 s
# at 2e4, most of it in the exact recurrence of the binomial weights, and a
# warm one 15-26 ms; past 2.6e4 it stops at 40,000 terms and err grows.
MAX_HEIGHT = 2.0e4


def _finite(text: str) -> float:
    """argparse type: a finite float, so no inf or NaN reaches a layer."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _height(text: str) -> float:
    """argparse type: a finite b with |b| <= MAX_HEIGHT."""
    b = _finite(text)
    if abs(b) > MAX_HEIGHT:
        raise argparse.ArgumentTypeError(
            f"|b| = {abs(b):g} is above the supported {MAX_HEIGHT:g}")
    return b


def _heights(text: str) -> tuple[float, ...]:
    """argparse type: a comma-separated list of :func:`_height` values;
    empty for the suite's default grid."""
    return tuple(map(_height, text.split(","))) if text else ()


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default="json", dest="fmt")
    common.add_argument("--out", type=str, default=None,
                        help="write output to this path instead of stdout")

    p = _Parser(prog="etazeros", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Parser)

    pe = sub.add_parser("eval", help="evaluate F and zeta at s = a + ib",
                        parents=[common])
    pe.add_argument("--a", type=_finite, required=True)
    pe.add_argument("--b", type=_height, required=True)
    pe.add_argument("--method", default="integral",
                    choices=("integral", "series+decomposition", "oracle"))

    pc = sub.add_parser("coeffs", help="exact coefficient table",
                        parents=[common])
    pc.add_argument("--n-max", type=int, default=15)

    pv = sub.add_parser("verify", help="run verification suites",
                        parents=[common])
    pv.add_argument("--theorem", type=int, default=None)
    pv.add_argument("--all", action="store_true")
    pv.add_argument("--grid", "--b-grid", dest="grid", type=_heights,
                    default=None, help="comma-separated b grid override")

    pd = sub.add_parser("decompose", help="pairing plan and contributions",
                        parents=[common])
    pd.add_argument("--a", type=_finite, required=True)
    pd.add_argument("--b", type=_height, required=True)
    pd.add_argument("--count", type=int, default=20,
                    help="number of half-period contributions to emit")

    pz = sub.add_parser("zeros", help="critical-line zero scan",
                        parents=[common])
    pz.add_argument("--b-min", type=_height, required=True)
    pz.add_argument("--b-max", type=_height, required=True)
    pz.add_argument("--step", type=_finite, default=0.25)
    return p


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns (exit_code, text)).

def _cmd_eval(args):
    from .quadrature import unscale
    from .special import F, Gamma, one_minus_two_pow, zeta_from_F
    a, b = args.a, args.b
    s = complex(a, b)
    method = args.method
    if method == "series+decomposition" and b <= 0:
        raise UsageError("series+decomposition needs b > 0")
    if method == "integral":
        # one ray gives the F fields (F is 0 past b ~ 470) and zeta
        integral, i_err, log_scale = F(s, scaled=True)
        f, err = unscale(integral, i_err, log_scale)
    else:
        from .zerofinder import eta_oracle
        # F = gamma eta carries both factors' errors (eta's is its
        # truncation bound plus its rounding floor), and never less than
        # the smallest subnormal, so an F that underflows with gamma (past
        # b ~ 490) stays unresolved
        eta, eta_err = eta_oracle(s)
        gam, gam_err = Gamma(s)
        f = gam * eta
        err = max(abs(eta) * gam_err + abs(gam) * eta_err, math.ulp(0.0))
    if method == "series+decomposition":
        # Im F = head + tail, the paper's sine integral: the coefficient
        # series below R and the paired half periods above it; Re F, the
        # cos integral, has no closed series and stays gamma eta's
        from .decomposition import choose_K_R, make_plan, upper_integral
        from .series import series_lower_integral
        K, R = choose_K_R(b)
        head, head_err = series_lower_integral(a, b, K, R, tol=1e-13)
        tail, tail_err = upper_integral(make_plan(a, b))
        f = complex(f.real, head + tail)
        err += head_err + tail_err
        integral, i_err, log_scale = f, err, 0.0
    # zeta stays null where its source is not resolved above its error: it
    # says nothing about zeta, and over a tiny gamma would print noise.  The
    # oracle route takes zeta from the eta in hand and the integral route
    # from the scaled F, so both resolve it also where F underflows.
    z = None
    if method == "oracle":
        denom = one_minus_two_pow(s)
        if abs(eta) > 4.0 * eta_err and abs(denom) >= 1e-12:
            z = eta / denom
    elif abs(integral) > 4.0 * i_err:
        zeta = zeta_from_F(s, integral, i_err, log_scale)
        z = None if zeta is None else zeta[0]
    payload = {"a": a, "b": b, "method": method,
               "F_re": f.real, "F_im": f.imag, "F_abs": abs(f),
               "zeta_re": None if z is None else z.real,
               "zeta_im": None if z is None else z.imag, "err_est": err}
    if args.fmt == "csv":
        keys = ["a", "b", "F_re", "F_im", "F_abs", "zeta_re", "zeta_im",
                "err_est"]
        head = ",".join(keys)
        row = ",".join("" if payload[k] is None else fmt17(payload[k])
                       for k in keys)
        return 0, f"{head}\n{row}\n"
    if args.fmt == "text":
        lines = [f"{k} = {v if v is not None else 'unresolved'}"
                 for k, v in payload.items()]
        return 0, "\n".join(lines) + "\n"
    return 0, json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_coeffs(args):
    if args.n_max < 0:
        raise UsageError("--n-max must be >= 0")
    from .coeffs import CoefficientTable
    table = CoefficientTable.build(args.n_max)
    rows = [{"n": n,
             "g_n_numerator": table.g_deriv[n].numerator,
             "g_n_denominator": table.g_deriv[n].denominator,
             "g_n_over_n_factorial": table.g_over_factorial_f64[n]}
            for n in range(args.n_max + 1)]
    if args.fmt == "json":
        return 0, json.dumps(rows, sort_keys=True, indent=2) + "\n"
    if args.fmt == "csv":
        out = ["n,g_n_numerator,g_n_denominator,g_n_over_n_factorial"]
        for r in rows:
            out.append(f"{r['n']},{r['g_n_numerator']},{r['g_n_denominator']},"
                       f"{fmt17(r['g_n_over_n_factorial'])}")
        return 0, "\n".join(out) + "\n"
    frac = [("0" if table.g_deriv[n] == 0 else
             f"{table.g_deriv[n].numerator}/{table.g_deriv[n].denominator}")
            for n in range(args.n_max + 1)]
    w_n = max(2, len(str(args.n_max)))
    w_f = max(len(s) for s in frac)
    lines = [f"{'n'.rjust(w_n)}  {'g_n(0)'.ljust(w_f)}  g_n(0)/n!"]
    for n in range(args.n_max + 1):
        lines.append(f"{str(n).rjust(w_n)}  {frac[n].ljust(w_f)}  "
                     f"{fmt17(table.g_over_factorial_f64[n])}")
    return 0, "\n".join(lines) + "\n"


def _cmd_verify(args):
    from .verify import run_all, run_theorem
    if args.all:
        reports = run_all()
    elif args.theorem is not None:
        reports = [run_theorem(args.theorem, args.grid)]
    else:
        raise UsageError("verify needs --theorem N or --all")
    ok = all(r.passed for r in reports)
    if args.fmt == "json":
        obj = {"passed": ok, "reports": [r.to_json_obj() for r in reports]}
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    elif args.fmt == "csv":
        text = "".join(r.to_csv() for r in reports)
    else:
        text = "\n".join(r.to_text() for r in reports)
    return (0 if ok else 1), text


def _cmd_decompose(args):
    if not 0.0 < args.a < 1.0:
        raise UsageError("--a must lie in (0, 1)")
    if args.count < 0:
        raise UsageError("--count must be >= 0")
    from .decomposition import interval_contributions, make_plan
    plan = make_plan(args.a, args.b)
    rows = interval_contributions(plan, args.count)
    if args.fmt == "csv":
        out = ["k,t_2k,t_2k_plus_1,contribution,cumulative"]
        for r in rows:
            out.append(",".join([str(r["k"]), fmt17(r["t_lo"]),
                                 fmt17(r["t_hi"]), fmt17(r["contribution"]),
                                 fmt17(r["cumulative"])]))
        return 0, "\n".join(out) + "\n"
    payload = {
        "a": plan.a, "b": plan.b, "K": plan.K, "R": plan.R, "c": plan.c,
        "truncation_k": plan.truncation_k,
        "endpoints": [plan.endpoint(2 * plan.K + j) for j in range(10)],
        "intervals": [{"k": r["k"], "t_lo": r["t_lo"], "t_hi": r["t_hi"],
                       "contribution": r["contribution"],
                       "cumulative": r["cumulative"]} for r in rows],
    }
    if args.fmt == "text":
        lines = [f"K = {plan.K}, R = {fmt17(plan.R)}, c = {fmt17(plan.c)}",
                 f"truncation period index = {plan.truncation_k}",
                 "k  t_2k  t_2k+1  contribution  cumulative"]
        for r in rows:
            lines.append("  ".join([str(r["k"]), fmt17(r["t_lo"]),
                                    fmt17(r["t_hi"]), fmt17(r["contribution"]),
                                    fmt17(r["cumulative"])]))
        return 0, "\n".join(lines) + "\n"
    return 0, json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_zeros(args):
    if not 0 < args.b_min < args.b_max:
        raise UsageError("need 0 < b_min < b_max")
    from .zerofinder import find_zeros, scan_F
    if args.fmt == "csv":
        out = ["b,F1,F2,absF"]
        for row in scan_F(args.b_min, args.b_max, args.step):
            out.append(",".join(fmt17(x) for x in row))
        return 0, "\n".join(out) + "\n"
    payload = find_zeros(args.b_min, args.b_max, args.step)
    if args.fmt == "text":
        lines = [f"{len(payload)} zero(s) on [{args.b_min:g}, {args.b_max:g}]"]
        for z in payload:
            lines.append(f"  b = {fmt17(z['b_star'])}  residual |F| = "
                         f"{z['residual']:.3e}  ({z['method']})")
        return 0, "\n".join(lines) + "\n"
    return 0, json.dumps(payload, sort_keys=True, indent=2) + "\n"


_COMMANDS = {
    "eval": _cmd_eval,
    "coeffs": _cmd_coeffs,
    "verify": _cmd_verify,
    "decompose": _cmd_decompose,
    "zeros": _cmd_zeros,
}


def main(argv=None) -> int:
    # set before any handler loads numpy, so OpenBLAS starts one thread
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # at exit, move the import heap to the permanent generation before
    # finalization's collections, which would otherwise trace its module
    # cycles pass after pass; unregister first, so one process that calls
    # main more than once still freezes once
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code, text = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 2
    except ZeroRefinementError as exc:
        print(f"unproven zero: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"usage error: cannot write {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
