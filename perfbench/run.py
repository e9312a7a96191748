"""etazeros benchmark: drives the real CLI in fresh processes, checks every
output against an mpmath reference, and prints each metric with its unit.

    python3 perfbench/run.py --workload zeros-scan --seed 1 --seconds 30 --trace 0

--trace 0 is the timed run: one client in a closed loop starts one CLI
process at a time, cycling through the workload's seeded calls for
--seconds (and at least until one call has been repeated, for the
byte-determinism check).  It prints the end-to-end metrics.

--trace 1 is the traced run: one pass of the workload in-process, each call
in four fresh child processes (untraced, traced, traced, untraced), the
traced ones with spans around each layer's public functions.  It prints the
per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import checks
import metrics
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CALL_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "call_p50_s": "s", "call_tail_s": "s",
    "peak_rss_mb": "MiB",
}

_SUITES = (1, 2, 4, 5, 6, 7, 8, 9, 10)

#: Per-layer metric -> unit, in report order.
PER_LAYER_UNITS = {
    "import.numpy_s": "s", "import.scipy_special_s": "s",
    "import.etazeros_s": "s",
    "quadrature.integrate_line.calls": "count",
    "quadrature.integrate_line.busy_s": "s",
    "quadrature.integrate_line.ms_per_call": "ms",
    "quadrature.integrate_finite.calls": "count",
    "quadrature.integrate_finite.busy_s": "s",
    "quadrature.integrate_to_infinity.calls": "count",
    "quadrature.integrate_to_infinity.busy_s": "s",
    "special.F.calls": "count", "special.F.busy_s": "s",
    "special.F.ms_per_call": "ms", "special.F.self_s": "s",
    "special.Gamma.calls": "count", "special.Gamma.busy_s": "s",
    "zerofinder.find_zeros.busy_s": "s",
    "zerofinder.find_zeros.direct_F_calls": "count",
    "zerofinder.scan_critical_line.busy_s": "s",
    "zerofinder.refine_zero.calls": "count",
    "zerofinder.refine_zero.busy_s": "s",
    "zerofinder.refine_zero.evals_per_call": "count/call",
    "zerofinder.refine_zero.certified_ratio": "ratio",
    "zerofinder.eta_oracle.calls": "count",
    "zerofinder.eta_oracle.busy_s": "s",
    "zerofinder.F_calls_per_zero": "count/zero",
    "series.series_lower_integral.calls": "count",
    "series.series_lower_integral.busy_s": "s",
    "decomposition.make_plan.busy_s": "s",
    "decomposition.upper_integral.busy_s": "s",
    "coeffs.CoefficientTable.build.busy_s": "s",
    "coeffs.check_theorem4.busy_s": "s",
    **{f"verify.suite{n}.busy_s": "s" for n in _SUITES},
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

#: Outcome metrics: printed on every run, and carried in the traced run's
#: JSON.  They can be 0, and an end-to-end metric must never be 0, so
#: BENCHMARK.json declares them under per_layer.
OUTCOME_UNITS = {
    "s_per_zero": "s/zero", "fail_ratio": "ratio", "zeros_found": "count",
    "zeros_cross_verified": "count",
    "gating_failed": "count", "checks_run": "count",
}

_IMPORT_PROBE = """\
import json, time
t0 = time.perf_counter(); import numpy
t1 = time.perf_counter(); import scipy.special
t2 = time.perf_counter(); import etazeros.cli
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""


# ---------------------------------------------------------------------------
# Child processes.

def child_env() -> dict:
    """The caller's environment with ``src/`` first on PYTHONPATH.  Bytecode
    caches are allowed, as in an installed package, so that set-up times an
    import and not a compile."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def spawn(cmd, env) -> tuple[int | None, bytes, float]:
    """(exit code or None on timeout, stdout, wall seconds) of one child."""
    t0 = time.perf_counter()
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           timeout=CALL_TIMEOUT_S)
        code, out = p.returncode, p.stdout
    except subprocess.TimeoutExpired:
        code, out = None, b""
    return code, out, time.perf_counter() - t0


def setup_times(env, warm_up: bool) -> list[float]:
    """SETUP_SAMPLES times of a fresh interpreter until ``import
    etazeros.cli`` completes; a warm-up start first writes the bytecode
    caches."""
    cmd = [sys.executable, "-c", "import etazeros.cli"]
    times = []
    for _ in range(SETUP_SAMPLES + warm_up):
        code, _, secs = spawn(cmd, env)
        if code != 0:
            raise RuntimeError("import etazeros.cli failed")
        times.append(secs)
    return times[warm_up:]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Checking.

class Ledger:
    """Attempted and failed operations, with each failure's reason."""

    def __init__(self, refs):
        self.refs = refs
        self.first: dict = {}       # argv -> (digest, Outcome)
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, argv, code, out: bytes, expected_digest=None):
        """Count one call; it fails on an unexpected exit code, a failed
        reference check, or stdout bytes that differ from the first call
        with the same arguments (or from ``expected_digest``)."""
        self.attempted += 1
        d = digest(out)
        if argv not in self.first:
            outcome = checks.check(argv, code, out.decode(errors="replace"),
                                   self.refs[argv])
            self.first[argv] = (d, outcome)
        first_d, outcome = self.first[argv]
        label = " ".join(argv)
        if d != (expected_digest or first_d):
            self.failures.append(f"{label}: stdout bytes differ from the "
                                 f"reference run")
        elif not outcome.ok:
            self.failures.append(f"{label}: {outcome.reason}")

    def outcomes(self, wl, per_call_secs=None) -> dict:
        """Outcome metrics (None where a metric does not apply)."""
        infos = [self.first[a][1].info for a in wl.calls if a in self.first]

        def med(key):
            vals = [i[key] for i in infos if key in i]
            return metrics.median(vals) if vals else None

        s_per_zero = None
        if per_call_secs:
            per = [secs / self.first[a][1].info["zeros_found"]
                   for a, secs in per_call_secs
                   if self.first[a][1].info.get("zeros_found")]
            s_per_zero = metrics.median(per) if per else None
        return {
            "s_per_zero": s_per_zero,
            "fail_ratio": metrics.fail_ratio(len(self.failures),
                                             self.attempted),
            "zeros_found": med("zeros_found"),
            "zeros_cross_verified": med("zeros_cross_verified"),
            "gating_failed": med("gating_failed"),
            "checks_run": med("checks_run"),
        }


# ---------------------------------------------------------------------------
# The two kinds of run.

def timed_run(wl, seconds: float, env, ledger: Ledger):
    # set-up is sampled before and after the loop, so that its median spans
    # the run as the other timings do
    setup = setup_times(env, warm_up=True)
    calls, pass_times = [], []
    t_start = pass_start = time.perf_counter()
    i = 0
    while True:
        argv = wl.calls[i % len(wl.calls)]
        code, out, secs = spawn([sys.executable, "-m", "etazeros", *argv], env)
        calls.append((argv, code, out, secs))
        i += 1
        now = time.perf_counter()
        if i % wl.pass_size == 0:
            pass_times.append(now - pass_start)
            pass_start = now
        if now - t_start >= seconds and i > len(wl.calls):
            break
    setup += setup_times(env, warm_up=False)
    for argv, code, out, _ in calls:        # checks run after the clock
        ledger.record(argv, code, out)
    lat = [c[3] for c in calls]
    tail_pct, tail_val = metrics.tail(lat)
    values = {
        "setup_s": metrics.median(setup),
        "wall_s": metrics.median(pass_times),
        "call_p50_s": metrics.median(lat),
        "call_tail_s": tail_val,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)}",
        "wall_s": f"median of {len(pass_times)} workload runs of "
                  f"{wl.pass_size} call(s)",
        "call_p50_s": f"median of {len(lat)} calls",
        "call_tail_s": f"p{tail_pct:.1f} of {len(lat)} calls",
        "peak_rss_mb": "largest child max-RSS",
    }
    per_call = [(c[0], c[3]) for c in calls]
    return values, notes, ledger.outcomes(wl, per_call)


def _inprocess(wl, seed: int, call: int, trace: int, env):
    cmd = [sys.executable, str(HERE / "inprocess.py"), "--workload", wl.name,
           "--seed", str(seed), "--call", str(call), "--trace", str(trace)]
    code, out, secs = spawn(cmd, env)
    if code != 0:
        raise RuntimeError(f"in-process child (call={call}, trace={trace}) "
                           f"exited {code}")
    return json.loads(out), secs


def layer_metrics(raw_spans, zeros: int) -> dict:
    spans = [metrics.Span(*s) for s in raw_spans]
    anc = metrics.ancestors(spans)
    selfs = metrics.self_times(spans)
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)

    def calls(n):
        return len(by_name[n])

    def busy(n):    # outermost spans only, so recursion is not counted twice
        return sum(sp.end - sp.start for sp in by_name[n] if n not in anc[sp.id])

    def per_call(total, n):
        return total / calls(n) if calls(n) else 0.0

    out = {}
    for name in PER_LAYER_UNITS:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls(layer)
        elif stat == "busy_s":
            out[name] = busy(layer)
        elif stat == "self_s":
            out[name] = sum(selfs[sp.id] for sp in by_name[layer])
        elif stat == "ms_per_call":
            out[name] = 1e3 * per_call(busy(layer), layer)
    refine = "zerofinder.refine_zero"
    out["zerofinder.find_zeros.direct_F_calls"] = sum(
        1 for sp in by_name["special.F"]
        if anc[sp.id][:1] == ["zerofinder.find_zeros"])
    out["zerofinder.refine_zero.evals_per_call"] = per_call(sum(
        1 for n in ("special.F", "zerofinder.eta_oracle")
        for sp in by_name[n] if refine in anc[sp.id]), refine)
    out["zerofinder.refine_zero.certified_ratio"] = per_call(
        sum(sp.ok for sp in by_name[refine]), refine)
    out["zerofinder.F_calls_per_zero"] = (
        calls("special.F") / zeros if zeros else 0.0)
    return out


def traced_run(wl, seed: int, env, ledger: Ledger):
    setup_times(env, warm_up=True)      # also writes the bytecode caches
    probes = []
    for _ in range(IMPORT_SAMPLES):
        code, out, _ = spawn([sys.executable, "-c", _IMPORT_PROBE], env)
        if code != 0:
            raise RuntimeError("import probe failed")
        probes.append(json.loads(out))
    # Each call runs in four fresh children, untraced, traced, traced,
    # untraced, so its module caches start cold as in the timed run, and a
    # host speed that drifts linearly through the four cancels out of the
    # overhead.  The first traced child's spans are pooled over the calls.
    spans, zeros, zero_secs = [], 0, []
    wall_plain = wall_traced = 0.0
    for i in range(wl.pass_size):
        runs = [_inprocess(wl, seed, i, trace, env) for trace in (0, 1, 1, 0)]
        (plain, wall_a), (traced, wall_b), (_, wall_c), (_, wall_d) = runs
        wall_plain += (wall_a + wall_d) / 2
        wall_traced += (wall_b + wall_c) / 2
        argv = tuple(plain["argv"])
        expected = digest(plain["stdout"].encode())
        for child, _ in runs:
            ledger.record(argv, child["code"], child["stdout"].encode(),
                          expected_digest=expected)
        base = len(spans)       # span ids run 0..n-1 within each child
        spans += [[sid + base, name, start, end,
                   None if parent is None else parent + base, ok]
                  for sid, name, start, end, parent, ok in traced["spans"]]
        if argv[0] == "zeros" and traced["code"] == 0:
            zeros += len(json.loads(traced["stdout"]))
            zero_secs.append((argv, (wall_a + wall_d) / 2))
    values = {
        "import.numpy_s": metrics.median(p[0] for p in probes),
        "import.scipy_special_s": metrics.median(p[1] for p in probes),
        "import.etazeros_s": metrics.median(p[2] for p in probes),
        **layer_metrics(spans, zeros),
        "trace.overhead_s": wall_traced - wall_plain,
    }
    notes = {"trace.overhead_s": f"traced {wall_traced:.3f} s - untraced "
                                 f"{wall_plain:.3f} s over {wl.pass_size} "
                                 f"call(s)"}
    return values, notes, ledger.outcomes(wl, zero_secs)


# ---------------------------------------------------------------------------

def provenance(wl, seed: int, trace: int) -> dict:
    try:
        p = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                            "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=30)
        commit = p.stdout.strip() if p.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": wl.name, "seed": seed, "trace": trace, "commit": commit,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "calls": [" ".join(a) for a in wl.calls],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "etazeros" / "cli.py").is_file():
        print(f"perfbench: no etazeros sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed)
    ledger = Ledger({a: checks.reference(a) for a in wl.calls})
    env = child_env()
    if args.trace:
        values, notes, outcomes = traced_run(wl, args.seed, env, ledger)
        units = PER_LAYER_UNITS
    else:
        values, notes, outcomes = timed_run(wl, args.seconds, env, ledger)
        units = END_TO_END_UNITS

    print("record " + json.dumps(provenance(wl, args.seed, args.trace)))
    for name, unit in {**units, **OUTCOME_UNITS}.items():
        value = values.get(name, outcomes.get(name))
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        print(f"metric {name} = {shown}  {notes.get(name, '')}".rstrip())
    for failure in ledger.failures:
        print("failed " + failure)
    reported = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    if args.trace:
        reported.update({n: {"value": outcomes[n] or 0, "unit": u}
                         for n, u in OUTCOME_UNITS.items()})
    print(json.dumps({"correct": not ledger.failures,
                      "attempted": ledger.attempted,
                      "failed": len(ledger.failures),
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
