"""Tests of the benchmark's own arithmetic and plumbing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import run
import workloads
from metrics import Span

ROOT = Path(__file__).resolve().parent.parent


# ---- the tail rule ----------------------------------------------------------

def test_tail_has_ten_samples_beyond_it():
    xs = [float(i) for i in range(40)]
    pct, value = metrics.tail(xs)
    assert (pct, value) == (75.0, 29.0)
    assert sum(x > value for x in xs) == 10


def test_tail_is_highest_such_percentile():
    xs = [float(i) for i in range(100)]
    pct, value = metrics.tail(xs)
    assert (pct, value) == (90.0, 89.0)
    assert sum(x > value for x in xs) == 10


def test_tail_never_below_median():
    for n in (1, 4, 11, 20):
        xs = [float(i) for i in range(n)]
        assert metrics.tail(xs) == (50.0, metrics.median(xs))
    xs = [float(i) for i in range(21)]     # first size with a p50+ tail
    pct, value = metrics.tail(xs)
    assert value == 10.0 and pct == pytest.approx(100 * 11 / 21)


# ---- self time on a span tree -----------------------------------------------

def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span(0, "cli.main", 0.0, 10.0, None),
        Span(1, "special.F", 1.0, 4.0, 0),
        Span(2, "quadrature.integrate_line", 1.5, 3.5, 1),
        Span(3, "special.F", 5.0, 9.0, 0),
        Span(4, "quadrature.integrate_line", 6.0, 7.0, 3),
        Span(5, "quadrature.integrate_line", 6.5, 8.0, 3),   # overlaps 4
    ]
    self_s = metrics.self_times(spans)
    assert self_s[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert self_s[1] == pytest.approx(3.0 - 2.0)
    assert self_s[3] == pytest.approx(4.0 - 2.0)     # union of [6, 8]
    assert (self_s[2], self_s[4], self_s[5]) == pytest.approx((2.0, 1.0, 1.5))
    assert metrics.ancestors(spans)[4] == ["special.F", "cli.main"]


def test_layer_metrics_from_spans():
    spans = [
        [0, "zerofinder.find_zeros", 0.0, 10.0, None, True],
        [1, "special.F", 0.0, 1.0, 0, True],              # direct F call
        [2, "zerofinder.refine_zero", 1.0, 5.0, 0, True],
        [3, "special.F", 1.0, 2.0, 2, True],
        [4, "zerofinder.eta_oracle", 2.0, 3.0, 2, True],
        [5, "zerofinder.refine_zero", 5.0, 9.0, 0, False],
        [6, "special.F", 5.0, 6.0, 5, True],
    ]
    m = run.layer_metrics(spans, zeros=1)
    assert m["special.F.calls"] == 3
    assert m["special.F.busy_s"] == pytest.approx(3.0)
    assert m["special.F.ms_per_call"] == pytest.approx(1000.0)
    assert m["zerofinder.find_zeros.direct_F_calls"] == 1
    assert m["zerofinder.refine_zero.evals_per_call"] == pytest.approx(1.5)
    assert m["zerofinder.refine_zero.certified_ratio"] == pytest.approx(0.5)
    assert m["zerofinder.F_calls_per_zero"] == 3
    assert m["verify.suite1.busy_s"] == 0
    assert set(m) == set(run.PER_LAYER_UNITS) - {
        "import.numpy_s", "import.scipy_special_s", "import.etazeros_s",
        "trace.overhead_s"}


# ---- failure counting -------------------------------------------------------

def test_fail_ratio_counts_every_kind_of_failure():
    ok, bad_exit, garbled = (("decompose", "ok"), ("decompose", "exit"),
                             ("decompose", "garbled"))
    ledger = run.Ledger({ok: None, bad_exit: None, garbled: None})
    ledger.record(ok, 0, b"{}")
    ledger.record(ok, 0, b"{ }")            # same arguments, other bytes
    ledger.record(bad_exit, 2, b"")
    ledger.record(garbled, 0, b"not json")
    ledger.record(ok, 0, b"{}")
    assert ledger.attempted == 5
    assert len(ledger.failures) == 3
    assert "bytes differ" in ledger.failures[0]
    assert "exit code 2" in ledger.failures[1]
    assert "unreadable" in ledger.failures[2]
    assert metrics.fail_ratio(len(ledger.failures),
                              ledger.attempted) == pytest.approx(0.6)


def test_fail_ratio_rejects_impossible_counts():
    with pytest.raises(ValueError):
        metrics.fail_ratio(0, 0)
    with pytest.raises(ValueError):
        metrics.fail_ratio(3, 2)


# ---- seeded inputs ----------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_argument_lists(name):
    assert workloads.make(name, 7) == workloads.make(name, 7)


def test_seed_changes_the_generated_calls():
    assert workloads.make("cli-cold", 1).calls != workloads.make(
        "cli-cold", 2).calls
    windows = {workloads.make("zeros-scan", s).calls for s in range(40)}
    assert len(windows) == 4


def test_workload_shapes():
    z = workloads.make("zeros-scan", 3)
    assert len(z.calls) == z.pass_size == 1
    lo, hi = float(z.calls[0][2]), float(z.calls[0][4])
    assert 10.0 <= lo < 11.0 and hi - lo == 30.0
    assert ((lo - 10.0) / workloads.ZERO_STEP).is_integer()
    c = workloads.make("cli-cold", 3)
    assert c.pass_size == len(c.calls) == 3 * workloads.CLI_ROUNDS
    assert [a[0] for a in c.calls[:3]] == ["eval", "coeffs", "decompose"]


# ---- the declared metric set -----------------------------------------------

def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == {**run.PER_LAYER_UNITS, **run.OUTCOME_UNITS}


# ---- tracing changes no behaviour ------------------------------------------

_TRACED_EVAL = """
import contextlib, io, json, sys
import tracer
from etazeros import cli, special, zerofinder
originals = {"zerofinder.F": zerofinder.F, "cli.F": cli.F,
             "cli.Gamma": cli.Gamma, "cli.eta_oracle": cli.eta_oracle,
             "special.integrate_line": special.integrate_line}
argv = ["eval", "--a", "0.5", "--b", "14.1347", "--method", "integral"]
plain = io.StringIO()
with contextlib.redirect_stdout(plain):
    cli.main(argv)
tr = tracer.Tracer()
main = tracer.install(tr)
traced = io.StringIO()
with contextlib.redirect_stdout(traced):
    main(argv)
now = {"zerofinder.F": zerofinder.F, "cli.F": cli.F, "cli.Gamma": cli.Gamma,
       "cli.eta_oracle": cli.eta_oracle,
       "special.integrate_line": special.integrate_line}
print(json.dumps({
    "same": plain.getvalue() == traced.getvalue(),
    "rebound": sorted(k for k in originals if now[k] is not originals[k]),
    "names": sorted({s.name for s in tr.spans}),
}))
"""


def test_traced_call_is_byte_identical_and_counts_imported_names():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    out = subprocess.run([sys.executable, "-c", _TRACED_EVAL], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    res = json.loads(out)
    assert res["same"]
    assert res["rebound"] == ["cli.F", "cli.Gamma", "cli.eta_oracle",
                              "special.integrate_line", "zerofinder.F"]
    assert {"cli.main", "special.F", "special.Gamma",
            "quadrature.integrate_line"} <= set(res["names"])
