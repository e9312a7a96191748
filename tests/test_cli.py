import json
import math
import sys

import pytest

from etazeros.cli import main
from etazeros.report import csv_row
from etazeros.verify import B_GRIDS, THEOREM_NUMBERS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# coeffs

APPENDIX_TEXT_FRACTIONS = {
    0: "1/2", 1: "-1/4", 3: "1/8", 5: "-1/4", 7: "17/16",
    9: "-31/4", 11: "691/8", 13: "-5461/4", 15: "929569/32",
}


def test_coeffs_text_matches_table(capsys):
    code, out, _ = run(capsys, "coeffs", "--n-max", "15", "--format", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 17  # header + n = 0..15
    for n, frac in APPENDIX_TEXT_FRACTIONS.items():
        fields = lines[1 + n].split()
        assert fields[0] == str(n)
        assert fields[1] == frac
    for n in (2, 4, 6, 8, 10, 12, 14):
        assert lines[1 + n].split()[1] == "0"


def test_coeffs_json_schema(capsys):
    code, out, _ = run(capsys, "coeffs", "--n-max", "7")
    rows = json.loads(out)
    assert code == 0
    assert [sorted(r) for r in rows] == [
        ["g_n_denominator", "g_n_numerator", "g_n_over_n_factorial", "n"]] * 8
    assert rows[7]["g_n_numerator"] == 17
    assert rows[7]["g_n_denominator"] == 16


# ---------------------------------------------------------------------------
# eval

def test_eval_json_keys_and_zero(capsys):
    code, out, _ = run(capsys, "eval", "--a", "0.5", "--b", "14.134725",
                       "--method", "integral")
    assert code == 0
    obj = json.loads(out)
    assert sorted(obj) == ["F_abs", "F_im", "F_re", "a", "b", "err_est",
                           "method", "zeta_im", "zeta_re"]
    assert obj["F_abs"] < 1e-5


def test_eval_methods_agree(capsys):
    # each route's F lies within its err plus the integral route's err of
    # the integral route's F.  At b = 100 |F| ~ 2e-68 sits far below the
    # series route's err (~8e-14); at b = 10 every route resolves F
    # (|F| ~ 5e-7, series err ~ 4e-14), so agreement there is about F
    for b in ("10", "100"):
        vals = {}
        for method in ("integral", "series+decomposition", "oracle"):
            code, out, _ = run(capsys, "eval", "--a", "0.5", "--b", b,
                               "--method", method)
            assert code == 0
            obj = json.loads(out)
            vals[method] = complex(obj["F_re"], obj["F_im"]), obj["err_est"]
            if b == "10":
                assert obj["F_abs"] > 4.0 * obj["err_est"], (method, obj)
        f_int, err_int = vals.pop("integral")
        for method, (f, err) in vals.items():
            assert abs(f - f_int) <= err + err_int, (b, method)


@pytest.mark.parametrize("a,b", [(0.5, 14.1), (0.3, 21.0), (0.7, 30.0),
                                 (0.5, 45.0), (0.2, 8.0),
                                 (0.5, 14.134725141734695),
                                 (0.5, 21.022039638771555)])
def test_eval_oracle_err_est_bounds_error_against_mpmath(capsys, a, b):
    # the oracle route's F is Gamma (Stirling's series) times eta (the
    # alternating series), so its err_est must carry Gamma's error and
    # |Gamma| times eta's absolute err, which dominates at the zeros, where
    # eta ~ 0
    mpmath = pytest.importorskip("mpmath")
    code, out, _ = run(capsys, "eval", "--a", str(a), "--b", str(b),
                       "--method", "oracle")
    assert code == 0
    obj = json.loads(out)
    with mpmath.workdps(40):
        s = mpmath.mpc(a, b)
        ref = mpmath.gamma(s) * mpmath.altzeta(s)
        err = abs(mpmath.mpc(obj["F_re"], obj["F_im"]) - ref)
    assert err <= obj["err_est"], (a, b, float(err), obj["err_est"])


@pytest.mark.parametrize("method", ["integral", "oracle"])
def test_eval_resolves_F_and_zeta_at_b_100(capsys, method):
    # |F(1/2 + 100i)| ~ 2e-68 and |gamma| ~ 1e-68: F comes off the ray and
    # gamma off Stirling's series resolved, so F lies within err_est and
    # zeta keeps its digits
    mpmath = pytest.importorskip("mpmath")
    code, out, _ = run(capsys, "eval", "--a", "0.5", "--b", "100",
                       "--method", method)
    assert code == 0
    obj = json.loads(out)
    with mpmath.workdps(40):
        s = mpmath.mpc(0.5, 100.0)
        f_err = abs(mpmath.mpc(obj["F_re"], obj["F_im"])
                    - mpmath.gamma(s) * mpmath.altzeta(s))
        z_ref = mpmath.zeta(s)
        z_err = abs(mpmath.mpc(obj["zeta_re"], obj["zeta_im"]) - z_ref)
        assert f_err <= obj["err_est"], (float(f_err), obj["err_est"])
        assert z_err <= 1e-9 * abs(z_ref), float(z_err)
    assert obj["err_est"] <= 1e-9 * obj["F_abs"]
    if method == "integral":
        # the printed zeta is zeta_from_F's, within its own err of mpmath
        from etazeros.special import F, zeta_from_F
        s = complex(0.5, 100.0)
        z, z_bound = zeta_from_F(s, *F(s, scaled=True))
        assert complex(obj["zeta_re"], obj["zeta_im"]) == z
        assert z_err <= z_bound, (float(z_err), z_bound)


@pytest.mark.parametrize("b", [125.5, 480.1, 1000.7, 5000.3, 2e4])
@pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
def test_eval_oracle_up_to_the_height_bound_against_mpmath(capsys, a, b):
    # eta's err is mostly its rounding floor over this grid; F = gamma eta
    # lies within err_est of mpmath also where it underflows with gamma
    # (past b ~ 490), and zeta comes from the resolved eta
    mpmath = pytest.importorskip("mpmath")
    code, out, _ = run(capsys, "eval", "--a", str(a), "--b", str(b),
                       "--method", "oracle")
    assert code == 0
    obj = json.loads(out)
    assert obj["zeta_re"] is not None
    with mpmath.workdps(40):
        s = mpmath.mpc(a, b)
        f_err = abs(mpmath.mpc(obj["F_re"], obj["F_im"])
                    - mpmath.gamma(s) * mpmath.altzeta(s))
        z_ref = mpmath.zeta(s)
        z_err = abs(mpmath.mpc(obj["zeta_re"], obj["zeta_im"]) - z_ref)
        assert f_err <= obj["err_est"], (float(f_err), obj["err_est"])
        assert z_err <= 1e-10 * abs(z_ref), float(z_err / abs(z_ref))


@pytest.mark.parametrize("a,b", [(0.5, 1000.7), (0.2, 480.0)])
def test_eval_integral_resolves_zeta_past_F_underflow(capsys, a, b):
    # F underflows past b ~ 470 and prints as 0, but zeta comes from the
    # scaled F: it is the bridge composition's, within that bound of mpmath
    mpmath = pytest.importorskip("mpmath")
    from etazeros.special import F, zeta_from_F
    code, out, _ = run(capsys, "eval", "--a", str(a), "--b", str(b))
    assert code == 0
    obj = json.loads(out)
    assert obj["F_abs"] == 0.0 and obj["err_est"] == math.ulp(0.0)
    z = complex(obj["zeta_re"], obj["zeta_im"])
    s = complex(a, b)
    z_composed, z_bound = zeta_from_F(s, *F(s, scaled=True))
    assert z == z_composed
    with mpmath.workdps(30):
        z_err = abs(mpmath.mpc(z) - mpmath.zeta(mpmath.mpc(a, b)))
    assert z_err <= z_bound, (float(z_err), z_bound)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("b", ["100", "470"])
def test_eval_unresolved_F_prints_null_zeta(capsys, b):
    # series+decomposition's F2 = head + tail cancels from O(1/b) down to
    # |F| ~ e^(-pi b/2), so it is unresolved here; divided by gamma (1e-68
    # at b = 100, subnormal at b = 470) it would print 1e53 or Infinity
    code, out, _ = run(capsys, "eval", "--a", "0.5", "--b", b,
                       "--method", "series+decomposition")
    assert code == 0
    obj = json.loads(out, parse_constant=_reject_constant)
    assert obj["F_abs"] <= 4.0 * obj["err_est"]
    assert obj["zeta_re"] is None and obj["zeta_im"] is None


def test_eval_integral_evaluates_F_once(capsys, monkeypatch):
    # the F fields and zeta come from one ray integral, counted under every
    # name an etazeros module binds it to
    import etazeros.quadrature as quadrature
    ray = quadrature._ray_integral
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return ray(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("etazeros") and mod is not None:
            for attr, value in list(vars(mod).items()):
                if value is ray:
                    monkeypatch.setattr(mod, attr, counted)
    code, out, _ = run(capsys, "eval", "--a", "0.5", "--b", "30",
                       "--method", "integral")
    assert code == 0
    assert json.loads(out)["zeta_re"] is not None
    assert len(calls) == 1


def test_eval_oracle_evaluates_eta_once(capsys, monkeypatch):
    # zeta on the oracle route comes from the eta already computed for F
    import etazeros.zerofinder as zerofinder
    calls = []

    original = zerofinder.eta_oracle

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(zerofinder, "eta_oracle", counted)
    code, out, _ = run(capsys, "eval", "--a", "0.5", "--b", "30",
                       "--method", "oracle")
    assert code == 0
    assert json.loads(out)["zeta_re"] is not None
    assert len(calls) == 1


def test_eval_oracle_at_large_a_within_err_est_of_mpmath(capsys):
    # Gamma(150 + i) ~ 4e260 is finite, where a ray's tail bound overflows
    mpmath = pytest.importorskip("mpmath")
    code, out, _ = run(capsys, "eval", "--a", "150", "--b", "1",
                       "--method", "oracle")
    assert code == 0
    obj = json.loads(out)
    with mpmath.workdps(40):
        s = mpmath.mpc(150, 1)
        err = abs(mpmath.mpc(obj["F_re"], obj["F_im"])
                  - mpmath.gamma(s) * mpmath.altzeta(s))
        z_err = abs(mpmath.mpc(obj["zeta_re"], obj["zeta_im"])
                    - mpmath.zeta(s))
    assert err <= obj["err_est"], (float(err), obj["err_est"])
    assert z_err <= 1e-15


def test_eval_oracle_gamma_overflow_exits_2():
    # Gamma(200 + i) ~ 1e372 overflows: numerical non-convergence, not a
    # traceback
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "etazeros", "eval", "--a", "200", "--b", "1",
         "--method", "oracle"], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize("method", ["integral", "oracle"])
def test_eval_at_the_pole_prints_null_zeta(capsys, method):
    # 1 - 2^(1-s) vanishes at s = 1, the pole of zeta; F(1) = log 2
    code, out, _ = run(capsys, "eval", "--a", "1", "--b", "0",
                       "--method", method)
    assert code == 0
    obj = json.loads(out)
    assert obj["F_re"] == pytest.approx(math.log(2.0), rel=1e-12)
    assert obj["zeta_re"] is None and obj["zeta_im"] is None


@pytest.mark.parametrize("a", ["100", "120"])
def test_eval_overflowing_ray_exits_2_quickly(a):
    # r^(s-1) overflows on the ray (a = 100) and so does its tail bound
    # (a = 120): numerical non-convergence, not a traceback or a hang
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "etazeros", "eval", "--a", a, "--b", "1"],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


# A fresh interpreter runs the CLI and reports its child's peak RSS, so no
# other child of the test process counts towards the maximum.
_PEAK_RSS = (
    "import resource, subprocess, sys\n"
    "proc = subprocess.run([sys.executable, '-m', 'etazeros', *sys.argv[1:]],"
    " capture_output=True)\n"
    "kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
    "print(proc.returncode, kib / (1024 if sys.platform == 'darwin' else 1))\n")


@pytest.mark.parametrize("method, code", [("integral", 0), ("oracle", 0)])
def test_eval_at_the_height_bound_stays_in_bounded_memory(method, code):
    # the ray's panels stream in chunks and eta's weights come from one pass
    # over two exact integers, so neither holds b-sized temporaries at the
    # largest admitted |b|, where eta's err is mostly its rounding floor.
    pytest.importorskip("resource")
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, "eval", "--a", "0.5", "--b", "20000",
         "--method", method], capture_output=True, text=True, timeout=120)
    rc, kib = proc.stdout.split()
    assert int(rc) == code, proc.stderr
    assert float(kib) / 1024.0 < 100.0


def test_eval_csv(capsys):
    code, out, _ = run(capsys, "eval", "--a", "0.5", "--b", "5",
                       "--format", "csv")
    assert code == 0
    head, row = out.strip().splitlines()
    assert head.split(",")[0:2] == ["a", "b"]
    assert float(row.split(",")[0]) == 0.5


# ---------------------------------------------------------------------------
# verify

def test_verify_requires_selector(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 3
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ["--all", "--grid", "10"],
    ["--theorem", "4", "--grid", "10"],
    ["--theorem", "1", "--all"],
], ids=lambda argv: " ".join(argv))
def test_verify_refuses_a_flag_it_would_ignore(capsys, monkeypatch, argv):
    # --all runs every suite on its default grid, and suite 4 has no b grid:
    # a flag these would drop is a usage error, raised before any suite runs
    import etazeros.verify as verify

    def ran(b_grid=None):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "_RUNNERS", dict.fromkeys(verify._RUNNERS, ran))
    code, out, err = run(capsys, "verify", *argv)
    assert code == 3
    assert out == "" and "usage error" in err


def test_verify_unknown_theorem(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "3")
    assert code == 3


def test_verify_theorem_numbers():
    assert THEOREM_NUMBERS == (1, 2, 4, 5, 6, 7, 8, 9, 10)


@pytest.mark.parametrize("n", [n for n in THEOREM_NUMBERS if n not in (4, 8)])
def test_verify_default_grid_is_the_table(capsys, n):
    # a --grid equal to the suite's entry in B_GRIDS prints the bytes of the
    # run without one
    grid = ",".join(map(repr, B_GRIDS[n]))
    default = run(capsys, "verify", "--theorem", str(n))
    assert default[0] == 0
    assert run(capsys, "verify", "--theorem", str(n), "--grid", grid) == default


def test_verify_theorem8_default_keeps_its_pairs(capsys):
    # the default run compares closed form and quadrature on eight (b, k)
    # pairs; a --grid, even the default one, pairs each b with k = 0, 5, 50
    grid = ",".join(map(repr, B_GRIDS[8]))
    counts = []
    for argv in ((), ("--grid", grid)):
        code, out, _ = run(capsys, "verify", "--theorem", "8", *argv)
        assert code == 0
        checks = json.loads(out)["reports"][0]["checks"]
        counts.append(sum(c["label"].startswith("closed form vs quadrature")
                          for c in checks))
    assert counts == [8, 15]


def test_verify_theorem8_grid(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "8",
                       "--b-grid", "10,100,1000")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    rep = obj["reports"][0]
    assert rep["name"] == "theorem8"
    assert sorted(rep) == ["checks", "name", "passed", "summary"]
    assert sorted(rep["checks"][0]) == [
        "discrepancy", "gating", "label", "lhs", "margin", "note", "passed",
        "rhs", "tol"]


HIGH_GRID = "480,1000.7,5000.3,20000"


def _theorem1_high(capsys, monkeypatch, grid):
    """(exit code, report rows, {label: (|I|, err_I)}) of suite 1 on
    ``grid``, recording each cell's scaled F as the suite computes it."""
    import etazeros.special as special
    scaled_cells = {}
    f = special.F

    def recorded(s, scaled=False):
        out = f(s, scaled)
        if scaled:
            scaled_cells[f"a={s.real:g} b={s.imag:g}"] = (abs(out[0]), out[1])
        return out

    monkeypatch.setattr(special, "F", recorded)
    code, out, _ = run(capsys, "verify", "--theorem", "1",
                       f"--grid={grid}", "--format", "json")
    return code, json.loads(out)["reports"][0]["checks"], scaled_cells


def test_verify_theorem1_up_to_the_height_bound(capsys, monkeypatch):
    # past b ~ 470 F underflows, so the bridge identity is checked divided
    # by gamma, with zeta from the scaled F; no cell passes with the ray's I
    # inside 4 times its err, and -b, where every factor is the conjugate,
    # gives the same verdicts
    code, rows, scaled = _theorem1_high(capsys, monkeypatch, HIGH_GRID)
    assert code == 0
    assert len(rows) == 12 and all(r["passed"] for r in rows)
    for r in rows:
        i_abs, i_err = scaled[r["label"]]
        assert i_abs > 4.0 * i_err, r
    neg = ",".join(f"-{b}" for b in HIGH_GRID.split(","))
    code_neg, rows_neg, _ = _theorem1_high(capsys, monkeypatch, neg)
    assert code_neg == code
    assert [r["passed"] for r in rows_neg] == [r["passed"] for r in rows]


def test_verify_failure_exit_code(capsys, monkeypatch):
    # a failing gating row must surface as exit status 1
    from etazeros.report import VerificationReport
    import etazeros.verify as verify

    def failing(n, b_grid=None):
        rep = VerificationReport(name="theorem8")
        rep.add_inequality("forced failure", -1.0)
        return rep

    monkeypatch.setattr(verify, "run_theorem", failing)
    code, out, _ = run(capsys, "verify", "--theorem", "8", "--format", "json")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_hypothesis_violation_not_silent(capsys):
    # b below the stated bound of the average bracketing is refused loudly
    code, _, err = run(capsys, "verify", "--theorem", "8", "--b-grid", "5")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "1", "--grid", "-480,-1000.7"],
    ["eval", "--a", "0.5", "--b", "-1e3"],
], ids=lambda argv: " ".join(argv))
def test_negative_values_in_any_float_form(capsys, argv):
    # "-480,-1000.7" and "-1e3" are values, as in their "--opt=" form
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    assert run(capsys, *joined) == (0, out, err) and out


def test_verify_determinism_bytes(capsys):
    args = ("verify", "--theorem", "8", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_csv_17_digits(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "8", "--format", "csv")
    assert code == 0
    # margins carry full precision: at least one 17-significant-digit field
    assert any(len(f.split(".")[-1]) >= 15
               for line in out.splitlines()[1:] for f in line.split(",")
               if "." in f and "e" not in f and f.count(".") == 1)


def test_csv_row_cells():
    # the cells every CSV writer prints: empty for null, true/false, str of
    # an int or a str, 17 significant digits of a float
    values = [None, True, False, 7, "theorem8", 0.1, -0.0, 5e-324]
    assert csv_row(values) == ",".join([
        "", "true", "false", "7", "theorem8", "0.10000000000000001", "-0",
        "4.9406564584124654e-324"])


# ---------------------------------------------------------------------------
# decompose

def test_decompose_csv(capsys):
    code, out, _ = run(capsys, "decompose", "--a", "0.5", "--b", "100",
                       "--count", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,t_2k,t_2k_plus_1,contribution,cumulative"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert int(first[0]) == 11
    assert float(first[1]) == pytest.approx(math.exp(0.22 * math.pi), rel=1e-12)


def test_decompose_json_plan(capsys):
    code, out, _ = run(capsys, "decompose", "--a", "0.5", "--b", "100",
                       "--count", "2")
    obj = json.loads(out)
    assert obj["K"] == 11
    assert len(obj["endpoints"]) == 10
    assert obj["c"] == pytest.approx(math.exp(math.pi / 100.0), rel=1e-14)


def test_decompose_validates_a(capsys):
    code, _, err = run(capsys, "decompose", "--a", "1.5", "--b", "100")
    assert code == 3


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_decompose_refuses_negative_count(capsys, fmt):
    # refused, not answered with an empty table and exit 0
    code, out, err = run(capsys, "decompose", "--a", "0.5", "--b", "100",
                         "--count", "-1", "--format", fmt)
    assert code == 3
    assert out == ""
    assert err == "usage error: --count must be >= 0\n"


# ---------------------------------------------------------------------------
# zeros

def test_zeros_json(capsys):
    code, out, _ = run(capsys, "zeros", "--b-min", "13", "--b-max", "15",
                       "--step", "0.25")
    assert code == 0
    arr = json.loads(out)
    assert len(arr) == 1
    z = arr[0]
    assert sorted(z) == ["b_star", "b_star_integral", "integral_certified",
                         "method", "residual", "residual_eta", "route_gap"]
    assert z["b_star"] == pytest.approx(14.134725, abs=1e-5)


def test_zeros_csv_scan(capsys):
    code, out, _ = run(capsys, "zeros", "--b-min", "13", "--b-max", "14",
                       "--step", "0.25", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b,F1,F2,absF"
    assert len(lines) == 6


@pytest.mark.parametrize("argv", [
    ("--b-min", "30", "--b-max", "10"),
    ("--b-min", "10", "--b-max", "30", "--step", "0.75"),
], ids=["reversed", "wide-step"])
def test_zeros_validates_range(capsys, argv):
    code, _, _ = run(capsys, "zeros", *argv)
    assert code == 3


def test_zeros_csv_evaluates_F_once_per_grid_point(capsys, monkeypatch):
    import etazeros.zerofinder as zerofinder
    calls = {"F": 0, "eta": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(zerofinder, "F", counted("F", zerofinder.F))
    monkeypatch.setattr(zerofinder, "eta_oracle",
                        counted("eta", zerofinder.eta_oracle))
    code, out, _ = run(capsys, "zeros", "--b-min", "13", "--b-max", "14",
                       "--step", "0.25", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 5
    assert calls == {"F": 5, "eta": 0}


# ---------------------------------------------------------------------------
# plumbing

def test_out_file(tmp_path, capsys):
    path = tmp_path / "table.json"
    code, out, _ = run(capsys, "coeffs", "--n-max", "3", "--out", str(path))
    assert code == 0
    assert out == ""
    rows = json.loads(path.read_text())
    assert rows[3]["g_n_numerator"] == 1 and rows[3]["g_n_denominator"] == 8


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    # exit 1 means a gating cell failed; a path that cannot be opened is
    # the caller's error, reported in one line
    path = tmp_path / "missing" / "table.json"
    code, out, err = run(capsys, "coeffs", "--n-max", "3", "--out",
                         str(path))
    assert code == 3
    assert out == ""
    assert err == f"usage error: cannot write {path}: " \
                  "No such file or directory\n"


def test_numerical_nonconvergence_exit_code(capsys):
    # r^(s-1) overflows in the ray's panel values at a = 100
    code, _, err = run(capsys, "eval", "--a", "100", "--b", "1")
    assert code == 2
    assert "non-convergence" in err


def test_eval_series_method_needs_big_enough_b(capsys):
    # the head series needs a whole period under the cap: b >= 2 pi / log 2
    code, _, err = run(capsys, "eval", "--a", "0.5", "--b", "5",
                       "--method", "series+decomposition")
    assert code == 3


def test_decompose_needs_big_enough_b(capsys):
    code, _, err = run(capsys, "decompose", "--a", "0.5", "--b", "5")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["decompose", "--a", "0.5", "--b", "0.001"],
    ["eval", "--a", "0.5", "--b", "0.001", "--method", "series+decomposition"],
    ["verify", "--theorem", "2", "--grid", "0.001"],
    ["verify", "--theorem", "6", "--grid", "0.001"],
    ["verify", "--theorem", "9", "--grid", "0.001"],
    ["verify", "--theorem", "10", "--grid", "0.004"],
    ["verify", "--theorem", "7", "--grid", "0.5"],
    ["verify", "--theorem", "7", "--grid", "0.1"],
    ["verify", "--theorem", "7", "--grid", "0.02"],
], ids=lambda argv: " ".join(argv))
def test_small_b_is_a_usage_error(argv):
    # below the pairing's b >= 2 pi / log 2, the pair kernel's float range
    # and suite 7's b >= 1 an exponent overflows, a strip runs far out or a
    # check passes vacuously; each b is refused before that happens
    import subprocess
    proc = subprocess.run([sys.executable, "-m", "etazeros", *argv],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage error: ")


def test_decompose_far_half_periods_finish_at_once():
    # from k ~ 105 at b = 100 a half period starts past t = 744, where the
    # kernel underflows; none of them is panelled out to its far end
    import subprocess
    proc = subprocess.run(
        [sys.executable, "-m", "etazeros", "decompose", "--a", "0.5",
         "--b", "100", "--count", "300"],
        capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["intervals"]
    assert len(rows) == 300 and rows[-1]["contribution"] == 0.0


def test_decompose_refuses_a_count_past_the_float_range():
    # at b = 100 the half period k ends at t = e^((2k + 1) pi / 100), which
    # leaves the float range past k = 11,296: refused before any integral
    import subprocess
    proc = subprocess.run(
        [sys.executable, "-m", "etazeros", "decompose", "--a", "0.5",
         "--b", "100", "--count", "20000"],
        capture_output=True, text=True, timeout=20)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage error: ")
    assert proc.stdout == ""


def test_unknown_flag(capsys):
    code, _, err = run(capsys, "coeffs", "--frobnicate")
    assert code == 3


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "etazeros", "coeffs", "--n-max", "3",
         "--format", "csv"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == \
        "n,g_n_numerator,g_n_denominator,g_n_over_n_factorial"


def test_runs_without_scipy():
    # scipy is a test-only dependency: the CLI must start and compute with
    # it unimportable
    import subprocess
    import sys
    blocker = ("import runpy, sys; sys.modules['scipy'] = None; "
               "runpy.run_module('etazeros', run_name='__main__', "
               "alter_sys=True)")
    for argv in (["coeffs", "--n-max", "5"],
                 ["eval", "--a", "0.5", "--b", "14.134725",
                  "--method", "integral"]):
        proc = subprocess.run([sys.executable, "-c", blocker, *argv],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert json.loads(proc.stdout)


_NO_NUMPY = ("import runpy, sys; sys.modules['numpy'] = None; "
             "runpy.run_module('etazeros', run_name='__main__', "
             "alter_sys=True)")


def test_coeffs_help_and_usage_errors_run_without_numpy():
    # only the subcommands that integrate load numpy; the exact table is
    # integers and fractions
    import subprocess
    import sys
    for fmt in ("json", "csv", "text"):
        argv = ["coeffs", "--n-max", "5", "--format", fmt]
        blocked = subprocess.run([sys.executable, "-c", _NO_NUMPY, *argv],
                                 capture_output=True, timeout=120)
        plain = subprocess.run([sys.executable, "-m", "etazeros", *argv],
                               capture_output=True, timeout=120)
        assert blocked.returncode == 0, (fmt, blocked.stderr)
        assert blocked.stdout == plain.stdout and plain.stdout
    for argv, code in ((["--help"], 0),
                       (["zeros", "--b-min", "5", "--b-max", "4"], 3)):
        proc = subprocess.run([sys.executable, "-c", _NO_NUMPY, *argv],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr


def test_help_is_for_users():
    # every subcommand and exit code, and no start-up timings or memory
    # figures, which go stale
    import re
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "etazeros", "--help"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    text = proc.stdout
    for command in ("eval", "coeffs", "verify", "decompose", "zeros"):
        assert re.search(rf"^{command}\s", text, re.M), command
    for code in range(4):
        assert re.search(rf"\b{code} [a-z]", text), code
    assert "deterministic" in text
    assert not re.search(r"\d\s*(ms|MiB|MB)\b", text)


def _blocked_numpy_run(argv):
    """Run the CLI with numpy unimportable, so no quadrature or eta work
    can start."""
    import subprocess
    import sys
    return subprocess.run([sys.executable, "-c", _NO_NUMPY, *argv],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["eval", "--a", "0.5", "--b", "inf", "--method", "oracle"],
    ["eval", "--a", "0.5", "--b", "nan"],
    ["eval", "--a", "nan", "--b", "3"],
    ["zeros", "--b-min", "10", "--b-max", "inf"],
    ["zeros", "--b-min", "10", "--b-max", "inf", "--format", "csv"],
    ["zeros", "--b-min", "10", "--b-max", "12", "--step", "nan"],
    ["decompose", "--a", "0.5", "--b", "inf"],
    ["verify", "--theorem", "1", "--grid", "5,nan"],
], ids=lambda argv: " ".join(argv))
def test_non_finite_numbers_are_usage_errors(argv):
    proc = _blocked_numpy_run(argv)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "not a finite number" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["eval", "--a", "0.5", "--b", "1e6", "--method", "oracle"],
    ["eval", "--a", "0.5", "--b", "-20000.5"],
    ["zeros", "--b-min", "10", "--b-max", "1e300"],
    ["decompose", "--a", "0.5", "--b", "1e300"],
    ["verify", "--theorem", "2", "--grid", "10,1e5"],
], ids=lambda argv: " ".join(argv))
def test_heights_above_the_bound_exit_3_before_any_work(argv):
    # memory grows with |b| on every route; the bound is checked while the
    # arguments are parsed, before numpy, quadrature or eta can load
    proc = _blocked_numpy_run(argv)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "above the supported" in proc.stderr


def test_height_bound_is_inclusive():
    import etazeros.cli as cli_mod
    args = cli_mod._build_parser().parse_args(
        ["eval", "--a", "0.5", "--b", str(-cli_mod.MAX_HEIGHT)])
    assert args.b == -cli_mod.MAX_HEIGHT


def test_importing_the_package_and_cli_leaves_numpy_unloaded():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, etazeros, etazeros.cli; "
                               "print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


# Runs cli.main on the arguments, then prints which of the given modules the
# call left unloaded.
_UNLOADED = ("import contextlib, io, sys\n"
             "from etazeros.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    rc = main(sys.argv[2:])\n"
             "print(rc, *(m for m in sys.argv[1].split(',')"
             " if m not in sys.modules))\n")
_NEVER_NEEDED = ("numpy.polynomial", "fractions", "decimal", "etazeros.coeffs")


@pytest.mark.parametrize("argv,unloaded", [
    (["zeros", "--b-min", "10", "--b-max", "15"], (*_NEVER_NEEDED, "numpy")),
    (["eval", "--a", "0.5", "--b", "14", "--method", "integral"],
     (*_NEVER_NEEDED, "numpy")),
    (["eval", "--a", "0.5", "--b", "14", "--method", "oracle"],
     (*_NEVER_NEEDED, "numpy")),
    (["decompose", "--a", "0.5", "--b", "100"],
     (*_NEVER_NEEDED, "etazeros.series", "numpy")),
    # at b = 10 the paired tail is a few periods
    (["eval", "--a", "0.5", "--b", "10", "--method", "series+decomposition"],
     ("numpy",)),
    # the smallest admitted b and the height bound: every half period, out
    # to the ones past t = 744, stays on the float executor
    (["decompose", "--a", "0.5", "--b", "9.0648", "--count", "300"],
     (*_NEVER_NEEDED, "etazeros.series", "numpy")),
    (["decompose", "--a", "0.5", "--b", "2e4", "--count", "300"],
     (*_NEVER_NEEDED, "etazeros.series", "numpy")),
    # suite 2's arc takes 3-5 panels and, below b ~ 30, its segment 0 -> iR
    # 12-16: both small enough for floats
    (["verify", "--theorem", "2", "--grid", "10,12,30,1000"],
     ("numpy.polynomial", "numpy")),
    # eta sums lists of floats at every height, out to the height bound's
    # 30,040 terms
    (["eval", "--a", "0.5", "--b", "2e4", "--method", "oracle"],
     (*_NEVER_NEEDED, "numpy")),
    # eta's scan and refinement near b = 100 with one certificate pair of
    # rays, ~900 panels, small enough for floats
    (["zeros", "--b-min", "100", "--b-max", "102"],
     (*_NEVER_NEEDED, "numpy")),
    # the series route's paired tail, ~540 panels at b = 1000, runs on
    # floats up to b ~ 1890
    (["eval", "--a", "0.2075", "--b", "862.6904", "--method",
      "series+decomposition"], ("numpy",)),
    (["eval", "--a", "0.5", "--b", "1000", "--method",
      "series+decomposition"], ("numpy",)),
], ids=["zeros", "eval-integral", "eval-oracle", "decompose", "eval-series",
        "decompose-smallest-b", "decompose-height-bound", "verify-theorem2",
        "eval-oracle-height-bound", "zeros-100", "eval-series-862",
        "eval-series-1000"])
def test_commands_load_only_what_they_compute_with(argv, unloaded):
    # the Gauss rules and Stirling's coefficients are literal tables, and
    # choose_K_R lives in decomposition, so these calls need neither
    # numpy.polynomial nor the exact-rational layer; decompose needs no
    # head series, and its half periods, a low zeros window's certificate
    # rays, one eval's ray at b = 14 and the series route's tail up to
    # b = 1000 are small enough to run on floats, without numpy; eta runs on
    # floats at every height
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-c", _UNLOADED, ",".join(unloaded), *argv],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", *unloaded]


def test_absurd_zeros_step_is_a_usage_error_at_once():
    # a step of 1e-300 on [10, 12] would be ~2e300 grid points; the grid is
    # refused before it is built
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "etazeros", "zeros", "--b-min", "10",
         "--b-max", "12", "--step", "1e-300"],
        capture_output=True, text=True, timeout=20)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage error: ")
    assert proc.stdout == ""


@pytest.mark.parametrize("target,argv", [
    ("special.F", ["eval", "--a", "0.5", "--b", "14"]),
    ("zerofinder.eta_oracle",
     ["eval", "--a", "0.5", "--b", "14", "--method", "oracle"]),
    ("decomposition.upper_integral",
     ["eval", "--a", "0.5", "--b", "100", "--method", "series+decomposition"]),
    ("decomposition.make_plan",
     ["decompose", "--a", "0.5", "--b", "100", "--count", "2"]),
    ("zerofinder.find_zeros", ["zeros", "--b-min", "14", "--b-max", "15"]),
    ("coeffs.CoefficientTable.build", ["coeffs", "--n-max", "3"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_commands_call_the_layer_modules_current_bindings(capsys, monkeypatch,
                                                          target, argv):
    # a wrapper put on a layer module, as a tracer puts one, sees the
    # command's calls: the CLI keeps no binding of its own
    import importlib
    modname, *path = target.split(".")
    owner = importlib.import_module(f"etazeros.{modname}")
    for name in path[:-1]:
        owner = getattr(owner, name)
    original = getattr(owner, path[-1])
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, path[-1], wrapper)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls


def test_lazy_names_are_the_layer_objects():
    import etazeros
    import etazeros.special
    assert etazeros.F is etazeros.special.F
    assert set(etazeros.__all__) <= set(dir(etazeros))
    with pytest.raises(AttributeError):
        etazeros.no_such_name


@pytest.mark.parametrize("preset,expect", [(None, "1"), ("3", "3")])
def test_main_defaults_openblas_to_one_thread(preset, expect):
    # set before a handler loads numpy; a caller's own setting is kept
    import os
    import subprocess
    import sys
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import contextlib, io, os; from etazeros.cli import main; "
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out): rc = main(['coeffs'])\n"
            "print(rc, os.environ['OPENBLAS_NUM_THREADS'])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert proc.stdout.split() == ["0", expect]


def _openblas_cores():
    """The OPENBLAS_CORETYPE values this host can run, oldest first; none
    off x86-64 or where OpenBLAS does not choose its kernels at run time."""
    import platform
    import numpy as np
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return []
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 only prints its config
        return []
    blas = config["Build Dependencies"].get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return []
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as has
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__ as has
    cores = []
    for core, needs in (
            ("Nehalem", ()), ("Sandybridge", ("AVX",)),
            ("Haswell", ("AVX2", "FMA3")),
            ("SkylakeX", ("AVX512F", "AVX512CD", "AVX512BW", "AVX512DQ",
                          "AVX512VL"))):
        if not all(has.get(f) for f in needs):
            break
        cores.append(core)
    return cores


def test_output_is_the_same_under_every_openblas_kernel():
    # no weighted sum goes through BLAS, so the bytes cannot depend on the
    # kernels OpenBLAS picks for the host's CPU
    import os
    import subprocess
    import sys
    cores = _openblas_cores()
    if len(cores) < 2:
        pytest.skip("OpenBLAS has one kernel set on this host")
    # zeros 10..40 runs on floats; 10..60 takes its certificate rays on
    # arrays
    calls = (["zeros", "--b-min", "10", "--b-max", "40"],
             ["zeros", "--b-min", "10", "--b-max", "60"],
             ["zeros", "--b-min", "10", "--b-max", "40", "--format", "csv"],
             ["verify", "--all"])
    for argv in calls:
        outs = {}
        for core in cores:
            proc = subprocess.run(
                [sys.executable, "-m", "etazeros", *argv],
                env={**os.environ, "OPENBLAS_CORETYPE": core},
                capture_output=True, timeout=120)
            assert proc.returncode == 0, (argv, core, proc.stderr)
            outs[core] = proc.stdout
        differ = [c for c in cores if outs[c] != outs[cores[0]]]
        assert not differ, (argv, cores[0], differ)


def test_series_route_runs_no_ray(capsys, monkeypatch):
    # Re F comes from gamma eta, Im F from the head series and the paired
    # tail: no F and no ray integral under any name a module binds them to
    import etazeros.quadrature as quadrature
    import etazeros.special as special
    calls = []
    for target in (special.F, quadrature.integrate_line):
        def recorded(*args, _f=target, **kwargs):
            calls.append(_f.__name__)
            return _f(*args, **kwargs)
        for name, mod in list(sys.modules.items()):
            if name.startswith("etazeros") and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        monkeypatch.setattr(mod, attr, recorded)
    for b in ("10", "250"):
        code, out, _ = run(capsys, "eval", "--a", "0.5", "--b", b,
                           "--method", "series+decomposition")
        assert code == 0 and json.loads(out)["F_re"]
    assert calls == []


def test_zeros_bytes_do_not_depend_on_what_is_loaded(capsys):
    # the executor goes by the size of each request, never by whether
    # numpy happens to be loaded: in this process it is, in a fresh one
    # zeros 10..40 never loads it
    import subprocess
    import sys
    import numpy  # noqa: F401
    argv = ["zeros", "--b-min", "10", "--b-max", "40"]
    code, out, _ = run(capsys, *argv)
    fresh = subprocess.run([sys.executable, "-m", "etazeros", *argv],
                           capture_output=True, text=True, timeout=120)
    assert code == fresh.returncode == 0
    assert out == fresh.stdout and len(out) > 1000


@pytest.mark.parametrize("argv,min_bytes", [
    (["verify", "--theorem", "8", "--format", "json"], 500),
    (["decompose", "--a", "0.5", "--b", "700", "--format", "json"], 500),
    (["eval", "--a", "0.3", "--b", "800", "--method", "series+decomposition"],
     200),
], ids=["verify8", "decompose", "eval-series"])
def test_cross_process_determinism(argv, min_bytes):
    # byte-identity must hold across fresh interpreter processes, not just
    # repeated in-process calls
    import subprocess
    import sys
    cmd = [sys.executable, "-m", "etazeros", *argv]
    a = subprocess.run(cmd, capture_output=True, timeout=120)
    b = subprocess.run(cmd, capture_output=True, timeout=120)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout and len(a.stdout) > min_bytes


# The probe is registered before main, so it runs after main's gc.freeze
# hook (atexit runs last in, first out) and sees the frozen heap.
_FREEZE_PROBE = ("import atexit, gc, sys\n"
                 "atexit.register(lambda: sys.stderr.write("
                 "f'freeze_count={gc.get_freeze_count()}\\n'))\n")


@pytest.mark.parametrize("entry", [
    "import runpy; runpy.run_module('etazeros', run_name='__main__', "
    "alter_sys=True)",
    "from etazeros.cli import main; sys.exit(main())",
], ids=["python -m etazeros", "etazeros.cli.main"])
def test_cli_freezes_the_heap_at_exit(entry):
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-c", _FREEZE_PROBE + entry, "coeffs", "--n-max",
         "3"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count = int(proc.stderr.rsplit("freeze_count=", 1)[1])
    assert count > 0


def test_layers_without_the_cli_leave_the_collector_alone():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-c", _FREEZE_PROBE + "import etazeros; "
                                               "etazeros.F(0.5 + 14j)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "freeze_count=0\n"


def test_verify_out_file_matches_stdout(tmp_path):
    import subprocess
    import sys
    argv = [sys.executable, "-m", "etazeros", "verify", "--all", "--format",
            "csv"]
    path = tmp_path / "verify.csv"
    to_file = subprocess.run([*argv, "--out", str(path)],
                             capture_output=True, timeout=120)
    to_stdout = subprocess.run(argv, capture_output=True, timeout=120)
    assert to_file.returncode == to_stdout.returncode == 0
    assert to_file.stdout == b""
    assert path.read_bytes() == to_stdout.stdout and to_stdout.stdout
