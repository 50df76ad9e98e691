import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import GeneratorType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linsys.bounds
import linsys.cli
import linsys.dominance
import linsys.lattice
import linsys.oracle
import linsys.structure
from linsys.cli import _build_parser, _jsonable, main
from linsys.eqsys import FpSystem, parse_system, reduce_mod_p
from linsys.lattice import SphereSet, best_sphere_set, embed_mod_p
from linsys.oracle import PointSet, is_strongly_free, max_strongly_free, max_weakly_free
from linsys.systems import builtin, builtin_names


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# analyze

def test_analyze_w_system(capsys):
    code, rep, err = run_json(capsys, "analyze", "--system", "SW", "--p", "3")
    assert code == 0
    assert rep["r1"] == 3 and rep["r2"] == 2 and rep["L"] == 2 and rep["m_max"] == 2
    assert rep["star"] is True and rep["irreducible"] is True
    assert rep["ctilde_over_p"] == pytest.approx(0.99295, abs=1e-4)
    assert "x1 - x2 - x3 + x4 = 0" in rep["system"]


def test_analyze_star_violated(capsys):
    code, rep, err = run_json(capsys, "analyze", "--system", "S4AP")
    assert code == 0
    assert rep["star"] is False and rep["star_margin"] < 0


def test_analyze_star_family_builtin(capsys):
    code, rep, err = run_json(capsys, "analyze", "--system", "STAR3")
    assert code == 0
    assert rep["r1"] == 6 and rep["r2"] == 1 and rep["L"] == 3
    assert rep["star"] is True  # 6/2 + 1/e > 3


def test_analyze_unbalanced_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.lineq"
    path.write_text("x1 + x2 = 0\n")
    code, out, err = run(capsys, "analyze", "--system", str(path))
    assert code == 1 and "balanced" in err


def test_analyze_unknown_system(capsys):
    code, out, err = run(capsys, "analyze", "--system", "NOSUCH")
    assert code == 1 and "error:" in err


def test_analyze_warns_when_support_changes(capsys):
    code, rep, err = run_json(capsys, "analyze", "--system", "SW", "--p", "2")
    assert code == 0
    assert rep["support_changed"] is True
    assert "vanish" in err


# ---------------------------------------------------------------------------
# scalar helpers

def test_lambda_subcommand(capsys):
    code, rep, err = run_json(capsys, "lambda", "--m", "1", "--alpha", "1/3", "--h", "2")
    assert code == 0
    assert rep["value"] == pytest.approx(2.755104613, abs=1e-6)
    code, rep, err = run_json(capsys, "lambda", "--m", "1", "--alpha", "0.5", "--h", "2")
    assert rep["value"] == 3.0 and rep["method"] == "boundary-exact"


@pytest.mark.parametrize("text, alpha", [("1/3", 1 / 3), ("0.5", 0.5), ("1e-3", 1e-3),
                                         ("5e-324", 5e-324)])
def test_lambda_reads_alpha_as_a_decimal_or_a_fraction(capsys, text, alpha):
    code, rep, err = run_json(capsys, "lambda", "--m", "1", "--alpha", text, "--h", "2")
    assert code == 0
    assert rep["value"] == linsys.bounds.lambda_min(1, alpha, 2).value


@pytest.mark.parametrize("extra", [["--alpha", "inf"], ["--alpha", "1/3", "--rational"]])
def test_lambda_refuses_inf_and_the_rational_flag(capsys, extra):
    code, out, err = run(capsys, "lambda", "--m", "1", "--h", "2", *extra)
    assert code == 1 and out == "" and err.count("\n") == 1


def test_lambda_where_m_h_squared_overflows_a_float(capsys):
    # M(M+2) overflows at h = 10^160, yet the tilt is found: Lambda/M tends to
    # 0.8414343723433 at alpha = 1/3 (as at h = 10^18 + 2), not to the
    # boundary value M+1; u = e^(-t) rounds to 1.0
    code, rep, err = run_json(capsys, "lambda", "--m", "1", "--alpha", "1/3", "--h", str(10**160))
    assert code == 0 and err == ""
    assert rep["value"] == pytest.approx(0.8414343723433e160, rel=1e-12)
    assert rep["optimizer"] == 1.0 and rep["method"] == "tilted-mean-newton"


_PAST_FLOAT = str(10**400)


@pytest.mark.parametrize("argv, flag", [
    (["lambda", "--m", _PAST_FLOAT, "--alpha", "1/3", "--h", "2"], "--m"),
    (["lambda", "--m", "1", "--alpha", "1/3", "--h", _PAST_FLOAT], "--h"),
    (["ctilde", "--r1", "3", "--r2", "2", "--L", "2", "--m", "2", "--d", _PAST_FLOAT], "--d"),
    (["ctilde", "--r1", "3", "--r2", "2", "--L", "2", "--m", _PAST_FLOAT, "--d", "5"], "--m"),
    (["ctilde", "--r1", _PAST_FLOAT, "--r2", "2", "--L", "2", "--m", "2", "--d", "5"], "--r1"),
    (["star", "--r1", _PAST_FLOAT, "--r2", "2", "--L", "2"], "--r1"),
    (["star", "--r1", "3", "--r2", "2", "--L", "-" + _PAST_FLOAT], "--L"),
    (["upper", "--system", "S3AP", "--p", "3", "--n", _PAST_FLOAT], "--n"),
    (["behrend", "--n", _PAST_FLOAT, "--k", "2"], "--n"),
    (["certify", "--system", "SW", "--p", "5", "--n", _PAST_FLOAT], "--n"),
])
def test_integers_past_the_float_range_are_refused_while_parsing(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: argument {flag}: integers must lie within the float range (±1.8e+308)\n"


@pytest.mark.parametrize("text", ["1e400", _PAST_FLOAT], ids=["exponent", "digits"])
def test_alpha_past_the_float_range_is_refused_while_parsing(capsys, text):
    code, out, err = run(capsys, "lambda", "--m", "1", "--alpha", text, "--h", "2")
    assert code == 1 and out == ""
    assert err == "error: argument --alpha: values must lie within the float range (±1.8e+308)\n"


def test_lambda_missing_argument_exits(capsys):
    code, out, err = run(capsys, "lambda", "--m", "1", "--alpha", "0.5")
    assert code == 1 and out == ""
    assert err == "error: the following arguments are required: --h\n"


@pytest.mark.parametrize("argv", [
    ["lambda", "--m", "1", "--h", "2", "--alpha"],
    ["certify", "--system", "S3", "--p", "7", "--n", "2", "--epsilon"],
])
@pytest.mark.parametrize("text", ["1e-999999999", "1e401", "1E+0401"])
def test_huge_decimal_exponents_are_refused_while_parsing(capsys, argv, text):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, text)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.endswith(": decimal exponents must lie within ±400\n") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["0.5", "1e-3", "1/3", "1e-400"])
def test_alpha_and_epsilon_keep_their_exact_values(capsys, text):
    exact = Fraction(text)
    code, rep, _ = run_json(capsys, "lambda", "--m", "1", "--alpha", text, "--h", "2")
    assert code == 0 and rep["value"] == linsys.bounds.lambda_min(1, float(exact), 2).value
    code, rep, _ = run_json(capsys, "lower-bound", "--system", "S3", "--p", "7", "--epsilon", text)
    assert code == 0
    assert rep["strong"]["epsilon"] == {"num": exact.numerator, "den": exact.denominator,
                                        "value": float(exact)}
    assert rep["strong"]["base"] == (1.0 - exact) * 4


def test_bounds_at_a_prime_past_the_old_float_bracket(capsys):
    # ln(1 + 1/a) once cancelled to 0 here, dividing by zero in every bound
    p = str(10**18 + 3)
    code, rep, err = run_json(capsys, "upper", "--system", "S3AP", "--p", p, "--n", "2")
    assert code == 0 and rep["base_over_p"] == pytest.approx(0.84143437, abs=1e-8)
    code, rep, err = run_json(capsys, "analyze", "--system", "SW", "--p", p)
    assert code == 0 and rep["ctilde_over_p"] == pytest.approx(0.96919762, abs=1e-8)
    code, rep, err = run_json(capsys, "ctilde", "--r1", "3", "--r2", "2", "--L", "2", "--m", "2", "--d", p)
    assert code == 0 and rep["over_d"] == pytest.approx(0.96919762, abs=1e-8)
    code, rep, err = run_json(capsys, "lambda", "--m", "1", "--alpha", "1/3", "--h", str(10**18 + 2))
    assert code == 0 and rep["value"] / (10**18 + 3) == pytest.approx(0.84143437, abs=1e-8)


def test_usage_errors_exit_1_with_one_line(capsys):
    code, out, err = run(capsys, "search", "--system", "S3AP", "--p", "3", "--n", "2",
                         "--kind", "strong", "--threads", "2")
    assert code == 1 and out == ""
    assert err == "error: unrecognized arguments: --threads 2\n"
    code, out, err = run(capsys, "upper", "--system", "SW", "--p", "three", "--n", "2")
    assert code == 1 and err.startswith("error: argument --p: invalid int value")
    assert err.count("\n") == 1
    code, out, err = run(capsys, "search", "--system", "S3AP", "--p", "3", "--n", "abc")
    assert code == 1 and out == ""
    assert err == "error: argument --n: invalid int value: 'abc'\n"
    with pytest.raises(SystemExit) as exc:
        main(["lambda", "--help"])
    assert exc.value.code == 0
    capsys.readouterr()


def test_ctilde_subcommand(capsys):
    code, rep, err = run_json(
        capsys, "ctilde", "--r1", "3", "--r2", "2", "--L", "2", "--m", "2", "--d", "3"
    )
    assert code == 0
    assert rep["value"] == pytest.approx(2.9788, abs=2e-3)
    assert rep["over_d"] <= 0.994


@pytest.mark.parametrize("flag", ["--r1", "--r2"])
def test_ctilde_where_every_lambda_rounds_to_one(capsys, flag):
    # the uniform level rounds to 0, which once divided by zero
    argv = {"--r1": "3", "--r2": "2", "--L": "2", "--m": "2", "--d": "5", flag: str(10**19)}
    code, rep, err = run_json(capsys, "ctilde", *[a for kv in argv.items() for a in kv])
    assert code == 0 and err == ""
    assert rep["value"] == 1.0 and rep["over_d"] == 0.2
    assert rep["optimizer"] == pytest.approx([2 / (10**19 + 3)] * 2, rel=1e-12)


@pytest.mark.parametrize("m, d", [(10**154, 5), (2, 10**154)])
def test_ctilde_where_the_top_exponent_squared_overflows_a_float(capsys, m, d):
    # M = m(d - 1) fits a float but M^2 does not
    code, rep, err = run_json(capsys, "ctilde", "--r1", "3", "--r2", "2", "--L", "2",
                              "--m", str(m), "--d", str(d))
    assert code == 0 and err == ""
    assert math.isfinite(rep["value"]) and all(a >= 0.0 for a in rep["optimizer"])
    if m == 2:
        assert rep["over_d"] == pytest.approx(0.9691976206629, rel=1e-12)


@pytest.mark.parametrize("k", [21, 30, 100, 154, 200, 307])
def test_ctilde_over_d_keeps_its_limit_for_huge_d(capsys, k):
    # C/d tends to 0.96919762066; over_d: 1.0 would be the trivial C = d
    code, rep, err = run_json(capsys, "ctilde", "--r1", "3", "--r2", "2", "--L", "2",
                              "--m", "2", "--d", str(10**k + 1))
    assert code == 0 and err == ""
    assert rep["over_d"] == pytest.approx(0.9691976206629, rel=1e-12)


@pytest.mark.parametrize("name, ratio", [("SW", 0.9691976206629), ("SPP", 0.9868136471345)])
def test_upper_keeps_the_tilted_base_past_p_of_ten_to_the_twenty_one(capsys, name, ratio):
    # base_over_p: 1.0 would be the trivial C = p
    code, rep, err = run_json(capsys, "upper", "--system", name, "--p", str(10**24 + 7), "--n", "3")
    assert code == 0 and err == ""
    assert rep["base_over_p"] == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize("argv, options", [
    (["ctilde", "--r1", "3", "--r2", "2", "--L", "2", "--m", str(10**308), "--d", "5"],
     "--m times (--d - 1)"),
    (["lambda", "--m", str(10**308), "--alpha", "1/3", "--h", "2"], "--m times --h"),
])
def test_a_top_exponent_past_the_float_range_is_refused_by_its_options(capsys, argv, options):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {options} must lie within the float range (±1.8e+308)\n"


def test_star_subcommand(capsys):
    code, rep, err = run_json(capsys, "star", "--r1", "3", "--r2", "2", "--L", "2")
    assert code == 0 and rep["holds"] is True
    code, rep, err = run_json(capsys, "star", "--r1", "2", "--r2", "2", "--L", "2")
    assert rep["holds"] is False
    # the counts ctilde refuses too
    for r1, r2, L in (("-1", "0", "1"), ("0", "-1", "1"), ("3", "2", "0")):
        code, out, err = run(capsys, "star", "--r1", r1, "--r2", r2, "--L", L)
        assert code == 1 and out == "" and err == "error: need r1, r2 >= 0 and L >= 1\n"


def test_upper_subcommand(capsys):
    code, rep, err = run_json(
        capsys, "upper", "--system", "SW", "--p", "3", "--n", "2"
    )
    assert code == 0
    assert rep["upper"] == pytest.approx(rep["base"] ** 2, rel=1e-9)
    assert rep["base_over_p"] <= 0.994
    code, rep, err = run_json(
        capsys, "upper", "--system", "S4AP", "--p", "3", "--n", "1"
    )
    assert code == 0 and rep["warnings"]


def test_upper_past_the_float_range_reports_its_log():
    # a fresh interpreter, so that an uncaught exception would show as a traceback
    env = dict(os.environ, PYTHONPATH=str(Path(linsys.__file__).parents[1]))
    argv = [sys.executable, "-m", "linsys.cli", "upper", "--system", "S3AP",
            "--p", "3", "--n", "2000", "--format", "json"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["upper"] is None
    assert rep["log_upper"] == pytest.approx(2000 * math.log(rep["base"]))


# ---------------------------------------------------------------------------
# reductions and lower bounds

def test_reduce_text_trace(capsys):
    code, out, err = run(capsys, "reduce", "--system", "S3")
    assert code == 0
    assert "-- step 1: contract equation(s) 3 (coefficient 2) -->" in out
    assert "x_{1_2_6} - 2x_{3_4} + x5 = 0" in out
    assert "terminal: empty system in one variable; b~ = 2" in out


def test_reduce_json_trace(capsys):
    code, rep, err = run_json(capsys, "reduce", "--system", "S3")
    assert code == 0
    assert rep["terminated"] is True and rep["b_tilde"] == 2
    assert [s["subsystem"] for s in rep["steps"]] == [[3], [1], [1]]
    assert rep["steps"][1]["result"] == "x_{1_2_6} - 2x_{3_4} + x5 = 0"


def test_reduce_json_groups_merged_variables(capsys):
    code, rep, err = run_json(capsys, "reduce", "--system", "S3")
    assert code == 0
    assert rep["steps"][0]["merged"] == {"x_{1_2_6}": ["x1", "x2", "x6"]}
    assert rep["steps"][1]["merged"] == {"x_{3_4}": ["x3", "x4"]}


def test_reduce_exhaustive_beats_greedy_on_s2(capsys):
    code, rep, err = run_json(capsys, "reduce", "--system", "S2")
    assert rep["b_tilde"] == 4 and len(rep["steps"]) == 1
    code, rep, err = run_json(
        capsys, "reduce", "--system", "S2", "--strategy", "exhaustive"
    )
    assert rep["b_tilde"] == 3 and len(rep["steps"]) == 3


def test_reduce_stuck_system_notes(capsys):
    code, rep, err = run_json(capsys, "reduce", "--system", "SPP")
    assert code == 0
    assert rep["terminated"] is False and "note" in rep


def test_reduce_exhaustive_past_the_reduction_cap_is_one_line(capsys, monkeypatch):
    # STAR11's first step has 2,047 subsets, so it is refused before any is reduced
    monkeypatch.setattr(linsys.dominance, "EXHAUSTIVE_REDUCTION_CAP", 1000)
    code, out, err = run(capsys, "reduce", "--system", "STAR11", "--strategy", "exhaustive")
    assert code == 1 and out == ""
    assert err == ("error: exhaustive reduction would exceed 1000 reductions: "
                   "its first step alone has 2047 subsets\n")
    # S1 has no terminating chain; its 24 reductions all go to the failed caps
    monkeypatch.setattr(linsys.dominance, "EXHAUSTIVE_REDUCTION_CAP", 20)
    code, out, err = run(capsys, "reduce", "--system", "S1", "--strategy", "exhaustive")
    assert code == 1 and out == ""
    assert err == "error: exhaustive reduction stopped after 20 reductions\n"


def test_reduce_exhaustive_star17_is_refused_at_once(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "reduce", "--system", "STAR17", "--strategy", "exhaustive")
    assert time.monotonic() - start < 1
    assert code == 1 and out == ""
    assert err == ("error: exhaustive reduction would exceed 100000 reductions: "
                   "its first step alone has 131071 subsets\n")


# sha256 over every built-in's and STAR1-STAR16's greedy and exhaustive
# reduce reports in JSON: any change to a reduction trace changes it
REDUCE_TRACES_SHA256 = "452ea695b2fe0dff5f5045f3350d8c58800070d7bf4d1ee75ce57cd11d2cbf4e"


def test_reduce_traces_are_pinned(capsys):
    digest = hashlib.sha256()
    names = [n for n in builtin_names() if n != "STAR<k>"] + [f"STAR{k}" for k in range(1, 17)]
    for name in names:
        for strategy in ("greedy", "exhaustive"):
            code, out, err = run(capsys, "reduce", "--system", name, "--strategy", strategy, "--format", "json")
            assert code == 0 and err == ""
            digest.update(f"{name} {strategy}\n{out}".encode())
    assert digest.hexdigest() == REDUCE_TRACES_SHA256


def test_lower_bound_s3(capsys):
    code, rep, err = run_json(capsys, "lower-bound", "--system", "S3", "--p", "3")
    assert code == 0
    assert rep["strong"]["base"] == pytest.approx(1.875)
    assert rep["strong"]["floor_term"] == 2 and rep["strong"]["asymptotic"] is True
    assert rep["weak"]["base"] == pytest.approx(1.5)


@pytest.mark.parametrize("strategy, b_tilde", [("greedy", 4), ("exhaustive", 3)])
def test_lower_bound_with_p_at_most_b_tilde_keeps_the_weak_base(capsys, strategy, b_tilde):
    code, rep, err = run_json(capsys, "lower-bound", "--system", "S2", "--p", "3",
                              "--strategy", strategy)
    assert code == 0
    assert rep["strong"] is None
    assert rep["strong_note"] == f"p = 3 does not exceed b~ = {b_tilde}; no strong lower bound derived"
    assert rep["weak"]["base"] == pytest.approx(1.5)


def test_lower_bound_spp_has_no_routes(capsys):
    code, rep, err = run_json(capsys, "lower-bound", "--system", "SPP", "--p", "3")
    assert code == 0
    assert rep["strong"] is None and "strong_note" in rep
    assert rep["weak"] is None and "weak_note" in rep


def test_certify_and_lower_bound_give_one_weak_note(capsys):
    # x1 - 2x2 + x3 is dominant, but its coefficient 2 is not below p = 2
    code, low, err = run_json(capsys, "lower-bound", "--system", "S3AP", "--p", "2")
    assert code == 0
    code, cert, err = run_json(capsys, "certify", "--system", "S3AP", "--p", "2", "--n", "3")
    assert code == 0
    assert low["weak"] is None and cert["lower_weak"] is None
    assert cert["weak_note"] == low["weak_note"] == (
        "no dominant equation with coefficient in [2, p); no weak lower bound derived")


@pytest.mark.parametrize("argv", [
    ["lower-bound", "--system", "SPP", "--p", "3"],
    ["lower-bound", "--system", "S3", "--p", "7"],
    ["certify", "--system", "S2", "--p", "3", "--n", "2"],
])
def test_epsilon_outside_the_unit_interval_is_refused_on_every_path(capsys, argv):
    code, out, err = run(capsys, *argv, "--epsilon", "5")
    assert code == 1 and out == ""
    assert err == "error: argument --epsilon: epsilon must lie in (0, 1)\n"


# ---------------------------------------------------------------------------
# constructions and searches

def test_behrend_census_and_embedding(capsys):
    code, rep, err = run_json(
        capsys, "behrend", "--n", "3", "--k", "2", "--materialize", "--p", "7"
    )
    assert code == 0
    assert rep["best_norm_sq"] == 5 and rep["best_count"] == 6
    assert rep["pigeonhole_bound"] == pytest.approx(2.25)
    assert rep["classes"]["5"] == 6
    assert len(rep["points"]) == 6 and "0,1,2" in rep["points"]


@pytest.mark.parametrize("n, k, p", [(10, 3, 7), (3, 12, 13), (3, 100, 101)])
def test_behrend_points_are_the_embedded_sphere_set(capsys, n, k, p):
    code, rep, err = run_json(capsys, "behrend", "--n", str(n), "--k", str(k),
                              "--materialize", "--p", str(p))
    assert code == 0
    want = embed_mod_p(best_sphere_set(n, k), p).points
    assert rep["points"] == [",".join(map(str, pt)) for pt in want]


def test_behrend_prints_points_without_building_tuples(capsys, monkeypatch):
    monkeypatch.setattr(SphereSet, "points", property(lambda y: pytest.fail("tuples built")))
    code, rep, err = run_json(capsys, "behrend", "--n", "10", "--k", "3", "--materialize", "--p", "7")
    assert code == 0 and len(rep["points"]) == 40830


def test_behrend_takes_one_census(capsys, monkeypatch):
    calls = []
    real = linsys.lattice.norm_class_counts
    count = lambda n, k: calls.append((n, k)) or real(n, k)
    monkeypatch.setattr(linsys.lattice, "norm_class_counts", count)
    monkeypatch.setattr(linsys.cli, "norm_class_counts", count)
    code, rep, err = run_json(capsys, "behrend", "--n", "6", "--k", "3", "--materialize")
    assert code == 0 and len(rep["points"]) == rep["best_count"]
    assert calls == [(6, 3)]


def test_behrend_checks_p_without_materialize(capsys):
    code, out, err = run(capsys, "behrend", "--n", "3", "--k", "2", "--p", "2")
    assert code == 1 and out == ""
    assert err == "error: p=2 must exceed the box bound k=2\n"


def test_behrend_refuses_a_bad_p_in_one_line(capsys):
    for p, message in (("4", "p=4 is not prime"), ("3", "p=3 must exceed the box bound k=3")):
        code, out, err = run(capsys, "behrend", "--n", "5", "--k", "3", "--materialize", "--p", p)
        assert code == 1 and out == "" and err == f"error: {message}\n"


def test_behrend_reports_a_pigeonhole_bound_past_the_float_range_as_null(capsys):
    code, rep, err = run_json(capsys, "behrend", "--n", "1000", "--k", "1")
    assert code == 0 and rep["pigeonhole_bound"] == pytest.approx(2.0**1000 / 1000)
    code, rep, err = run_json(capsys, "behrend", "--n", "1100", "--k", "1")
    assert code == 0 and rep["pigeonhole_bound"] is None
    assert rep["best_norm_sq"] == 550 and rep["best_count"] == math.comb(1100, 550)


def test_behrend_refuses_a_census_past_its_guard(capsys):
    code, out, err = run(capsys, "behrend", "--n", "2", "--k", "1000000")
    assert code == 1 and out == "" and err.count("\n") == 1 and "census guard" in err


def test_search_strong(capsys):
    code, rep, err = run_json(
        capsys, "search", "--kind", "strong", "--system", "S3AP", "--p", "3", "--n", "1"
    )
    assert code == 0
    assert rep["value"] == 2 and rep["witness"] == ["0", "1"]
    assert rep["exhaustive"] is True


def test_search_weak_default_system(capsys):
    code, rep, err = run_json(capsys, "search", "--kind", "weak", "--p", "3", "--n", "1")
    assert code == 0
    assert rep["value"] == 3 and rep["witness"] == ["0", "1", "2"]


def test_search_node_budget_bounds_a_large_space(capsys):
    start = time.monotonic()
    code, rep, err = run_json(
        capsys, "search", "--kind", "strong", "--system", "S3AP", "--p", "3", "--n", "5",
        "--node-budget", "2000",
    )
    assert time.monotonic() - start < 10
    assert code == 0
    assert rep["exhaustive"] is False and rep["nodes_explored"] == 2000
    witness = [tuple(int(c) for c in pt.split(",")) for pt in rep["witness"]]
    t = reduce_mod_p(builtin("S3AP"), 3)
    assert len(witness) == rep["value"] and is_strongly_free(t, PointSet(3, 5, tuple(witness)))


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_search_rejects_a_budget_below_one(capsys, budget):
    code, out, err = run(capsys, "search", "--kind", "strong", "--system", "S3AP",
                         "--p", "3", "--n", "1", "--node-budget", budget)
    assert code == 1 and out == ""
    assert err == "error: node budget must be >= 1\n"


def test_search_refuses_a_system_not_balanced_mod_p_in_one_line(capsys, tmp_path):
    path = tmp_path / "system.lineq"
    path.write_text("x1 + 3x2 + 3x3 = 0\n")
    argv = ("search", "--system", str(path), "--p", "5", "--n", "1", "--kind", "weak")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: system is not balanced mod 5")
    path.write_text("x1 + x2 + 3x3 = 0\n")  # balanced mod 5, not over Z
    code, rep, err = run_json(capsys, *argv)
    assert code == 0 and rep["exhaustive"] is True


def test_search_past_the_compile_guard_is_input_error(capsys):
    code, out, err = run(capsys, "search", "--kind", "weak", "--p", "3", "--n", "5")
    assert code == 1 and "guard" in err


@pytest.mark.parametrize("kind", ["strong", "weak"])
def test_search_answers_a_system_with_no_support_up_to_the_point_clause(capsys, tmp_path, kind):
    system = tmp_path / "system.lineq"
    system.write_text("x1 - x2 = 0\n")
    code, rep, err = run_json(capsys, "search", "--system", str(system), "--p", "211", "--n", "2",
                              "--kind", kind)
    assert code == 0 and err == ""
    assert (rep["value"], rep["nodes_explored"], rep["exhaustive"]) == (211**2, 0, True)
    assert rep["witness"][:2] == ["0,0", "0,1"] and len(rep["witness"]) == 211**2
    for p in ("709", "1409"):  # one prime past the point clause's edge (701^2 points), and far past it
        start = time.monotonic()
        code, out, err = run(capsys, "search", "--system", str(system), "--p", p, "--n", "2", "--kind", kind)
        assert time.monotonic() - start < 1
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err == f"error: compiling over {p}^2 points exceeds the guard (500000 points)\n"


@pytest.mark.parametrize("system, kind, p, n, budget", [
    ("S3AP", "strong", 11, 1, None),         # two-digit entries
    ("S3AP", "strong", 13, 2, 300),          # stopped at its budget
    ("S3AP", "strong", 3, 3, None),
    ("S3AP", "strong", 3, 4, 200),
    ("SW", "weak", 7, 1, None),
    ("x1 - x2 = 0", "strong", 67, 2, None),  # the whole space: 4,489 points, past one 4,096-row seam
    ("x1 - x2 = 0", "weak", 11, 3, None),
    ("x1 - x2 = 0", "strong", 11, 4, None),
    ("3x1 = 0", "weak", 3, 2, None),         # the empty witness of a one-variable weak search
])
def test_search_witness_prints_as_its_points_joined(capsys, tmp_path, system, kind, p, n, budget):
    if "=" in system:
        (tmp_path / "system.lineq").write_text(system + "\n")
        parsed, system = parse_system(system), str(tmp_path / "system.lineq")
    else:
        parsed = builtin(system)
    search = max_strongly_free if kind == "strong" else max_weakly_free
    res = search(reduce_mod_p(parsed, p), n, node_budget=budget)
    witness = json.dumps([",".join(map(str, pt)) for pt in res.witness])
    argv = ["search", "--system", system, "--kind", kind, "--p", str(p), "--n", str(n)]
    argv += ["--node-budget", str(budget)] if budget else []
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and out == (f'{{"kind": "{kind}", "p": {p}, "n": {n}, "value": {res.value}, '
                                 f'"witness": {witness}, "nodes_explored": {res.nodes_explored}, '
                                 f'"exhaustive": {json.dumps(res.exhaustive)}}}\n')
    code, out, err = run(capsys, *argv)
    assert code == 0 and f"\nwitness: {witness}\n" in out


@pytest.mark.parametrize("n", [1, 2])
def test_weak_search_and_verify_agree_on_one_variable(capsys, tmp_path, n):
    # 3x1 = 0 vanishes mod 3: verify refuses every one-point set, so the maximum is empty
    system, points = tmp_path / "system.lineq", tmp_path / "pts.csv"
    system.write_text("3x1 = 0\n")
    code, rep, err = run_json(capsys, "search", "--system", str(system), "--p", "3", "--n", str(n),
                              "--kind", "weak")
    assert code == 0
    assert (rep["value"], rep["witness"], rep["nodes_explored"], rep["exhaustive"]) == (0, [], 0, True)
    points.write_text("".join(pt + "\n" for pt in rep["witness"]))  # the reported witness itself
    code, rep, err = run_json(capsys, "verify", "--system", str(system), "--p", "3", "--kind", "weak",
                              "--set", str(points))
    assert code == 0 and rep["holds"] is True
    for pt in itertools.product(range(3), repeat=n):
        points.write_text(",".join(map(str, pt)) + "\n")
        code, rep, err = run_json(capsys, "verify", "--system", str(system), "--p", "3", "--kind", "weak",
                                  "--set", str(points))
        assert code == 2 and rep["holds"] is False


# ---------------------------------------------------------------------------
# verification gates

def test_verify_strong_holds(capsys, tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("# two points, comments and blanks allowed\n0, 1\n\n1 ,0\n")
    code, out, err = run(
        capsys, "verify", "--system", "S3AP", "--p", "5", "--kind", "strong",
        "--set", str(path), "--format", "json",
    )
    assert code == 0 and json.loads(out)["holds"] is True


def test_verify_strong_fails_with_exit_2(capsys, tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0\n1\n2\n")
    code, out, err = run(
        capsys, "verify", "--system", "S3AP", "--p", "5", "--kind", "strong",
        "--set", str(path),
    )
    assert code == 2 and "verification failed" in err


def test_verify_multicolor(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("0,1,0,1,0\n")
    code, out, err = run(
        capsys, "verify", "--system", "SW", "--p", "3", "--kind", "multicolor",
        "--set", str(path), "--format", "json",
    )
    assert code == 0 and json.loads(out)["holds"] is True


@pytest.mark.parametrize("row", ["0,1,2", "3,4,5", "6,-2,-1"])
def test_verify_multicolor_reduces_its_rows_mod_p(capsys, tmp_path, row):
    # (3,4,5) and (6,-2,-1) are (0,1,2) mod 3, a 3-AP and the only solution
    path = tmp_path / "rows.csv"
    path.write_text(row + "\n")
    code, out, err = run(
        capsys, "verify", "--system", "S3AP", "--p", "3", "--kind", "multicolor",
        "--set", str(path), "--format", "json",
    )
    assert code == 0 and json.loads(out)["holds"] is True


def test_verify_multicolor_refuses_a_column_repeating_a_point_mod_p(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("0,1,2\n3,5,7\n")  # column 1 holds 0 and 3, one point mod 3
    code, out, err = run(
        capsys, "verify", "--system", "S3AP", "--p", "3", "--kind", "multicolor",
        "--set", str(path),
    )
    assert code == 1 and out == ""
    assert err == "error: column 1 repeats a point mod 3\n"


@pytest.mark.parametrize("kind", ["strong", "weak"])
@pytest.mark.parametrize("text, holds", [
    ("999999,5,1000002,0\n1,2,3,4\n500000,7,8,9\n", True),
    # (1000002,1000001,0,5), (0,1,2,3), (1,4,4,1) is a 3-AP mod p
    ("1000002,1000001,0,5\n0,1,2,3\n1,4,4,1\n7,7,7,7\n", False),
])
def test_verify_at_a_prime_whose_fourth_power_passes_int64(capsys, tmp_path, kind, text, holds):
    path = tmp_path / "pts.csv"
    path.write_text(text)
    code, out, err = run(
        capsys, "verify", "--system", "S3AP", "--p", "1000003", "--kind", kind,
        "--set", str(path), "--format", "json",
    )
    assert code == (0 if holds else 2) and json.loads(out)["holds"] is holds


def test_verify_multicolor_bad_width(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("0,1,0\n")
    code, out, err = run(
        capsys, "verify", "--system", "SW", "--p", "3", "--kind", "multicolor",
        "--set", str(path),
    )
    assert code == 1 and "columns" in err


def test_verify_refuses_a_ragged_file_naming_its_line(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    for kind, text, message in (
            ("multicolor", "1 1 2 2 3\n4 4 0 0 1 7\n", "line 2: expected 5 columns like the first row, got 6"),
            ("strong", "# points\n0 1\n2\n", "line 3: expected 2 columns like the first row, got 1"),
            ("strong", "0 1\n1 x\n", "line 2: not a row of integers"),
            ("multicolor", "# no rows\n\n", "matching needs at least one row")):
        path.write_text(text)
        code, out, err = run(capsys, "verify", "--system", "SW", "--p", "5", "--kind", kind,
                             "--set", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("kind", ["strong", "weak"])
def test_verify_reads_a_file_of_no_rows_as_the_empty_set(capsys, tmp_path, kind):
    path = tmp_path / "pts.csv"
    for text in ("", "# no points\n\n"):
        path.write_text(text)
        code, rep, err = run_json(capsys, "verify", "--system", "SW", "--p", "5", "--kind", kind,
                                  "--set", str(path))
        assert code == 0 and rep == {"kind": kind, "holds": True} and err == ""


# ---------------------------------------------------------------------------
# certify

def test_certify_s3_full_chain(capsys):
    code, rep, err = run_json(capsys, "certify", "--system", "S3", "--p", "3", "--n", "2")
    assert code == 0 and rep["verified"] is True
    assert rep["b_tilde"] == 2 and rep["lower_strong"]["base"] == pytest.approx(1.875)
    names = [c["name"] for c in rep["checks"]]
    assert "sphere set has only constant solutions" in names
    assert "embedded sphere set is strongly free mod p" in names
    assert all(c["ok"] for c in rep["checks"])
    # star fails for this system, so no strong upper bound is claimed
    assert rep["star"] is False and "upper_strong" not in rep


def test_certify_exits_2_when_a_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(linsys.cli, "sphere_set_checks", lambda s, sphere, p: (True, False))
    code, rep, err = run_json(capsys, "certify", "--system", "S3AP", "--p", "7", "--n", "2")
    assert code == 2 and rep["verified"] is False
    assert err == "verification failed: embedded sphere set is strongly free mod p\n"


def test_certify_w_system_weak_chain(capsys):
    code, rep, err = run_json(capsys, "certify", "--system", "SW", "--p", "3", "--n", "1")
    assert code == 0 and rep["verified"] is True
    assert rep["lower_weak"]["base"] == pytest.approx(1.5)
    assert rep["exact_weak"] == 3
    assert rep["upper_weak"] == pytest.approx(20.926, abs=0.05)
    assert rep["lower_weak"]["base"] <= rep["exact_weak"] <= rep["upper_weak"]
    assert rep["upper_strong"] == pytest.approx(2.9789, abs=2e-3)
    assert rep["exact_strong"] == 1


def test_certify_sw_in_f7_squared_finds_the_exact_weak_maximum(capsys):
    # the unit-vector frame cut finishes this weak search within the default budget
    code, rep, err = run_json(capsys, "certify", "--system", "SW", "--p", "7", "--n", "2")
    assert code == 0 and rep["verified"] is True
    assert rep["exact_weak"] == 12 and "exact_weak_note" not in rep
    assert rep["exact_strong"] == 1


def test_certify_sw_at_p_2_reports_no_w_shape_bound(capsys):
    # wshape_upper needs p >= 3, though search finds the weak maximum (8) at p = 2
    code, rep, err = run_json(capsys, "certify", "--system", "SW", "--p", "2", "--n", "3")
    assert code == 0 and rep["verified"] is True
    assert rep["upper_weak"] is None and "needs p >= 3" in rep["upper_weak_note"]
    assert "exact_weak" not in rep
    assert all("weak" not in c["name"] for c in rep["checks"])


def test_certify_skips_an_exact_search_cut_by_the_budget(capsys, monkeypatch):
    monkeypatch.setattr(linsys.oracle, "DEFAULT_NODE_BUDGET", 50)
    code, rep, err = run_json(capsys, "certify", "--system", "S3AP", "--p", "3", "--n", "4")
    assert code == 0 and rep["verified"] is True
    assert rep["exact_strong"] is None and "node budget" in rep["exact_strong_note"]
    assert all("exact" not in c["name"] for c in rep["checks"])


def test_certify_with_p_at_most_b_tilde_omits_the_strong_bound(capsys):
    code, rep, err = run_json(capsys, "certify", "--system", "S2", "--p", "3", "--n", "5")
    assert code == 0 and rep["verified"] is True
    assert rep["b_tilde"] == 4
    assert "lower_strong" not in rep and "sphere" not in rep
    assert "does not exceed b~ = 4" in rep["lower_strong_note"]
    assert rep["lower_weak"]["b"] == 2


def test_certify_skips_an_exact_search_refused_by_the_compile_guard(capsys):
    code, rep, err = run_json(capsys, "certify", "--system", "STAR6", "--p", "5", "--n", "2")
    assert code == 0 and rep["verified"] is True
    assert rep["exact_strong"] is None and "exceeds the guard" in rep["exact_strong_note"]
    assert rep["upper_strong"] > 0 and rep["lower_strong"]["b"] == 2
    assert all("exact" not in c["name"] for c in rep["checks"])


def test_certify_reports_sphere_checks_refused_by_the_enumeration_guard_as_null(capsys):
    code, rep, err = run_json(capsys, "certify", "--system", "STAR3", "--p", "13", "--n", "5")
    assert code == 0 and rep["verified"] is True
    assert rep["sphere"] == {"k": 6, "radius_sq": 66, "size": 340}
    assert rep["sphere_check"] is None
    assert rep["sphere_check_note"] == ("sphere checks refused: enumeration would take "
                                        "~13363360000 frontier entries (> 100000000); not checked")
    assert not [c for c in rep["checks"] if "sphere" in c["name"]]


def test_certify_at_a_huge_n_decides_its_guards_without_the_powers(capsys):
    start = time.monotonic()
    code, rep, err = run_json(capsys, "certify", "--system", "S3AP", "--p", "7", "--n", "100000000")
    assert time.monotonic() - start < 1
    assert code == 0 and rep["verified"] is True
    assert rep["upper_strong"] is None  # inf past the float range
    assert not [key for key in rep if key.startswith("exact")]
    assert rep["sphere"] is None and "materialization guard" in rep["sphere_note"]
    assert "sphere_check" not in rep and not [c for c in rep["checks"] if "sphere" in c["name"]]


def test_certify_reports_a_sphere_refused_by_the_census_guard_as_null(capsys):
    # k = 4095: 4096^2 box points pass the materialization guard, but the census of
    # 33,538,051 norm classes is refused; bounds and reductions are still reported
    code, rep, err = run_json(capsys, "certify", "--system", "S3AP", "--p", "8191", "--n", "2")
    assert code == 0 and rep["verified"] is True and err == ""
    assert rep["sphere"] is None and "census guard" in rep["sphere_note"]
    assert rep["sphere_note"].startswith("sphere set refused: a census of 33538051 norm classes")
    assert rep["b_tilde"] == 2 and rep["lower_strong"] and rep["upper_strong"] > 0
    assert not [c for c in rep["checks"] if "sphere" in c["name"]]


def test_certify_at_n_1_says_why_it_builds_no_sphere(capsys):
    code, rep, err = run_json(capsys, "certify", "--system", "S3AP", "--p", "7", "--n", "1")
    assert code == 0 and rep["verified"] is True and err == ""
    assert rep["lower_strong"]["b"] == 2
    assert rep["sphere"] is None and rep["sphere_note"] == "sphere sets need n >= 2; not built"
    assert "sphere_check" not in rep and not [c for c in rep["checks"] if "sphere" in c["name"]]


@pytest.mark.parametrize("system, kind", [("S3AP", "strong"), ("SW", "weak")])
def test_search_at_a_huge_n_is_refused_in_one_line(capsys, system, kind):
    start = time.monotonic()
    code, out, err = run(capsys, "search", "--system", system, "--p", "3", "--n", "100000000",
                         "--kind", kind)
    assert time.monotonic() - start < 1
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "points exceeds the guard" in err and "3^100000000" in err


@pytest.mark.parametrize("name, p", [("S1", 19), ("S2", 5)])
def test_upper_where_the_allocation_rounds_below_zero(capsys, name, p):
    code, rep, err = run_json(capsys, "upper", "--system", name, "--p", str(p), "--n", "4")
    assert code == 0 and err == ""
    assert min(rep["allocation"]) >= 0.0
    assert rep["upper"] == pytest.approx(p**4)


@pytest.mark.parametrize("name", [name for name in builtin_names() if name != "STAR<k>"]
                         + ["STAR2", "STAR3", "STAR4"])
def test_upper_warns_exactly_when_the_star_inequality_fails(capsys, name):
    code, rep, err = run_json(capsys, "upper", "--system", name, "--p", "5", "--n", "2")
    assert code == 0
    assert ("warnings" in rep) == (rep["star"] is False)


def test_certify_star4_sphere_check_pins_every_equation(capsys):
    # the four equations of STAR4 end at distinct variables once row-reduced,
    # so the sphere check enumerates one free position, not eight
    code, rep, err = run_json(capsys, "certify", "--system", "STAR4", "--p", "5", "--n", "4")
    assert code == 0 and rep["verified"] is True
    assert rep["sphere"] == {"k": 2, "radius_sq": 5, "size": 12}
    assert len(rep["checks"]) == 2


def test_upper_computes_its_allocation_once(capsys, monkeypatch):
    calls = []
    original = linsys.bounds.optimize_allocation
    monkeypatch.setattr(linsys.bounds, "optimize_allocation",
                        lambda t, *graph: calls.append(t) or original(t, *graph))
    code, rep, err = run_json(capsys, "upper", "--system", "S4AP", "--p", "5", "--n", "3")
    assert code == 0 and len(calls) == 1
    assert rep["upper"] == rep["base"] ** 3
    assert any("r1/2 + r2/e > L fails" in w for w in rep["warnings"])


@pytest.mark.parametrize("argv", [
    ("upper", "--system", "SW", "--p", "5", "--n", "3"),
    ("certify", "--system", "SW", "--p", "5", "--n", "3"),
    ("certify", "--system", "S3AP", "--p", "7", "--n", "3"),
    ("certify", "--system", "STAR3", "--p", "13", "--n", "3"),
])
def test_upper_and_certify_build_the_reduced_systems_hypergraph_once(capsys, monkeypatch, argv):
    # the reductions build hypergraphs of integer subsystems; the reduced
    # system's own graph serves the star check and the allocation
    reduced = []
    original = linsys.structure.build_hypergraph

    def counting(s):
        if isinstance(s, FpSystem):
            reduced.append(s)
        return original(s)

    for module in (linsys.structure, linsys.bounds, linsys.dominance):
        monkeypatch.setattr(module, "build_hypergraph", counting)
    code, rep, err = run_json(capsys, *argv)
    assert code == 0 and ("base" in rep or "upper_strong" in rep)
    assert len(reduced) == 1


@pytest.mark.parametrize("n", ["0", "-2"])
def test_certify_rejects_a_dimension_below_one(capsys, n):
    code, out, err = run(capsys, "certify", "--system", "S3AP", "--p", "5", "--n", n)
    assert code == 1 and out == ""
    assert err == "error: dimension must be >= 1\n"


def test_certify_spp_reports_notes_only(capsys):
    code, rep, err = run_json(capsys, "certify", "--system", "SPP", "--p", "3")
    assert code == 0 and rep["verified"] is True
    assert "reduction_note" in rep and "weak_note" in rep
    assert rep["checks"] == []


# ---------------------------------------------------------------------------
# edges of the bound subcommands: exit 0, 1 or 2, never a traceback

def _exit_code(argv):
    """main's exit code; usage errors return 1 like other bad input, so no
    argv here makes main raise SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code


_alpha_texts = st.one_of(
    st.floats(min_value=0.0, max_value=3.0).map(repr),
    st.floats(min_value=0.0, max_value=1e-250).map(repr),         # tiny, subnormal included
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.fractions(min_value=-1, max_value=3).map(str),
    st.sampled_from(["1/0", "abc", ""]),
)
_lambda_argv = st.builds(
    lambda m, alpha, h: ["lambda", "--m", str(m), "--alpha", alpha, "--h", str(h)],
    st.integers(min_value=-1, max_value=5), _alpha_texts,
    st.one_of(st.integers(min_value=-1, max_value=100), st.integers(min_value=1, max_value=10**6)),
)
_ctilde_argv = st.builds(
    lambda r1, r2, L, m, d: ["ctilde", "--r1", str(r1), "--r2", str(r2), "--L", str(L),
                             "--m", str(m), "--d", str(d)],
    st.integers(min_value=-1, max_value=6), st.integers(min_value=-1, max_value=6),
    st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=4),
    st.one_of(st.integers(min_value=1, max_value=40), st.integers(min_value=2, max_value=10**6)),
)
_system_names = st.one_of(st.sampled_from(["S1", "S2", "S3", "S3AP", "S4AP", "SP", "SPP", "SW"]),
                          st.integers(min_value=0, max_value=8).map(lambda k: f"STAR{k}"))
_upper_argv = st.builds(
    lambda name, p, n: ["upper", "--system", name, "--p", str(p), "--n", str(n)],
    _system_names, st.integers(min_value=1, max_value=32), st.integers(min_value=-1, max_value=4),
)
_analyze_argv = st.builds(
    lambda name, p: ["analyze", "--system", name, "--p", str(p)],
    _system_names, st.integers(min_value=1, max_value=32),
)
# desk scale: every example below runs in about a second at most
_small_p = st.sampled_from([2, 3, 5]).map(str)
_small_n = st.integers(min_value=-1, max_value=2).map(str)
_strategies = st.sampled_from(["greedy", "exhaustive"])
_reduce_argv = st.builds(
    lambda name, strategy: ["reduce", "--system", name, "--strategy", strategy],
    _system_names, _strategies,
)
_lower_bound_argv = st.builds(
    lambda name, p, strategy: ["lower-bound", "--system", name, "--p", p, "--strategy", strategy],
    _system_names, _small_p, _strategies,
)
_search_argv = st.builds(
    lambda name, p, n, kind, budget: ["search", "--system", name, "--p", p, "--n", n,
                                      "--kind", kind, "--node-budget", str(budget)],
    _system_names, _small_p, _small_n, st.sampled_from(["strong", "weak"]),
    st.integers(min_value=-1, max_value=20_000),
)
_certify_argv = st.builds(
    lambda name, p, n: ["certify", "--system", name, "--p", p, "--n", n],
    _system_names, _small_p, _small_n,
)
_behrend_argv = st.one_of(
    # n >= 8k takes the census by recurrence
    st.builds(lambda n, k: ["behrend", "--n", str(n), "--k", str(k)],
              st.integers(min_value=-1, max_value=40), st.integers(min_value=-1, max_value=4)),
    # (k+1)^n <= 5^9: sphere sets of at most 46,116 points
    st.builds(lambda n, k, p: ["behrend", "--n", str(n), "--k", str(k), "--materialize"]
              + (["--p", p] if p else []),
              st.integers(min_value=-1, max_value=9), st.integers(min_value=-1, max_value=4),
              st.one_of(st.none(), st.sampled_from([2, 3, 4, 5, 7]).map(str))),
)


@settings(deadline=None, max_examples=300)
@given(st.one_of(_lambda_argv, _ctilde_argv, _upper_argv, _analyze_argv, _reduce_argv,
                 _lower_bound_argv, _search_argv, _certify_argv, _behrend_argv))
def test_bound_subcommands_exit_cleanly(argv):
    code = _exit_code(argv)
    assert code in (0, 1, 2)
    if argv[0] == "lower-bound" and argv[2] != "STAR0":  # STAR0 is no built-in
        assert code == 0


def test_lambda_refuses_nan_and_a_zero_denominator(capsys):
    code, out, err = run(capsys, "lambda", "--m", "1", "--alpha", "nan", "--h", "2")
    assert code == 1 and "'nan'" in err
    code, out, err = run(capsys, "lambda", "--m", "1", "--alpha", "1/0", "--h", "2")
    assert code == 1 and err.count("\n") == 1


# ---------------------------------------------------------------------------
# selftest and plumbing

def test_selftest_passes(capsys):
    code, out, err = run(capsys, "selftest")
    assert code == 0
    assert "13/13 criteria passed" in out


def test_selftest_fails_when_a_bound_breaks(capsys, monkeypatch):
    class Bogus:
        value = 10.0**6
        optimizer = (0.0, 0.0)
        method = "bogus"

    monkeypatch.setattr(linsys.bounds, "c_tilde", lambda *a, **kw: Bogus())
    code, out, err = run(capsys, "selftest")
    assert code == 2
    assert "FAIL criterion 03" in out
    assert "criterion 03" in err


def test_selftest_json_lists_every_criterion(capsys):
    code, rep, err = run_json(capsys, "selftest")
    assert code == 0
    assert rep["passed"] == rep["total"] == len(rep["criteria"]) == 13
    assert [c["number"] for c in rep["criteria"]] == list(range(1, 14))
    assert all(c["ok"] for c in rep["criteria"])


_EVERY_SUBCOMMAND = {
    "analyze": ["--system", "SW", "--p", "3"],
    "lambda": ["--m", "1", "--alpha", "1/3", "--h", "2"],
    "ctilde": ["--r1", "3", "--r2", "2", "--L", "2", "--m", "2", "--d", "3"],
    "star": ["--r1", "3", "--r2", "2", "--L", "2"],
    "upper": ["--system", "S3AP", "--p", "5", "--n", "2"],
    "reduce": ["--system", "S3"],
    "lower-bound": ["--system", "S3", "--p", "7"],
    "behrend": ["--n", "3", "--k", "2", "--materialize", "--p", "7"],
    "search": ["--system", "S3AP", "--p", "3", "--n", "2", "--kind", "strong"],
    "verify": ["--system", "S3AP", "--p", "3", "--kind", "strong", "--set", "{set}"],
    "certify": ["--system", "S3", "--p", "7", "--n", "2"],
    "selftest": [],
}


def test_every_subcommand_is_in_the_out_flag_test():
    # the whole tree and the one-subcommand parsers main builds know the same names
    sub = next(a for a in _build_parser()._actions if a.dest == "subcommand")
    assert list(sub.choices) == list(linsys.cli._HELP)
    assert set(sub.choices) == set(_EVERY_SUBCOMMAND)


@pytest.mark.parametrize("subcommand", sorted(_EVERY_SUBCOMMAND))
def test_one_subcommands_parser_reads_as_the_whole_tree(subcommand):
    argv = [*_EVERY_SUBCOMMAND[subcommand], "--format", "json", "--out", "report.txt"]
    whole = vars(_build_parser().parse_args([subcommand, *argv]))
    assert whole.pop("subcommand") == subcommand
    assert vars(_build_parser(subcommand).parse_args(argv)) == whole


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("subcommand", sorted(_EVERY_SUBCOMMAND))
def test_out_flag_duplicates_stdout(capsys, tmp_path, subcommand, fmt):
    points = tmp_path / "points.csv"
    points.write_text("0,0\n")
    target = tmp_path / "report.txt"
    argv = [a.format(set=points) for a in _EVERY_SUBCOMMAND[subcommand]]
    code, out, err = run(capsys, subcommand, *argv, "--format", fmt, "--out", str(target))
    assert code == 0 and out
    assert target.read_text() == out
    if fmt == "json":
        json.loads(out)


def _per_element_jsonable(obj):
    """The report's JSON value built one element at a time, every container
    rebuilt: the reference for what the writer prints."""
    if isinstance(obj, (str, bool, int)) or obj is None:
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _per_element_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _per_element_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_per_element_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator, "value": float(obj)}
    return str(obj)


@pytest.mark.parametrize("value", [
    {1: 2, 3: 4},                                 # a census table
    ["0,1", "1,0"],                               # point strings
    {"a": [1.5, math.inf], "b": {1: -math.nan}},  # non-finite floats nested
    {True: 1}, {None: 2}, {2.5: 3},               # keys the encoder would write otherwise
    [True, None, 10**30, "x"], (), {},
    {"f": Fraction(1, 3), "t": (1, (2, math.inf))},
])
def test_jsonable_matches_the_per_element_value(value):
    want = _per_element_jsonable(value)
    assert type(_jsonable(value)) is type(want)  # text reports print lists, not tuples
    assert json.dumps(_jsonable(value), allow_nan=False) == json.dumps(want)


def _joined(slices):
    """A lazy report value's slices, listed, as the value they make up; a
    slice given as text is the JSON of its items."""
    slices = [json.loads(piece) if isinstance(piece, str) else piece for piece in slices]
    if isinstance(slices[0], dict):
        return {key: value for piece in slices for key, value in piece.items()}
    return [item for piece in slices for item in piece]


def _recorded_reports(monkeypatch):
    """The reports _emit is given from now on, each lazy value listed whole;
    _emit still writes each with its values given lazily, slice by slice."""
    reports = []
    real = linsys.cli._emit

    def emit(report, *args):
        if isinstance(report, dict):
            slices = {key: list(value) for key, value in report.items() if isinstance(value, GeneratorType)}
            reports.append({**report, **{key: _joined(s) for key, s in slices.items()}})
            report = {**report, **{key: (piece for piece in s) for key, s in slices.items()}}
        else:
            reports.append(report)
        real(report, *args)

    monkeypatch.setattr(linsys.cli, "_emit", emit)
    return reports


@pytest.mark.parametrize("argv", [
    ["behrend", "--n", "10", "--k", "3", "--materialize", "--p", "7"],
    ["certify", "--system", "S3AP", "--p", "3", "--n", "4"],
    ["search", "--system", "S3AP", "--p", "3", "--n", "3", "--kind", "strong"],
    ["reduce", "--system", "S3"],
    ["selftest"],
])
def test_json_report_is_one_line_of_the_report_value(capsys, monkeypatch, tmp_path, argv):
    reports = _recorded_reports(monkeypatch)
    target = tmp_path / "report.json"
    code, out, err = run(capsys, *argv, "--format", "json", "--out", str(target))
    assert code == 0 and err == ""
    assert out.endswith("}\n") and out.count("\n") == 1
    assert json.loads(out) == _per_element_jsonable(reports[0])
    assert target.read_bytes() == out.encode()


def _whole_report(report, fmt):
    """The report written as one string, one json.dumps of the whole value
    or one line per entry: what the writer must print byte for byte."""
    value = _per_element_jsonable(report)
    if fmt == "json":
        return json.dumps(value) + "\n"
    lines = []
    for key, item in value.items():
        if isinstance(item, str) and "\n" in item:
            lines += [f"{key}:", *("  " + ln for ln in item.splitlines())]
        else:
            lines.append(f"{key}: {json.dumps(item) if isinstance(item, (dict, list)) else item}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", [
    ["--n", "10", "--k", "3"],
    ["--n", "10", "--k", "3", "--materialize"],       # 40,830 points: ten chunks
    ["--n", "3", "--k", "100", "--materialize", "--p", "101"],
    ["--n", "200", "--k", "10"],                      # 20,001 classes: twenty slices
])
def test_behrend_writes_the_bytes_of_the_whole_report(capsys, monkeypatch, tmp_path, fmt, argv):
    reports = _recorded_reports(monkeypatch)
    target = tmp_path / "report"
    code, out, err = run(capsys, "behrend", *argv, "--format", fmt, "--out", str(target))
    assert code == 0 and err == ""
    assert out == _whole_report(reports[0], fmt)
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv", [
    ["--n", "25", "--k", "1", "--materialize"],  # past the materialization guard
    ["--n", "3", "--k", "2", "--p", "4"],         # p not prime
    ["--n", "2", "--k", "1000000"],               # past the census guard
    ["--n", "15000", "--k", "1"],                 # counts past the 4,300 digits Python prints
])
def test_behrend_refusals_leave_stdout_and_out_empty(capsys, tmp_path, fmt, argv):
    target = tmp_path / "report"
    code, out, err = run(capsys, "behrend", *argv, "--format", fmt, "--out", str(target))
    assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_out_file_that_cannot_be_opened_leaves_stdout_empty(capsys, tmp_path):
    code, out, err = run(capsys, "behrend", "--n", "2", "--k", "1", "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1


class _ByteCount(io.TextIOBase):
    """A stdout that keeps only the number of bytes written to it (reports
    are ASCII, one byte a character)."""

    written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)


def _traced_peak(monkeypatch, *argv):
    """Exit code, bytes written to stdout and the tracemalloc peak of main."""
    out = _ByteCount()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out.written, peak


def test_behrend_never_holds_its_json_report_whole(monkeypatch):
    code, written, peak = _traced_peak(monkeypatch, "behrend", "--n", "200", "--k", "10", "--format", "json")
    assert code == 0 and written > 3_000_000
    assert peak < 1.5 * written


def test_behrend_holds_its_census_as_one_list(monkeypatch):
    # 180,001 classes: the bincount of the pairwise sums and the list of counts made of it
    # take 2.9 MB; a dict of the 45,451 nonempty classes beside that list took 4 MB
    code, written, peak = _traced_peak(monkeypatch, "behrend", "--n", "2", "--k", "300", "--format", "json")
    assert code == 0 and written > 300_000
    assert peak < 3_500_000


def test_behrend_materializes_in_narrow_arrays(monkeypatch):
    code, written, peak = _traced_peak(monkeypatch, "behrend", "--n", "10", "--k", "3", "--materialize",
                                       "--format", "json")
    assert code == 0 and written > 40830 * 20
    assert peak < 4_000_000


def _fresh_interpreter(code: str, **env_extra) -> subprocess.CompletedProcess:
    # importing linsys set OPENBLAS_NUM_THREADS here: the child must start without it
    env = dict(os.environ, PYTHONPATH=str(Path(linsys.__file__).parents[1]), **env_extra)
    if "OPENBLAS_NUM_THREADS" not in env_extra:
        env.pop("OPENBLAS_NUM_THREADS", None)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)


def test_importing_the_cli_leaves_the_acceptance_criteria_unloaded():
    proc = _fresh_interpreter("import sys, linsys.cli; print('linsys.acceptance' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout == "False\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no per-thread /proc entries")
def test_a_linsys_process_runs_one_thread():
    code = "\n".join([
        "import contextlib, io, os",
        "import linsys.cli",
        "threads = [len(os.listdir('/proc/self/task'))]",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = linsys.cli.main(['certify', '--system', 'S3AP', '--p', '7', '--n', '3', '--format', 'json'])",
        "threads.append(len(os.listdir('/proc/self/task')))",
        "print(code, *threads)",
    ])
    proc = _fresh_interpreter(code)
    assert proc.returncode == 0 and proc.stdout == "0 1 1\n", proc.stderr


def test_a_preset_blas_thread_count_is_kept():
    code = "import os, linsys.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = _fresh_interpreter(code, OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0 and proc.stdout == "2\n", proc.stderr


def test_text_format_is_key_value(capsys):
    code, out, err = run(capsys, "star", "--r1", "3", "--r2", "2", "--L", "2")
    assert code == 0
    assert out.startswith("holds: True")
    assert "margin:" in out


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()
    assert _build_parser("search") is _build_parser("search")


def test_main_builds_only_the_parser_of_the_subcommand_that_runs(capsys, monkeypatch):
    built = []
    real = linsys.cli._fill
    monkeypatch.setattr(linsys.cli, "_fill", lambda name, sp: built.append(name) or real(name, sp))
    _build_parser.cache_clear()
    try:
        code, out, err = run(capsys, "star", "--r1", "3", "--r2", "2", "--L", "2")
        assert code == 0 and built == ["star"]
        code, out, err = run(capsys, "star", "--r1", "3", "--r2", "2", "--L", "2")
        assert code == 0 and built == ["star"]  # cached
    finally:
        _build_parser.cache_clear()


@pytest.mark.parametrize("argv, code, stream, first_line", [
    ([], 1, "err", "error: the following arguments are required: subcommand"),
    (["--help"], 0, "out", "usage: linsys [-h]"),
    (["nosuch"], 1, "err", "error: argument subcommand: invalid choice: 'nosuch' (choose from "
                           + ", ".join(f"'{name}'" for name in linsys.cli._HELP) + ")"),
    (["search", "--help"], 0, "out",
     "usage: linsys search [-h] [--format {json,text}] [--out OUT] --p P --n N"),
])
def test_top_level_usage_keeps_its_exit_code_and_first_line(capsys, monkeypatch, argv, code, stream,
                                                             first_line):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    try:
        got = main(argv)
    except SystemExit as exc:  # --help
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert getattr(captured, stream).splitlines()[0] == first_line


def test_the_epsilon_default_is_not_parsed_again(monkeypatch):
    # argparse passes a str default through --epsilon's type on every parse
    monkeypatch.setattr(linsys.cli, "_epsilon", lambda text: pytest.fail(f"parsed {text!r}"))
    for name in ("lower-bound", "certify"):
        parser = _build_parser.__wrapped__(name)  # built now, with the patched type
        args = parser.parse_args(["--system", "S3", "--p", "7"])
        assert args.epsilon == Fraction(1, 16) and type(args.epsilon) is Fraction


def test_back_to_back_runs_share_no_values(capsys):
    # the cached parser hands every run fresh defaults
    code, rep, _ = run_json(capsys, "lower-bound", "--system", "S3", "--p", "7", "--epsilon", "1/8")
    assert code == 0 and rep["strong"]["epsilon"]["den"] == 8
    code, rep, _ = run_json(capsys, "search", "--kind", "strong", "--system", "S3AP",
                            "--p", "3", "--n", "2", "--node-budget", "3")
    assert code == 0 and rep["nodes_explored"] == 3
    code, rep, _ = run_json(capsys, "lower-bound", "--system", "S3", "--p", "7")
    assert code == 0 and rep["strong"]["epsilon"]["den"] == 16
    code, rep, _ = run_json(capsys, "search", "--kind", "strong", "--system", "S3AP", "--p", "3", "--n", "2")
    assert code == 0 and rep["exhaustive"] is True and rep["value"] == 4
    code, out, _ = run(capsys, "star", "--r1", "3", "--r2", "2", "--L", "2")
    assert code == 0 and out.startswith("holds: True")  # text format again
