"""The report checks reject broken reports.

Each test runs a small real job, confirms that its genuine report passes,
then breaks one thing in it and confirms that the check fails.  Run from
the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import reference as R  # noqa: E402
from jobs import CERTIFY_FAULTS, Job, _builtin  # noqa: E402
from linsys.cli import main as linsys_main  # noqa: E402


def run(job: Job) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = linsys_main(list(job.argv) + ["--format", "json"])
    return code, out.getvalue(), err.getvalue()


def verdict(job: Job, report: dict, context: dict | None = None) -> checks.Verdict:
    return checks.check_job(job, 0, json.dumps(report), "", {} if context is None else context)


def genuine(job: Job, context: dict | None = None) -> dict:
    code, out, err = run(job)
    v = checks.check_job(job, code, out, err, {} if context is None else context)
    assert not v.failed and not v.problems, v.problems
    return json.loads(out)


def assert_rejected(job: Job, report: dict, context: dict | None = None) -> None:
    v = verdict(job, report, context)
    assert v.failed and v.problems


# -- search -------------------------------------------------------------------

CAP_F3_2 = _builtin("search", "S3AP", "--p", "3", "--n", "2", "--kind", "strong")
SW_WEAK = _builtin("search", "SW", "--p", "7", "--n", "1", "--kind", "weak")


def test_witness_with_a_3ap_is_rejected():
    rep = genuine(CAP_F3_2)
    pts = [tuple(int(c) for c in s.split(",")) for s in rep["witness"]]
    a, b = pts[0], pts[1]
    third = tuple((2 * y - x) % 3 for x, y in zip(a, b))   # a, b, 2b - a is a 3-AP
    rep["witness"] = [",".join(map(str, pt)) for pt in [a, b, third] + [q for q in pts[2:] if q != third]][:4]
    v = verdict(CAP_F3_2, rep)
    assert any("not strongly free" in p for p in v.problems)


def test_witness_that_is_not_maximal_is_rejected():
    rep = genuine(CAP_F3_2)
    rep["witness"] = rep["witness"][:-1]
    rep["value"] -= 1
    v = verdict(CAP_F3_2, rep)
    assert any("not maximal" in p for p in v.problems)


def test_wrong_maximum_is_rejected():
    rep = genuine(SW_WEAK)
    rep["value"] += 1
    assert_rejected(SW_WEAK, rep)


def test_weak_witness_with_distinct_solution_is_rejected():
    rep = genuine(SW_WEAK)
    # (0, 1, 2, 3, 4) solves x1 - x2 - x3 + x4 = 0, x1 - 2x3 + x5 = 0
    rep["witness"] = ["0", "1", "2", "3", "4"]
    rep["value"] = 5
    v = verdict(SW_WEAK, rep)
    assert any("not weakly free" in p for p in v.problems)


# -- behrend --------------------------------------------------------------------

CENSUS = Job(("behrend", "--n", "8", "--k", "3"), ())
SPHERE = Job(("behrend", "--n", "5", "--k", "3", "--materialize", "--p", "7"), ())


def test_census_with_one_count_off_is_rejected():
    rep = genuine(CENSUS)
    key = sorted(rep["classes"])[3]
    rep["classes"][key] += 1
    assert_rejected(CENSUS, rep)


def test_point_off_the_sphere_is_rejected():
    rep = genuine(SPHERE)
    pt = [int(c) for c in rep["points"][0].split(",")]
    pt[0] = (pt[0] + 1) % 4
    rep["points"][0] = ",".join(map(str, pt))
    assert_rejected(SPHERE, rep)


def test_best_class_that_is_not_largest_is_rejected():
    rep = genuine(CENSUS)
    rep["best_norm_sq"] += 1
    assert_rejected(CENSUS, rep)


# -- reductions -----------------------------------------------------------------

S3_REDUCE = _builtin("reduce", "S3", "--strategy", "exhaustive")
STAR4_REDUCE = _builtin("reduce", "STAR4", "--strategy", "exhaustive")


def test_trace_ending_in_two_variables_is_rejected():
    rep = genuine(S3_REDUCE)
    rep["steps"] = rep["steps"][:-1]
    assert_rejected(S3_REDUCE, rep)


def test_step_that_is_not_the_contraction_is_rejected():
    rep = genuine(S3_REDUCE)
    rep["steps"][0]["result"] = rep["steps"][0]["result"].replace("x4", "2x4", 1)
    assert_rejected(S3_REDUCE, rep)


def test_star_trace_with_a_worse_b_tilde_is_rejected():
    rep = genuine(STAR4_REDUCE)
    rep["b_tilde"] = 3
    rep["steps"][0]["coefficient"] = 3
    assert_rejected(STAR4_REDUCE, rep)


def test_lower_bound_with_wrong_b_is_rejected():
    job = _builtin("lower-bound", "S2", "--p", "7", "--strategy", "exhaustive")
    rep = genuine(job)
    rep["strong"]["b"] = 4
    rep["strong"]["floor_term"] = 2
    assert_rejected(job, rep)


# -- bounds -----------------------------------------------------------------------

def test_base_off_the_dense_lambda_is_rejected():
    job = _builtin("upper", "SW", "--p", "7", "--n", "3")
    rep = genuine(job)
    rep["base"] *= 1 + 1e-4
    rep["upper"] = rep["base"] ** 3
    rep["base_over_p"] = rep["base"] / 7
    assert_rejected(job, rep)


def test_upper_bound_below_a_cap_set_is_rejected():
    job = _builtin("upper", "S3AP", "--p", "3", "--n", "4")
    rep = genuine(job)
    rep["base"] = 19 ** 0.25
    rep["upper"] = 19.0
    rep["base_over_p"] = rep["base"] / 3
    rep["allocation"] = [0.3, 0.3, 0.4]
    v = verdict(job, rep)
    assert any("exceeds upper bound" in p for p in v.problems)


def test_certify_with_wrong_sphere_or_b_tilde_is_rejected():
    upper = _builtin("upper", "S3", "--p", "11", "--n", "2")
    job = _builtin("certify", "S3", "--p", "11", "--n", "2")
    context: dict = {}
    genuine(upper, context)
    rep = genuine(job, context)
    broken = json.loads(json.dumps(rep))
    broken["sphere"]["size"] += 1
    assert_rejected(job, broken, context)
    broken = json.loads(json.dumps(rep))
    broken["b_tilde"] = 3
    assert_rejected(job, broken, context)


def test_certify_upper_bound_must_match_the_upper_job():
    upper = _builtin("upper", "S3AP", "--p", "11", "--n", "2")
    job = _builtin("certify", "S3AP", "--p", "11", "--n", "2")
    context: dict = {}
    genuine(upper, context)
    rep = genuine(job, context)
    rep["upper_strong"] *= 1.01
    assert_rejected(job, rep, context)


# -- exit codes and known faults ------------------------------------------------

def test_known_fault_counts_as_failed_but_not_wrong():
    for job in CERTIFY_FAULTS:
        v = checks.check_job(job, *run(job), {})
        assert v.failed and not v.problems, (job.name, v.problems)


def test_other_error_on_a_fault_job_is_wrong():
    job = CERTIFY_FAULTS[0]
    v = checks.check_job(job, 1, "", "error: something else", {})
    assert v.failed and v.problems


def test_nonzero_exit_is_wrong():
    v = checks.check_job(CAP_F3_2, 2, "", "verification failed", {})
    assert v.failed and v.problems


# -- the references themselves ---------------------------------------------------

def test_census_matches_a_direct_count():
    import itertools
    direct: dict[int, int] = {}
    for pt in itertools.product(range(4), repeat=5):
        q = sum(x * x for x in pt)
        direct[q] = direct.get(q, 0) + 1
    direct[0] -= 1
    direct[5 * 9] -= 1
    assert R.census(5, 3) == {q: c for q, c in direct.items() if c}


def test_optimum_of_known_systems():
    assert R.optimum(R.star_rows(5)) == (2, 1)
    assert R.optimum(R.system_rows("S3")) == (2, 3)
    assert R.optimum(R.system_rows("SW")) is None
    assert R.greedy(R.system_rows("S2")) == (4, 1)
