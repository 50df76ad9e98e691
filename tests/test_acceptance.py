"""One test per acceptance criterion.

Each test calls the corresponding criterion function, prints its
PASS/FAIL line (pytest -v therefore shows the one-line verdicts), and
fails if the criterion does.  ``linsys selftest`` drives the same
functions from the command line.
"""
import pytest

from linsys import acceptance


def _check(fn, **kwargs):
    res = fn(**kwargs)
    print(res.line())
    assert res.ok, res.line()
    return res


def test_criterion_01_parameter_extraction():
    _check(acceptance.criterion_01)


def test_criterion_02_star_inequality_families():
    _check(acceptance.criterion_02)


def test_criterion_03_base_constant_caps():
    _check(acceptance.criterion_03)


def test_criterion_04_lambda_against_grid_oracle():
    _check(acceptance.criterion_04)


def test_criterion_05_composition_count_envelope():
    _check(acceptance.criterion_05)


def test_criterion_06_w_system_strong_maxima():
    _check(acceptance.criterion_06)


def test_criterion_07_progression_strong_maxima():
    res = _check(acceptance.criterion_07)
    assert "n=3:9<= 20.913" in res.detail  # the cap-set constant in AG(3, 3)


def test_criterion_08_reduction_trace_and_lower_bound():
    _check(acceptance.criterion_08)


def test_criterion_09_sphere_constructions():
    _check(acceptance.criterion_09)


def test_criterion_10_box_solutions_match_mod_p():
    _check(acceptance.criterion_10)


def test_criterion_11_weak_sandwich():
    _check(acceptance.criterion_11)


def test_criterion_12_degenerate_structure_and_thinning():
    _check(acceptance.criterion_12, seed=20260815)


def test_criterion_13_determinism():
    _check(acceptance.criterion_13, seed=20260815)


def test_run_all_reports_every_criterion():
    results = acceptance.run_all()
    out = "\n".join(r.line() for r in results)
    assert len(results) == 13
    assert all(r.ok for r in results)
    for number in range(1, 14):
        assert f"criterion {number:02d}" in out
    assert out.count("PASS") == 13 and "FAIL" not in out
