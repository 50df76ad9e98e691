import math
import warnings
from fractions import Fraction

import pytest

from linsys.bounds import (
    bound_small_p,
    c_tilde,
    count_theta,
    g_value,
    lambda_min,
    optimize_allocation,
    parallelogram_upper,
    star_inequality,
    upper_bound_strong,
    wshape_upper,
)
from linsys.eqsys import reduce_mod_p
from linsys.systems import builtin

# Frozen values from a dense grid-scan oracle, computed before this module
# existed (see the acceptance suite for the 10^6-point re-derivation).
LAMBDA_1_3RD_2 = 2.755104613023633
LAMBDA_1_4TH_2 = 2.4626418602647617
LAMBDA_1_4TH_4 = 3.834437249028807


def test_g_value_basics():
    # G(u) = u^{-alpha h} (1 + u + ... + u^{mh}) evaluated directly
    assert g_value(1, 0.0, 2, 1.0) == 3.0
    assert g_value(1, 0.5, 2, 1.0) == 3.0
    val = g_value(1, 1 / 3, 2, 0.5930703359495244)
    assert abs(val - LAMBDA_1_3RD_2) < 1e-9


def test_g_value_validation():
    with pytest.raises(ValueError):
        g_value(0, 0.5, 2, 0.5)
    with pytest.raises(ValueError):
        g_value(1, 0.5, 0, 0.5)
    with pytest.raises(ValueError):
        g_value(1, -0.1, 2, 0.5)
    with pytest.raises(ValueError):
        g_value(1, 0.5, 2, 0.0)
    with pytest.raises(ValueError):
        g_value(1, 0.5, 2, 1.5)


def test_lambda_interior_minima_match_frozen_oracle():
    rep = lambda_min(1, 1 / 3, 2)
    assert abs(rep.value - LAMBDA_1_3RD_2) < 1e-8
    assert abs(rep.optimizer - 0.59307033) < 1e-5
    assert rep.method == "tilted-mean-newton"
    assert abs(lambda_min(1, 0.25, 2).value - LAMBDA_1_4TH_2) < 1e-8
    assert abs(lambda_min(1, 0.25, 4).value - LAMBDA_1_4TH_4) < 1e-8


def test_lambda_boundary_exact_cases():
    # alpha >= m/2 puts the minimum at u = 1 with value m*h + 1, exactly
    rep = lambda_min(1, 0.5, 2)
    assert rep.value == 3.0 and rep.optimizer == 1.0 and rep.tolerance == 0.0
    assert rep.method == "boundary-exact"
    assert lambda_min(2, 1.0, 3).value == 7.0
    assert lambda_min(1, 2.0, 5).value == 6.0


def test_lambda_alpha_zero_is_one():
    rep = lambda_min(3, 0, 4)
    assert rep.value == 1.0
    assert rep.optimizer is None


def test_lambda_value_never_below_evaluation():
    # the report must be a genuine evaluation: recomputing G there agrees
    rep = lambda_min(2, 0.3, 3)
    assert abs(g_value(2, 0.3, 3, rep.optimizer) - rep.value) <= 1e-12 * rep.value


def test_lambda_validation():
    with pytest.raises(ValueError):
        lambda_min(0, 0.5, 2)
    with pytest.raises(ValueError):
        lambda_min(1, -0.5, 2)


def test_count_theta_hand_cases():
    # n=1, threshold floor(2/3)=0: only the zero composition
    assert count_theta(1, Fraction(1, 3), 2, 1) == 1
    # n=2, entries in {0,1,2}, sum <= 2: six compositions
    assert count_theta(1, Fraction(1, 2), 2, 2) == 6
    # alpha >= m counts everything: (m*h+1)^n
    assert count_theta(2, 2, 3, 4) == 7**4
    assert count_theta(1, 0, 5, 3) == 1


def test_count_theta_rejects_floats():
    with pytest.raises(TypeError):
        count_theta(1, 0.333, 2, 1)


def test_count_theta_string_fractions():
    assert count_theta(1, "1/2", 2, 2) == 6


def test_star_inequality_cases():
    holds, margin = star_inequality((3, 2, 2))
    assert holds and abs(margin - (1.5 + 2 / math.e - 2)) < 1e-12
    holds, margin = star_inequality((2, 2, 2))
    assert not holds and margin < 0
    holds, margin = star_inequality((3, 0, 1))
    assert holds and abs(margin - 0.5) < 1e-12


def test_c_tilde_forced_allocations():
    # r2 = 0 forces alpha = L/r1; the constant collapses to one Lambda value
    rep = c_tilde(3, 0, 1, 2, 3)
    assert abs(rep.value - LAMBDA_1_3RD_2) < 1e-8
    assert rep.method == "forced-allocation"
    rep = c_tilde(0, 2, 2, 2, 3)
    assert rep.optimizer[0] == 0.0


def test_c_tilde_w_parameters_below_caps():
    # the W system's split (3,2,2,2): blended constant stays under p times
    # the advertised caps
    for p, cap in ((3, 0.994), (5, 0.987), (7, 0.983)):
        rep = c_tilde(3, 2, 2, 2, p)
        assert rep.value / p <= cap + 1e-3
        alpha, beta = rep.optimizer
        assert alpha >= 0 and beta >= 0
        assert abs(3 * alpha + 2 * beta - 2) < 1e-9
        # the reported value is a true evaluation at the optimizer
        direct = max(lambda_min(1, alpha, p - 1).value, lambda_min(2, beta, p - 1).value)
        assert abs(direct - rep.value) <= 1e-9 * rep.value


def test_c_tilde_validation():
    with pytest.raises(ValueError):
        c_tilde(0, 0, 1, 1, 3)
    with pytest.raises(ValueError):
        c_tilde(3, 2, 0, 1, 3)
    with pytest.raises(ValueError):
        c_tilde(3, 2, 2, 2, 1)


def test_optimize_allocation_w_system():
    rep = optimize_allocation(reduce_mod_p(builtin("SW"), 3))
    assert rep.value <= 2.982  # advertised cap 0.994 * 3
    # grouped per-variable allocation: five entries summing to L = 2
    assert len(rep.optimizer) == 5
    assert abs(sum(rep.optimizer) - 2) < 1e-9
    # x1 and x3 (multiplicity 2) share a budget; the simple ones share too
    assert abs(rep.optimizer[0] - rep.optimizer[2]) < 1e-12
    assert abs(rep.optimizer[1] - rep.optimizer[3]) < 1e-12
    # matches the split-parameter constant for the same data
    assert abs(rep.value - c_tilde(3, 2, 2, 2, 3).value) <= 2e-3


def test_optimize_allocation_single_equation_symmetric():
    rep = optimize_allocation(reduce_mod_p(builtin("S3AP"), 3))
    assert abs(rep.value - LAMBDA_1_3RD_2) < 1e-8
    assert all(abs(a - 1 / 3) < 1e-9 for a in rep.optimizer)


@pytest.mark.parametrize("name, p", [("S1", 19), ("S2", 5)])
def test_optimize_allocation_never_hands_out_a_negative_exponent(name, p):
    # budget - counts[i]*a used to round just below 0 here
    t = reduce_mod_p(builtin(name), p)
    rep = optimize_allocation(t)
    assert min(rep.optimizer) >= 0.0
    assert abs(sum(rep.optimizer) - len(t.rows)) < 1e-9
    assert rep.value == pytest.approx(p)


def test_optimize_allocation_requires_irreducible():
    from linsys.eqsys import parse_system
    s = parse_system("x1 - x2 = 0\nx3 - x4 = 0")
    with pytest.raises(ValueError):
        optimize_allocation(reduce_mod_p(s, 3))


def test_upper_bound_strong():
    t = reduce_mod_p(builtin("S3AP"), 3)
    lam = lambda_min(1, 1 / 3, 2).value
    assert abs(upper_bound_strong(t, 2) - lam**2) < 1e-6
    assert upper_bound_strong(t, 0) == 1.0


def test_upper_bound_strong_warns_without_star():
    t = reduce_mod_p(builtin("S4AP"), 3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        upper_bound_strong(t, 1)
    assert any("r1/2 + r2/e > L fails" in str(w.message) for w in caught)


def test_bound_small_p_tensor_power_helps_w_system():
    t = reduce_mod_p(builtin("SW"), 3)
    base1 = bound_small_p(t, 1)
    base2 = bound_small_p(t, 2)
    assert abs(base1.value - c_tilde(3, 2, 2, 2, 3).value / 3) < 1e-12
    # frozen comparison: squaring the modulus improves the per-point ratio
    assert base2.value < base1.value
    assert abs(base2.value - 0.99038) < 1e-3


def test_bound_small_p_guard():
    t = reduce_mod_p(builtin("SW"), 1009)
    with pytest.raises(ValueError):
        bound_small_p(t, 7)  # 1009^7 > 2^62


def test_wshape_upper_matches_composition():
    # 7 * sqrt(C_W(p) * p)^n with C_W(p) the (3,2,2,2) blended constant
    cw = c_tilde(3, 2, 2, 2, 3).value
    assert abs(wshape_upper(3, 2) - 7 * cw * 3) < 1e-6
    assert abs(wshape_upper(3, 1) - 7 * math.sqrt(cw * 3)) < 1e-6
    assert 20.8 <= wshape_upper(3, 1) <= 21.0


def test_upper_bounds_past_the_float_range_are_inf():
    t = reduce_mod_p(builtin("S3AP"), 3)
    assert upper_bound_strong(t, 2000) == math.inf
    assert wshape_upper(3, 4000) == math.inf
    assert parallelogram_upper(3, 4000) == math.inf


def test_parallelogram_upper_matches_composition():
    lam = lambda_min(1, 0.25, 2).value
    assert abs(parallelogram_upper(3, 1) - 7 * math.sqrt(lam * 3)) < 1e-9
    assert abs(lam - LAMBDA_1_4TH_2) < 1e-8
    with pytest.raises(ValueError):
        parallelogram_upper(4, 1)
    with pytest.raises(ValueError):
        wshape_upper(2, 1)
