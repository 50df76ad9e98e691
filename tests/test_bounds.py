import math
from fractions import Fraction

import pytest

import linsys.bounds
from linsys.bounds import (
    _root,
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
    assert rep.value == 3.0 and rep.optimizer == 1.0
    assert rep.method == "boundary-exact"
    assert lambda_min(2, 1.0, 3).value == 7.0
    assert lambda_min(1, 2.0, 5).value == 6.0


def test_lambda_alpha_zero_is_one():
    rep = lambda_min(3, 0, 4)
    assert rep.value == 1.0
    assert rep.optimizer is None


def test_lambda_value_never_below_evaluation():
    # the report must be a genuine evaluation: recomputing G at the reported
    # optimizer agrees, as long as rounding u to a float keeps t (h <= 10^9)
    for h in (3, 10**3, 10**6, 10**9):
        rep = lambda_min(2, 0.3, h)
        assert rep.method == "tilted-mean-newton"
        assert abs(g_value(2, 0.3, h, rep.optimizer) - rep.value) <= 1e-13 * rep.value


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
    holds, margin = star_inequality(3, 2, 2)
    assert holds and abs(margin - (1.5 + 2 / math.e - 2)) < 1e-12
    holds, margin = star_inequality(2, 2, 2)
    assert not holds and margin < 0
    holds, margin = star_inequality(3, 0, 1)
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


def test_root_stops_at_a_converged_step_on_the_bracket_end():
    # the root lies between 1.0 and the next float: at x = 1.0 the value is
    # positive, so x becomes the bracket's lower end, and the Newton step
    # lands on x again
    calls = []

    def fn(x):
        calls.append(x)
        return (1e-300 if x == 1.0 else 1.0 - x), -1.0

    assert _root(fn, 0.0, 2.0, 0.5) == 1.0
    assert calls == [0.5, 1.0]  # bisecting (1.0, 2.0) down to 1.0 would take some 40 more


def test_root_does_not_take_an_infinite_slope_for_convergence():
    # a zero Newton step from an infinite slope says nothing: bisect
    assert _root(lambda x: (1.0 - x, -math.inf), 0.0, 4.0, 2.0) == 1.0


def test_allocation_solver_evaluations_stay_few(monkeypatch):
    calls = []
    real = linsys.bounds._tilted_moments
    monkeypatch.setattr(linsys.bounds, "_tilted_moments", lambda M, t: calls.append(M) or real(M, t))
    for name, p in [("STAR2", 13), ("SW", 5)]:
        calls.clear()
        optimize_allocation(reduce_mod_p(builtin(name), p))
        assert len(calls) <= 100, name  # 298 and 256 when converged steps turned into bisections


# optimize_allocation's values from a root finder that bisected on after a
# converged step; stopping there may move them in the last digits only
_ALLOCATION_VALUES = {
    ("S1", 5): 5.000000000000001,
    ("S1", 7): 7.000000000000001,
    ("S1", 13): 13.0,
    ("S1", 89): 89.0,
    ("S1", 10**6 + 3): 1000003.0,
    ("S2", 3): 3.000000000000001,
    ("S2", 5): 5.0,
    ("S2", 7): 7.0,
    ("S2", 13): 13.0,
    ("S2", 89): 89.00000000000006,
    ("S2", 10**6 + 3): 1000003.0000000013,
    ("S3", 3): 3.0000000000000004,
    ("S3", 5): 5.000000000000001,
    ("S3", 7): 7.0,
    ("S3", 13): 13.0,
    ("S3", 89): 89.00000000000006,
    ("S3", 10**6 + 3): 1000003.0,
    ("S3AP", 3): 2.755104613023633,
    ("S3AP", 5): 4.461577765702577,
    ("S3AP", 7): 6.156204863216738,
    ("S3AP", 13): 11.219907989114876,
    ("S3AP", 89): 75.18591705863373,
    ("S3AP", 10**6 + 3): 841437.1980375212,
    ("S4AP", 3): 3.0000000000000004,
    ("S4AP", 5): 5.000000000000001,
    ("S4AP", 7): 7.0,
    ("S4AP", 13): 13.0,
    ("S4AP", 89): 89.00000000000006,
    ("S4AP", 10**6 + 3): 1000003.0,
    ("SP", 3): 2.4626418602647617,
    ("SP", 5): 3.834437249028806,
    ("SP", 7): 5.1847896429565505,
    ("SP", 13): 9.199460848614287,
    ("SP", 89): 59.736589770820345,
    ("SP", 10**6 + 3): 664556.8030874233,
    ("SPP", 3): 3.0000000000000004,
    ("SPP", 5): 4.995074495049857,
    ("SPP", 7): 6.979607513611994,
    ("SPP", 13): 12.914126899666448,
    ("SPP", 89): 87.92676197290434,
    ("SPP", 10**6 + 3): 986816.7105836932,
    ("SW", 3): 2.978841943529559,
    ("SW", 5): 4.931823233558952,
    ("SW", 7): 6.877457981452818,
    ("SW", 13): 12.701867044293957,
    ("SW", 89): 86.37113786505256,
    ("SW", 10**6 + 3): 969200.6426772443,
    ("STAR2", 3): 2.944029795948721,
    ("STAR2", 5): 4.863882690614282,
    ("STAR2", 7): 6.777861396479909,
    ("STAR2", 13): 12.509866033187874,
    ("STAR2", 89): 85.03026486626791,
    ("STAR2", 10**6 + 3): 954110.5831927336,
    ("STAR3", 3): 2.974903453419403,
    ("STAR3", 5): 4.937794275816987,
    ("STAR3", 7): 6.897758473478085,
    ("STAR3", 13): 12.772666211793938,
    ("STAR3", 89): 87.14521964897274,
    ("STAR3", 10**6 + 3): 978534.2818345615,
    ("STAR4", 3): 2.985753518102266,
    ("STAR4", 5): 4.964508180582068,
    ("STAR4", 7): 6.941552496118727,
    ("STAR4", 13): 12.86975836654602,
    ("STAR4", 89): 87.93505176660138,
    ("STAR4", 10**6 + 3): 987671.7458339359,
}


@pytest.mark.parametrize("name, p", sorted(_ALLOCATION_VALUES))
def test_optimize_allocation_values_are_kept(name, p):
    got = optimize_allocation(reduce_mod_p(builtin(name), p)).value
    assert got == pytest.approx(_ALLOCATION_VALUES[name, p], rel=1e-9)


@pytest.mark.parametrize("r1, r2", [(10**19, 2), (2, 10**19), (10**300, 2)])
def test_c_tilde_where_every_lambda_rounds_to_one(r1, r2):
    # the uniform allocation's level rounds to 0: the common level's limit
    # is that allocation itself, and every Lambda is 1
    rep = c_tilde(r1, r2, 2, 2, 5)
    uniform = 2 / (r1 + r2)
    assert rep.value == 1.0
    assert rep.optimizer == pytest.approx((uniform, uniform), rel=1e-12)


@pytest.mark.parametrize("m, d", [(10**153, 5), (10**154, 5), (2, 10**154), (10**300, 5)])
def test_c_tilde_where_m_h_squared_overflows_a_float(m, d):
    rep = c_tilde(3, 2, 2, m, d)
    assert math.isfinite(rep.value) and rep.value >= c_tilde(3, 2, 2, 2, 5).value
    assert all(math.isfinite(a) and a >= 0.0 for a in rep.optimizer)
