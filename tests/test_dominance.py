import itertools
from concurrent.futures import ThreadPoolExecutor

import pytest

from linsys import dominance
from linsys.dominance import (
    _reduce_detailed,
    dominance_of,
    lower_bound_strong,
    lower_bound_weak,
    reduction_sequence,
)
from linsys.eqsys import render_system
from linsys.errors import GuardExceeded
from linsys.systems import builtin


def test_dominance_of_single_sided():
    sw = builtin("SW")
    assert dominance_of(sw.rows[0]) is None  # x1 - x2 - x3 + x4
    assert dominance_of(sw.rows[1]) == 2     # x1 - 2x3 + x5
    assert dominance_of((-1, -2, 3)) == 3    # one positive coefficient
    assert dominance_of((1, 2, 4, -7)) == 7  # one negative coefficient


def test_dominance_of_two_sided():
    assert dominance_of((0, 3, 0, 0, -3)) == 3
    assert dominance_of((0, -3, 0, 0, 3)) == 3


def test_dominance_of_requires_balance():
    with pytest.raises(ValueError):
        dominance_of((1, 1))


def test_dominant_subsystems_s2():
    table = [dominance_of(row) for row in builtin("S2").rows]
    assert [i for i, d in enumerate(table) if d is not None] == [0, 2]
    assert table[1] is None
    assert table[0] == 4 and table[2] == 2
    # the maximal dominant subsystem is the pair, reduced at coefficient 4
    step = reduction_sequence(builtin("S2"), "greedy").steps[0]
    assert step.subsystem == (0, 2) and step.coefficient == 4


def test_dominant_subsystems_sw_and_spp():
    assert [dominance_of(row) for row in builtin("SW").rows] == [None, 2]  # 2x3 = x1 + x5
    assert [dominance_of(row) for row in builtin("SPP").rows] == [None, None]
    assert reduction_sequence(builtin("SPP"), "greedy") is None


def test_greedy_reduction_s3_frozen_trace():
    tr = reduction_sequence(builtin("S3"), "greedy")
    assert tr.terminated and tr.b_tilde == 2
    assert [st.subsystem for st in tr.steps] == [(2,), (0,), (0,)]
    assert render_system(tr.steps[0].result) == (
        "-x3 + x4 = 0\nx_{1_2_6} - x3 - x4 + x5 = 0"
    )
    assert render_system(tr.steps[1].result) == "x_{1_2_6} - 2x_{3_4} + x5 = 0"
    terminal = tr.terminal
    assert terminal.r == 1 and terminal.L == 0


def test_dominant_reduce_matches_first_greedy_step():
    s3 = builtin("S3")
    step = _reduce_detailed(s3, (2,))
    assert step == reduction_sequence(s3, "greedy").steps[0]
    assert render_system(step.result) == "-x3 + x4 = 0\nx_{1_2_6} - x3 - x4 + x5 = 0"


def test_greedy_vs_exhaustive_s2():
    s2 = builtin("S2")
    greedy = reduction_sequence(s2, "greedy")
    assert len(greedy.steps) == 1 and greedy.b_tilde == 4
    assert greedy.steps[0].subsystem == (0, 2)
    best = reduction_sequence(s2, "exhaustive")
    assert best.b_tilde == 3 and len(best.steps) == 3
    assert [st.subsystem for st in best.steps] == [(2,), (1,), (0,)]
    assert [st.coefficient for st in best.steps] == [2, 1, 3]
    # middle step leaves the 4-variable row 3x_j = x + y + z
    assert best.steps[1].result.rows == ((1, -3, 1, 1),)


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_exhaustive_is_worker_count_invariant(workers):
    # the search keeps no state between calls, so concurrent callers agree
    s2 = builtin("S2")
    serial = reduction_sequence(s2, "exhaustive")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        traces = list(pool.map(lambda _: reduction_sequence(s2, "exhaustive"), range(workers)))
    assert serial.b_tilde == 3
    assert [st.subsystem for st in serial.steps] == [(2,), (1,), (0,)]
    assert all(tr == serial for tr in traces)
    assert all([st.merge_map for st in tr.steps] == [st.merge_map for st in serial.steps]
               for tr in traces)


def _counted_reductions(monkeypatch):
    calls = []
    real = dominance._reduce_detailed
    monkeypatch.setattr(dominance, "_reduce_detailed", lambda *a: calls.append(1) or real(*a))
    return calls


def test_exhaustive_guard(monkeypatch):
    # STAR11's first step has 2,047 subsets: the pass at cap 2 is refused
    # before it reduces any of them unless the cap leaves room for all
    calls = _counted_reductions(monkeypatch)
    for cap in (1000, 2046):
        monkeypatch.setattr(dominance, "EXHAUSTIVE_REDUCTION_CAP", cap)
        with pytest.raises(GuardExceeded, match=f"would exceed {cap} reductions: "
                                                 "its first step alone has 2047 subsets"):
            reduction_sequence(builtin("STAR11"), "exhaustive")
        assert calls == []
    monkeypatch.setattr(dominance, "EXHAUSTIVE_REDUCTION_CAP", 2047)
    assert reduction_sequence(builtin("STAR11"), "exhaustive").b_tilde == 2
    assert len(calls) == 11
    # a search that fails at every cap runs into the cap on the way
    monkeypatch.setattr(dominance, "EXHAUSTIVE_REDUCTION_CAP", 23)
    with pytest.raises(GuardExceeded, match="stopped after 23 reductions"):
        reduction_sequence(builtin("S1"), "exhaustive")
    monkeypatch.setattr(dominance, "EXHAUSTIVE_REDUCTION_CAP", 24)
    assert reduction_sequence(builtin("S1"), "exhaustive") is None


def test_exhaustive_reduces_each_pair_once_across_caps(monkeypatch):
    # S1's passes at its successive caps meet 24 (state, subset) pairs, 5
    # of them met under a lower cap already; all 24 still count toward
    # the guard (test_exhaustive_guard), but each is reduced once
    pairs = []
    real = dominance._reduce_detailed
    monkeypatch.setattr(dominance, "_reduce_detailed",
                        lambda state, subset: pairs.append((state, subset)) or real(state, subset))
    assert reduction_sequence(builtin("S1"), "exhaustive") is None
    assert len(pairs) == len(set(pairs)) == 19


def test_exhaustive_star17_is_refused_up_front(monkeypatch):
    calls = _counted_reductions(monkeypatch)
    with pytest.raises(GuardExceeded, match="131071 subsets"):
        reduction_sequence(builtin("STAR17"), "exhaustive")
    assert calls == []


@pytest.mark.parametrize("k, deepening", [(8, 263), (9, 520), (10, 1033), (11, 2058),
                                           (12, 4107), (16, 65551)])
def test_exhaustive_star_pins(monkeypatch, k, deepening):
    # the pass at cap 2 reduces (0,), (0, 1), ..., (0, ..., k-1) in tuple
    # order, and the k-th, all k equations at once, terminates; STAR16's
    # 65,535 subsets at the first step stay under the up-front refusal.
    # ``deepening`` is the 2^k + k - 1 reductions that iterative deepening
    # on the step bound took, which the breadth-first pass must not exceed
    calls = _counted_reductions(monkeypatch)
    tr = reduction_sequence(builtin(f"STAR{k}"), "exhaustive")
    assert (tr.b_tilde, len(tr.steps), len(calls)) == (2, 1, k)
    assert len(calls) <= deepening
    assert tr.steps[0].subsystem == tuple(range(k))


@pytest.mark.parametrize("k", range(7))
def test_subsets_are_every_nonempty_subset_in_tuple_order(k):
    indices = tuple(range(0, 2 * k, 2))
    combos = [c for size in range(1, k + 1) for c in itertools.combinations(indices, size)]
    assert list(dominance._subsets(indices)) == sorted(combos)


# (b~, steps, subsystems) of the exhaustive trace, frozen from the
# un-memoised depth-first search over every ordered chain
EXHAUSTIVE_PINS = {
    "SW": None,
    "S3AP": (2, 1, [(0,)]),
    "S4AP": (2, 1, [(0, 1)]),
    "SP": None,
    "SPP": None,
    "S1": None,
    "S2": (3, 3, [(2,), (1,), (0,)]),
    "S3": (2, 3, [(2,), (0,), (0,)]),
    **{f"STAR{k}": (2, 1, [tuple(range(k))]) for k in range(2, 8)},
}


@pytest.mark.parametrize("name", sorted(EXHAUSTIVE_PINS))
def test_exhaustive_trace_pins(name):
    tr = reduction_sequence(builtin(name), "exhaustive")
    pin = EXHAUSTIVE_PINS[name]
    if pin is None:
        assert tr is None
    else:
        assert (tr.b_tilde, len(tr.steps), [st.subsystem for st in tr.steps]) == pin


def test_reduction_none_when_stuck():
    assert reduction_sequence(builtin("SW"), "greedy") is None
    assert reduction_sequence(builtin("SW"), "exhaustive") is None
    assert reduction_sequence(builtin("SPP"), "greedy") is None


def test_reduction_strategy_validation():
    with pytest.raises(ValueError):
        reduction_sequence(builtin("S3"), "fastest")


def test_lower_bound_strong_s3():
    tr = reduction_sequence(builtin("S3"), "greedy")
    rep = lower_bound_strong(tr, 3)
    assert rep.kind == "strong" and rep.asymptotic
    assert rep.b == 2 and rep.floor_term == 2
    assert rep.base == pytest.approx((1 - 1 / 16) * 2)
    assert rep.simple_base == 1.5
    rep7 = lower_bound_strong(tr, 7, epsilon=1 / 8)
    assert rep7.floor_term == 4 and rep7.base == pytest.approx(3.5)


def test_lower_bound_strong_validation():
    tr = reduction_sequence(builtin("S3"), "greedy")
    with pytest.raises(ValueError):
        lower_bound_strong(tr, 4)          # not prime
    with pytest.raises(ValueError):
        lower_bound_strong(tr, 2)          # p <= b~
    with pytest.raises(ValueError):
        lower_bound_strong(tr, 3, epsilon=0.0)
    with pytest.raises(ValueError):
        lower_bound_strong(tr, 3, epsilon=1.0)
    # a trace that never terminates cannot feed the bound
    from linsys.dominance import ReductionTrace
    with pytest.raises(ValueError):
        lower_bound_strong(ReductionTrace(builtin("SW"), ()), 3)


def test_lower_bound_weak():
    rep = lower_bound_weak(builtin("SW"), 5)
    assert rep.kind == "weak" and rep.b == 2 and rep.base == 2.5
    assert rep.asymptotic and rep.epsilon is None
    assert lower_bound_weak(builtin("SPP"), 3) is None
    # b = 2 requires p > 2
    assert lower_bound_weak(builtin("SW"), 2) is None
