import itertools

import pytest

from linsys.eqsys import FpSystem, parse_system, reduce_mod_p
from linsys.errors import GuardExceeded
from linsys.oracle import (
    Matching,
    compile_system,
    PointSet,
    build_colored_subcollection,
    extendable_pairs,
    is_multicolored_free,
    is_strongly_free,
    is_weakly_free,
    iter_solutions,
    max_strongly_free,
    max_weakly_free,
    space_points,
)
from linsys.systems import builtin


def s3ap(p):
    return reduce_mod_p(builtin("S3AP"), p)


def sw(p):
    return reduce_mod_p(builtin("SW"), p)


# ---------------------------------------------------------------------------
# canonical containers

def test_point_set_normalizes():
    a = PointSet(3, 1, ((4,), (1,), (0,), (-2,)))
    assert a.points == ((0,), (1,))  # 4 = 1, -2 = 1 mod 3
    assert len(a) == 2 and (1,) in a and (2,) not in a
    assert list(a) == [(0,), (1,)]


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet(4, 1, ())
    with pytest.raises(ValueError):
        PointSet(3, 0, ())
    with pytest.raises(ValueError):
        PointSet(3, 2, ((0,),))


def test_matching_validation():
    with pytest.raises(ValueError):
        Matching(())
    with pytest.raises(ValueError):
        Matching((((0,), (1,)), ((0,), (1,), (2,))))   # ragged arity
    with pytest.raises(ValueError):
        Matching((((0,), (1,)), ((0,), (2,))))          # column 1 repeats
    with pytest.raises(ValueError):
        Matching((((0,), (1, 1)),))                     # dimension mismatch
    m = Matching((((1,), (0,)), ((0,), (2,))))
    assert m.arity == 2 and m.size == 2
    assert m.column(0) == ((0,), (1,))


def test_space_points_lex_order():
    pts = space_points(3, 2)
    assert len(pts) == 9
    assert pts[:4] == ((0, 0), (0, 1), (0, 2), (1, 0))
    assert pts == tuple(sorted(pts))


# ---------------------------------------------------------------------------
# the core enumeration

def test_iter_solutions_pins_last_variable():
    rows = [(1, -2, 1)]
    cols = [[(v,) for v in range(3)]] * 3
    sols = list(iter_solutions(rows, cols, 3))
    assert len(sols) == 9
    assert sols == sorted(sols)
    assert ((0,), (1,), (2,)) in sols


def test_iter_solutions_distinct():
    rows = [(1, -2, 1)]
    cols = [[(v,) for v in range(5)]] * 3
    distinct = list(iter_solutions(rows, cols, 5, distinct=True))
    assert all(len({a, b, c}) == 3 for a, b, c in distinct)
    assert len(distinct) == 20  # 25 pairs (x,y), minus 5 constants


def test_iter_solutions_empty_set_short_circuits():
    rows = [(1, -2, 1)]
    assert list(iter_solutions(rows, [[(0,)], [], [(0,)]], 3)) == []


def test_iter_solutions_validation_and_guard():
    cols5 = [[(v,) for v in range(10)]] * 3
    with pytest.raises(GuardExceeded):
        list(iter_solutions([], [[(v,) for v in range(500)]] * 3, 503))  # 500^3 free nodes, past 10^8
    with pytest.raises(ValueError):
        list(iter_solutions([(1, -1)], cols5, 3))     # row width 2 != 3
    with pytest.raises(ValueError):
        list(iter_solutions([(1, -2, 1)], [[(0,)], [(0, 0)], [(0,)]], 3))


@pytest.mark.parametrize("bad", [(3,), (-1,)])
def test_iter_solutions_refuses_entries_not_reduced_mod_p(bad):
    # an unreduced entry would silently miss solutions, so it is refused
    cols = [[(0,), (1,)], [(0,), bad], [(2,)]]
    with pytest.raises(ValueError, match=r"in \[0, 3\)"):
        list(iter_solutions([(1, -2, 1)], cols, 3))


@pytest.mark.parametrize("p", [1009, 2**61 - 1])
def test_iter_solutions_at_a_large_prime(p):
    # p = 1009: int64 point keys; p^2 > 2^63: Python-int keys
    pts = [(0, 1), (1, 2), (2, 3), (p - 1, p - 2)]
    sols = list(iter_solutions([(1, -2, 1)], [pts] * 3, p))
    assert sols == [(a, b, c) for a, b, c in itertools.product(pts, repeat=3)
                    if all((a[d] - 2 * b[d] + c[d]) % p == 0 for d in range(2))]
    assert len(sols) == 4 + 2  # the constants, and (0,1) (1,2) (2,3) both ways


def test_iter_solutions_all_zero_row_ignored():
    rows = [(3, -6, 3)]  # vanishes mod 3
    cols = [[(v,) for v in range(3)]] * 3
    assert len(list(iter_solutions(rows, cols, 3))) == 27


# ---------------------------------------------------------------------------
# semishapes and freeness

def test_s3ap_line_has_nine_semishapes():
    t = s3ap(3)
    sols = list(iter_solutions(t.rows, [space_points(3, 1)] * 3, t.p))
    assert len(sols) == 9 and sols[0] == ((0,), (0,), (0,))
    constants = [s for s in sols if len(set(s)) == 1]
    assert len(constants) == 3
    assert all(len(set(s)) == 3 for s in sols if s not in constants)
    assert sols == sorted(sols)


def test_w_system_singleton_and_pair_semishapes():
    t = sw(5)
    only = list(iter_solutions(t.rows, [[(2,)]] * 5, t.p))
    assert only == [((2,), (2,), (2,), (2,), (2,))]
    pair = set(iter_solutions(t.rows, [[(1,), (3,)]] * 5, t.p))
    assert ((1,), (3,), (1,), (3,), (1,)) in pair  # x1=x3=x5, x2=x4


@pytest.mark.parametrize("p", [3, 5, 7])
def test_binary_set_is_strongly_3ap_free(p):
    t = s3ap(p)
    assert is_strongly_free(t, PointSet(p, 1, ((0,), (1,))))
    assert is_weakly_free(t, PointSet(p, 1, ((0,), (1,))))  # < r points


def test_three_term_progression_detected():
    t = s3ap(5)
    a = PointSet(5, 1, ((0,), (1,), (2,)))
    assert not is_strongly_free(t, a)
    assert not is_weakly_free(t, a)
    # strong freeness is strictly stronger: {0,1,3} mod 5 has 3+3=2*3? no —
    # but 1,3,0 is a progression since 1+0 = 2*3 mod 5
    b = PointSet(5, 1, ((0,), (1,), (3,)))
    assert not is_strongly_free(t, b)


def test_translation_invariance_of_freeness():
    t = s3ap(7)
    a = ((0,), (1,), (5,))
    shifted = [((v + 3) % 7,) for (v,) in a]
    assert is_strongly_free(t, a) == is_strongly_free(t, shifted)
    assert is_weakly_free(t, a) == is_weakly_free(t, shifted)


# ---------------------------------------------------------------------------
# maximum free set search

def test_max_strongly_free_s3ap():
    r = max_strongly_free(s3ap(3), 1)
    assert r.value == 2 and r.witness.points == ((0,), (1,))
    assert r.exhaustive and r.nodes_explored > 0
    r2 = max_strongly_free(s3ap(3), 2)
    assert r2.value == 4
    assert r2.witness.points == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert r2.exhaustive


def test_max_strongly_free_w_system_is_trivial():
    r = max_strongly_free(sw(3), 1)
    assert r.value == 1 and r.witness.points == ((0,),) and r.exhaustive


def test_max_weakly_free_shortcut_below_arity():
    r = max_weakly_free(sw(3), 1)  # 3 points < 5 positions
    assert r.value == 3 and r.nodes_explored == 0 and r.exhaustive
    assert r.witness.points == space_points(3, 1)


def test_max_weakly_free_matches_brute_force():
    t = sw(7)
    pts = space_points(7, 1)
    brute = 0
    for mask in range(1, 1 << 7):
        sub = [pts[i] for i in range(7) if mask >> i & 1]
        if len(sub) > brute and is_weakly_free(t, sub):
            brute = len(sub)
    r = max_weakly_free(t, 1)
    assert r.exhaustive and r.value == brute == 4
    assert is_weakly_free(t, r.witness)


def test_budgeted_search_is_truncated_and_deterministic():
    t = s3ap(3)
    runs = [max_strongly_free(t, 2, node_budget=3) for _ in range(3)]
    assert all(not r.exhaustive for r in runs)
    assert len({r.value for r in runs}) == 1
    assert len({r.witness.points for r in runs}) == 1
    assert len({r.nodes_explored for r in runs}) == 1
    # a budgeted value never exceeds the exact maximum
    assert runs[0].value <= max_strongly_free(t, 2).value


# the node counts pin the unit-vector frame cut: without it the same
# searches visit 10,504, 59,243 and 284,448 sets for the same witnesses

def test_cap_set_in_f3_cubed():
    r = max_strongly_free(s3ap(3), 3)
    assert r.exhaustive and r.value == 9 and r.nodes_explored == 175
    assert ["".join(map(str, pt)) for pt in r.witness] == [
        "000", "001", "010", "011", "100", "101", "112", "122", "212"]


def test_weak_w_system_in_f3_cubed():
    r = max_weakly_free(sw(3), 3)
    assert r.exhaustive and r.value == 9 and r.nodes_explored == 777
    assert ["".join(map(str, pt)) for pt in r.witness] == [
        "000", "001", "002", "010", "020", "100", "111", "200", "222"]


def test_progression_free_set_in_f7_squared():
    r = max_strongly_free(s3ap(7), 2)
    assert r.exhaustive and r.value == 10 and r.nodes_explored == 5802
    assert ["".join(map(str, pt)) for pt in r.witness] == [
        "00", "01", "03", "10", "11", "13", "32", "34", "35", "46"]


def test_compile_counts_solutions_and_supports():
    c = compile_system(s3ap(3), 2, weak=False)
    assert c.size == 9 and c.solutions == 81
    assert c.supports == 12  # the lines of AG(2,3)
    # STAR systems share one variable among all equations; row reduction
    # handles them without enumerating free positions
    star = compile_system(reduce_mod_p(builtin("STAR3"), 5), 2, weak=False)
    assert star.size == 25 and star.solutions == 5**8


def test_compile_guard_fails_fast():
    with pytest.raises(GuardExceeded):
        compile_system(sw(3), 5, weak=True)  # 27^5 solutions
    with pytest.raises(GuardExceeded):
        max_weakly_free(sw(3), 5)
    with pytest.raises(GuardExceeded):
        compile_system(s3ap(3), 7, weak=False)  # 3^14 solutions of 3 entries, past 4,000,000


def test_search_dimension_validation():
    with pytest.raises(ValueError):
        max_strongly_free(s3ap(3), 0)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        compile_system(s3ap(3), 0, weak=False)
    # every point alone is a weak support of a one-variable system: the search answers it
    with pytest.raises(ValueError, match="a weak compile needs at least two variables"):
        compile_system(FpSystem(3, 1, ((0,),)), 1, weak=True)


def test_search_refuses_a_system_not_balanced_mod_p():
    t = reduce_mod_p(parse_system("x1 + 3x2 + 3x3 = 0"), 5)
    for search in (max_strongly_free, max_weakly_free):
        with pytest.raises(ValueError, match="not balanced mod 5"):
            search(t, 1)
    # a search that put 0 into every set stopped at {0, 1}, yet this is weakly free
    assert is_weakly_free(t, [(1,), (2,), (3,), (4,)])


@pytest.mark.parametrize("weak", [False, True])
def test_search_on_a_system_balanced_only_mod_p_matches_brute_force(weak):
    t = reduce_mod_p(parse_system("x1 + x2 + 3x3 = 0"), 5)  # coefficients sum to 5
    free = is_weakly_free if weak else is_strongly_free
    pts = space_points(5, 1)
    # combinations come in lexicographic order: the first free one of the
    # largest size is the lexicographically least maximum witness
    brute = next(sub for size in range(len(pts), 0, -1)
                 for sub in itertools.combinations(pts, size) if free(t, sub))
    r = (max_weakly_free if weak else max_strongly_free)(t, 1)
    assert r.exhaustive and r.value == len(brute) and r.witness.points == brute


# ---------------------------------------------------------------------------
# matchings and the five-variable devices

def test_multicolored_free_single_row():
    m = Matching((((0,), (1,), (0,), (1,), (0,)),))
    assert is_multicolored_free(sw(3), m)


def test_multicolored_free_diagonal_fails():
    diag = Matching(tuple(((v,),) * 5 for v in range(3)))
    assert not is_multicolored_free(sw(3), diag)


def test_multicolored_free_arity_check():
    m = Matching((((0,), (1,), (2,)),))
    with pytest.raises(ValueError):
        is_multicolored_free(sw(3), m)


def test_extendable_pairs_full_line():
    t = s3ap(3)
    pairs = extendable_pairs(t, [space_points(3, 1)] * 3, 0, 2)
    assert len(pairs) == 9  # the middle term is determined by the ends
    assert ((0,), (2,)) in pairs
    with pytest.raises(ValueError):
        extendable_pairs(t, [space_points(3, 1)] * 3, 1, 1)
    with pytest.raises(ValueError):
        extendable_pairs(t, [space_points(3, 1)] * 3, 0, 3)
    with pytest.raises(ValueError, match="expected 3 candidate sets, got 2"):
        extendable_pairs(t, [space_points(3, 1)] * 2, 0, 1)


def test_build_colored_subcollection_single_progression():
    m = Matching((((0,), (0,), (1,), (1,), (2,)),))
    out = build_colored_subcollection(m, 7, 1)
    assert out.rows == m.rows
    assert is_multicolored_free(sw(7), out)


def test_build_colored_subcollection_weakly_free_union():
    # two disjoint progressions in F_5^2 whose union is weakly free — the
    # hypothesis under which the thinned family must be multicolored-free
    rows = (
        (((0, 0), (0, 0), (0, 1), (0, 1), (0, 2))),
        (((1, 3), (1, 3), (2, 3), (2, 3), (3, 3))),
    )
    union = [pt for row in rows for pt in row]
    t = sw(5)
    assert is_weakly_free(t, PointSet(5, 2, tuple(union)))
    out = build_colored_subcollection(Matching(rows), 5, 2)
    assert 4 * 25 * out.size >= len(rows) ** 2
    assert set(out.rows) <= set(rows)
    assert is_multicolored_free(t, out)


def test_build_colored_subcollection_size_bound_without_hypothesis():
    # {0,1,2} and {3,4,5} in F_7: the union is NOT weakly free (the cross
    # tuple (3,0,4,1,5) solves the system), so only the size bound holds
    rows = (
        (((0,), (0,), (1,), (1,), (2,))),
        (((3,), (3,), (4,), (4,), (5,))),
    )
    t = sw(7)
    assert not is_weakly_free(t, PointSet(7, 1, tuple(pt for r in rows for pt in r)))
    out = build_colored_subcollection(Matching(rows), 7, 1)
    assert 4 * 7 * out.size >= 4
    assert set(out.rows) <= set(rows)


def test_build_colored_subcollection_validation():
    with pytest.raises(ValueError):
        build_colored_subcollection(Matching((((0,), (1,), (2,)),)), 7, 1)
    with pytest.raises(ValueError):  # first two entries differ
        build_colored_subcollection(
            Matching((((0,), (1,), (1,), (1,), (2,)),)), 7, 1
        )
    with pytest.raises(ValueError):  # not a progression
        build_colored_subcollection(
            Matching((((0,), (0,), (1,), (1,), (3,)),)), 7, 1
        )
    with pytest.raises(ValueError):  # progressions share the point 2
        build_colored_subcollection(
            Matching((
                ((0,), (0,), (1,), (1,), (2,)),
                ((2,), (2,), (3,), (3,), (4,)),
            )), 7, 1
        )
    with pytest.raises(ValueError):  # three distinct points needed
        build_colored_subcollection(
            Matching((((0,), (0,), (0,), (0,), (0,)),)), 3, 1
        )
    with pytest.raises(ValueError):  # p must be prime
        build_colored_subcollection(
            Matching((((0,), (0,), (1,), (1,), (2,)),)), 9, 1
        )
