import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linsys.lattice
from linsys.errors import GuardExceeded
from linsys.eqsys import parse_system, reduce_mod_p
from linsys.lattice import (
    NormClassTable,
    SphereSet,
    _limb_convolution,
    _materialize,
    _power_recurrence,
    best_sphere_set,
    embed_mod_p,
    norm_class_counts,
    pigeonhole_bound,
    verify_construction,
)
from linsys.oracle import PointSet, is_strongly_free
from linsys.systems import builtin


def test_norm_class_counts_hand_cases():
    assert norm_class_counts(2, 1).counts == {1: 2}
    assert norm_class_counts(2, 2).counts == {1: 2, 2: 1, 4: 2, 5: 2}
    assert norm_class_counts(3, 1).counts == {1: 3, 2: 3}


def test_norm_class_counts_match_enumeration():
    for n, k in [(2, 1), (2, 3), (3, 2), (4, 2), (5, 1)]:
        census: dict[int, int] = {}
        for pt in itertools.product(range(k + 1), repeat=n):
            if pt == (0,) * n or pt == (k,) * n:
                continue
            q = sum(c * c for c in pt)
            census[q] = census.get(q, 0) + 1
        assert norm_class_counts(n, k).counts == census


def _box_census(n, k):
    """Squared norm -> points of {0..k}^n, in lexicographic order, the
    origin and the corner (k,…,k) left out."""
    classes: dict[int, list] = {}
    for pt in itertools.product(range(k + 1), repeat=n):
        if pt != (0,) * n and pt != (k,) * n:
            classes.setdefault(sum(c * c for c in pt), []).append(pt)
    return classes


@st.composite
def small_boxes(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    k = draw(st.integers(min_value=1, max_value=70).filter(lambda k: (k + 1) ** n <= 5000))
    return n, k, draw(st.integers(min_value=-1, max_value=n * k * k + 1))


@settings(deadline=None, max_examples=150)
@given(small_boxes())
def test_census_and_classes_match_the_box(box):
    n, k, target = box
    classes = _box_census(n, k)
    assert norm_class_counts(n, k).counts == {q: len(pts) for q, pts in classes.items()}
    assert list(map(tuple, _materialize(n, k, target).tolist())) == classes.get(target, [])


def _dict_power(n, k):
    """The coefficients of (Σ_{v≤k} x^{v²})^n, as a list, by the
    convolution on Python ints with one dict entry per norm."""
    acc = {0: 1}
    for _ in range(n):
        nxt: Counter = Counter()
        for q, c in acc.items():
            for v in range(k + 1):
                nxt[q + v * v] += c
        acc = nxt
    return [acc.get(q, 0) for q in range(n * k * k + 1)]


# limbs hold 62 - bit_length(k+1) bits: 60 for k = 1, 59 for k = 3 and 58
# for k = 10, so (k+1)^n needs a second limb at n = 60, 30 and 17 and a
# third at n = 120, 59 and 34; norm_class_counts takes the recurrence for
# the k = 1 and k = 3 cases, so the limb routine is called directly
@pytest.mark.parametrize("n, k", [(59, 1), (60, 1), (61, 1), (119, 1), (120, 1),
                                  (29, 3), (30, 3), (58, 3), (59, 3),
                                  (16, 10), (17, 10), (33, 10), (34, 10)])
def test_census_across_limb_boundaries(n, k):
    assert _limb_convolution(n, k) == _dict_power(n, k)


def test_census_methods_agree_across_the_rule():
    # norm_class_counts switches from the limbs to the recurrence at n = min(8k, 96)
    cases = [(n, k) for k in range(1, 7) for n in range(2, 41)] + [(80, 10), (100, 10), (95, 16), (96, 16)]
    for n, k in cases:
        assert _power_recurrence(n, k) == _limb_convolution(n, k), (n, k)


def test_census_guard_refuses_before_allocating():
    for n, k in [(2, 4095), (2, 10**6), (10**4, 10)]:
        with pytest.raises(GuardExceeded, match="census guard"):
            norm_class_counts(n, k)
    with pytest.raises(GuardExceeded, match="census guard"):
        best_sphere_set(2, 4095)  # admitted by the 2^24 materialization guard


def test_census_pins():
    table = norm_class_counts(2, 44)
    assert table.counts == {q: len(pts) for q, pts in _box_census(2, 44).items()}
    assert table.best() == (1105, 8)
    table = norm_class_counts(2, 1000)
    assert table.best() == (801125, 32)
    assert (len(table.counts), sum(table.counts.values())) == (299847, 1001**2 - 2)
    assert table.counts[1] == 2 and table.counts[999**2 + 1000**2] == 2
    best_norm, best_count = norm_class_counts(200, 10).best()
    assert best_norm == 6989
    assert best_count == int(
        "16304550801684439217385530430434331862096062003165744575729150840452151039036841170376"
        "015739962285689397194871300817391350887946711037332004878988846619876601396853538502083"
        "873130359881196720637416083106400")


def test_best_class_tie_breaks_to_smaller_norm():
    assert norm_class_counts(3, 1).best() == (1, 3)   # {1: 3, 2: 3}
    assert norm_class_counts(2, 2).best() == (1, 2)   # three classes of size 2
    assert norm_class_counts(3, 2).best() == (5, 6)
    # a table need not list its norms in order
    assert NormClassTable(2, 3, {9: 4, 5: 4, 2: 1, 7: 4}).best() == (5, 4)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 8) for k in range(1, 5)] + [(2, 44), (12, 3)])
def test_best_sphere_set_takes_the_tables_best_class(n, k):
    # the census list's first largest entry, read without building a table
    radius_sq, count = norm_class_counts(n, k).best()
    y = best_sphere_set(n, k)
    assert (y.radius_sq, len(y)) == (radius_sq, count)


def test_best_sphere_set_reads_a_given_table_without_a_census(monkeypatch):
    table = norm_class_counts(4, 3)
    monkeypatch.setattr(linsys.lattice, "_census", lambda n, k: pytest.fail("census taken again"))
    y = best_sphere_set(4, 3, table)
    assert (y.radius_sq, len(y)) == table.best()


def test_best_class_meets_pigeonhole():
    for n in range(2, 9):
        for k in range(1, 4):
            _, count = norm_class_counts(n, k).best()
            assert count >= pigeonhole_bound(n, k)


def test_pigeonhole_bound_is_exact_rational():
    assert pigeonhole_bound(2, 1) == Fraction(4, 2)
    assert pigeonhole_bound(3, 2) == Fraction(27, 12)
    assert isinstance(pigeonhole_bound(5, 3), Fraction)


def test_norm_class_counts_validation():
    with pytest.raises(ValueError):
        norm_class_counts(1, 1)
    with pytest.raises(ValueError):
        norm_class_counts(2, 0)
    for n, k in [(1, 1), (2, 0)]:
        with pytest.raises(ValueError, match="need n >= 2 and k >= 1"):
            best_sphere_set(n, k)


def test_best_sphere_set_materializes_census():
    y = best_sphere_set(2, 1)
    assert y.radius_sq == 1 and y.points == ((0, 1), (1, 0))
    y = best_sphere_set(10, 3)
    assert len(y) == 40830 and y.rows.shape == (40830, 10) and not y.rows.flags.writeable
    assert y.rows.tolist() == [list(pt) for pt in y.points]
    y = best_sphere_set(3, 1)
    assert y.radius_sq == 1 and len(y) == 3
    y = best_sphere_set(3, 2)
    assert y.radius_sq == 5 and len(y) == 6
    assert (1, 0, 2) in y.points and (2, 1, 0) in y.points


def test_best_sphere_set_guard():
    with pytest.raises(GuardExceeded):
        best_sphere_set(25, 1)  # 2^25 box points


def test_sphere_set_validation():
    with pytest.raises(ValueError):
        SphereSet(2, 1, 1, ((0, 2),))        # outside the box
    with pytest.raises(ValueError):
        SphereSet(2, 1, 1, ((1, 1),))        # norm 2, not 1
    with pytest.raises(ValueError):
        SphereSet(2, 1, 1, ((0, -1),))       # negative entry
    with pytest.raises(ValueError):
        SphereSet(2, 1, 1, ((0, 1, 0),))     # wrong dimension
    with pytest.raises(ValueError):
        SphereSet(2, 1, 1, ((0, 1), (1,)))   # ragged
    with pytest.raises(ValueError):
        SphereSet(3, 2, 5, np.array([[0, 1, 2], [2, 2, 2]]))  # off the sphere, as an array
    # construction sorts and freezes; duplicates stay, as before
    y = SphereSet(2, 1, 1, ((1, 0), (0, 1)))
    assert y.points == ((0, 1), (1, 0))
    assert SphereSet(2, 1, 1, [[1, 0], (0, 1), (1, 0)]).points == ((0, 1), (1, 0), (1, 0))
    # an array of rows is stored as tuples of Python ints
    y = SphereSet(3, 2, 5, np.array([[2, 1, 0], [0, 1, 2]]))
    assert y.points == ((0, 1, 2), (2, 1, 0)) and type(y.points[0][0]) is int
    pts = ((0, 1, 2), (0, 2, 1))
    assert SphereSet(3, 2, 5, pts).points == pts


@pytest.mark.parametrize("k", [1, 3, 9, 10, 12, 99, 100])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_point_strings_join_the_entries(n, k):
    # norm k² + 1 puts entries of one digit next to entries of len(str(k));
    # at n = 4 and k >= 99 the class spans two chunks of 4,096 rows
    y = SphereSet(n, k, k * k + 1, _materialize(n, k, k * k + 1))
    assert y.point_strings() == [",".join(map(str, pt)) for pt in y.points]
    assert SphereSet(n, k, 0, ()).point_strings() == []


@pytest.mark.parametrize("points, expected", [
    (((0, 2), (0, 1)), ((0, 1), (0, 2))),                 # unsorted
    (((0, 1), (0, 1), (1, 1)), ((0, 1), (1, 1))),         # duplicated
    (((-1, 0), (0, 1)), ((0, 1), (4, 0))),                # negative
    (((5, 7), (0, 2)), ((0, 2),)),                        # >= p, equal mod p
    (([0, 1], [1, 0]), ((0, 1), (1, 0))),                 # lists, not tuples
    ([(0, 1), (1, 0)], ((0, 1), (1, 0))),                 # a list, not a tuple
    (((0, 2**70 * 5 + 1),), ((0, 1),)),                   # past int64
])
def test_point_set_canonicalises_as_before(points, expected):
    a = PointSet(5, 2, points)
    assert a.points == expected
    assert a.points == tuple(sorted({tuple(c % 5 for c in pt) for pt in points}))
    assert all(type(pt) is tuple for pt in a.points)


def test_point_set_still_checks_dimensions():
    with pytest.raises(ValueError, match="point dimension mismatch"):
        PointSet(5, 2, ((0, 1), (0, 1, 2)))
    with pytest.raises(ValueError, match="point dimension mismatch"):
        PointSet(5, 2, ((0, 1, 2),))


def test_embed_mod_p():
    y = best_sphere_set(2, 1)
    a = embed_mod_p(y, 3)
    assert a.p == 3 and a.n == 2 and a.points == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        embed_mod_p(y, 1)
    y2 = best_sphere_set(2, 2)
    with pytest.raises(ValueError):
        embed_mod_p(y2, 2)  # p must exceed k


def test_verify_construction_spheres_are_progression_free():
    s = builtin("S3AP")
    for n, k in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        assert verify_construction(s, best_sphere_set(n, k))


def test_verify_construction_detects_solutions():
    s = builtin("S3AP")
    assert not verify_construction(s, [(0, 0), (1, 1), (2, 2)])
    assert not verify_construction(s, [(0,), (1,), (2,)])
    # the same points are fine for a system they do not solve
    t = parse_system("-x1 + 2x2 - x3 = 0")
    assert verify_construction(t, best_sphere_set(3, 2))
    assert verify_construction(s, [])


def test_verify_construction_guard():
    s = builtin("SW")  # five free-ish positions
    pts = list(itertools.product(range(3), repeat=9))  # 19683^2 pinned ways
    with pytest.raises(GuardExceeded):
        verify_construction(s, pts, guard=10**4)


def test_embedded_sphere_is_strongly_free_mod_p():
    t = reduce_mod_p(builtin("S3AP"), 7)
    y = best_sphere_set(3, 2)
    a = embed_mod_p(y, 7)
    assert is_strongly_free(t, a)
