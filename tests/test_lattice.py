import itertools
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linsys.lattice
from linsys.arith import is_prime
from linsys.errors import GuardExceeded
from linsys.eqsys import parse_system, reduce_mod_p
from linsys.lattice import (
    CENSUS_GUARD,
    SphereSet,
    _census_bytes,
    _limb_convolution,
    _materialize,
    _power_recurrence,
    best_sphere_set,
    embed_mod_p,
    json_chunks,
    norm_class_counts,
    pigeonhole_bound,
    sphere_set_checks,
    verify_construction,
)
from linsys.oracle import PointSet, is_strongly_free
from linsys.systems import builtin


def test_norm_class_counts_hand_cases():
    # every norm 0 … n k², zeros included, the two corners left out
    assert norm_class_counts(2, 1) == [0, 2, 0]
    assert norm_class_counts(2, 2) == [0, 2, 1, 0, 2, 2, 0, 0, 0]
    assert norm_class_counts(3, 1) == [0, 3, 3, 0]


def test_norm_class_counts_match_enumeration():
    for n, k in [(2, 1), (2, 3), (3, 2), (4, 2), (5, 1)]:
        census = [0] * (n * k * k + 1)
        for pt in itertools.product(range(k + 1), repeat=n):
            if pt == (0,) * n or pt == (k,) * n:
                continue
            census[sum(c * c for c in pt)] += 1
        assert norm_class_counts(n, k) == census


def _box_census(n, k):
    """Squared norm -> points of {0..k}^n, in lexicographic order, the
    origin and the corner (k,…,k) left out."""
    classes: dict[int, list] = {}
    for pt in itertools.product(range(k + 1), repeat=n):
        if pt != (0,) * n and pt != (k,) * n:
            classes.setdefault(sum(c * c for c in pt), []).append(pt)
    return classes


def _box_counts(n, k):
    """The census list of {0..k}^n by enumeration of the box."""
    classes = _box_census(n, k)
    return [len(classes.get(q, ())) for q in range(n * k * k + 1)]


def _largest(counts):
    """(squared norm, count) of the first largest class of a census list."""
    return counts.index(max(counts)), max(counts)


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
    assert norm_class_counts(n, k) == _box_counts(n, k)
    want = classes.get(target, [])
    assert list(map(tuple, _materialize(n, k, target, len(want)).tolist())) == want


@pytest.mark.parametrize("block", [1, 2, 5, 64])
@pytest.mark.parametrize("n, k", [(5, 1), (6, 2), (4, 4), (3, 9), (7, 2)])
def test_the_walk_across_its_block_seams(monkeypatch, n, k, block):
    # blocks of block // (k+1) prefixes, at least one: every class of the
    # box goes through many splits of the depth-first walk
    monkeypatch.setattr(linsys.lattice, "_BLOCK", block)
    for target, want in _box_census(n, k).items():
        rows = _materialize(n, k, target, len(want))
        assert list(map(tuple, rows.tolist())) == want, target


@pytest.mark.parametrize("wrong", [-1, 1])
def test_best_sphere_set_raises_when_the_fill_misses_the_census(wrong):
    radius_sq, count = _largest(norm_class_counts(4, 3))
    counts = [0] * (4 * 3 * 3 + 1)
    counts[radius_sq] = count + wrong
    with pytest.raises(RuntimeError, match=f"has {count} points, but the census counts {count + wrong}"):
        best_sphere_set(4, 3, counts)
    with pytest.raises(RuntimeError, match="has 0 points, but the census counts 1"):
        _materialize(4, 3, 0, 1)  # the origin is left out


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
    # norm_class_counts switches from the limbs to the recurrence at n = min(8k, 96);
    # the recurrence tests v² <= m only below m = k²: never at k = 1, and in about a half
    # and a third of its steps at n = 2 and 3
    cases = [(n, k) for k in range(1, 7) for n in range(2, 41)] + [(80, 10), (100, 10), (95, 16), (96, 16)]
    cases += [(n, k) for k in (10, 12, 16) for n in (2, 3)] + [(100, 12)]
    for n, k in cases:
        assert _power_recurrence(n, k) == _limb_convolution(n, k), (n, k)


def test_census_guard_refuses_before_allocating():
    for n, k in [(2, 4095), (2, 10**6), (10**4, 10)]:
        with pytest.raises(GuardExceeded, match="census guard"):
            norm_class_counts(n, k)
    with pytest.raises(GuardExceeded, match="census guard"):
        best_sphere_set(2, 4095)  # admitted by the 2^24 materialization guard


def test_census_guard_edges_by_the_estimate_alone():
    # the estimates only: the admitted cases take seconds and most of the guard
    # limbs just below the recurrence's n = 96: twelve limbs a count, joined
    assert _census_bytes(95, 86) <= CENSUS_GUARD < _census_bytes(95, 87)
    # two limbs: the array, the join's three lists and the ints it leaves
    assert _census_bytes(8, 446) <= CENSUS_GUARD < _census_bytes(8, 447)
    # one limb: the array and the list of ints tolist makes of it
    assert _census_bytes(5, 1057) <= CENSUS_GUARD < _census_bytes(5, 1058)
    # at n = 2 only the C(k+2, 2) classes of a pair of values can be nonempty
    assert _census_bytes(2, 2364) <= CENSUS_GUARD < _census_bytes(2, 2365)
    with pytest.raises(GuardExceeded, match="census guard"):
        norm_class_counts(95, 87)  # refused before anything is allocated


def test_census_pins():
    counts = norm_class_counts(2, 44)
    assert counts == _box_counts(2, 44)
    assert _largest(counts) == (1105, 8)
    counts = norm_class_counts(2, 1000)
    assert _largest(counts) == (801125, 32)
    assert (len(counts), sum(map(bool, counts)), sum(counts)) == (2 * 1000**2 + 1, 299847, 1001**2 - 2)
    assert counts[1] == 2 and counts[999**2 + 1000**2] == 2
    best_norm, best_count = _largest(norm_class_counts(200, 10))
    assert best_norm == 6989
    assert best_count == int(
        "16304550801684439217385530430434331862096062003165744575729150840452151039036841170376"
        "015739962285689397194871300817391350887946711037332004878988846619876601396853538502083"
        "873130359881196720637416083106400")


def test_best_class_tie_breaks_to_smaller_norm():
    for (n, k), want in {(3, 1): (1, 3),    # [0, 3, 3, 0]
                         (2, 2): (1, 2),    # three classes of size 2
                         (3, 2): (5, 6)}.items():
        y = best_sphere_set(n, k)
        assert (y.radius_sq, len(y)) == want
    assert best_sphere_set(2, 2).radius_sq == 1


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 8) for k in range(1, 5)] + [(2, 44), (12, 3)])
def test_best_sphere_set_takes_the_tables_best_class(n, k):
    # the census list's first largest entry
    y = best_sphere_set(n, k)
    assert (y.radius_sq, len(y)) == _largest(norm_class_counts(n, k))


def test_best_sphere_set_reads_a_given_table_without_a_census(monkeypatch):
    counts = norm_class_counts(4, 3)
    monkeypatch.setattr(linsys.lattice, "norm_class_counts", lambda n, k: pytest.fail("census taken again"))
    y = best_sphere_set(4, 3, counts)
    assert (y.radius_sq, len(y)) == _largest(counts)


def test_best_class_meets_pigeonhole():
    for n in range(2, 9):
        for k in range(1, 4):
            assert max(norm_class_counts(n, k)) >= pigeonhole_bound(n, k)


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
    assert y.rows.dtype == np.uint8  # the narrowest type that holds k
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
    with pytest.raises(ValueError, match="in the box"):
        # a cast to 32 bits would wrap 2^32 + 1 to 1, in the box and on the sphere
        SphereSet(2, 1, 1, np.array([[0, 2**32 + 1]], dtype=np.int64))
    # construction sorts and freezes; duplicates stay, as before
    y = SphereSet(2, 1, 1, ((1, 0), (0, 1)))
    assert y.points == ((0, 1), (1, 0))
    assert SphereSet(2, 1, 1, [[1, 0], (0, 1), (1, 0)]).points == ((0, 1), (1, 0), (1, 0))
    # an array of rows is stored as tuples of Python ints
    y = SphereSet(3, 2, 5, np.array([[2, 1, 0], [0, 1, 2]]))
    assert y.points == ((0, 1, 2), (2, 1, 0)) and type(y.points[0][0]) is int
    pts = ((0, 1, 2), (0, 2, 1))
    assert SphereSet(3, 2, 5, pts).points == pts


def test_sphere_set_takes_unsigned_rows():
    y = SphereSet(2, 1, 1, np.array([[0, 1], [1, 0]], dtype=np.uint8))
    assert y.points == ((0, 1), (1, 0)) and y.rows.dtype == np.uint8
    # unsigned differences and squares would wrap: the checks widen first
    assert SphereSet(2, 1, 1, np.array([[1, 0], [0, 1]], dtype=np.uint8)).points == ((0, 1), (1, 0))
    assert SphereSet(2, 20, 400, np.array([[0, 20]], dtype=np.uint8)).points == ((0, 20),)
    with pytest.raises(ValueError, match="off the sphere"):
        SphereSet(2, 20, 144, np.array([[0, 20]], dtype=np.uint8))  # 400 mod 256
    with pytest.raises(ValueError, match="in the box"):
        SphereSet(2, 3, 2**64 - 1, np.array([[0, 2**64 - 1]], dtype=np.uint64))


@pytest.mark.parametrize("at", [1, 4095, 4096, 4097, 8191])
def test_sphere_set_checks_every_chunk_and_the_seams(at):
    rows = _materialize(6, 10, 199, 11160)  # three chunks of 4,096 rows
    assert len(rows) == 11160 and rows.dtype == np.uint8
    swapped = rows.copy()
    swapped[[at - 1, at]] = swapped[[at, at - 1]]
    y = SphereSet(6, 10, 199, swapped)
    assert np.array_equal(y.rows, rows) and y.rows.dtype == np.uint8
    off = rows.copy()
    off[at] = (0, 0, 0, 0, 0, 1)
    with pytest.raises(ValueError, match="off the sphere"):
        SphereSet(6, 10, 199, off)
    off[at] = (0, 0, 0, 0, 0, 11)
    with pytest.raises(ValueError, match="in the box"):
        SphereSet(6, 10, 199, off)


@pytest.mark.parametrize("k", [1, 3, 9, 10, 12, 99, 100])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_point_strings_join_the_entries(n, k):
    # each chunk's text is json.dumps of its points' comma-joined strings;
    # norm k² + 1 puts entries of one digit next to entries of len(str(k)),
    # and at n = 4 and k >= 99 the class spans two or three chunks of 4,096 rows
    target = k * k + 1
    y = SphereSet(n, k, target, _materialize(n, k, target, norm_class_counts(n, k)[target]))
    strings = [",".join(map(str, pt)) for pt in y.points]
    assert list(json_chunks(y.rows, k)) == [json.dumps(strings[i:i + 4096]) for i in range(0, len(y) or 1, 4096)]
    assert list(json_chunks(SphereSet(n, k, 0, ()).rows, k)) == ["[]"]


def test_json_chunks_of_rows_given_as_tuples():
    # rows stored as int64, not the narrow type the walk writes
    pts = ((0, 0, 10), (0, 6, 8), (6, 0, 8), (8, 6, 0), (10, 0, 0))
    y = SphereSet(3, 10, 100, pts)
    assert y.rows.dtype == np.int64
    assert list(json_chunks(y.rows, y.k)) == ['["0,0,10", "0,6,8", "6,0,8", "8,6,0", "10,0,0"]']


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
    s = builtin("SW")  # five positions, two pinned by its two rows
    pts = list(itertools.product(range(3), repeat=9))  # 19683^3 tuples, past 10^8
    with pytest.raises(GuardExceeded):
        verify_construction(s, pts)


def test_embedded_sphere_is_strongly_free_mod_p():
    t = reduce_mod_p(builtin("S3AP"), 7)
    y = best_sphere_set(3, 2)
    a = embed_mod_p(y, 7)
    assert is_strongly_free(t, a)


@pytest.mark.parametrize("name", ["S3AP", "S4AP", "SW", "STAR3"])
@pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (3, 4), (2, 7)])
def test_sphere_set_checks_match_both_checks_on_sphere_sets(name, n, k):
    s, y = builtin(name), best_sphere_set(n, k)
    for p in [q for q in range(k + 1, 6 * k + 2) if is_prime(q)]:
        want = verify_construction(s, y), is_strongly_free(reduce_mod_p(s, p), embed_mod_p(y, p))
        assert sphere_set_checks(s, y, p) == want


def test_sphere_set_checks_mod_p_can_fail_alone():
    # p = 3 = k + 1 leaves the sphere of (3, 2) free over Z but not mod 3
    assert sphere_set_checks(builtin("S3AP"), best_sphere_set(3, 2), 3) == (True, False)
    assert sphere_set_checks(builtin("S3AP"), best_sphere_set(3, 2), 5) == (True, True)
    assert sphere_set_checks(builtin("SW"), best_sphere_set(3, 2), 5) == (False, False)


def test_sphere_set_checks_refuse_what_embed_mod_p_refuses():
    y = best_sphere_set(2, 4)
    for p in (3, 4):
        with pytest.raises(ValueError):
            sphere_set_checks(builtin("S3AP"), y, p)
    with pytest.raises(GuardExceeded):
        sphere_set_checks(builtin("SW"), list(itertools.product(range(3), repeat=9)), 3)
