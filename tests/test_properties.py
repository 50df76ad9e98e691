import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linsys.arith import is_prime, power_exceeds
from linsys.bounds import _allocate, count_theta, lambda_min
from linsys.dominance import (
    ReductionTrace,
    _reduce_detailed,
    dominance_of,
    reduction_sequence,
)
from linsys.eqsys import FpSystem, ZSystem, parse_system, reduce_mod_p, render_system
from linsys.lattice import norm_class_counts, sphere_set_checks, verify_construction
from linsys.oracle import (
    is_strongly_free,
    is_weakly_free,
    iter_solutions,
    max_strongly_free,
    max_weakly_free,
    space_points,
)
from linsys.structure import build_hypergraph
from linsys.systems import builtin


# ---------------------------------------------------------------------------
# strategies

@st.composite
def balanced_systems(draw):
    r = draw(st.integers(min_value=2, max_value=6))
    n_eqs = draw(st.integers(min_value=1, max_value=3))
    rows = []
    for _ in range(n_eqs):
        head = [draw(st.integers(min_value=-4, max_value=4)) for _ in range(r - 1)]
        row = tuple(head) + (-sum(head),)
        if any(row):
            rows.append(row)
    if not rows:
        rows.append((1,) + (0,) * (r - 2) + (-1,))
    names = tuple(f"x{i}" for i in range(1, r + 1))
    return ZSystem(r, tuple(rows), names)


small_subsets = st.lists(
    st.integers(min_value=0, max_value=6), min_size=1, max_size=5, unique=True
)


# ---------------------------------------------------------------------------
# parser round trips

@given(balanced_systems())
def test_render_parse_identity(s):
    back = parse_system(render_system(s))
    assert back.r == s.r
    assert back.rows == s.rows
    assert back.names == s.names


@given(balanced_systems())
def test_render_is_stable(s):
    text = render_system(s)
    assert render_system(parse_system(text)) == text


# ---------------------------------------------------------------------------
# freeness invariances

@given(st.sampled_from([3, 5, 7]), small_subsets, st.integers(min_value=0, max_value=6))
def test_translation_invariance(p, values, shift):
    t = reduce_mod_p(builtin("S3AP"), p)
    a = [(v % p,) for v in values]
    b = [((v + shift) % p,) for v in values]
    assert is_strongly_free(t, set(a)) == is_strongly_free(t, set(b))
    assert is_weakly_free(t, set(a)) == is_weakly_free(t, set(b))


@given(st.sampled_from([3, 5, 7]), small_subsets)
def test_strong_freeness_implies_weak(p, values):
    t = reduce_mod_p(builtin("SW"), p)
    a = {(v % p,) for v in values}
    if is_strongly_free(t, a):
        assert is_weakly_free(t, a)


# spaces F_p^n with p^n <= 25
SMALL_SPACES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2),
                (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1)]


@st.composite
def small_balanced_systems(draw, p):
    """1-2 rows in 1-4 variables, balanced mod p: over Z in 2-4 variables,
    and c x1 with p | c in one."""
    r = draw(st.integers(min_value=1, max_value=4))
    if r == 1:
        return ZSystem(1, ((p * draw(st.sampled_from([-2, -1, 1, 2])),),))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        head = [draw(st.integers(min_value=-3, max_value=3)) for _ in range(r - 1)]
        row = tuple(head) + (-sum(head),)
        if any(row):
            rows.append(row)
    if not rows:
        rows.append((1,) + (0,) * (r - 2) + (-1,))
    return ZSystem(r, tuple(rows))


def _brute_force_maximum(t, n, weak):
    """Size and lexicographically least member of the largest free sets,
    over all subsets of F_p^n: a backtracking over free sets that gives up
    a branch only when it cannot even tie the largest size, with freeness
    read off the solutions iter_solutions lists over the whole space."""
    pts = space_points(t.p, n)
    through: dict = {pt: [] for pt in pts}
    for sol in iter_solutions(t.rows, [pts] * t.r, t.p):
        entries = frozenset(sol)
        if (len(entries) == t.r) if weak else (len(entries) > 1):
            for pt in entries:
                through[pt].append(entries)
    largest = [[]]

    def extend(start, chosen):
        if len(chosen) > len(largest[0]):
            largest[:] = [list(chosen)]
        elif len(chosen) == len(largest[0]):
            largest.append(list(chosen))
        for i in range(start, len(pts)):
            if len(chosen) + len(pts) - i < len(largest[0]):
                return
            members = set(chosen) | {pts[i]}
            if any(s <= members for s in through[pts[i]]):
                continue
            chosen.append(pts[i])
            extend(i + 1, chosen)
            chosen.pop()

    extend(0, [])
    return len(largest[0]), min(tuple(c) for c in largest)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(SMALL_SPACES).flatmap(
           lambda space: st.tuples(st.just(space), small_balanced_systems(space[0]))),
       st.booleans())
@example(((3, 2), ZSystem(1, ((3,),))), True)
def test_compiled_search_matches_brute_force(case, weak):
    (p, n), s = case
    t = reduce_mod_p(s, p)
    res = (max_weakly_free if weak else max_strongly_free)(t, n)
    assert res.exhaustive
    assert (res.value, res.witness.points) == _brute_force_maximum(t, n, weak)


def test_search_matches_brute_force_on_every_small_system():
    # every system over F_p in r <= 3 variables with L <= 2 rows balanced mod p (zero
    # rows and L = 0 included), at each p^n <= 9, strong and weak: most have no
    # support (constant solutions only, weak ones on fewer points than variables)
    # and are answered by the whole space without a set visited
    whole = 0
    for p, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]:
        for r in (1, 2, 3):
            rows = [row for row in itertools.product(range(p), repeat=r) if sum(row) % p == 0]
            for count in (0, 1, 2):
                for chosen in itertools.combinations_with_replacement(rows, count):
                    t = FpSystem(p, r, chosen)
                    for weak in (False, True):
                        res = (max_weakly_free if weak else max_strongly_free)(t, n)
                        assert res.exhaustive
                        assert (res.value, res.witness.points) == _brute_force_maximum(t, n, weak)
                        if res.value == p**n:
                            whole += 1
                            assert res.nodes_explored == 0
    assert whole == 3004


def test_supermultiplicativity_spot_check():
    t = reduce_mod_p(builtin("S3AP"), 3)
    v1 = max_strongly_free(t, 1).value
    v2 = max_strongly_free(t, 2).value
    assert v2 >= v1 * v1 == 4


# ---------------------------------------------------------------------------
# composition counts stay under the exponential envelope

@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.fractions(min_value=0, max_value=3),
)
def test_count_theta_under_lambda_power(m, h, n, alpha):
    count = count_theta(m, Fraction(alpha), h, n)
    lam = lambda_min(m, float(alpha), h).value
    assert count <= lam**n * (1 + 1e-9) + 1e-9


# ---------------------------------------------------------------------------
# row-equivalent systems cut out the same solution sets mod p

_VARIANT_ROWS = ((1, -2, 0, 0, 0, 1), (1, 0, -2, 0, 1, 0), (0, 0, 0, -2, 1, 1))


def _solution_set(rows, p, subset):
    cols = [[(v,) for v in subset]] * 6
    return set(iter_solutions(rows, cols, p))


def test_variant_presentation_has_identical_semishapes():
    # the second presentation is an invertible (mod odd p) row transform of
    # the first, so every subset of the line sees the same solutions
    s3 = builtin("S3")
    for p in (3, 5):
        t = reduce_mod_p(s3, p)
        variant = tuple(tuple(c % p for c in row) for row in _VARIANT_ROWS)
        for size in range(0, p + 1):
            for subset in itertools.combinations(range(p), size):
                assert _solution_set(t.rows, p, subset) == _solution_set(
                    variant, p, subset
                )


# ---------------------------------------------------------------------------
# lattice census

@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=3))
def test_norm_census_matches_enumeration(n, k):
    census = [0] * (n * k * k + 1)
    for pt in itertools.product(range(k + 1), repeat=n):
        if pt == (0,) * n or pt == (k,) * n:
            continue
        census[sum(c * c for c in pt)] += 1
    assert norm_class_counts(n, k) == census


@given(st.sampled_from([3, 5, 7]), st.integers(min_value=1, max_value=6))
def test_full_space_is_never_strongly_free(p, shift):
    t = reduce_mod_p(builtin("S3AP"), p)
    assert not is_strongly_free(t, space_points(p, 1))


# ---------------------------------------------------------------------------
# exhaustive dominant reduction: memoised search against the plain one

def _reference_exhaustive(s):
    """Depth-first search over every ordered chain of dominant subsets,
    keeping the least (b~, #steps, encoding)."""
    best = None

    def dfs(current, steps, running, encoding):
        nonlocal best
        if current.L == 0 and current.r == 1:
            key = (running, len(steps), encoding)
            if best is None or key < best[0]:
                best = (key, steps)
            return
        dom = [i for i, row in enumerate(current.rows) if dominance_of(row) is not None]
        for size in range(1, len(dom) + 1):
            for subset in itertools.combinations(dom, size):
                step = _reduce_detailed(current, subset)
                if best is not None and max(running, step.coefficient) > best[0][0]:
                    continue
                dfs(step.result, steps + (step,), max(running, step.coefficient), encoding + (subset,))

    dfs(s, (), 0, ())
    return None if best is None else ReductionTrace(s, best[1])


@st.composite
def dominant_systems(draw):
    """1-4 dominant equations in 3-6 variables: one variable carries -b
    (or +b), 1-3 others carry the opposite sign and sum to b <= 9."""
    r = draw(st.integers(min_value=3, max_value=6))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        support = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=4, unique=True))
        parts = [draw(st.integers(min_value=1, max_value=3)) for _ in support[1:]]
        sign = draw(st.sampled_from([1, -1]))
        row = [0] * r
        row[support[0]] = -sign * sum(parts)
        for i, c in zip(support[1:], parts):
            row[i] = sign * c
        rows.append(tuple(row))
    return ZSystem(r, tuple(rows))


@settings(deadline=None, max_examples=150)
@given(st.one_of(dominant_systems(), balanced_systems()))
def test_exhaustive_reduction_matches_plain_search(s):
    assert reduction_sequence(s, "exhaustive") == _reference_exhaustive(s)


# ---------------------------------------------------------------------------
# chained reductions against a partition of the original variables: after
# each step the system is its input summed over the blocks merged so far
# (zero rows dropped), each block is named after its sorted members, and a
# step's merge map lists each old variable of every group of two or more

def _block_name(block):
    return f"x{block[0] + 1}" if len(block) == 1 else "x_{" + "_".join(str(a + 1) for a in block) + "}"


def _merged_blocks(current, blocks, subset):
    """(block, group) per variable after reducing ``current`` by ``subset``,
    ordered by block: a group lists the variables of ``current`` that share
    a chosen equation, found by union-find, and its block their originals."""
    root = list(range(current.r))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for i in subset:
        support = [v for v, c in enumerate(current.rows[i]) if c]
        for v in support[1:]:
            root[find(v)] = find(support[0])
    groups = {}
    for v in range(current.r):
        groups.setdefault(find(v), []).append(v)
    return sorted((tuple(sorted(a for v in g for a in blocks[v])), g) for g in groups.values())


@settings(deadline=None, max_examples=300)
@given(st.one_of(dominant_systems(), balanced_systems()), st.data())
def test_chained_reductions_match_a_partition_model(s, data):
    # every subset of each state along a drawn chain; the chain ends because
    # each reduction drops the rows it reduces by
    blocks = [(v,) for v in range(s.r)]  # per variable of ``current``, its original variables
    current = s
    while True:
        dominant = [i for i, row in enumerate(current.rows) if dominance_of(row) is not None]
        subsets = [c for size in range(1, len(dominant) + 1) for c in itertools.combinations(dominant, size)]
        if not subsets:
            break
        for subset in subsets:
            step = _reduce_detailed(current, subset)
            merged = _merged_blocks(current, blocks, subset)
            assert step.subsystem == subset
            assert step.coefficient == max(dominance_of(current.rows[i]) for i in subset)
            assert step.result.names == tuple(_block_name(b) for b, _ in merged)
            rows = (tuple(sum(row[a] for a in b) for b, _ in merged) for row in s.rows)
            assert step.result.rows == tuple(row for row in rows if any(row))
            assert step.merge_map == tuple((current.names[v], _block_name(b))
                                           for b, g in merged if len(g) > 1 for v in g)
        subset = data.draw(st.sampled_from(subsets))
        blocks = [b for b, _ in _merged_blocks(current, blocks, subset)]
        current = _reduce_detailed(current, subset).result


# ---------------------------------------------------------------------------
# Lambda and the exponent allocation: the tilted-geometric solves against
# the scan, golden-section and coordinate-descent searches they replaced

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@lru_cache(maxsize=None)
def _reference_lambda(m, alpha, h):
    """Lambda_{m,alpha,h}: a 4,096-point scan of log G over t = -ln u, then
    golden-section search between the neighbours of the least point."""
    M = m * h
    if alpha == 0.0:
        return 1.0
    if alpha >= m / 2.0:
        return float(M + 1)

    def log_g(t):
        if t <= 0.0:
            return math.log(M + 1)
        return alpha * h * t + math.log(-math.expm1(-(M + 1) * t)) - math.log(-math.expm1(-t))

    T = 1.0
    while log_g(T) <= log_g(T / 2.0) and T < 1e9:
        T *= 2.0
    ts = np.linspace(0.0, T, 4096)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = alpha * h * ts + np.log(-np.expm1(-(M + 1) * ts)) - np.log(-np.expm1(-ts))
    vals[0] = math.log(M + 1)
    i = int(np.argmin(vals))
    a, b = ts[max(i - 1, 0)], ts[min(i + 1, 4095)]
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = log_g(c), log_g(d)
    best = min(fc, fd, float(vals[i]))
    for _ in range(140):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = log_g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = log_g(d)
        best = min(best, fc, fd)
        if b - a < 1e-14 * max(1.0, b):
            break
    return math.exp(min(best, math.log(M + 1)))


def _reference_allocation(groups, L, h):
    """Least largest Lambda over exponents per multiplicity summing to L,
    by pairwise coordinate descent from the uniform allocation."""
    ms = sorted(groups)
    counts = [groups[m] for m in ms]
    alloc = [L / sum(counts)] * len(ms)

    def level(i, a=None):
        return _reference_lambda(ms[i], alloc[i] if a is None else a, h)

    prev = max(level(i) for i in range(len(ms)))
    for _ in range(60 if len(ms) > 1 else 0):
        for i, j in itertools.combinations(range(len(ms)), 2):
            budget = counts[i] * alloc[i] + counts[j] * alloc[j]

            def rest(a):
                return max(0.0, (budget - counts[i] * a) / counts[j])

            lo, hi = 0.0, budget / counts[i]
            if level(i, lo) > level(j, rest(lo)):
                alloc[i], alloc[j] = lo, budget / counts[j]
                continue
            if level(i, hi) < level(j, rest(hi)):
                alloc[i], alloc[j] = hi, 0.0
                continue
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if level(i, mid) < level(j, rest(mid)):
                    lo = mid
                else:
                    hi = mid
            alloc[i], alloc[j] = 0.5 * (lo + hi), rest(0.5 * (lo + hi))
        cur = max(level(i) for i in range(len(ms)))
        if prev - cur < 1e-12 * max(1.0, cur):
            break
        prev = cur
    return max(level(i) for i in range(len(ms)))


@st.composite
def lambda_arguments(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    alpha = draw(st.floats(min_value=0.0, max_value=m / 2.0))
    h = draw(st.one_of(st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=10**6)))
    return m, alpha, h


@settings(deadline=None, max_examples=200)
@given(lambda_arguments())
def test_lambda_matches_scan_and_golden_section(args):
    m, alpha, h = args
    assert math.isclose(lambda_min(m, alpha, h).value, _reference_lambda(m, alpha, h), rel_tol=1e-9)


@settings(deadline=None, max_examples=20)
@given(
    st.dictionaries(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
                    min_size=1, max_size=3),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([1, 2, 4, 6, 10, 30, 88, 1000, 10**6]),
)
def test_allocation_matches_coordinate_descent(groups, L, h):
    value, alloc = _allocate(groups, L, h)
    assert math.isclose(value, _reference_allocation(groups, L, h), rel_tol=1e-9)
    assert min(alloc.values()) >= 0.0
    assert math.isclose(sum(groups[m] * a for m, a in alloc.items()), L, rel_tol=1e-12)
    assert value == max(lambda_min(m, a, h).value for m, a in alloc.items())


# ---------------------------------------------------------------------------
# iter_solutions pins one variable per independent equation: it lists the
# same tuples, in the same order, as a filter over all r-tuples

def _brute_force_solutions(rows, sets, p, distinct):
    def solves(tup):
        return not any(sum(c * x[d] for c, x in zip(row, tup)) % p
                       for row in rows for d in range(len(tup[0])))

    columns = [sorted(set(s)) for s in sets]
    return [tup for tup in itertools.product(*columns)
            if solves(tup) and (not distinct or len(set(tup)) == len(tup))]


@st.composite
def solution_problems(draw):
    """Balanced rows (one may be a combination of two others), a prime p and
    candidate sets of 1- or 2-dimensional points mod p."""
    r = draw(st.integers(min_value=2, max_value=5))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        head = [draw(st.integers(min_value=-3, max_value=3)) for _ in range(r - 1)]
        rows.append(tuple(head) + (-sum(head),))
    if len(rows) >= 2 and draw(st.booleans()):
        f = draw(st.integers(min_value=-2, max_value=2))
        rows.append(tuple(a + f * b for a, b in zip(rows[0], rows[1])))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dim = draw(st.integers(min_value=1, max_value=2))
    point = st.tuples(*[st.integers(min_value=0, max_value=p - 1)] * dim)
    sets = [draw(st.lists(point, min_size=1, max_size=5)) for _ in range(r)]
    return rows, sets, p


@settings(deadline=None, max_examples=300)
@given(solution_problems(), st.booleans())
def test_iter_solutions_matches_a_filter_over_all_tuples(problem, distinct):
    rows, sets, p = problem
    got = list(iter_solutions(rows, sets, p, distinct=distinct))
    assert got == _brute_force_solutions(rows, sets, p, distinct)


# verify_construction asks its integer question mod a prime above every row
# value: the answer is the one a filter over all integer tuples gives

@settings(deadline=None, max_examples=200)
@given(balanced_systems(), st.integers(min_value=1, max_value=2), st.data())
def test_verify_construction_matches_an_integer_filter(s, dim, data):
    point = st.tuples(*[st.integers(min_value=-6, max_value=6)] * dim)
    points = data.draw(st.lists(point, min_size=1, max_size=4 if s.r <= 4 else 3, unique=True))
    rows = s.rows
    nonconstant = [tup for tup in itertools.product(points, repeat=s.r)
                   if len(set(tup)) > 1
                   and not any(sum(c * x[d] for c, x in zip(row, tup)) for row in rows for d in range(dim))]
    assert verify_construction(s, points) == (not nonconstant)


# sphere_set_checks reads both of certify's sphere verdicts off one
# enumeration mod p; on any points of {0..k}^n, with p the least prime above
# k, they are verify_construction's and is_strongly_free's

@st.composite
def box_point_problems(draw):
    r = draw(st.integers(min_value=2, max_value=5))
    head = st.lists(st.integers(min_value=-3, max_value=3), min_size=r - 1, max_size=r - 1)
    row = head.map(lambda h: tuple(h) + (-sum(h),)).filter(lambda row: abs(row[-1]) <= 3 and any(row))
    rows = draw(st.lists(row, min_size=1, max_size=3))
    k = draw(st.integers(min_value=1, max_value=6))
    p = next(q for q in itertools.count(k + 1) if is_prime(q))
    point = st.tuples(*[st.integers(min_value=0, max_value=k)] * draw(st.integers(min_value=1, max_value=2)))
    points = draw(st.lists(point, min_size=1, max_size=6 if r <= 3 else 4, unique=True))
    return ZSystem(r, tuple(rows), tuple(f"x{i}" for i in range(1, r + 1))), points, p


@settings(deadline=None, max_examples=300)
# 1 - 2*3 + 0 = -5: a solution mod 5 that is none over Z
@example(problem=(builtin("S3AP"), [(0,), (1,), (3,)], 5))
@given(box_point_problems())
def test_sphere_set_checks_match_both_checks(problem):
    s, points, p = problem
    want = verify_construction(s, points), is_strongly_free(reduce_mod_p(s, p), points)
    assert sphere_set_checks(s, points, p) == want


# ---------------------------------------------------------------------------
# build_hypergraph against a breadth-first search over variables that share
# an equation, on integer systems and on their residues mod p, where a row
# can lose entries (3x1 mod 3) or vanish whole (2x1 - 2x2 mod 2)

@st.composite
def sparse_systems(draw):
    r = draw(st.integers(min_value=1, max_value=9))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, -3, 4, 6])
    rows = [row for row in draw(st.lists(st.tuples(*[entry] * r), max_size=6)) if any(row)]
    return ZSystem(r, tuple(rows))


def _graph_by_search(rows, r):
    edges = [tuple(i for i, c in enumerate(row) if c) for row in rows]
    mult = tuple(sum(i in e for e in edges) for i in range(r))
    vertices = [i for i in range(r) if mult[i]]
    components, seen = [], set()
    for start in vertices:
        if start in seen:
            continue
        seen.add(start)
        frontier, comp = [start], [start]
        while frontier:
            v = frontier.pop()
            for w in {w for e in edges if v in e for w in e} - seen:
                seen.add(w)
                frontier.append(w)
                comp.append(w)
        components.append(tuple(sorted(comp)))
    return {
        "vertices": tuple(vertices), "edges": tuple(edges), "multiplicities": mult,
        "components": tuple(components),
        "r1": mult.count(1), "r2": sum(m >= 2 for m in mult), "L": len(rows),
        "m_max": max(mult, default=0),
        "irreducible": len(vertices) == r and len(components) == 1,
    }


@settings(deadline=None, max_examples=300)
@given(sparse_systems(), st.sampled_from([None, 2, 3, 5]))
def test_hypergraph_matches_a_graph_search(s, p):
    system = s if p is None else reduce_mod_p(s, p)
    h = build_hypergraph(system)
    got = {key: getattr(h, key) for key in ("vertices", "edges", "multiplicities", "components",
                                            "r1", "r2", "L", "m_max", "irreducible")}
    assert got == _graph_by_search(system.rows, system.r)


# ---------------------------------------------------------------------------
# power_exceeds decides base**exp > limit, building the power only when it is small

@settings(deadline=None, max_examples=300)
@given(st.integers(0, 40), st.integers(0, 200), st.integers(0, 10**40))
def test_power_exceeds_matches_the_power(base, exp, limit):
    assert power_exceeds(base, exp, limit) == (base**exp > limit)


def test_power_exceeds_without_the_power():
    assert power_exceeds(2, 10**12, 2**24) and power_exceeds(7, 10**12, 81)
    assert not power_exceeds(1, 10**12, 1) and not power_exceeds(0, 10**12, 0)


# ---------------------------------------------------------------------------
# is_prime against a sieve of Eratosthenes

def test_is_prime_matches_a_sieve():
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, limit, q))
    assert [n for n in range(-1, limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]
