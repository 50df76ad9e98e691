"""Ground-truth enumeration and exact search over small point sets.

One engine lists the solutions of a system with x_i drawn from candidate
sets.  It row-reduces the rows mod p once, each pivot on the rightmost
column it can take, so that every independent row pins the entry at its own
position from the entries left of it.  A frontier of partial tuples then
grows breadth-first in numpy, one position at a time: a free position
multiplies it by its set, a pinned one computes its entry and keeps the
tuples whose entry lies in the set.  Worked in chunks, depth first, it stays
bounded in memory and yields the solutions in lexicographic order; the
product of the free positions' set sizes bounds its entries (guarded at 1e8).

Search for maximum free sets first compiles the system over F_p^n: the same
engine run over all of F_p^n gives every solution, and the supports a free
set must avoid become bitmasks of point indices.  It accepts only systems
balanced mod p, which are translation invariant, so among maximum witnesses
one contains 0; its sorted sequence starts with the globally smallest point,
so the lexicographically least maximum witness contains 0.  The search fixes
0 into every nonempty candidate and runs one include-first depth-first pass
over ascending point indices, keeping a mask of the points that may still
join.  A branch dies when even all of those could not beat the record, so
the first maximum set found is the lexicographically least one.  A weak
search of a one-variable system is answered before compiling: balance mod p
makes its row vanish, so every point alone is a solution and only the empty
set is weakly free.

Every linear bijection of F_p^n also maps free sets to free sets of the
same size, so a set that takes a unit vector never tries the branch that
leaves it out: a linear map sends each set there to a lexicographically
smaller one of the same size (the proof is at _search_max_free).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .arith import is_prime, power_exceeds
from .eqsys import FpSystem, reduce_mod_p
from .errors import GuardExceeded
from .systems import builtin

#: largest product of the free positions' set sizes an enumeration takes on
ENUMERATION_GUARD = 10**8
#: largest solution table (solutions times r) and point count a search compiles
COMPILE_GUARD = 4_000_000
#: sets a search visits before it stops with exhaustive=False
DEFAULT_NODE_BUDGET = 2_000_000
#: frontier entries (positions times tuples) a free position extends at once
_CHUNK = 1 << 16

Point = tuple[int, ...]


@dataclass(frozen=True)
class PointSet:
    """A canonical subset of F_p^n: entries reduced mod p, sorted, deduped."""

    p: int
    n: int
    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        norm = sorted({tuple(c % self.p for c in pt) for pt in self.points})
        for pt in norm:
            if len(pt) != self.n:
                raise ValueError("point dimension mismatch")
        object.__setattr__(self, "points", tuple(norm))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    @cached_property
    def _lookup(self) -> frozenset:
        return frozenset(self.points)

    def __contains__(self, pt: object) -> bool:
        return pt in self._lookup


@dataclass(frozen=True)
class Matching:
    """Rows of r-tuples of points; within each column all entries differ
    (a system of distinct representatives, one row per color class)."""

    rows: tuple[tuple[Point, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("matching needs at least one row")
        rows = tuple(tuple(tuple(pt) for pt in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        arity = len(rows[0])
        if any(len(row) != arity for row in rows):
            raise ValueError("rows must share one arity")
        dim = len(rows[0][0])
        for row in rows:
            for pt in row:
                if len(pt) != dim:
                    raise ValueError("point dimension mismatch")
        for col in range(arity):
            entries = [row[col] for row in rows]
            if len(set(entries)) != len(entries):
                raise ValueError(f"column {col + 1} repeats a point")

    @property
    def arity(self) -> int:
        return len(self.rows[0])

    @property
    def size(self) -> int:
        return len(self.rows)

    def column(self, i: int) -> tuple[Point, ...]:
        return tuple(sorted(row[i] for row in self.rows))

    def mod(self, p: int) -> Matching:
        """The same rows with entries reduced mod p; refuses a column whose
        entries differ but repeat a point mod p."""
        rows = tuple(tuple(tuple(c % p for c in pt) for pt in row) for row in self.rows)
        try:
            return Matching(rows)
        except ValueError as exc:
            raise ValueError(f"{exc} mod {p}") from None


@dataclass(frozen=True)
class SearchResult:
    value: int
    witness: PointSet
    nodes_explored: int
    exhaustive: bool


def space_points(p: int, n: int) -> tuple[Point, ...]:
    """All of F_p^n in lexicographic order."""
    return tuple(itertools.product(range(p), repeat=n))


# ---------------------------------------------------------------------------
# core enumeration

def _pin_rows(rows: Sequence[Sequence[int]], r: int, p: int) -> list[tuple[tuple[int, ...], int]]:
    """Row-reduce mod p so that each remaining row's last nonzero column is
    its own pivot, scaled to 1: (row, pivot) pairs, pivots distinct, zero
    rows dropped.  Columns are taken from the right; a row picked as pivot of
    column c has no entry right of c, and c is cleared from the rows not yet
    picked, so the rows have the same solutions mod p as the input."""
    mat = []
    for row in rows:
        if len(row) != r:
            raise ValueError("row width must equal the number of sets")
        mat.append([c % p for c in row])
    pinned = []
    for col in reversed(range(r)):
        pick = next((i for i, row in enumerate(mat) if row[col]), None)
        if pick is None:
            continue
        piv = mat.pop(pick)
        inv = pow(piv[col], -1, p)
        piv = [c * inv % p for c in piv]
        for i, row in enumerate(mat):
            if row[col]:
                mat[i] = [(a - row[col] * b) % p for a, b in zip(row, piv)]
        pinned.append((tuple(piv), col))
    return pinned


def _solution_table(rows: Sequence[Sequence[int]], sets: Sequence[Sequence[Point]], p: int,
                    distinct: bool = False) -> Iterator[np.ndarray]:
    """The solutions mod p with x_i from sets[i] in lexicographic order, as
    nonempty chunks of rows of indices into the distinct set objects laid
    end to end in order of first appearance.  Each set is a sorted sequence
    (or array) of distinct points with entries in [0, p).  ``distinct`` keeps
    tuples with pairwise distinct entries only.  ENUMERATION_GUARD bounds
    the product of the free positions' set sizes before any work."""
    r = len(sets)
    pins = {col: row for row, col in _pin_rows(rows, r, p)}
    if any(len(s) == 0 for s in sets):
        return
    work = math.prod(len(s) for v, s in enumerate(sets) if v not in pins)
    if work > ENUMERATION_GUARD:
        raise GuardExceeded(f"enumeration would take ~{work} frontier entries (> {ENUMERATION_GUARD})")

    uniq = {id(s): s for s in sets}
    start = dict(zip(uniq, itertools.accumulate((len(s) for s in uniq.values()), initial=0)))
    dim = len(sets[0][0])
    # point keys and products of entries stay below 2^63, or Python ints are used
    dtype = object if power_exceeds(p, max(dim, 2), (1 << 63) - 1) else np.int64
    try:
        flat = np.concatenate([np.array(s, dtype=dtype).reshape(len(s), -1) for s in uniq.values()])
    except OverflowError:
        raise ValueError(f"point entries must lie in [0, {p})") from None
    except ValueError:
        raise ValueError("point dimension mismatch") from None
    if flat.min() < 0 or flat.max() >= p:
        raise ValueError(f"point entries must lie in [0, {p})")
    keys = flat @ np.array([p ** (dim - 1 - d) for d in range(dim)], dtype=dtype)
    # pinned position -> its terms: (earlier position, all points times minus its coefficient)
    terms = {v: [(i, (p - c) * flat % p) for i, c in enumerate(row[:v]) if c] for v, row in pins.items()}

    # the frontier holds one row of set indices per position, one column per tuple
    stack = [(np.zeros((r, 1), dtype=np.int64), 0)]
    while stack:
        front, v = stack.pop()
        while front.shape[1] and v < r:
            lo, size = start[id(sets[v])], len(sets[v])
            if v in pins:
                value = np.zeros((front.shape[1], dim), dtype)
                for i, term in terms[v]:
                    value += term.take(front[i], axis=0)
                value %= p
                key = value[:, 0]
                for d in range(1, dim):
                    key = key * p + value[:, d]
                own = keys[lo:lo + size]  # the set's keys, sorted as its points are
                at = np.minimum(own.searchsorted(key), size - 1)
                hit = own.take(at) == key
                at += lo
                if not hit.all():
                    front, at = front.compress(hit, axis=1), at.compress(hit)
                front[v] = at
            else:
                step = max(1, _CHUNK // (r * size))
                if front.shape[1] > step:  # the rest waits at this position, after this chunk
                    stack.append((front[:, step:], v))
                    front = front[:, :step]
                count = front.shape[1]
                grown = np.empty((r, count * size), dtype=np.int64)  # rows past v are not read yet
                grown[:v] = front[:v].repeat(size, axis=1)
                grown[v].reshape(count, size)[:] = np.arange(lo, lo + size)
                front = grown
            if distinct and v:
                entry = keys.take(front[v])
                front = front.compress(np.logical_and.reduce([keys.take(front[i]) != entry for i in range(v)]), axis=1)
            v += 1
        if front.shape[1]:
            yield front.T


def iter_solutions(rows: Sequence[Sequence[int]], sets: Sequence[Iterable[Point]], p: int, *,
                   distinct: bool = False) -> Iterator[tuple[Point, ...]]:
    """Stream all tuples (x_1..x_r), x_i from sets[i], solving every row
    mod p, in lexicographic order; entries must lie in [0, p).
    ``distinct`` keeps only tuples with pairwise distinct entries."""
    by_id = {key: sorted({tuple(pt) for pt in s}) for key, s in {id(s): s for s in sets}.items()}
    flat = [pt for s in by_id.values() for pt in s]
    for chunk in _solution_table(rows, [by_id[id(s)] for s in sets], p, distinct):
        for idx in chunk.tolist():
            yield tuple(flat[i] for i in idx)


def _canonical_points(p: int, a) -> tuple[Point, ...]:
    """The points of ``a``, a PointSet or any collection of points (its
    dimension read off its first point), reduced mod p, sorted, deduped."""
    if isinstance(a, PointSet):
        return a.points
    a = tuple(a)
    return PointSet(p, len(a[0]) if a else 1, a).points


def is_strongly_free(t: FpSystem, a) -> bool:
    """No solution within ``a`` except the constant ones."""
    pts = _canonical_points(t.p, a)
    return not any((chunk != chunk[:, :1]).any() for chunk in _solution_table(t.rows, [pts] * t.r, t.p))


def is_weakly_free(t: FpSystem, a) -> bool:
    """No solution within ``a`` whose r entries are pairwise distinct."""
    pts = _canonical_points(t.p, a)  # fewer than r points hold no r distinct entries
    return len(pts) < t.r or next(_solution_table(t.rows, [pts] * t.r, t.p, distinct=True), None) is None


# ---------------------------------------------------------------------------
# maximum free set search

@dataclass(frozen=True)
class CompiledSystem:
    """The supports a free set must avoid, over the points of F_p^n.

    Points are indices into ``space_points(p, n)`` and sets are Python-int
    bitmasks of them.  A support is the set of entries of a forbidden
    solution: a non-constant one for strong freeness, one with r distinct
    entries (r >= 2) for weak freeness.  A set is free exactly when it contains no
    support.  A search that adds points in ascending order only needs, when
    it adds q, the supports whose second-largest point is q: if the rest of
    such a support, below q, is already chosen, its largest point x can no
    longer join.  ``forbid[q]`` files those supports in a trie keyed by the
    rest's points in descending order; a trie node is ``[xs, children]``,
    xs the mask of the x's whose rest ends at that node.
    """

    size: int
    solutions: int
    supports: int
    forbid: tuple[list, ...]   # per q: the root of its trie


def compile_system(t: FpSystem, n: int, weak: bool) -> CompiledSystem:
    """Enumerate every solution of t over F_p^n once and file its support.

    The solution engine runs over all of F_p^n, whose points it indexes in
    lexicographic order.  Row reduction mod p leaves r - rank free
    positions, so there are p^(n (r - rank)) solutions.  COMPILE_GUARD
    bounds that count times r (the entries of the solution table) and
    p^n, and is checked before any work.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    p, r = t.p, t.r
    if weak and r < 2:
        raise ValueError("a weak compile needs at least two variables: every point alone is a support")
    free = r - len(_pin_rows(t.rows, r, p))
    if power_exceeds(p, n * free, COMPILE_GUARD // r) or power_exceeds(p, n, COMPILE_GUARD):
        raise GuardExceeded(f"compiling {p}^{n * free} solutions over {p}^{n} points "
                            f"exceeds the guard ({COMPILE_GUARD} table entries)")
    size, count = p**n, p ** (n * free)

    space = np.indices((p,) * n).reshape(n, size).T
    table = np.concatenate([np.empty((0, r), dtype=np.int64), *_solution_table(t.rows, [space] * r, p, distinct=weak)])

    table = np.sort(table, axis=1)
    if not weak:  # drop the constant solutions, and blank out repeated entries so that equal supports become equal rows
        repeats = table[:, 1:] == table[:, :-1]
        support = ~repeats.all(axis=1)
        table = table[support]
        table[:, 1:][repeats[support]] = -1
        table = np.sort(table, axis=1)
    table = table[np.lexsort(table.T[::-1])]
    first = np.ones(len(table), dtype=bool)
    first[1:] = (table[1:] != table[:-1]).any(axis=1)
    table = table[first]

    forbid = tuple([0, {}] for _ in range(size))
    for row in table.tolist():
        x = row[-1]
        node = forbid[row[-2]]
        for v in reversed(row[:-2]):
            if v < 0:
                break
            child = node[1].get(v)
            if child is None:
                child = node[1][v] = [0, {}]
            node = child
        node[0] |= 1 << x
    return CompiledSystem(size, count, len(table), forbid)


def _forbidden(node: list, members: list[int], end: int) -> int:
    """The x's of the trie below ``node`` whose rest lies in members[:end]."""
    xs, children = node
    if children:
        for i in range(end):
            child = children.get(members[i])
            if child is not None:
                xs |= _forbidden(child, members, i)
    return xs


def _search_max_free(t: FpSystem, n: int, weak: bool, node_budget: Optional[int]) -> SearchResult:
    """The include-first search of the module docstring, with its frame cut.

    A frame that takes the unit vector e_{n-j}, index p^j, never tries the
    branch that leaves e_{n-j} out.  The indices below p^j are exactly
    V_j = span(e_{n-j+1}, ..., e_n), so the frame's points M lie in V_j.  A
    set of the skipped branch is M + T with T nonempty and outside
    V_j + {e_{n-j}}.  A linear bijection that fixes V_j pointwise and sends
    min T to e_{n-j} maps M + T to a free set of the same size that starts
    with M, e_{n-j}: lexicographically smaller.  So the skipped branch holds
    no larger set and not the lexicographically least maximum witness.  It
    comes after its include sibling, so the record cannot rise inside it:
    the sets visited are a subsequence of those visited without the cut,
    with the same records, and the value, the witness and ``exhaustive``
    are unchanged while ``nodes_explored`` never rises.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if node_budget is not None and node_budget < 1:
        raise ValueError("node budget must be >= 1")
    if not t.is_balanced:  # the zero vector in every set needs translation invariance
        raise ValueError(f"system is not balanced mod {t.p}: the search needs every row to sum to 0 mod {t.p}")
    p = t.p
    if weak and not power_exceeds(p, n, t.r - 1):
        # fewer points than positions: no tuple can have r distinct entries
        pts = space_points(p, n)
        return SearchResult(len(pts), PointSet(p, n, pts), 0, True)
    if weak and t.r == 1:
        # balance mod p makes the row vanish, so every point alone is a solution
        return SearchResult(0, PointSet(p, n, ()), 0, True)
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    comp = compile_system(t, n, weak)

    # include-first DFS over ascending point indices from {0}; each stack
    # frame holds the points that may still join its set
    units = {p**j for j in range(n)}  # the indices of e_n, e_{n-1}, ..., e_1
    members = [0]
    allowed = ((1 << comp.size) - 2) & ~comp.forbid[0][0]
    stack = [allowed]
    best = [0]
    nodes = 1
    truncated = False
    while stack:
        allowed = stack[-1]
        if len(members) + allowed.bit_count() <= len(best):
            stack.pop()  # cannot beat the record (ties keep the earlier, lex-smaller set)
            members.pop()
            continue
        if nodes >= budget:
            truncated = True
            break
        low = allowed & -allowed
        q = low.bit_length() - 1
        allowed ^= low
        # a frame that takes a unit vector skips the sets without it (see the docstring)
        stack[-1] = 0 if q in units else allowed
        allowed &= ~_forbidden(comp.forbid[q], members, len(members))
        members.append(q)
        nodes += 1
        if len(members) > len(best):
            best = members.copy()
        stack.append(allowed)
    witness = PointSet(p, n, tuple(np.array(np.unravel_index(best, (p,) * n)).T.tolist()))
    return SearchResult(len(best), witness, nodes, not truncated)


def max_strongly_free(t: FpSystem, n: int, node_budget: Optional[int] = None) -> SearchResult:
    """Maximum size of a strongly free subset of F_p^n with the
    lexicographically least maximum witness; t must be balanced mod p.

    The search visits at most ``node_budget`` >= 1 sets (default
    DEFAULT_NODE_BUDGET); when it stops early the result is the best set
    found, with exhaustive=False.
    """
    return _search_max_free(t, n, weak=False, node_budget=node_budget)


def max_weakly_free(t: FpSystem, n: int, node_budget: Optional[int] = None) -> SearchResult:
    """Like max_strongly_free but forbidding only pairwise-distinct
    solutions; p^n < r short-circuits to the whole space, and r = 1 to
    the empty set."""
    return _search_max_free(t, n, weak=True, node_budget=node_budget)


# ---------------------------------------------------------------------------
# colored (matching) freeness and the five-variable W system devices

def is_multicolored_free(t: FpSystem, m: Matching) -> bool:
    """The solutions of t with x_i from column i of m are exactly m's rows."""
    if m.arity != t.r:
        raise ValueError(f"matching arity {m.arity} != system arity {t.r}")
    m = m.mod(t.p)
    return set(iter_solutions(t.rows, [m.column(i) for i in range(t.r)], t.p)) == set(m.rows)


def extendable_pairs(t: FpSystem, sets, i: int, j: int) -> set[tuple[Point, Point]]:
    """All (x_i, x_j) projections of solutions with x_k from sets[k]
    (0-based positions)."""
    if not 0 <= i < t.r or not 0 <= j < t.r or i == j:
        raise ValueError("positions must be distinct and in range")
    cols = [_canonical_points(t.p, s) for s in sets]
    if len(cols) != t.r:
        raise ValueError(f"expected {t.r} candidate sets, got {len(cols)}")
    return {(sol[i], sol[j]) for sol in iter_solutions(t.rows, cols, t.p)}


def build_colored_subcollection(m: Matching, p: int, n: int) -> Matching:
    """Thin a family of disjoint 3-term progressions, given as rows
    (a, a, a', a', a''), down to a subfamily with no cross extensions.

    Drops the first terms that extend too often (threshold 2*p^n/t, exact
    integer comparison), then greedily keeps the lexicographically least
    surviving first term and discards every first term its extendable
    pairs point at.  The result keeps at least ceil(t^2 / (4 p^n)) rows
    unconditionally; it is multicolored-free whenever the union of the
    family's points is weakly free for the five-variable system (without
    that hypothesis a cross solution can slip through, e.g. the two
    progressions {0,1,2} and {3,4,5} in F_7 admit (3,0,4,1,5)).
    """
    if m.arity != 5:
        raise ValueError("rows must have arity 5")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    m = m.mod(p)
    seen: set[Point] = set()
    for a, a2, b, b2, c in m.rows:
        if a != a2 or b != b2:
            raise ValueError("rows must look like (a, a, a', a', a'')")
        if len({a, b, c}) != 3:
            raise ValueError("each progression needs three distinct points")
        if any((x - 2 * y + z) % p for x, y, z in zip(a, b, c)):
            raise ValueError("row is not a 3-term progression")
        if seen & {a, b, c}:
            raise ValueError("progressions must be pairwise disjoint")
        seen |= {a, b, c}

    t_count = m.size
    space = p**n
    tsys = reduce_mod_p(builtin("SW"), p)
    cols = [list(m.column(i)) for i in range(5)]
    pairs = extendable_pairs(tsys, cols, 0, 2)
    fanout: dict[Point, list[Point]] = {}
    for xx, yy in sorted(pairs):
        fanout.setdefault(xx, []).append(yy)

    bad = {xx for xx, ys in fanout.items() if len(ys) * t_count >= 2 * space}
    assert 2 * len(bad) <= t_count, "more heavy first-terms than the pair count allows"
    row_by_first = {row[0]: row for row in m.rows}
    row_by_third = {row[2]: row for row in m.rows}
    active = set(row_by_first) - bad
    kept = []
    while active:
        xx = min(active)
        kept.append(row_by_first[xx])
        for yy in fanout.get(xx, ()):  # includes xx's own row
            active.discard(row_by_third[yy][0])
        assert xx not in active, "picked first term must remove itself"
    result = Matching(tuple(kept))
    assert 4 * space * result.size >= t_count * t_count, "kept fewer rows than guaranteed"
    return result
