"""Ground-truth enumeration and exact search over small point sets.

The workhorse is a depth-first solution iterator over given candidate
sets, one per variable position.  The equations are first row-reduced,
each pivot on the rightmost column it can take (mod p with inverses, over
Z fraction-free), so that every independent equation ends at its own
variable and zero rows drop out.  At that position the equation pins the
value (back-substitution): over F_p by a modular inverse, over Z by exact
division.  Only r - rank positions stay free; they are enumerated in
ascending order, so solutions stream out in lexicographic order and the
product of the free positions' set sizes bounds the work (guarded at 1e8).

Search for maximum free sets first compiles the system over F_p^n: the same
row reduction mod p gives every solution at once, and the supports a free set
must avoid become bitmasks of point indices.  It accepts only systems
balanced mod p, which are translation invariant, so among maximum witnesses
one contains 0; its sorted sequence starts with the globally smallest point,
so the lexicographically least maximum witness contains 0.  The search fixes
0 into every nonempty candidate and runs one include-first depth-first pass
over ascending point indices, keeping a mask of the points that may still
join.  A branch dies when even all of those could not beat the record, so
the first maximum set found is the lexicographically least one.
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

ENUMERATION_GUARD = 10**8
#: largest solution table (solutions times r) and point count a search compiles
COMPILE_GUARD = 4_000_000
#: sets a search visits before it stops with exhaustive=False
DEFAULT_NODE_BUDGET = 2_000_000

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

def _pin_rows(rows: Sequence[Sequence[int]], r: int, modulus: Optional[int]) -> list[tuple[tuple[int, ...], int]]:
    """Row-reduce so that each remaining row's last nonzero column is its
    own pivot: (row, pivot) pairs, pivots distinct, zero rows dropped.

    Columns are taken from the right; a row picked as pivot of column c has
    no entry right of c, and c is cleared from the rows not yet picked.
    Mod p each pivot is scaled to 1; over Z the elimination is fraction-free
    and every row is divided by the gcd of its entries.  Either way the rows
    have the same solutions as the input.
    """
    mat = []
    for row in rows:
        if len(row) != r:
            raise ValueError("row width must equal the number of sets")
        mat.append([c % modulus for c in row] if modulus is not None else list(row))
    pinned = []
    for col in reversed(range(r)):
        pick = next((i for i, row in enumerate(mat) if row[col]), None)
        if pick is None:
            continue
        piv = mat.pop(pick)
        if modulus is not None:
            inv = pow(piv[col], -1, modulus)
            piv = [c * inv % modulus for c in piv]
        for i, row in enumerate(mat):
            f = row[col]
            if not f:
                continue
            if modulus is not None:
                mat[i] = [(a - f * b) % modulus for a, b in zip(row, piv)]
            else:
                new = [piv[col] * a - f * b for a, b in zip(row, piv)]
                g = math.gcd(*new)
                mat[i] = [c // g for c in new] if g > 1 else new
        pinned.append((tuple(piv), col))
    return pinned


def iter_solutions(
    rows: Sequence[Sequence[int]],
    sets: Sequence[Iterable[Point]],
    modulus: Optional[int] = None,
    *,
    distinct: bool = False,
    guard: int = ENUMERATION_GUARD,
) -> Iterator[tuple[Point, ...]]:
    """Stream all tuples (x_1..x_r), x_i from sets[i], solving every row.

    modulus None means exact integer arithmetic.  ``distinct`` keeps only
    pairwise-distinct tuples (pruned along the prefix).  Solutions come out
    in lexicographic order.
    """
    r = len(sets)
    srt = [sorted({tuple(pt) for pt in s}) for s in sets]
    lookup = [set(s) for s in srt]
    if any(not s for s in srt):
        return
    dim = len(srt[0][0])
    for s in srt:
        if any(len(pt) != dim for pt in s):
            raise ValueError("point dimension mismatch")
    # pinned position -> its row and the earlier positions the row uses
    pins = {col: (row, [i for i in range(col) if row[i]]) for row, col in _pin_rows(rows, r, modulus)}

    work = 1
    for v in range(r):
        if v not in pins:
            work *= len(srt[v])
    if work > guard:
        raise GuardExceeded(f"enumeration would take ~{work} nodes (> {guard})")

    x: list[Optional[Point]] = [None] * r

    def pinned_value(v: int) -> Optional[Point]:
        """x_v from the earlier entries, or None when over Z it is not an integer."""
        row, uses = pins[v]
        rest = [0] * dim
        for i in uses:
            c, xi = row[i], x[i]
            for d in range(dim):
                rest[d] += c * xi[d]
        if modulus is not None:  # the pivot is 1
            return tuple(-rv % modulus for rv in rest)
        vals = []
        for rv in rest:
            q, rem = divmod(-rv, row[v])
            if rem:
                return None
            vals.append(q)
        return tuple(vals)

    def rec(v: int) -> Iterator[tuple[Point, ...]]:
        if v == r:
            yield tuple(x)  # type: ignore[arg-type]
            return
        if v in pins:
            cand = pinned_value(v)
            if cand is None or cand not in lookup[v]:
                return
            if distinct and cand in x[:v]:
                return
            x[v] = cand
            yield from rec(v + 1)
            x[v] = None
        else:
            for cand in srt[v]:
                if distinct and cand in x[:v]:
                    continue
                x[v] = cand
                yield from rec(v + 1)
            x[v] = None

    yield from rec(0)


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
    for sol in iter_solutions(t.rows, [pts] * t.r, t.p):
        if any(pt != sol[0] for pt in sol):
            return False
    return True


def is_weakly_free(t: FpSystem, a) -> bool:
    """No solution within ``a`` whose r entries are pairwise distinct."""
    pts = _canonical_points(t.p, a)
    if len(pts) < t.r:  # r distinct entries cannot fit
        return True
    for _ in iter_solutions(t.rows, [pts] * t.r, t.p, distinct=True):
        return False
    return True


# ---------------------------------------------------------------------------
# maximum free set search

@dataclass(frozen=True)
class CompiledSystem:
    """The supports a free set must avoid, over the points of F_p^n.

    Points are indices into ``space_points(p, n)`` and sets are Python-int
    bitmasks of them.  A support is the set of entries of a forbidden
    solution: a non-constant one for strong freeness, one with r distinct
    entries for weak freeness.  A set is free exactly when it contains no
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
    blocked: int               # points that alone form a support
    forbid: tuple[list, ...]   # per q: the root of its trie


def compile_system(t: FpSystem, n: int, weak: bool, guard: int = COMPILE_GUARD) -> CompiledSystem:
    """Enumerate every solution of t over F_p^n once and file its support.

    Row reduction mod p leaves p^(r - rank) scalar solutions; a solution
    over F_p^n picks one of them per coordinate, so there are
    p^(n (r - rank)) of them.  ``guard`` bounds that count times r (the
    entries of the solution table) and p^n, and is checked before any work.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    p, r = t.p, t.r
    pinned = sorted(_pin_rows(t.rows, r, p), key=lambda pin: pin[1])
    free = [c for c in range(r) if c not in {col for _, col in pinned}]
    if power_exceeds(p, n * len(free), guard // r) or power_exceeds(p, n, guard):
        raise GuardExceeded(f"compiling {p}^{n * len(free)} solutions over {p}^{n} points "
                            f"exceeds the guard ({guard} table entries)")
    size, count = p**n, p ** (n * len(free))

    vals = np.array(list(itertools.product(range(p), repeat=len(free))), dtype=np.int64)
    vals = vals.reshape(p ** len(free), len(free))
    scalar = np.zeros((len(vals), r), dtype=np.int64)
    scalar[:, free] = vals
    for row, col in pinned:  # each pinned column from the columns left of it
        scalar[:, col] = -(scalar @ np.array(row, dtype=np.int64)) % p
    table = scalar
    for _ in range(n - 1):  # one more coordinate, less significant in the lex index
        table = (table[:, None, :] * p + scalar[None, :, :]).reshape(-1, r)

    table = np.sort(table, axis=1)
    repeats = table[:, 1:] == table[:, :-1]
    distinct = r - repeats.sum(axis=1)
    table = table[distinct == r] if weak else table[distinct >= 2]
    if not weak:  # blank out repeated entries so that equal supports become equal rows
        table[:, 1:][repeats[distinct >= 2]] = -1
        table = np.sort(table, axis=1)
    table = table[np.lexsort(table.T[::-1])]
    first = np.ones(len(table), dtype=bool)
    first[1:] = (table[1:] != table[:-1]).any(axis=1)
    table = table[first]

    blocked = 0
    forbid = tuple([0, {}] for _ in range(size))
    for row in table.tolist():
        x = row[-1]
        if len(row) < 2:
            blocked |= 1 << x
            continue
        node = forbid[row[-2]]
        for v in reversed(row[:-2]):
            if v < 0:
                break
            node = node[1].setdefault(v, [0, {}])
        node[0] |= 1 << x
    return CompiledSystem(size, count, len(table), blocked, forbid)


def _forbidden(node: list, members: list[int], end: int) -> int:
    """The x's of the trie below ``node`` whose rest lies in members[:end]."""
    xs, children = node
    if children:
        for i in range(end):
            child = children.get(members[i])
            if child is not None:
                xs |= _forbidden(child, members, i)
    return xs


def _index_point(i: int, p: int, n: int) -> Point:
    digits = []
    for _ in range(n):
        i, d = divmod(i, p)
        digits.append(d)
    return tuple(reversed(digits))


def _search_max_free(t: FpSystem, n: int, weak: bool, node_budget: Optional[int]) -> SearchResult:
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
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    comp = compile_system(t, n, weak)

    # include-first DFS over ascending point indices from {0}; each stack
    # frame holds the points that may still join its set
    members = [0]
    allowed = ((1 << comp.size) - 2) & ~comp.blocked & ~comp.forbid[0][0]
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
        stack[-1] = allowed
        allowed &= ~_forbidden(comp.forbid[q], members, len(members))
        members.append(q)
        nodes += 1
        if len(members) > len(best):
            best = members.copy()
        stack.append(allowed)
    witness = PointSet(p, n, tuple(_index_point(i, p, n) for i in best))
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
    solutions; p^n < r short-circuits to the whole space."""
    return _search_max_free(t, n, weak=True, node_budget=node_budget)


# ---------------------------------------------------------------------------
# colored (matching) freeness and the five-variable W system devices

def is_multicolored_free(t: FpSystem, m: Matching) -> bool:
    """The solutions of t with x_i from column i of m are exactly m's rows."""
    if m.arity != t.r:
        raise ValueError(f"matching arity {m.arity} != system arity {t.r}")
    cols = [list(m.column(i)) for i in range(t.r)]
    found = set(iter_solutions(t.rows, cols, t.p))
    return found == set(m.rows)


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
    seen: set[Point] = set()
    for row in m.rows:
        a, a2, b, b2, c = [tuple(v % p for v in pt) for pt in row]
        if a != a2 or b != b2:
            raise ValueError("rows must look like (a, a, a', a', a'')")
        if len({a, b, c}) != 3:
            raise ValueError("each progression needs three distinct points")
        for d in range(len(a)):
            if (a[d] - 2 * b[d] + c[d]) % p:
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
