"""Sphere sets inside the integer box {0,…,k}^n.

The census of squared norms is the coefficient list of P^n, where
P(x) = Σ_{v≤k} x^{v²}, so the largest norm class can be located exactly
even when the box itself is far too big to enumerate.  Two exact methods
compute it, chosen by the input size.  Below n = min(8k, 96) it is a
coordinate-by-coordinate convolution: the counts reach (k+1)^n, so they are
held in int64 limbs, each as wide as the sum of k+1 of them allows, with
carries propagated once per coordinate.  From there on it is J.C.P.
Miller's recurrence for the powers of a polynomial (Knuth, TAOCP vol. 2,
§4.7): n k³ steps on Python ints instead of n convolutions over limbs that
grow with n.  The two cost about the same at the switch.  Before either
allocates anything, the table's memory is estimated and a census past
CENSUS_GUARD bytes is refused.

Materialization is a separate, guarded step: a level-by-level walk in numpy
that extends only the prefixes whose remaining squared norm the other
coordinates can still reach, so it meets no dead ends and yields the class
in lexicographic order, as rows of the narrowest unsigned type that holds
k, checked once a chunk at a time and kept; a SphereSet builds the points
as tuples, or as the strings reports print, only when they are asked for.

On a sphere no integer solutions of a dominant equation exist except the
constant ones (strict convexity of the Euclidean norm), which is what
verify_construction checks exhaustively, and entrywise inclusion into
F_p^n preserves solutions both ways once p exceeds the box bound times
the largest step coefficient's reach (k = floor((p-1)/b)).  Then the
rows are their own embedding: embed_mod_p only checks p and hands the
points to a PointSet.  Since the entries already lie in [0, p), one list
of the solutions mod p decides both (sphere_set_checks): the integer
solutions are those of its solutions whose rows vanish over Z as well.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .arith import is_prime, power_exceeds
from .eqsys import ZSystem
from .errors import GuardExceeded
from .oracle import Point, PointSet, _solution_table, iter_solutions

MATERIALIZE_GUARD = 2**24
#: bytes a census table may take, as _census_bytes estimates them
CENSUS_GUARD = 2**28
#: rows a SphereSet checks, or turns into tuples or strings, at a time
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class NormClassTable:
    """Exact census of squared Euclidean norms over the box minus its two
    corners (the origin and (k,…,k))."""

    n: int
    k: int
    counts: dict[int, int]

    def best(self) -> tuple[int, int]:
        """(squared norm, count) of the largest class; ties go to the
        smallest norm so the pigeonhole radius is deterministic."""
        count = max(self.counts.values())
        return min(q for q, c in self.counts.items() if c == count), count


def integer_rows(points: Sequence[Point], n: int) -> Optional[np.ndarray]:
    """The points as an (len(points), n) array of a signed or unsigned
    integer type, kept as given for an array, or None when some point is
    not n integers that fit in 64 bits."""
    try:
        arr = np.asarray(points) if len(points) else np.zeros((0, n), dtype=np.int64)
    except (ValueError, OverflowError):  # ragged rows
        return None
    if arr.dtype.kind not in "iu" or arr.shape != (len(points), n):
        return None
    return arr


def lex_leads(arr: np.ndarray) -> np.ndarray:
    """Per pair of consecutive rows, the first nonzero entry of their
    difference (0 for equal rows): all >= 0 means sorted in lexicographic
    order.  The rows must be signed: an unsigned difference wraps."""
    if len(arr) < 2:
        return np.zeros(0, dtype=np.int64)
    diff = arr[1:] - arr[:-1]
    return diff[np.arange(len(diff)), (diff != 0).argmax(axis=1)]


class SphereSet:
    """Points of {0..k}^n on the sphere of squared radius ``radius_sq``,
    sorted.  ``points`` is a collection of n-tuples or an integer array of
    rows, signed or unsigned.  It is checked once (box, norm, order) a
    chunk of rows at a time, each chunk widened to int64, or to Python ints
    once norms can pass 2^63, and kept in ``rows``, read-only, in the type
    it came in.  ``points``, the rows as tuples of Python ints, is built on
    first use a chunk at a time, so that no list of lists for the whole
    array is ever alive."""

    def __init__(self, n: int, k: int, radius_sq: int,
                 points: Iterable[Point] | np.ndarray) -> None:
        self.n, self.k, self.radius_sq = n, k, radius_sq
        arr = integer_rows(points if isinstance(points, np.ndarray) else tuple(points), n)
        if arr is None:
            raise ValueError("points must lie in the box")
        wide = object if n * k ** 2 >= 2**63 else np.int64  # exact norms
        in_order = True
        for start in range(0, len(arr), _CHUNK_ROWS):
            # widened before any arithmetic, which wraps silently on narrow unsigned rows;
            # each chunk after the first starts at its predecessor's last row, for the order
            rows = arr[max(start - 1, 0):start + _CHUNK_ROWS].astype(wide, copy=False)
            if rows.size and (rows.min() < 0 or rows.max() > k):
                raise ValueError("points must lie in the box")
            if ((rows * rows).sum(axis=1) != radius_sq).any():
                raise ValueError("point off the sphere")
            in_order = in_order and not (lex_leads(rows) < 0).any()
        arr = arr.view() if in_order else arr[np.lexsort(arr.T[::-1])]
        arr.flags.writeable = False
        self.rows = arr

    @cached_property
    def points(self) -> tuple[Point, ...]:
        out: list[Point] = []
        for start in range(0, len(self.rows), _CHUNK_ROWS):
            out.extend(map(tuple, self.rows[start:start + _CHUNK_ROWS].tolist()))
        return tuple(out)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.points)

    def point_string_chunks(self) -> Iterator[list[str]]:
        """The points as comma-joined entries, the way reports print them,
        one list per chunk of 4,096 rows (one empty list for an empty set),
        so that no list of every string is built.  Each chunk is written as
        uint8 text, every entry right-aligned in a field of len(str(k))
        bytes and followed by a comma (a newline after a row's last entry);
        the padding is dropped, and the bytes are decoded and split into
        lines once per chunk."""
        width = len(str(self.k))
        narrow = np.min_scalar_type(self.k)  # every entry and 10^place fit
        for start in range(0, len(self.rows) or 1, _CHUNK_ROWS):
            rows = self.rows[start:start + _CHUNK_ROWS].astype(narrow, copy=False)
            text = np.zeros(rows.shape + (width + 1,), dtype=np.uint8)  # 0: padding
            text[:, :, width] = ord(",")
            text[:, -1, width] = ord("\n")
            for place in range(width):
                power = 10 ** place
                digit = (rows // power % 10 + ord("0")).astype(np.uint8)
                if place:
                    digit[rows < power] = 0
                text[:, :, width - 1 - place] = digit
            yield text[text != 0].tobytes().decode("ascii").splitlines()


def _census_bytes(n: int, k: int) -> int:
    """The census table's memory, estimated before anything is allocated:
    n k² + 1 classes, each a count below (k+1)^n held up to four times
    over (the two arrays of int64 limbs, then the Python int), plus about
    100 bytes for its int object, list slot and dict entry."""
    return (n * k * k + 1) * (4 * math.ceil(n * math.log2(k + 1) / 8) + 100)


def norm_class_counts(n: int, k: int) -> NormClassTable:
    """Exact counts of the squared norms over {0..k}^n, the two corners
    left out: the coefficients of P^n with P(x) = Σ_{v≤k} x^{v²}, by
    _power_recurrence when n >= min(8k, 96) and by _limb_convolution below.
    Measured, the recurrence overtakes the limbs at about n = 8.5k for
    k = 4, 9k for k = 5, 12k for k = 6, 11k for k = 10 and n = 108 for
    k = 12, then at n = 84-92 for k = 16 to 34, where the limbs' cost
    grows with the limb count; it is about 4× faster at n = 200, k = 10
    and 10× at n = 271, k = 34.  A census whose table _census_bytes puts
    past CENSUS_GUARD is refused before either method allocates anything.
    """
    return NormClassTable(n, k, {q: c for q, c in enumerate(_census(n, k)) if c > 0})


def _census(n: int, k: int) -> list[int]:
    """The counts of every squared norm 0 … n k², zeros included, the two
    corners left out; refused as norm_class_counts says."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    need = _census_bytes(n, k)
    if need > CENSUS_GUARD:
        raise GuardExceeded(f"a census of {n * k * k + 1} norm classes with counts below (k+1)^n "
                            f"needs about {need} bytes, past the census guard ({CENSUS_GUARD})")
    vals = _power_recurrence(n, k) if n >= min(8 * k, 96) else _limb_convolution(n, k)
    vals[0] -= 1
    vals[-1] -= 1
    return vals


def _power_recurrence(n: int, k: int) -> list[int]:
    """The coefficients q_0 … q_{n k²} of Q = P^n by J.C.P. Miller's
    recurrence.  P·Q' = n·P'·Q gives, coefficient by coefficient,
    m q_m = Σ_{v=1..k} ((n+1) v² - m) q_{m-v²} with q_0 = 1; it is summed
    as (n+1)·Σ v² q_{m-v²} - m·Σ q_{m-v²}, on Python ints, and every
    division by m is exact.
    """
    top = n * k * k
    squares = [v * v for v in range(1, k + 1)]
    q = [0] * (top + 1)
    q[0] = 1
    for m in range(1, top + 1):
        weighted = plain = 0
        for sq in squares:
            if sq > m:
                break
            c = q[m - sq]
            weighted += sq * c
            plain += c
        q[m] = ((n + 1) * weighted - m * plain) // m
    return q


def _limb_convolution(n: int, k: int) -> list[int]:
    """The coefficients of P^n by n-fold convolution of the one-coordinate
    squared values {0², 1², …, k²}.  The first two coordinates are one
    bincount of the (k+1)² pairwise sums; each further coordinate adds the
    k+1 shifted copies of the running census.  A count below (k+1)^i after
    i coordinates is held in int64 limbs of 62 - bit_length(k+1) bits, so
    k+1 of them add without overflow; only the limbs in use are touched,
    carries are propagated once per coordinate, and the Python integers
    are built once at the end.
    """
    kk = k * k
    bits = 62 - (k + 1).bit_length()
    mask = (1 << bits) - 1
    squares = np.arange(k + 1, dtype=np.int64) ** 2
    acc = np.zeros((-(-((k + 1) ** n).bit_length() // bits), n * kk + 1), dtype=np.int64)
    nxt = np.empty_like(acc)  # each step zeroes the part it writes
    # (k+1)² fits one limb for any k whose table could be allocated at all
    acc[0, :2 * kk + 1] = np.bincount((squares[:, None] + squares).ravel())
    top, used, reach = 2 * kk, 1, (k + 1) ** 2  # largest norm, limbs in use, (k+1)^i
    for _ in range(n - 2):
        reach *= k + 1
        grown = -(-reach.bit_length() // bits)
        width, span = top + 1, top + 1 + kk
        nxt[:grown, :span] = 0
        for sq in squares.tolist():
            nxt[:used, sq:sq + width] += acc[:used, :width]
        for j in range(grown - 1):
            nxt[j + 1, :span] += nxt[j, :span] >> bits
            nxt[j, :span] &= mask
        acc, nxt = nxt, acc
        used, top = grown, top + kk
    vals = acc[used - 1].tolist()
    for j in range(used - 2, -1, -1):
        vals = [hi << bits | lo for hi, lo in zip(vals, acc[j].tolist())]
    return vals


def pigeonhole_bound(n: int, k: int) -> Fraction:
    """(k+1)^n / (n k²): the size the largest norm class must reach."""
    return Fraction((k + 1) ** n, n * k * k)


def _materialize(n: int, k: int, target: int) -> np.ndarray:
    """The points of {0..k}^n with squared norm ``target``, the origin and
    the corner (k,…,k) left out, in lexicographic order, as rows of
    np.min_scalar_type(k).

    reach[i, s] says that i < n coordinates can have squares summing to
    s.  Coordinate by coordinate, each prefix keeps the values v whose
    remainder target - (prefix norm) - v² the coordinates after it can
    reach; np.nonzero over the (prefix, v) mask lists the extensions
    prefix by prefix and v ascending, so every level stays sorted and
    every prefix completes.  The prefixes are carried as whole rows of the
    narrow type, each level gathered from the one before with its column
    filled in, so no index arrays are kept from level to level; norms are
    int32 wherever n k² allows.
    """
    narrow = np.min_scalar_type(k)
    if not 0 < target < n * k * k:  # norm 0 and n k² hold only the two left-out corners
        return np.zeros((0, n), dtype=narrow)
    norms = np.int32 if n * k * k < 2**31 else np.int64  # every squared norm fits
    squares = np.arange(k + 1, dtype=norms) ** 2
    fitting = squares[squares <= target]
    reach = np.zeros((n, target + 1), dtype=bool)
    reach[0, 0] = True
    reach[1, fitting] = True
    for i in range(2, n):
        for sq in fitting.tolist():
            reach[i, sq:] |= reach[i - 1, :target + 1 - sq]
    rest = np.array([target], dtype=norms)  # squared norm still to place, per prefix
    pts = np.zeros((1, n), dtype=narrow)  # the prefixes, zero past their length
    for i in range(n):
        left = rest[:, None] - squares
        ok = left >= 0
        ok[ok] = reach[n - 1 - i, left[ok]]
        prefix, v = np.nonzero(ok)
        if len(prefix) != len(pts):  # else every prefix has its one extension: prefix is 0, 1, …
            pts = pts[prefix]
        pts[:, i] = v
        rest = left[prefix, v]
    return pts


def best_sphere_set(n: int, k: int, table: Optional[NormClassTable] = None) -> SphereSet:
    """Materialize the largest norm class (smallest norm on ties) by the
    reach-guided walk of _materialize: numpy work O(n k r²) for the reach
    table of squared radius r², then O(n · class size) for the points.
    The class is read off ``table``, the norm_class_counts(n, k) census,
    when the caller has it at hand; otherwise it is the first largest entry
    of a census list, with no table built.

    Enumeration is guarded at (k+1)^n <= 2^24; the counts themselves stay
    available through norm_class_counts for any size.
    """
    if power_exceeds(k + 1, n, MATERIALIZE_GUARD):
        raise GuardExceeded(f"(k+1)^n = {k + 1}^{n} points exceed the materialization guard "
                            f"({MATERIALIZE_GUARD}); norm_class_counts still works")
    if table is None:
        vals = _census(n, k)
        count = max(vals)
        radius_sq = vals.index(count)
    else:
        radius_sq, count = table.best()
    rows = _materialize(n, k, radius_sq)
    assert len(rows) == count, "materialized class disagrees with the census"
    return SphereSet(n, k, radius_sq, rows)


def check_modulus(p: int, k: int) -> None:
    """Refuse a modulus that cannot take {0,…,k} entrywise: p must exceed
    the box bound k and be prime."""
    if p <= k:
        raise ValueError(f"p={p} must exceed the box bound k={k}")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")


def embed_mod_p(y: SphereSet, p: int) -> PointSet:
    """Entrywise inclusion {0,…,k} ⊂ F_p (requires a prime p > k, so the
    entries are already reduced and the points keep their order)."""
    check_modulus(p, y.k)
    return PointSet(p, y.n, y.points)


def verify_construction(s: ZSystem, y: Union[SphereSet, Iterable[Point]], guard: int = 10**8) -> bool:
    """Every integer solution of s with entries drawn from y (a SphereSet or
    any collection of integer points) is constant; the work is bounded by
    (#points)^(free positions) <= guard.  Checked mod the least prime P above
    max(2, largest row Σ|a_i|)·max(1, largest |entry|): a row's value at a
    tuple from y lies strictly between -P and P, so it vanishes mod P only
    when it vanishes, and distinct points stay distinct mod P."""
    points = list(y.points if isinstance(y, SphereSet) else (tuple(pt) for pt in y))
    if not points:
        return True
    rows = s.rows
    bound = max([2, *(sum(map(abs, row)) for row in rows)]) * max([1, *(abs(c) for pt in points for c in pt)])
    prime = next(q for q in itertools.count(bound + 1) if is_prime(q))
    cols = [[tuple(c % prime for c in pt) for pt in points]] * s.r
    return all(len(set(sol)) == 1 for sol in iter_solutions(rows, cols, prime, guard=guard))


def sphere_set_checks(s: ZSystem, y: Union[SphereSet, Iterable[Point]], p: int) -> tuple[bool, bool]:
    """Two verdicts from one enumeration of the solutions mod p within y, a
    SphereSet or any collection of points with entries in [0, p) (p must be
    a prime above every entry, as for embed_mod_p): whether every integer
    solution of s there is constant (verify_construction's verdict), and
    whether y is strongly free for s mod p (is_strongly_free's).  Every
    entry lies in [0, p), so an integer solution is a solution mod p with
    the same entries: the integer solutions are the solutions mod p whose
    rows also vanish over Z.  Raises GuardExceeded as the enumeration does."""
    if isinstance(y, SphereSet):
        pts, top = y.rows, y.k
    else:
        pts = sorted({tuple(pt) for pt in y})  # _solution_table refuses entries below 0
        top = max((max(pt) for pt in pts), default=0)
    check_modulus(p, top)
    wide = max((sum(map(abs, row)) for row in s.rows), default=0) * top >= 2**63  # a row's value over Z
    values = None
    only_constant = free_mod_p = True
    for chunk in _solution_table(s.rows, [pts] * s.r, p):  # rows are reduced mod p there
        moving = chunk.compress((chunk != chunk[:, :1]).any(axis=1), axis=0)
        if not len(moving):
            continue
        free_mod_p = False
        if values is None:
            values = np.array(pts, dtype=object if wide else np.int64)
        exact = np.ones(len(moving), dtype=bool)
        for row in s.rows:
            value = sum(c * values.take(moving[:, i], axis=0) for i, c in enumerate(row) if c)
            exact &= ~(value != 0).any(axis=1)
        if exact.any():
            only_constant = False
            break  # both verdicts are false now
    return only_constant, free_mod_p
