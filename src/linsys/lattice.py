"""Sphere sets inside the integer box {0,…,k}^n.

The census of squared norms is the coefficient list of P^n, where
P(x) = Σ_{v≤k} x^{v²}: norm_class_counts returns it as that list of
n k² + 1 counts, zeros included, so the largest norm class, its first
largest entry, can be located exactly even when the box itself is far
too big to enumerate.  Two exact methods compute it, chosen by the
input size.  Below n = min(8k, 96) it is a coordinate-by-coordinate
convolution: the counts reach (k+1)^n, so they are held in int64 limbs,
each as wide as the sum of k+1 of them allows, with carries propagated
once per coordinate.  From there on it is J.C.P. Miller's recurrence for
the powers of a polynomial (Knuth, TAOCP vol. 2, §4.7): n k³ steps on
Python ints instead of n convolutions over limbs that grow with n.  The
two cost about the same at the switch.  Before either allocates
anything, the census's memory is estimated and a census past
CENSUS_GUARD bytes is refused.

Materialization is a separate, guarded step: a depth-first walk in numpy,
over blocks of prefixes, that extends only the prefixes whose remaining
squared norm the other coordinates can still reach, so it meets no dead
ends.  It writes the class in lexicographic order into one array of the
narrowest unsigned type that holds k, allocated at the census count, so
it holds little more than the class's rows; a fill that does not end at
that count is an error.  A SphereSet checks the rows once, a chunk at a
time, and keeps them; it builds the points as tuples only when they are
asked for.  json_chunks writes a sphere set's or a search witness's points
as reports print them, as JSON text built in numpy a chunk at a time,
with no string per point.

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
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .arith import is_prime, power_exceeds
from .eqsys import ZSystem
from .errors import GuardExceeded
from .oracle import Point, PointSet, _solution_table, iter_solutions

MATERIALIZE_GUARD = 2**24
#: bytes a census may take, as _census_bytes estimates them
CENSUS_GUARD = 2**28
#: rows a SphereSet checks, or turns into tuples or JSON text, at a time
_CHUNK_ROWS = 4096
#: (prefix, value) pairs a step of _materialize's walk looks at, about
_BLOCK = 1 << 14


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


def json_chunks(rows: np.ndarray, top: int) -> Iterator[str]:
    """Integer rows with entries in [0, top] the way reports print points:
    the JSON text of a list of strings of comma-joined entries (json.dumps
    of that list, byte for byte), one text per chunk of 4,096 rows, "[]"
    for no rows.  A chunk is written into a uint8 array, one row of it per
    point: its quotes, its commas and each entry right-aligned in a field
    of len(str(top)) bytes, then ", "; the padding (zero bytes) is dropped,
    and the bytes are decoded once.  No string is built per point."""
    if not len(rows):
        yield "[]"
        return
    width = len(str(top))
    narrow = np.min_scalar_type(top)  # every entry and 10^place fit
    # a quote, n fields of width digit places each closed by a comma
    # (the last by a quote), then ", "
    size = rows.shape[1] * (width + 1) + 3
    template = np.zeros(size, dtype=np.uint8)  # 0: padding
    template[width + 1::width + 1] = ord(",")
    template[[0, -3]] = ord('"')
    template[-2:] = (ord(","), ord(" "))
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS].astype(narrow, copy=False)
        buf = np.empty(len(chunk) * size + 1, dtype=np.uint8)
        text = buf[1:].reshape(len(chunk), size)
        text[:] = template
        for place in range(width):  # top < 10: one place, no division
            high = chunk // 10 ** place if place else chunk
            digit = high % 10 + ord("0") if width > 1 else high + ord("0")
            if place:
                digit[high == 0] = 0  # padding ahead of a shorter entry
            text[:, width - place:-2:width + 1] = digit
        buf[0], buf[-2] = ord("["), ord("]")  # the last row's ", " becomes "]"
        buf = buf[:-1]
        yield str(buf[buf != 0].data if width > 1 else buf.data, "ascii")


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


def _census_bytes(n: int, k: int) -> int:
    """The census's memory, estimated before anything is allocated, for
    the method norm_class_counts chooses.  The recurrence is counted as up
    to four copies of each count's bytes plus 100 bytes, per class of the
    n k² + 1.  The limbs are counted at the most they hold at once: their
    two int64 arrays of all the limbs a count needs; or one array while
    its limbs become Python ints, together with the list tolist makes of
    a single limb, or with the three lists of a join of several (the high
    part of each count, the next limb, the longer ints they make).  The
    int objects of a join are all counted, since the allocator keeps the
    memory of those it frees.  Only C(n+k, k) classes can be nonempty,
    one per multiset of n values; an empty class's count is the shared
    zero.  Measured, whole behrend runs at the edges this admits peak at
    186-286 MiB of RSS, the interpreter's 30 MiB included."""
    classes = n * k * k + 1
    if _by_recurrence(n, k):
        return classes * (4 * math.ceil(n * math.log2(k + 1) / 8) + 100)
    nonempty = min(classes, math.comb(n + k, k))
    bits = ((k + 1) ** n).bit_length()
    limbs = -(-bits // _limb_bits(k))
    if limbs == 1:
        lists, ints = 1, _int_bytes(bits)
    else:
        lists, ints = 3, 2 * _int_bytes(bits) + _int_bytes(_limb_bits(k))
    return max(16 * limbs * classes, 8 * (limbs + lists) * classes + ints * nonempty)


def _int_bytes(bits: int) -> int:
    """The memory of a Python int of ``bits`` bits: 24 bytes and 4 per 30
    bits, in blocks of 16."""
    return 16 * -(-(24 + 4 * -(-bits // 30)) // 16)


def _by_recurrence(n: int, k: int) -> bool:
    """Whether norm_class_counts takes the recurrence rather than the limbs."""
    return n >= min(8 * k, 96)


def _limb_bits(k: int) -> int:
    """Bits per int64 limb, so that k+1 limbs add without overflow."""
    return 62 - (k + 1).bit_length()


def norm_class_counts(n: int, k: int) -> list[int]:
    """The counts of every squared norm 0 … n k² over {0..k}^n, zeros
    included, the two corners left out: the coefficients of P^n with
    P(x) = Σ_{v≤k} x^{v²}, by _power_recurrence when n >= min(8k, 96) and
    by _limb_convolution below.  Measured, the recurrence overtakes the
    limbs at about n = 6.5k for k = 4, 8k for k = 5, 9k for k = 6 and 8.5k
    for k = 10, then at n = 86 for k = 12 and 16 and n = 66-74 for k = 24
    and 34, where the limbs' cost grows with the limb count; it is about
    5× faster at n = 200, k = 10 and 12× at n = 271, k = 34.  A census
    whose memory _census_bytes puts past CENSUS_GUARD is refused before
    either method allocates anything.
    """
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    need = _census_bytes(n, k)
    if need > CENSUS_GUARD:
        raise GuardExceeded(f"a census of {n * k * k + 1} norm classes with counts below (k+1)^n "
                            f"needs about {need} bytes, past the census guard ({CENSUS_GUARD})")
    vals = _power_recurrence(n, k) if _by_recurrence(n, k) else _limb_convolution(n, k)
    vals[0] -= 1
    vals[-1] -= 1
    return vals


def _power_recurrence(n: int, k: int) -> list[int]:
    """The coefficients q_0 … q_{n k²} of Q = P^n by J.C.P. Miller's
    recurrence.  P·Q' = n·P'·Q gives, coefficient by coefficient,
    m q_m = Σ_{v=1..k} ((n+1) v² - m) q_{m-v²} with q_0 = 1; it is summed
    term by term into one Python int, a product and an add a term, with
    the weights (n+1) v² computed once, and every division by m is exact.
    The list starts with k² zeros, the q_m of m < 0, so that a term with
    v² > m reads 0 and needs no bound test; they are dropped at the end.
    """
    kk = k * k
    terms = [(kk - v * v, (n + 1) * v * v) for v in range(1, k + 1)]
    q = [0] * kk + [1] + [0] * (n * kk)
    for m in range(1, n * kk + 1):
        acc = 0
        for back, weight in terms:  # q[m + back] is q_{m - v²}
            acc += (weight - m) * q[m + back]
        q[kk + m] = acc // m
    del q[:kk]
    return q


def _limb_convolution(n: int, k: int) -> list[int]:
    """The coefficients of P^n by n-fold convolution of the one-coordinate
    squared values {0², 1², …, k²}.  The first two coordinates are one
    bincount of the (k+1)² pairwise sums; each further coordinate adds the
    k+1 shifted copies of the running census.  A count below (k+1)^i after
    i coordinates is held in int64 limbs of 62 - bit_length(k+1) bits, so
    k+1 of them add without overflow; only the limbs in use are touched,
    carries are propagated once per coordinate, and the Python integers
    are built once at the end, after the second array is freed (n = 2
    needs none: its census is the bincount).
    """
    kk = k * k
    bits = _limb_bits(k)
    mask = (1 << bits) - 1
    squares = np.arange(k + 1, dtype=np.int64) ** 2
    limbs = -(-((k + 1) ** n).bit_length() // bits)
    # (k+1)² fits one limb for any k whose census could be allocated at all
    pairs = np.bincount((squares[:, None] + squares).ravel(), minlength=n * kk + 1)
    acc = np.zeros((limbs, pairs.size), dtype=np.int64)
    acc[0] = pairs
    del pairs
    nxt = np.empty_like(acc) if n > 2 else None  # each step zeroes the part it writes
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
    del nxt
    vals = acc[used - 1].tolist()
    for j in range(used - 2, -1, -1):
        vals = [hi << bits | lo for hi, lo in zip(vals, acc[j].tolist())]
    return vals


def pigeonhole_bound(n: int, k: int) -> Fraction:
    """(k+1)^n / (n k²): the size the largest norm class must reach."""
    return Fraction((k + 1) ** n, n * k * k)


def _materialize(n: int, k: int, target: int, count: int) -> np.ndarray:
    """The ``count`` points of {0..k}^n with squared norm ``target``, the
    origin and the corner (k,…,k) left out, in lexicographic order, as rows
    of np.min_scalar_type(k); raises RuntimeError when the class does not
    fill exactly ``count`` rows.

    reach[i, k² + s] says that i < n coordinates can have squares summing
    to s; its first k² columns, for s < 0, are False.  Coordinate by
    coordinate, each prefix keeps the values v whose remainder
    target - (prefix norm) - v² the coordinates after it can reach: one
    gather from a row of reach at k² plus the remainder, never negative.
    The extensions are listed prefix by prefix and v ascending, so every
    prefix completes and the order is kept.  The walk is depth first over
    blocks of _BLOCK // (k+1) prefixes (at least one), carried as whole
    rows of the narrow type with k² plus their remainders (int32 wherever
    n k² allows): the rest of a block waits on a stack while its first part
    goes on, and a block that has every coordinate is copied to the next
    free rows of the output, allocated at ``count`` rows up front.  So the
    memory is the rows plus about one block per coordinate.
    """
    narrow = np.min_scalar_type(k)
    out = np.empty((count, n), dtype=narrow)
    filled = 0
    if 0 < target < n * k * k:  # norm 0 and n k² hold only the two left-out corners
        norms = np.int32 if n * k * k < 2**31 else np.int64  # every squared norm fits
        squares = np.arange(k + 1, dtype=norms) ** 2
        fitting = squares[squares <= target]
        kk = k * k
        reach = np.zeros((n, kk + target + 1), dtype=bool)
        reach[0, kk] = True
        reach[1, kk + fitting] = True
        for i in range(2, n):
            for sq in fitting.tolist():
                reach[i, kk + sq:] |= reach[i - 1, kk:kk + target + 1 - sq]
        step = max(1, _BLOCK // (k + 1))
        stack = [(np.zeros((1, n), dtype=narrow), np.array([kk + target], dtype=norms), 0)]
        while stack:
            pts, rest, i = stack.pop()  # prefixes of length i, zero past it
            for i in range(i, n):
                if len(pts) > step:  # the rest waits at this coordinate, after this block
                    stack.append((pts[step:], rest[step:], i))
                    pts, rest = pts[:step], rest[:step]
                left = (rest[:, None] - squares).ravel()
                at = reach[n - 1 - i].take(left).nonzero()[0]  # prefix * (k+1) + v
                if len(at) != len(pts):  # else every prefix has its one extension
                    pts = pts.take(at // (k + 1), axis=0)
                pts[:, i] = at % (k + 1)
                rest = left.take(at)
            if filled + len(pts) <= count:
                out[filled:filled + len(pts)] = pts
            filled += len(pts)
    if filled != count:
        raise RuntimeError(f"the class of squared norm {target} in {{0..{k}}}^{n} has {filled} points, "
                           f"but the census counts {count}")
    return out


def best_sphere_set(n: int, k: int, counts: Optional[list[int]] = None) -> SphereSet:
    """Materialize the largest norm class (smallest norm on ties) by the
    reach-guided walk of _materialize: numpy work O(n k r²) for the reach
    table of squared radius r², then O(n · class size) for the points.
    The class is the first largest entry of ``counts``, the
    norm_class_counts(n, k) census, taken here when the caller does not
    have it at hand.

    Enumeration is guarded at (k+1)^n <= 2^24, before any census; the
    counts themselves stay available through norm_class_counts for any
    size.  The rows are allocated at the census count, and a walk that
    does not fill exactly that many raises RuntimeError.
    """
    if power_exceeds(k + 1, n, MATERIALIZE_GUARD):
        raise GuardExceeded(f"(k+1)^n = {k + 1}^{n} points exceed the materialization guard "
                            f"({MATERIALIZE_GUARD}); norm_class_counts still works")
    if counts is None:
        counts = norm_class_counts(n, k)
    count = max(counts)
    radius_sq = counts.index(count)
    return SphereSet(n, k, radius_sq, _materialize(n, k, radius_sq, count))


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


def verify_construction(s: ZSystem, y: Union[SphereSet, Iterable[Point]]) -> bool:
    """Every integer solution of s with entries drawn from y (a SphereSet or
    any collection of integer points) is constant; the work is bounded by
    (#points)^(free positions) <= ENUMERATION_GUARD.  Checked mod the least
    prime P above max(2, largest row Σ|a_i|)·max(1, largest |entry|): a
    row's value at a tuple from y lies strictly between -P and P, so it
    vanishes mod P only when it vanishes, and distinct points stay distinct
    mod P."""
    points = list(y.points if isinstance(y, SphereSet) else (tuple(pt) for pt in y))
    if not points:
        return True
    rows = s.rows
    bound = max([2, *(sum(map(abs, row)) for row in rows)]) * max([1, *(abs(c) for pt in points for c in pt)])
    prime = next(q for q in itertools.count(bound + 1) if is_prime(q))
    cols = [[tuple(c % prime for c in pt) for pt in points]] * s.r
    return all(len(set(sol)) == 1 for sol in iter_solutions(rows, cols, prime))


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
