"""Sphere sets inside the integer box {0,…,k}^n.

Counting is a coordinate-by-coordinate convolution over the squared-norm
distribution, so the largest norm class can be located exactly even when
the box itself is far too big to enumerate.  Materialization is a
separate, guarded step: a lexicographic depth-first walk that prunes on
the achievable squared-norm range of the remaining coordinates.

On a sphere no integer solutions of a dominant equation exist except the
constant ones (strict convexity of the Euclidean norm), which is what
verify_construction checks by brute force, and entrywise inclusion into
F_p^n preserves solutions both ways once p exceeds the box bound times
the largest step coefficient's reach (k = floor((p-1)/b)).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

import numpy as np

from .eqsys import ZSystem
from .errors import GuardExceeded
from .oracle import Point, PointSet, iter_solutions

MATERIALIZE_GUARD = 2**24


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
        best_norm = min(self.counts, key=lambda q: (-self.counts[q], q))
        return best_norm, self.counts[best_norm]


@dataclass(frozen=True)
class SphereSet:
    n: int
    k: int
    radius_sq: int
    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        pts = tuple(sorted(tuple(pt) for pt in self.points))
        object.__setattr__(self, "points", pts)
        for pt in pts:
            if len(pt) != self.n or any(c < 0 or c > self.k for c in pt):
                raise ValueError("points must lie in the box")
            if sum(c * c for c in pt) != self.radius_sq:
                raise ValueError("point off the sphere")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def norm_class_counts(n: int, k: int) -> NormClassTable:
    """Exact counts by n-fold convolution of the one-coordinate squared
    values {0², 1², …, k²}: each coordinate adds the k+1 shifted copies of
    the running census, held as Python integers in a numpy object array."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    acc = np.zeros(n * k * k + 1, dtype=object)
    acc[0] = 1
    top = 0  # largest squared norm reached so far
    for _ in range(n):
        nxt = np.zeros_like(acc)
        for v in range(k + 1):
            nxt[v * v:v * v + top + 1] += acc[:top + 1]
        acc = nxt
        top += k * k
    acc[0] -= 1
    acc[top] -= 1
    counts = {q: c for q, c in enumerate(acc.tolist()) if c > 0}
    return NormClassTable(n, k, counts)


def pigeonhole_bound(n: int, k: int) -> Fraction:
    """(k+1)^n / (n k²): the size the largest norm class must reach."""
    return Fraction((k + 1) ** n, n * k * k)


def _materialize(n: int, k: int, target: int) -> tuple[Point, ...]:
    out: list[Point] = []
    prefix: list[int] = []

    def rec(i: int, remaining: int) -> None:
        if i == n:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        room = (n - i) * k * k
        if remaining < 0 or remaining > room:
            return
        for v in range(k + 1):
            prefix.append(v)
            rec(i + 1, remaining - v * v)
            prefix.pop()

    rec(0, target)
    corner = (k,) * n
    return tuple(pt for pt in out if pt != corner and any(pt))


def best_sphere_set(n: int, k: int) -> SphereSet:
    """Materialize the largest norm class (smallest norm on ties).

    Enumeration is guarded at (k+1)^n <= 2^24; the counts themselves stay
    available through norm_class_counts for any size.
    """
    if (k + 1) ** n > MATERIALIZE_GUARD:
        raise GuardExceeded(f"(k+1)^n = {(k + 1) ** n} points exceed the materialization guard "
                            f"({MATERIALIZE_GUARD}); norm_class_counts still works")
    table = norm_class_counts(n, k)
    radius_sq, count = table.best()
    points = _materialize(n, k, radius_sq)
    assert len(points) == count, "materialized class disagrees with the DP census"
    return SphereSet(n, k, radius_sq, points)


def embed_mod_p(y: SphereSet, p: int) -> PointSet:
    """Entrywise inclusion {0,…,k} ⊂ F_p (requires p > k, so entries are
    already reduced)."""
    if p <= y.k:
        raise ValueError(f"p={p} must exceed the box bound k={y.k}")
    return PointSet(p, y.n, y.points)


def verify_construction(s: ZSystem, y: Union[SphereSet, Iterable[Point]], guard: int = 10**8) -> bool:
    """Every integer solution of s with entries drawn from y is constant.

    Accepts a SphereSet or any plain collection of integer points; the
    work is bounded by (#points)^(free positions) <= guard.
    """
    points = list(y.points if isinstance(y, SphereSet) else (tuple(pt) for pt in y))
    if not points:
        return True
    cols = [points] * s.r
    for sol in iter_solutions(s.coefficient_rows(), cols, None, guard=guard):
        if any(pt != sol[0] for pt in sol):
            return False
    return True


def smallest_valid_dimension(k: int, epsilon: Union[float, Fraction], limit: int = 10**6) -> int:
    """Smallest n >= 2 with (k+1)^n/(n k²) >= ((1-ε)(k+1))^n, i.e. where
    the sphere-set size bound beats the plain exponential with base
    shrunk by ε.  Exact rational arithmetic; ε ∈ (0,1)."""
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must be in (0,1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    shrink = 1 - eps
    power = shrink * shrink  # (1-ε)^n for n = 2
    n = 2
    while power * n * k * k > 1:
        n += 1
        power *= shrink
        if n > limit:
            raise GuardExceeded(f"no dimension up to {limit} satisfies the bound")
    return n
