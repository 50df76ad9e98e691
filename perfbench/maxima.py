"""Exact maxima of free sets by a brute-force search that shares no code with linsys.

Prints, as JSON, the maxima the search workload checks without a published
source: strongly S3AP- and S4AP-free sets in F_p (n = 1) and weakly
SW-free sets in F_p and F_3^2.  Run from the repository root:

    python3 perfbench/maxima.py > perfbench/maxima.json

It takes a few seconds.  Method: list every forbidden configuration (the
point set of each solution the kind forbids: non-constant for strong,
pairwise distinct for weak), keep the inclusion-minimal ones as bitmasks,
and find the largest set of points containing none of them by branch and
bound over the points in order.
"""
from __future__ import annotations

import itertools
import json
import sys

from reference import Rows, all_points, system_rows

CASES = (
    [("S3AP", "strong", p, 1) for p in (3, 5, 7, 11, 13, 17, 19, 23)]
    + [("S4AP", "strong", p, 1) for p in (3, 5, 7, 11, 13, 17)]
    + [("SW", "weak", p, 1) for p in (3, 5, 7, 11, 13, 17)]
    + [("SW", "weak", 3, 2)]
)


def forbidden_masks(rows: Rows, p: int, n: int, kind: str) -> list[int]:
    points = all_points(p, n)
    index = {pt: i for i, pt in enumerate(points)}
    r = len(rows[0])
    masks = set()
    for tup in itertools.product(points, repeat=r):
        distinct = set(tup)
        if kind == "strong" and len(distinct) == 1:
            continue
        if kind == "weak" and len(distinct) < r:
            continue
        if all(sum(c * x[d] for c, x in zip(row, tup)) % p == 0 for row in rows for d in range(n)):
            masks.add(sum(1 << index[pt] for pt in distinct))
    return [m for m in masks if not any(o != m and o & m == o for o in masks)]


def maximum(size: int, masks: list[int]) -> int:
    # masks by their highest point: adding point i can only complete those
    by_top: list[list[int]] = [[] for _ in range(size)]
    for m in masks:
        by_top[m.bit_length() - 1].append(m)
    best = 0

    def grow(i: int, chosen: int, count: int) -> None:
        nonlocal best
        if count + (size - i) <= best:
            return
        if i == size:
            best = count
            return
        with_i = chosen | (1 << i)
        if all(m & with_i != m for m in by_top[i]):
            grow(i + 1, with_i, count + 1)
        grow(i + 1, chosen, count)

    grow(0, 0, 0)
    return best


def main() -> None:
    out = []
    for system, kind, p, n in CASES:
        rows = tuple(tuple(c % p for c in row) for row in system_rows(system))
        value = maximum(p**n, forbidden_masks(rows, p, n, kind))
        out.append({"system": system, "kind": kind, "p": p, "n": n, "value": value})
        print(f"{system} {kind} p={p} n={n}: {value}", file=sys.stderr)
    json.dump(out, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
