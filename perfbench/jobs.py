"""The job lists of the three workloads.

A job is one ``linsys`` command line.  Each list is fixed except for the
seeded random systems of ``certify`` and ``lower``; the same seed gives the
same list.  Random systems are written to files under the given directory,
because the CLI reads a system from a file or a built-in name.

Building a list does not import linsys: the systems of the jobs are kept
here as integer rows (see reference.BUILTIN_ROWS) for the checks.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from reference import Rows, render, system_rows

BUILTINS = ("SW", "S3AP", "S4AP", "SP", "SPP", "S1", "S2", "S3", "STAR2", "STAR3", "STAR4")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]          # CLI arguments; "--format json" is appended
    rows: Rows                     # the system's integer rows, () for behrend
    fault: Optional[str] = None    # message of a known fault the job hits today

    @property
    def name(self) -> str:
        return " ".join(self.argv)

    def arg(self, flag: str) -> Optional[str]:
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return None

    def int_arg(self, flag: str) -> Optional[int]:
        value = self.arg(flag)
        return None if value is None else int(value)


def _builtin(sub: str, name: str, *rest: str, fault: Optional[str] = None) -> Job:
    return Job((sub, "--system", name) + rest, system_rows(name), fault)


# ---------------------------------------------------------------------------
# search: exact maxima; the cap set in F_3^3 is most of the pass

def search_jobs() -> list[Job]:
    jobs = []
    strong = [("S3AP", 3, 1), ("S3AP", 3, 2), ("S3AP", 3, 3), ("S3AP", 5, 2),
              ("S4AP", 3, 1), ("S4AP", 3, 2)]
    strong += [("S3AP", p, 1) for p in (5, 7, 11, 13, 17, 19, 23)]
    strong += [("S4AP", p, 1) for p in (5, 7, 11, 13, 17)]
    for name, p, n in strong:
        jobs.append(_builtin("search", name, "--p", str(p), "--n", str(n), "--kind", "strong"))
    weak = [("SW", 3, 2)] + [("SW", p, 1) for p in (3, 5, 7, 11, 13, 17)]
    for name, p, n in weak:
        jobs.append(_builtin("search", name, "--p", str(p), "--n", str(n), "--kind", "weak"))
    return jobs


# ---------------------------------------------------------------------------
# certify: bounds, greedy reductions, sphere sets and their checks

# (p, n) pairs for every built-in, all with p^n > 81 so that certify never
# starts an exact search
CERTIFY_PN = ((5, 3), (7, 3), (11, 2), (13, 2), (17, 2), (23, 2), (31, 2),
              (41, 2), (53, 2), (71, 2), (89, 2))
# left out: the primes where `upper` hits the rounding fault (kept in
# CERTIFY_FAULTS); STAR3/STAR4 above p = 31 and STAR4 at n = 3, whose sphere
# checks enumerate size^6 and size^8 tuples (see the FOUND lines in CHANGES.md)
CERTIFY_SKIP = {("S2", 5), ("S2", 11), ("S2", 13), ("S2", 71)} | {
    ("STAR3", p) for p in (41, 53, 71, 89)} | {("STAR4", p) for p in (5, 7, 41, 53, 71, 89)}
# upper bounds at p = 3 checked against the published cap-set sizes
CAP_SET_UPPER = tuple((name, 3, n) for name in ("S3AP", "S4AP") for n in (4, 5, 6))

# jobs that fail every time today because of the two known faults
CERTIFY_FAULTS = (
    _builtin("certify", "S2", "--p", "3", "--n", "5", fault="need p > b~ (p=3, b~=4)"),
    _builtin("upper", "S1", "--p", "19", "--n", "4", fault="alpha must be >= 0"),
    _builtin("upper", "S2", "--p", "5", "--n", "4", fault="alpha must be >= 0"),
)

CERTIFY_RANDOM = 16
LOWER_RANDOM = 16


def random_balanced(rng: random.Random) -> Rows:
    """A balanced system whose variables all share one multiplicity: one
    equation in 3-5 variables, or two equations on the same 3-5 variables.
    Coefficients lie in [-3, 3] and none is 0."""
    r = rng.randint(3, 5)
    first = _balanced_row(rng, r)
    if rng.random() < 0.5:
        return (first,)
    while True:
        second = _balanced_row(rng, r)
        # not proportional to the first row
        if any(a * d != b * c for (a, b), (c, d) in itertools.combinations(zip(first, second), 2)):
            return first, second


def _balanced_row(rng: random.Random, r: int) -> tuple[int, ...]:
    while True:
        row = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r - 1)]
        last = -sum(row)
        if last and abs(last) <= 3:
            return tuple(row + [last])


def random_dominant(rng: random.Random) -> Rows:
    """2-3 dominant equations in 4-5 variables: in each, one variable
    carries -b and 2-3 others carry positive coefficients summing to b <= 6.
    Every variable occurs."""
    r = rng.randint(4, 5)
    while True:
        rows = []
        for _ in range(rng.randint(2, 3)):
            support = rng.sample(range(r), rng.randint(3, 4))
            parts = [rng.randint(1, 2) for _ in support[1:]]
            row = [0] * r
            row[support[0]] = -sum(parts)
            for i, c in zip(support[1:], parts):
                row[i] = c
            rows.append(tuple(row))
        if all(any(row[i] for row in rows) for i in range(r)) and len(set(rows)) == len(rows):
            return tuple(rows)


def _random_job(sub: str, rows: Rows, path: Path, *rest: str) -> Job:
    return Job((sub, "--system", str(path)) + rest, rows)


def certify_jobs(seed: int, workdir: Path) -> list[Job]:
    jobs = []
    for name in BUILTINS:
        for p, n in CERTIFY_PN:
            if (name, p) not in CERTIFY_SKIP:
                jobs.append(_builtin("upper", name, "--p", str(p), "--n", str(n)))
                jobs.append(_builtin("certify", name, "--p", str(p), "--n", str(n)))
    for name, p, n in CAP_SET_UPPER:
        jobs.append(_builtin("upper", name, "--p", str(p), "--n", str(n)))
    jobs.extend(CERTIFY_FAULTS)
    rng = random.Random(f"certify-{seed}")
    for i in range(CERTIFY_RANDOM):
        rows = random_balanced(rng)
        # p > 6 >= any dominant coefficient, and p^2 > 81
        p = rng.choice((11, 13, 17, 19, 23))
        path = workdir / f"certify-{i}.lineq"
        path.write_text(render(rows))
        jobs.append(_random_job("upper", rows, path, "--p", str(p), "--n", "2"))
        jobs.append(_random_job("certify", rows, path, "--p", str(p), "--n", "2"))
    return jobs


# ---------------------------------------------------------------------------
# lower: exhaustive reductions, censuses and sphere sets

def lower_jobs(seed: int, workdir: Path) -> list[Job]:
    jobs = []
    for name in BUILTINS + ("STAR5", "STAR6", "STAR7"):
        jobs.append(_builtin("reduce", name, "--strategy", "exhaustive"))
    for name in BUILTINS:
        for p in (5, 7, 11):
            jobs.append(_builtin("lower-bound", name, "--p", str(p), "--strategy", "exhaustive"))
    for name, p in (("STAR5", 7), ("STAR6", 11)):
        jobs.append(_builtin("lower-bound", name, "--p", str(p), "--strategy", "exhaustive"))
    for n, k in ((200, 10), (40, 5)):
        jobs.append(Job(("behrend", "--n", str(n), "--k", str(k)), ()))
    for n, k, p in ((8, 4, 11), (10, 3, 7), (6, 6, 13)):
        jobs.append(Job(("behrend", "--n", str(n), "--k", str(k), "--materialize", "--p", str(p)), ()))
    rng = random.Random(f"lower-{seed}")
    for i in range(LOWER_RANDOM):
        rows = random_dominant(rng)
        # b~ <= 6 < p
        p = rng.choice((7, 11, 13))
        path = workdir / f"lower-{i}.lineq"
        path.write_text(render(rows))
        jobs.append(_random_job("reduce", rows, path, "--strategy", "exhaustive"))
        jobs.append(_random_job("lower-bound", rows, path, "--p", str(p), "--strategy", "exhaustive"))
    return jobs


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    if workload == "search":
        return search_jobs()
    if workload == "certify":
        return certify_jobs(seed, workdir)
    if workload == "lower":
        return lower_jobs(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
