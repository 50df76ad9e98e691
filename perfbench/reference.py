"""Reference computations made apart from linsys, used to check its reports.

Nothing here imports linsys.  Each function recomputes a quantity the
program reports, by a method chosen to differ from the program's own:

- freeness by brute force over all r-tuples, where the program
  back-substitutes one variable per equation;
- norm-class censuses as one exact big-number power (Kronecker
  substitution in `decimal`, whose multiplication is a number-theoretic
  transform), where the program convolves dictionaries;
- Lambda_{m,alpha,h} on a dense, repeatedly refined numpy grid with the
  geometric sum taken term by term, where the program scans the closed
  form and then runs golden-section search;
- dominant reductions on sets of atoms, with the best (b~, steps) found by
  a memoised search per threshold, where the program runs a plain
  depth-first search over indexed systems.
"""
from __future__ import annotations

import decimal
import itertools
import math
import re
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

Point = tuple[int, ...]
Rows = tuple[tuple[int, ...], ...]

# The built-in systems, as integer rows (x1 is column 0).
BUILTIN_ROWS: dict[str, Rows] = {
    "SW": ((1, -1, -1, 1, 0), (1, 0, -2, 0, 1)),
    "S4AP": ((1, -2, 1, 0), (0, 1, -2, 1)),
    "S3AP": ((1, -2, 1),),
    "SP": ((1, -1, -1, 1),),
    "SPP": ((1, -1, -1, 1, 0), (0, 1, -1, -1, 1)),
    "S1": (
        (1, 1, -1, -1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 1, -2, 0, 0),
        (0, 0, 0, 0, 1, 0, 1, 1, -3),
        (0, 0, 0, 1, -2, 0, 0, 1, 0),
    ),
    "S2": (
        (1, 1, 1, 1, -4, 0, 0),
        (1, 1, 0, 0, -1, -1, 0),
        (1, 0, 0, 0, 0, -2, 1),
    ),
    "S3": (
        (1, -1, -1, 1, 0, 0),
        (0, 1, -1, -1, 1, 0),
        (1, -2, 0, 0, 0, 1),
    ),
}


def star_rows(k: int) -> Rows:
    """STARk: k three-term progressions x_{2i-1} + x_{2i} = 2 x_{2k+1}."""
    r = 2 * k + 1
    rows = []
    for i in range(k):
        row = [0] * r
        row[2 * i] = row[2 * i + 1] = 1
        row[-1] = -2
        rows.append(tuple(row))
    return tuple(rows)


def system_rows(name: str) -> Rows:
    if name.upper().startswith("STAR"):
        return star_rows(int(name[4:]))
    return BUILTIN_ROWS[name.upper()]


def render(rows: Rows) -> str:
    """The system in the input format the CLI reads."""
    lines = []
    for row in rows:
        terms = []
        for i, c in enumerate(row):
            if c:
                mag = "" if abs(c) == 1 else str(abs(c))
                terms.append(("- " if c < 0 else "+ ") + f"{mag}x{i + 1}")
        lines.append(" ".join(terms).lstrip("+ ") + " = 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parsing the systems printed in reports

_TOKEN = re.compile(r"^(\d*)(x\d+|x_\{\d+(?:_\d+)*\})$")


def atoms(name: str) -> tuple[int, ...]:
    """x3 -> (3,), x_{1_2_6} -> (1, 2, 6)."""
    if name.startswith("x_{"):
        return tuple(int(a) for a in name[3:-1].split("_"))
    return (int(name[1:]),)


def parse_rendered(text: str) -> list[dict[tuple[int, ...], int]]:
    """Equations printed by the program, each as {atoms of a variable: coefficient}."""
    eqs = []
    for line in text.splitlines():
        lhs, rhs = line.split("=")
        if rhs.strip() != "0":
            raise ValueError(f"right-hand side is not 0: {line!r}")
        tokens = lhs.replace("- ", "-").replace("+ ", "+").split()
        eq: dict[tuple[int, ...], int] = {}
        for tok in tokens:
            sign = -1 if tok[0] == "-" else 1
            m = _TOKEN.match(tok.lstrip("+-"))
            if m is None:
                raise ValueError(f"bad term {tok!r} in {line!r}")
            coef = sign * int(m.group(1) or 1)
            key = atoms(m.group(2))
            eq[key] = eq.get(key, 0) + coef
        eqs.append({k: c for k, c in eq.items() if c})
    return eqs


# ---------------------------------------------------------------------------
# hypergraph parameters

def parameters(rows: Rows) -> tuple[int, int, int, int]:
    """(r1, r2, L, m_max) from the supports of the rows."""
    mult = multiplicities(rows)
    r1 = sum(1 for m in mult if m == 1)
    r2 = sum(1 for m in mult if m >= 2)
    return r1, r2, len(rows), max(mult)


def multiplicities(rows: Rows) -> list[int]:
    """Per variable, the number of rows it occurs in."""
    return [sum(1 for row in rows if row[i]) for i in range(len(rows[0]))]


def irreducible(rows: Rows) -> bool:
    """Every variable occurs and the supports connect all of them."""
    r = len(rows[0])
    supports = [{i for i, c in enumerate(row) if c} for row in rows]
    if set().union(*supports) != set(range(r)):
        return False
    reached = set(supports[0])
    grew = True
    while grew:
        grew = False
        for sup in supports:
            if sup & reached and not sup <= reached:
                reached |= sup
                grew = True
    return len(reached) == r


def star_holds(r1: int, r2: int, L: int) -> bool:
    return r1 / 2 + r2 / math.e > L


def mod_rows(rows: Rows, p: int) -> Rows:
    return tuple(tuple(c % p for c in row) for row in rows)


# ---------------------------------------------------------------------------
# brute-force freeness

def offending_tuple(rows: Rows, p: int, points: Sequence[Point], kind: str,
                    must: Optional[Point] = None) -> Optional[tuple[Point, ...]]:
    """An r-tuple over ``points`` that solves every row mod p and that the
    kind forbids (strong: not constant; weak: pairwise distinct), or None.
    With ``must`` only tuples containing that point are tried."""
    r = len(rows[0])
    dims = range(len(points[0]))
    for tup in itertools.product(points, repeat=r):
        if must is not None and must not in tup:
            continue
        if kind == "strong":
            if all(x == tup[0] for x in tup):
                continue
        elif len(set(tup)) < r:
            continue
        if all(sum(c * x[d] for c, x in zip(row, tup)) % p == 0 for row in rows for d in dims):
            return tup
    return None


def all_points(p: int, n: int) -> list[Point]:
    return list(itertools.product(range(p), repeat=n))


# ---------------------------------------------------------------------------
# sphere censuses

def census(n: int, k: int) -> dict[int, int]:
    """Exact counts of squared norms in {0..k}^n minus the two corners.

    (sum_v z^(v^2))^n is evaluated at z = 10^D with D digits more than any
    count can have, so the decimal digits of the power, read in blocks of D,
    are the coefficients.
    """
    width = len(str((k + 1) ** n)) + 1
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow])
    with decimal.localcontext(ctx):
        base = decimal.Decimal(0)
        for v in range(k + 1):
            base += decimal.Decimal(10) ** (width * v * v)
        power = base ** n
    digits = format(power, "f")
    end = len(digits)
    counts = {}
    for q in range(n * k * k + 1):
        block = digits[max(0, end - width * (q + 1)):end - width * q]
        if block and int(block):
            counts[q] = int(block)
    counts[0] -= 1
    counts[n * k * k] -= 1
    return {q: c for q, c in counts.items() if c}


def best_class(counts: dict[int, int]) -> tuple[int, int]:
    """(squared norm, count) of the largest class, smallest norm on ties."""
    q = min(counts, key=lambda q: (-counts[q], q))
    return q, counts[q]


# ---------------------------------------------------------------------------
# Lambda and c~ on a dense grid

def _log_g(m: int, alpha: float, h: int, ts: np.ndarray) -> np.ndarray:
    """log G at u = exp(-t), the geometric sum taken term by term."""
    js = np.arange(m * h + 1, dtype=float)
    return alpha * h * ts + np.log(np.exp(-np.outer(ts, js)).sum(axis=1))


@lru_cache(maxsize=None)
def lambda_dense(m: int, alpha: float, h: int) -> float:
    """min over u in (0,1] of G_{m,alpha,h}(u) = u^(-alpha h) sum_{j<=mh} u^j;
    1 when alpha = 0, where the infimum is approached as u -> 0."""
    if alpha == 0:
        return 1.0
    hi = 4.0 * math.log(2.0 + 1.0 / (alpha * h)) + 4.0
    lo = 0.0
    for points in (1001, 201, 201, 201, 201):
        ts = np.linspace(lo, hi, points)
        vals = _log_g(m, alpha, h, ts)
        i = int(np.argmin(vals))
        step = ts[1] - ts[0]
        lo, hi = max(0.0, ts[i] - 2 * step), ts[i] + 2 * step
    return math.exp(float(vals[i]))


def ctilde_dense(r1: int, r2: int, L: int, m: int, d: int) -> float:
    """min of max(Lambda_{1,a,d-1}, Lambda_{m,b,d-1}) over r1 a + r2 b = L,
    found where the nondecreasing first branch crosses the nonincreasing
    second one."""
    h = d - 1
    if r2 == 0:
        return lambda_dense(1, L / r1, h)
    if r1 == 0:
        return lambda_dense(m, L / r2, h)

    def branches(a: float) -> tuple[float, float]:
        return lambda_dense(1, a, h), lambda_dense(m, (L - r1 * a) / r2, h)

    lo, hi = 0.0, L / r1
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        f1, f2 = branches(mid)
        if f1 < f2:
            lo = mid
        else:
            hi = mid
    return min(max(branches(a)) for a in (lo, hi))


# ---------------------------------------------------------------------------
# dominant reductions

# A system state: the variables, each a frozenset of original indices, and
# the rows over them.
State = tuple[tuple[frozenset, ...], Rows]


def initial_state(rows: Rows) -> State:
    return tuple(frozenset({i + 1}) for i in range(len(rows[0]))), tuple(rows)


def dominant_coefficient(row: Sequence[int]) -> Optional[int]:
    """The lone coefficient of a balanced row whose one side holds a single
    variable (its positive part), or None."""
    pos = [c for c in row if c > 0]
    neg = [c for c in row if c < 0]
    if len(pos) == 1 or len(neg) == 1:
        return sum(pos)
    return None


def is_terminal(state: State) -> bool:
    variables, rows = state
    return len(variables) == 1 and not rows


def contract(state: State, subset: Sequence[int]) -> State:
    """Merge each connected component of the variables of the equations in
    ``subset`` (0-based) into one variable and drop rows that vanish."""
    variables, rows = state
    group = list(range(len(variables)))

    def root(i: int) -> int:
        while group[i] != i:
            i = group[i]
        return i

    for e in subset:
        sup = [i for i, c in enumerate(rows[e]) if c]
        for i in sup[1:]:
            a, b = root(sup[0]), root(i)
            if a != b:
                group[max(a, b)] = min(a, b)
    roots = sorted({root(i) for i in range(len(variables))})
    where = {g: j for j, g in enumerate(roots)}
    merged = [frozenset()] * len(roots)
    for i, v in enumerate(variables):
        merged[where[root(i)]] = merged[where[root(i)]] | v
    new_rows = []
    for row in rows:
        out = [0] * len(roots)
        for i, c in enumerate(row):
            out[where[root(i)]] += c
        if any(out):
            new_rows.append(tuple(out))
    return tuple(merged), tuple(new_rows)


def canonical(state: State) -> tuple:
    """Order-free form: the variables and the multiset of equations, each
    equation as the set of (variable, coefficient) pairs."""
    variables, rows = state
    eqs = sorted(tuple(sorted((tuple(sorted(v)), c) for v, c in zip(variables, row) if c))
                 for row in rows)
    return tuple(sorted(tuple(sorted(v)) for v in variables)), tuple(eqs)


def greedy(rows: Rows) -> Optional[tuple[int, int]]:
    """(b~, steps) when every dominant equation is contracted at once at
    each step; None when that gets stuck before the terminal system."""
    state = initial_state(rows)
    b, steps = 1, 0
    while not is_terminal(state):
        dom = [i for i, row in enumerate(state[1]) if dominant_coefficient(row) is not None]
        if not dom:
            return None
        b = max([b] + [dominant_coefficient(state[1][i]) for i in dom])
        state = contract(state, dom)
        steps += 1
    return b, steps


def optimum(rows: Rows) -> Optional[tuple[int, int]]:
    """Least (b~, steps) over all reduction sequences, or None when no
    sequence reaches one variable and no equations.

    b~ is the least bound B for which some sequence uses only dominant
    coefficients <= B; merging never raises a row's positive part, so B
    runs up to the largest positive part of an input row.
    """
    memo: dict = {}

    def fewest(state: State, bound: int) -> float:
        key = (canonical(state), bound)
        if key not in memo:
            best = 0 if is_terminal(state) else math.inf
            dom = [i for i, row in enumerate(state[1])
                   if (c := dominant_coefficient(row)) is not None and c <= bound]
            for size in range(1, len(dom) + 1):
                for subset in itertools.combinations(dom, size):
                    best = min(best, 1 + fewest(contract(state, subset), bound))
            memo[key] = best
        return memo[key]

    start = initial_state(rows)
    for bound in range(1, max(sum(c for c in row if c > 0) for row in rows) + 1):
        steps = fewest(start, bound)
        if steps < math.inf:
            return bound, int(steps)
    return None
