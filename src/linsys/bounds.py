"""Slice-rank style upper bounds: the G envelope, its minimum, and blends.

Everything here reduces to the one-parameter family

    G_{m,alpha,h}(u) = u^(-alpha*h) * (1 + u + ... + u^(m*h))      u in (0,1]

whose minimum Lambda_{m,alpha,h} powers counting bounds: the number of
integer tuples in {0..m*h}^n with coordinate sum <= alpha*h*n is at most
Lambda^n (count_theta checks that exactly).  Lambda is defined as 1 when
alpha = 0 (the infimum is approached as u -> 0 but never attained).

Substituting t = -ln u makes log G convex in t (its t-derivative is
alpha*h minus the mean of a truncated geometric distribution, which is
monotone), so a coarse scan plus golden-section refinement is provably
safe; the scan is kept anyway as a belt-and-braces measure and because it
vectorizes well.

Every report's ``value`` is a true evaluation of G at a feasible point, so
it is automatically a valid upper bound for the corresponding infimum;
``certified()`` adds the stored absolute tolerance on top for callers who
want explicit upward rounding.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import is_prime
from .eqsys import FpSystem
from .structure import SystemParameters, build_hypergraph, is_irreducible, parameters

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 4096
_LAMBDA_REL_TOL = 1e-9
_CTILDE_REL_TOL = 1e-6


@dataclass(frozen=True)
class LambdaQuery:
    m: int
    alpha: float
    h: int


@dataclass(frozen=True)
class BoundReport:
    value: float
    optimizer: object          # u in (0,1], an (alpha, beta) pair, an allocation tuple, or None
    tolerance: float           # absolute slack: true optimum lies in [value - tolerance, value]
    method: str

    def certified(self) -> float:
        """Explicitly upward-rounded value (still a valid upper bound)."""
        return self.value + self.tolerance


def g_value(m: int, alpha, h: int, u: float) -> float:
    """Evaluate G_{m,alpha,h}(u) in extended (80-bit) precision.

    Uses the closed geometric form away from u = 1; returns inf when the
    value exceeds the double range (possible for tiny u and large alpha*h).
    """
    if m < 1 or h < 1:
        raise ValueError("need m >= 1 and h >= 1")
    af = float(alpha)
    if af < 0:
        raise ValueError("alpha must be >= 0")
    if not (0.0 < u <= 1.0):
        raise ValueError("u must lie in (0, 1]")
    M = m * h
    if u == 1.0:
        return float(M + 1)
    ud = np.longdouble(u)
    lu = np.log(ud)
    num = -np.expm1((M + 1) * lu)      # 1 - u^(M+1)
    den = -np.expm1(lu)                # 1 - u
    with np.errstate(over="ignore"):
        val = np.exp(-np.longdouble(af) * h * lu) * num / den
    return float(val)


def _log_g(m: int, alpha: float, h: int, t: float) -> float:
    """log G at u = exp(-t); overflow-free for any t >= 0."""
    M = m * h
    if t <= 0.0:
        return math.log(M + 1)
    lu = -t
    num = -math.expm1((M + 1) * lu)
    den = -math.expm1(lu)
    return alpha * h * t + math.log(num) - math.log(den)


def _log_g_grid(m: int, alpha: float, h: int, ts: np.ndarray) -> np.ndarray:
    M = m * h
    lu = -ts
    with np.errstate(divide="ignore", invalid="ignore"):
        num = -np.expm1((M + 1) * lu)
        den = -np.expm1(lu)
        out = alpha * h * ts + np.log(num) - np.log(den)
    out[ts <= 0.0] = math.log(M + 1)
    return out


@lru_cache(maxsize=4096)
def _lambda_cached(m: int, alpha: float, h: int) -> BoundReport:
    if alpha == 0.0:
        return BoundReport(1.0, None, 0.0, "defined-limit")
    if alpha >= m / 2.0:
        # the mean of the uniform distribution on {0..mh} is mh/2, so log G
        # is nondecreasing along t >= 0 and the minimum sits at u = 1
        return BoundReport(float(m * h + 1), 1.0, 0.0, "boundary-exact")
    # bracket the interior minimum in t = -ln u
    T = 1.0
    while _log_g(m, alpha, h, T) <= _log_g(m, alpha, h, T / 2.0) and T < 1e9:
        T *= 2.0
    ts = np.linspace(0.0, T, _SCAN_POINTS)
    vals = _log_g_grid(m, alpha, h, ts)
    i = int(np.argmin(vals))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, _SCAN_POINTS - 1)]
    # golden-section on the log objective down to machine-level width
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = _log_g(m, alpha, h, c)
    fd = _log_g(m, alpha, h, d)
    best_t, best = (c, fc) if fc < fd else (d, fd)
    for _ in range(140):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = _log_g(m, alpha, h, c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = _log_g(m, alpha, h, d)
        t, f = (c, fc) if fc < fd else (d, fd)
        if f < best:
            best_t, best = t, f
        if b - a < 1e-14 * max(1.0, b):
            break
    if vals[i] < best:
        best_t, best = ts[i], float(vals[i])
    boundary = math.log(m * h + 1)
    if boundary <= best:
        return BoundReport(float(m * h + 1), 1.0, 0.0, "boundary-exact")
    value = math.exp(best)
    return BoundReport(value, math.exp(-best_t), _LAMBDA_REL_TOL * value, "scan+golden-section")


def lambda_min(m: int, alpha, h: int) -> BoundReport:
    """Minimum of G_{m,alpha,h} over (0,1]; exactly 1 when alpha = 0.

    The returned value is G evaluated at the reported optimizer (never
    below the true minimum) and is within relative 1e-9 of it.
    """
    if m < 1 or h < 1:
        raise ValueError("need m >= 1 and h >= 1")
    af = float(alpha)
    if af < 0:
        raise ValueError("alpha must be >= 0")
    return _lambda_cached(m, af, h)


def count_theta(m: int, alpha, h: int, n: int) -> int:
    """Exact #{theta in {0..m*h}^n : sum(theta) <= alpha*h*n}.

    alpha must be an exact rational (Fraction, int, or a string like
    "1/3") so the floor threshold is unambiguous; floats are rejected.
    """
    if isinstance(alpha, float):
        raise TypeError("alpha must be an exact rational (Fraction/int/'1/3'), not float")
    alpha = Fraction(alpha)
    if m < 1 or h < 1 or n < 1:
        raise ValueError("need m, h, n >= 1")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    cap = m * h
    bound = min(int(alpha * h * n), cap * n)
    # dp[s] = number of prefixes with coordinate sum s, exact integers
    dp = [0] * (bound + 1)
    dp[0] = 1
    for _ in range(n):
        prefix = list(dp)
        for s in range(1, bound + 1):
            prefix[s] += prefix[s - 1]
        new = [0] * (bound + 1)
        for s in range(bound + 1):
            lo = s - cap
            new[s] = prefix[s] - (prefix[lo - 1] if lo >= 1 else 0)
        dp = new
    return sum(dp)


def star_inequality(params: SystemParameters | tuple[int, int, int]) -> tuple[bool, float]:
    """Check r1/2 + r2/e > L; returns (verdict, margin)."""
    if isinstance(params, SystemParameters):
        r1, r2, L = params.r1, params.r2, params.L
    else:
        r1, r2, L = params
    margin = r1 / 2.0 + r2 / math.e - L
    return margin > 0.0, margin


def c_tilde(r1: int, r2: int, L: int, m: int, d: int) -> BoundReport:
    """Best blended envelope constant for split parameters (r1, r2, L, m).

    Minimizes max(Lambda_{1,alpha,d-1}, Lambda_{m,beta,d-1}) over the
    segment r1*alpha + r2*beta = L, alpha, beta >= 0.  Along the segment
    the first branch is nondecreasing and the second nonincreasing, so the
    optimum is at their crossing; a dense scan stands in when the sampled
    monotonicity sanity check fails.
    """
    if r1 < 0 or r2 < 0 or (r1 == 0 and r2 == 0):
        raise ValueError("need r1, r2 >= 0, not both zero")
    if L < 1 or m < 1 or d < 2:
        raise ValueError("need L >= 1, m >= 1, d >= 2")
    h = d - 1
    if r2 == 0:
        alpha = L / r1
        rep = lambda_min(1, alpha, h)
        return BoundReport(rep.value, (alpha, 0.0), rep.tolerance, "forced-allocation")
    if r1 == 0:
        beta = L / r2
        rep = lambda_min(m, beta, h)
        return BoundReport(rep.value, (0.0, beta), rep.tolerance, "forced-allocation")

    amax = L / r1

    def f1(a: float) -> float:
        return lambda_min(1, a, h).value

    def f2(a: float) -> float:
        return lambda_min(m, (L - r1 * a) / r2, h).value

    # sanity: f1 nondecreasing, f2 nonincreasing on a coarse grid
    grid = [amax * i / 8 for i in range(9)]
    v1 = [f1(a) for a in grid]
    v2 = [f2(a) for a in grid]
    slack = 1e-9 * (1 + max(v1 + v2))
    monotone = all(v1[i] <= v1[i + 1] + slack for i in range(8)) and all(
        v2[i] + slack >= v2[i + 1] for i in range(8)
    )

    best_val = math.inf
    best_ab = (0.0, L / r2)

    def consider(a: float) -> float:
        nonlocal best_val, best_ab
        b = (L - r1 * a) / r2
        val = max(f1(a), f2(a))
        if val < best_val:
            best_val, best_ab = val, (a, b)
        return val

    if not monotone:
        for i in range(_SCAN_POINTS + 1):
            consider(amax * i / _SCAN_POINTS)
        return BoundReport(best_val, best_ab, _CTILDE_REL_TOL * best_val, "dense-scan")

    lo, hi = 0.0, amax
    consider(lo)
    consider(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        consider(mid)
        if f1(mid) < f2(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, amax):
            break
    consider(0.5 * (lo + hi))
    return BoundReport(best_val, best_ab, _CTILDE_REL_TOL * best_val, "crossing-bisection")


def optimize_allocation(t: FpSystem) -> BoundReport:
    """Best per-variable exponent allocation for a balanced irreducible system.

    Minimizes max_i Lambda_{m_i, alpha_i, p-1} subject to sum(alpha_i) = L.
    Variables sharing a multiplicity share an alpha at some optimum (each
    branch is nondecreasing in its alpha, so equalizing within the group
    never hurts); across groups a pairwise coordinate descent from the
    uniform allocation rebalances budgets by crossing bisection.
    """
    if not t.is_balanced:
        raise ValueError("system must be balanced")
    h_graph = build_hypergraph(t)
    irr, _ = is_irreducible(h_graph)
    if not irr:
        raise ValueError("system must be irreducible")
    par = parameters(h_graph)
    L = par.L
    h = t.p - 1
    mult = h_graph.multiplicities
    groups: dict[int, int] = {}
    for m in mult:
        groups[m] = groups.get(m, 0) + 1
    ms = sorted(groups)
    counts = [groups[m] for m in ms]
    r = sum(counts)
    alloc = [L / r] * len(ms)

    def level(idx: int) -> float:
        return lambda_min(ms[idx], alloc[idx], h).value

    if len(ms) > 1:
        prev = max(level(i) for i in range(len(ms)))
        for _ in range(60):
            for i in range(len(ms)):
                for j in range(i + 1, len(ms)):
                    budget = counts[i] * alloc[i] + counts[j] * alloc[j]
                    if budget <= 0:
                        continue
                    top = budget / counts[i]

                    def fi(a: float) -> float:
                        return lambda_min(ms[i], a, h).value

                    def rest(a: float) -> float:
                        # rounding may leave budget - counts[i]*a just below 0
                        return max(0.0, (budget - counts[i] * a) / counts[j])

                    def fj(a: float) -> float:
                        return lambda_min(ms[j], rest(a), h).value

                    lo, hi = 0.0, top
                    if fi(lo) > fj(lo):
                        alloc[i], alloc[j] = lo, budget / counts[j]
                        continue
                    if fi(hi) < fj(hi):
                        alloc[i], alloc[j] = top, 0.0
                        continue
                    for _ in range(60):
                        mid = 0.5 * (lo + hi)
                        if fi(mid) < fj(mid):
                            lo = mid
                        else:
                            hi = mid
                    a = 0.5 * (lo + hi)
                    alloc[i], alloc[j] = a, rest(a)
            cur = max(level(i) for i in range(len(ms)))
            if prev - cur < 1e-12 * max(1.0, cur):
                break
            prev = cur

    value = max(level(i) for i in range(len(ms)))
    by_mult = dict(zip(ms, alloc))
    per_var = tuple(by_mult[m] for m in mult)
    return BoundReport(value, per_var, _CTILDE_REL_TOL * value, "coordinate-descent")


def _power(base: float, exponent: float) -> float:
    """base ** exponent, or inf where that overflows a float."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def upper_bound_strong(t: FpSystem, n: int) -> float:
    """Upper bound C^n for the largest strongly free set in F_p^n (math.inf
    when C^n overflows a float).

    Requires a balanced irreducible system; warns (does not fail) when the
    r1/2 + r2/e > L inequality does not hold, since the bound is then
    typically vacuous (C >= p).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1.0
    par = parameters(build_hypergraph(t))
    ok, margin = star_inequality(par)
    if not ok:
        warnings.warn(
            f"r1/2 + r2/e > L fails (margin {margin:.6f}); the bound may be vacuous",
            stacklevel=2,
        )
    rep = optimize_allocation(t)
    return _power(rep.value, n)


def bound_small_p(t: FpSystem, N: int) -> BoundReport:
    """Tensor-power form: (1/p) * c_tilde(r1,r2,L,m; q)^(1/N) with q = p^N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    q = t.p**N
    if q > 2**62:
        raise ValueError(f"q = p^N = {q} overflows the working integer range (2^62)")
    par = parameters(build_hypergraph(t))
    if par.r1 == 0 and par.r2 == 0:
        raise ValueError("system has no equations")
    rep = c_tilde(par.r1, par.r2, par.L, max(par.m_max, 1), q)
    value = rep.value ** (1.0 / N) / t.p
    tol = rep.tolerance * value / (N * rep.value) if rep.value > 0 else 0.0
    return BoundReport(value, None, tol, f"tensor-power(N={N},q={q})")


def wshape_upper(p: int, n: int) -> float:
    """7 * (C_W(p) * p)^(n/2), the distinct-point-solution-free set bound
    attached to the five-variable W system; C_W(p) = c_tilde(3,2,2,2,p).
    math.inf when it overflows a float."""
    if p < 3 or not is_prime(p):
        raise ValueError("p must be a prime >= 3")
    if n < 0:
        raise ValueError("n must be >= 0")
    c = c_tilde(3, 2, 2, 2, p).value
    return 7.0 * _power(c * p, n / 2.0)


def parallelogram_upper(p: int, n: int) -> float:
    """7 * (sqrt(Lambda_{1,1/4,p-1} * p))^n for the four-variable
    parallelogram system; math.inf when it overflows a float."""
    if p < 3 or not is_prime(p):
        raise ValueError("p must be a prime >= 3")
    if n < 0:
        raise ValueError("n must be >= 0")
    lam = lambda_min(1, 0.25, p - 1).value
    return 7.0 * _power(lam * p, n / 2.0)
