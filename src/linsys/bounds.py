"""Slice-rank style upper bounds: the G envelope, its minimum, and blends.

Everything here reduces to the one-parameter family

    G_{m,alpha,h}(u) = u^(-alpha*h) * (1 + u + ... + u^(m*h))      u in (0,1]

whose minimum Lambda_{m,alpha,h} powers counting bounds: the number of
integer tuples in {0..m*h}^n with coordinate sum <= alpha*h*n is at most
Lambda^n (count_theta checks that exactly).  Lambda is defined as 1 when
alpha = 0 (the infimum is approached as u -> 0 but never attained).

Substitute t = -ln u and write M = m*h.  The weights e^(-t*j) on {0..M}
form a tilted geometric distribution with mean

    mu(t) = 1/expm1(t) - (M+1)/expm1((M+1)*t)

and variance Var(t) = -mu'(t).  The t-derivative of log G is alpha*h - mu(t)
and mu falls from M/2 to 0, so log G is convex and its minimiser is the one
root of mu(t) = alpha*h; when alpha >= m/2 there is none and the minimum is
M+1 at u = 1.  lambda_min finds the root by Newton steps kept inside a
bracket.  Along the curve of minimisers, ln Lambda(t) = t*mu(t) + ln S(t)
with S(t) = (1 - e^(-(M+1)t)) / (1 - e^(-t)), the entropy of the tilted
distribution, and its t-derivative is -t*Var(t) < 0: a level of Lambda
fixes t, and with it alpha = mu(t)/h.

Spreading a budget L of exponents over variables, the largest Lambda is
least when every multiplicity group sits at one common level l = ln(lambda)
(each Lambda rises with its own exponent).  optimize_allocation and c_tilde
therefore solve sum_i c_i*alpha_i(l) = L for l, by Newton steps again
(d alpha_i / dl = 1/(h*t_i)); once l reaches ln(M_i + 1), group i can take
any exponent, and the group of least multiplicity takes what is left.

Every report's ``value`` is a true evaluation of G at a feasible point, so
it is automatically a valid upper bound for the corresponding infimum.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .arith import is_prime
from .eqsys import FpSystem
from .structure import SystemParameters, build_hypergraph, is_irreducible, parameters

_LAMBDA_REL_TOL = 1e-9
_CTILDE_REL_TOL = 1e-6
_NEWTON_STEPS = 64
_NEWTON_REL_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    value: float
    optimizer: object          # u in (0,1], an (alpha, beta) pair, an allocation tuple, or None
    tolerance: float           # absolute slack: true optimum lies in [value - tolerance, value]
    method: str


def g_value(m: int, alpha, h: int, u: float) -> float:
    """Evaluate G_{m,alpha,h}(u) in extended (80-bit) precision.

    Uses the closed geometric form away from u = 1; returns inf when the
    value exceeds the double range (possible for tiny u and large alpha*h).
    """
    if m < 1 or h < 1:
        raise ValueError("need m >= 1 and h >= 1")
    af = float(alpha)
    if not af >= 0:  # also refuses nan
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
    return alpha * h * t + _log_s(M, t)


def _log_s(M: int, t: float) -> float:
    """ln(1 + e^(-t) + ... + e^(-M*t)) for t > 0."""
    return math.log(-math.expm1(-(M + 1) * t)) - math.log(-math.expm1(-t))


def _tilted_moments(M: int, t: float) -> tuple[float, float]:
    """Mean mu(t) and variance Var(t) of the weights e^(-t*j) on {0..M}, t > 0."""
    e, f = math.exp(-t), math.exp(-(M + 1) * t)
    de, df = -math.expm1(-t), -math.expm1(-(M + 1) * t)
    mean = e / de - (M + 1) * f / df
    var = e / (de * de) - (M + 1) * (M + 1) * f / (df * df)
    return mean, var


def _root(fn: Callable[[float], tuple[float, float]], lo: float, hi: float, x: float) -> float:
    """The root in [lo, hi] of a function that is positive left of it and
    negative right of it, from x.  fn(x) gives (value, slope); a Newton step
    that leaves the bracket narrowed so far becomes a bisection."""
    for _ in range(_NEWTON_STEPS):
        val, slope = fn(x)
        if val > 0:
            lo = x
        elif val < 0:
            hi = x
        else:
            return x
        nxt = x - val / slope if slope else hi
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= _NEWTON_REL_TOL * x:
            return nxt
        x = nxt
    return x


def _tilt(M: int, a: float) -> float:
    """The t > 0 with mu(t) = a, for 0 < a < M/2."""
    # mu is convex with slope -M(M+2)/12 at 0, so its tangent there stays below it
    lo = 12.0 * (M / 2.0 - a) / (M * (M + 2.0))
    if (M + 1) * lo < 1e-4:
        return lo  # mu is its tangent there, up to a relative (M+1)^2 t^2 / 60
    hi = math.log1p(a) - math.log(a)  # mu(t) < 1/expm1(t), the untruncated mean

    def excess(t: float) -> tuple[float, float]:
        mean, var = _tilted_moments(M, t)
        return mean - a, -var

    return _root(excess, lo, hi, hi)


def _level_tilt(M: int, level: float, start: float) -> float:
    """The t > 0 with ln Lambda(t) = t*mu(t) + ln S(t) = level, for
    0 < level < ln(M+1); Newton starts at ``start`` when that is positive."""
    # the untruncated geometric's entropy, an upper bound, is below level there
    hi = 2.0 * math.log1p(2.0 / level)

    def excess(t: float) -> tuple[float, float]:
        mean, var = _tilted_moments(M, t)
        return t * mean + _log_s(M, t) - level, -t * var

    return _root(excess, 0.0, hi, start if 0.0 < start < hi else hi)


@lru_cache(maxsize=4096)
def _lambda_cached(m: int, alpha: float, h: int) -> BoundReport:
    if alpha == 0.0:
        return BoundReport(1.0, None, 0.0, "defined-limit")
    M = m * h
    if alpha >= m / 2.0:
        # mu(t) <= M/2 <= alpha*h, so log G is nondecreasing in t and the
        # minimum sits at u = 1
        return BoundReport(float(M + 1), 1.0, 0.0, "boundary-exact")
    t = _tilt(M, alpha * h)
    best = _log_g(m, alpha, h, t)
    if math.log(M + 1) <= best:
        return BoundReport(float(M + 1), 1.0, 0.0, "boundary-exact")
    value = math.exp(best)
    return BoundReport(value, math.exp(-t), _LAMBDA_REL_TOL * value, "tilted-mean-newton")


def lambda_min(m: int, alpha, h: int) -> BoundReport:
    """Minimum of G_{m,alpha,h} over (0,1]; exactly 1 when alpha = 0.

    The minimiser is u = e^(-t) with t the root of mu(t) = alpha*h, the
    mean of the tilted geometric weights on {0..m*h}.  The returned value
    is G evaluated at the reported optimizer (never below the true minimum)
    and is within relative 1e-9 of it.
    """
    if m < 1 or h < 1:
        raise ValueError("need m >= 1 and h >= 1")
    af = float(alpha)
    if not af >= 0:  # also refuses nan
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


def _common_level(groups: dict[int, int], L: int, h: int) -> dict[int, float]:
    """Exponents per multiplicity (groups[m] variables each) that put every
    group at one level of Lambda and sum to L, before rescaling."""
    ms = sorted(groups)
    tops = {m: math.log(m * h + 1) for m in ms}
    tilt = {}
    levels = []
    uniform = L / sum(groups.values())
    for m in ms:
        rep = lambda_min(m, uniform, h)
        tilt[m] = -math.log(rep.optimizer)
        levels.append(math.log(rep.value))
    # the uniform allocation sums to L: the common level lies between its levels
    lo, hi = min(levels), min(max(levels), tops[ms[0]])
    alloc = {}

    def shortfall(level: float) -> tuple[float, float]:
        """L minus the budget the groups take at ``level``, and its slope."""
        total = slope = 0.0
        for m in ms:
            if level >= tops[m]:
                tilt[m], alloc[m] = 0.0, m / 2.0
            else:
                tilt[m] = _level_tilt(m * h, level, tilt[m])
                alloc[m] = _tilted_moments(m * h, tilt[m])[0] / h
            total += groups[m] * alloc[m]
            slope += groups[m] / (h * tilt[m]) if tilt[m] else math.inf
        return L - total, -slope

    if shortfall(hi)[0] >= 0.0:
        # even at its top the rest leave budget over: the least multiplicity,
        # whose Lambda stays at m*h + 1 from alpha = m/2 on, takes it
        m0 = ms[0]
        rest = sum(groups[m] * alloc[m] for m in ms[1:])
        alloc[m0] = max(alloc[m0], (L - rest) / groups[m0])
    else:
        shortfall(_root(shortfall, lo, hi, hi))
    return alloc


def _allocate(groups: dict[int, int], L: int, h: int) -> tuple[float, dict[int, float]]:
    """The common-level allocation, rescaled to sum to exactly L, and the
    largest Lambda_{m, alpha_m, h} at it."""
    if len(groups) == 1:
        alloc = {m: L / c for m, c in groups.items()}
    else:
        alloc = _common_level(groups, L, h)
        scale = L / sum(groups[m] * a for m, a in alloc.items())
        alloc = {m: a * scale for m, a in alloc.items()}
    value = max(lambda_min(m, a, h).value for m, a in alloc.items())
    return value, alloc


def c_tilde(r1: int, r2: int, L: int, m: int, d: int) -> BoundReport:
    """Best blended envelope constant for split parameters (r1, r2, L, m).

    Minimizes max(Lambda_{1,alpha,d-1}, Lambda_{m,beta,d-1}) over the
    segment r1*alpha + r2*beta = L, alpha, beta >= 0: the two-group case
    {1: r1, m: r2} of optimize_allocation, solved at the common level of
    both branches.  With r1 or r2 zero the allocation is forced.
    """
    if r1 < 0 or r2 < 0 or (r1 == 0 and r2 == 0):
        raise ValueError("need r1, r2 >= 0, not both zero")
    if L < 1 or m < 1 or d < 2:
        raise ValueError("need L >= 1, m >= 1, d >= 2")
    h = d - 1
    if r2 == 0:
        rep = lambda_min(1, L / r1, h)
        return BoundReport(rep.value, (L / r1, 0.0), rep.tolerance, "forced-allocation")
    if r1 == 0:
        rep = lambda_min(m, L / r2, h)
        return BoundReport(rep.value, (0.0, L / r2), rep.tolerance, "forced-allocation")
    value, alloc = _allocate({1: r1 + r2} if m == 1 else {1: r1, m: r2}, L, h)
    return BoundReport(value, (alloc[1], alloc[m]), _CTILDE_REL_TOL * value, "common-level-newton")


def optimize_allocation(t: FpSystem) -> BoundReport:
    """Best per-variable exponent allocation for a balanced irreducible system.

    Minimizes max_i Lambda_{m_i, alpha_i, p-1} subject to sum(alpha_i) = L.
    Variables sharing a multiplicity share an alpha, and at the optimum all
    groups share one level of Lambda: the level is found by Newton steps on
    the budget it takes, each group's alpha from the tilted-geometric curve.
    The allocation is rescaled to sum to L and the value is the largest
    Lambda at it.
    """
    if not t.is_balanced:
        raise ValueError("system must be balanced")
    h_graph = build_hypergraph(t)
    irr, _ = is_irreducible(h_graph)
    if not irr:
        raise ValueError("system must be irreducible")
    mult = h_graph.multiplicities
    groups: dict[int, int] = {}
    for m in mult:
        groups[m] = groups.get(m, 0) + 1
    value, alloc = _allocate(groups, parameters(h_graph).L, t.p - 1)
    per_var = tuple(alloc[m] for m in mult)
    return BoundReport(value, per_var, _CTILDE_REL_TOL * value, "common-level-newton")


def _power(base: float, exponent: float) -> float:
    """base ** exponent, or inf where that overflows a float."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def upper_bound_strong(t: FpSystem, n: int, allocation: Optional[BoundReport] = None) -> float:
    """Upper bound C^n for the largest strongly free set in F_p^n (math.inf
    when C^n overflows a float).

    Requires a balanced irreducible system; warns (does not fail) when the
    r1/2 + r2/e > L inequality does not hold, since the bound is then
    typically vacuous (C >= p).  C comes from ``allocation`` when given (the
    optimize_allocation report for t), otherwise it is computed here.
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
    rep = allocation if allocation is not None else optimize_allocation(t)
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
