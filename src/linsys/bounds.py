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
reach it by one Newton loop from the tilts of the uniform allocation, on
the equations t_i*mu_i(t_i) + ln S_i(t_i) = l (one per group) and
sum_i c_i*mu_i(t_i) = L*h.  Their Jacobian is an arrowhead: eliminating the
steps in t leaves l as a mean of the groups' levels, weights c_i/(h*t_i),
less the excess budget, so a step costs one evaluation of the moments per
group.  Only the least multiplicity m0 can reach its top ln(m0*h + 1),
where it takes any exponent from m0/2 up: once l reaches that top it is
pinned there and m0 takes what the others leave, and if that is below
m0/2, l is unpinned.  Where the steps run out, the allocation reached is
rescaled to sum to L, so its value is still a bound.

Every report's ``value`` is G at u = e^(-t), computed from the t found
itself, so it is never below the corresponding infimum.  g_value computes
G the same way, from t = -ln u.  The reported optimizer is that u rounded
to a float, and G there matches ``value`` within 4e-15 relative only up
to h = 10^9 (see lambda_min).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .arith import is_prime
from .eqsys import FpSystem
from .structure import SystemHypergraph, build_hypergraph

_NEWTON_STEPS = 64
_NEWTON_REL_TOL = 1e-12
#: a joint Newton step this small leaves an error of about its square
_JOINT_STEP_TOL = 1e-7


@dataclass(frozen=True)
class BoundReport:
    value: float
    optimizer: object          # u in (0,1], an (alpha, beta) pair, an allocation tuple, or None
    method: str


def g_value(m: int, alpha, h: int, u: float) -> float:
    """Evaluate G_{m,alpha,h}(u) as exp(alpha*h*t + ln S(t)) at t = -ln u,
    the form lambda_min computes its value in; m*h + 1 at u = 1, and inf
    where G passes the float range (tiny u and large alpha*h)."""
    if m < 1 or h < 1:
        raise ValueError("need m >= 1 and h >= 1")
    af = float(alpha)
    if not af >= 0:  # also refuses nan
        raise ValueError("alpha must be >= 0")
    if not (0.0 < u <= 1.0):
        raise ValueError("u must lie in (0, 1]")
    if u == 1.0:
        return float(m * h + 1)
    t = -math.log(u)
    try:
        return math.exp(af * h * t + _log_s(m * h, t))
    except OverflowError:
        return math.inf


def _log_s(M: int, t: float) -> float:
    """ln(1 + e^(-t) + ... + e^(-M*t)) for t > 0."""
    return math.log(-math.expm1(-(M + 1) * t)) - math.log(-math.expm1(-t))


def _tilted_moments(M: int, t: float) -> tuple[float, float]:
    """Mean mu(t) of the weights e^(-t*j) on {0..M}, t > 0, and t*Var(t),
    the slope of ln Lambda along the curve of minimisers, negated."""
    n = M + 1.0
    e, f = math.exp(-t), math.exp(-n * t)
    de, df = -math.expm1(-t), -math.expm1(-n * t)
    # each term is scaled by t before it is divided by de or df: neither 1/de
    # (past the float range for a subnormal t) nor Var (about M^2/12) is formed.
    # tail, t times what truncation at M takes off the mean, is 0 where f is
    near_one, tail = t / de, n * f * t / df
    return (near_one * e - tail) / t, (near_one * near_one * e - tail * n * t / df) / t


def _root(fn: Callable[[float], tuple[float, float]], lo: float, hi: float, x: float) -> float:
    """The root in [lo, hi] of a function that is positive left of it and
    negative right of it, from x.  fn(x) gives (value, slope).  As in
    Numerical Recipes' rtsafe (§9.4), a Newton step shorter than the
    tolerance ends the search before the bracket test: x has just become
    an end of the bracket, so a converged step lands on or past it, fails
    that test and would turn into some 30 bisections away from the root.
    An infinite slope gives a zero step that says nothing, so it is not
    taken for convergence.  Any other step that leaves the bracket narrowed
    so far becomes a bisection."""
    for _ in range(_NEWTON_STEPS):
        val, slope = fn(x)
        if val > 0:
            lo = x
        elif val < 0:
            hi = x
        else:
            return x
        nxt = x - val / slope if slope else hi
        if math.isfinite(slope) and abs(nxt - x) <= _NEWTON_REL_TOL * x:
            return nxt
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if abs(nxt - x) <= _NEWTON_REL_TOL * x:
                return nxt
        x = nxt
    return x


def _tangent_tilt(M: int, a: float) -> float:
    """Where mu's tangent at 0, of slope -M(M+2)/12, reaches a: below the t
    with mu(t) = a, as mu is convex.  Divided in steps, as M(M+2) overflows."""
    return 12.0 * ((M / 2.0 - a) / M) / (M + 2.0)


def _tilt(M: int, a: float) -> float:
    """The t >= 0 with mu(t) = a, for 0 < a <= M/2; 0.0 (u = 1) at a = M/2
    and where that t underflows."""
    lo = _tangent_tilt(M, a)
    if (M + 1) * lo < 1e-4:
        return lo  # mu is its tangent there, up to a relative (M+1)^2 t^2 / 60
    # mu(t) < 1/expm1(t), the untruncated mean, which is a at t = ln(1 + 1/a);
    # 1/a overflows for a subnormal a, and log1p(a) - log(a) cancels to 0 for a huge one
    hi = math.log1p(1.0 / a) if a >= 1.0 else math.log1p(a) - math.log(a)

    def excess(t: float) -> tuple[float, float]:
        # relative to a: the slope -Var itself overflows past a of about 1e154
        mean, slope = _tilted_moments(M, t)
        return mean / a - 1.0, -slope / (a * t)

    # mu is convex: Newton from the tangent bound climbs to the root without
    # leaving the bracket, where a start at hi near M/2 overshoots below lo
    return _root(excess, lo, hi, lo if a > 0.4 * M else hi)


def lambda_min(m: int, alpha, h: int) -> BoundReport:
    """Minimum of G_{m,alpha,h} over (0,1]; exactly 1 when alpha = 0.

    The minimiser is u = e^(-t) with t the root of mu(t) = alpha*h, the
    mean of the tilted geometric weights on {0..m*h}.  The returned value
    is G at that u, computed from t itself, so never below the true
    minimum.  The reported optimizer is u rounded to a float: g_value there
    matches value within 4e-15 relative up to h = 10^9, but rounding u
    loses t as h grows past that (for m = 1, alpha = 1/3, g_value is
    6.5e-11 higher at h = 10^12, 5.3e-5 at 10^15, and 19% at 10^18 + 2,
    where u rounds to 1.0).
    """
    if m < 1 or h < 1:
        raise ValueError("need m >= 1 and h >= 1")
    alpha = float(alpha)
    if not alpha >= 0:  # also refuses nan
        raise ValueError("alpha must be >= 0")
    if alpha == 0.0:
        return BoundReport(1.0, None, "defined-limit")
    M = m * h
    # for alpha >= m/2, mu(t) <= M/2 <= alpha*h, so log G is nondecreasing in
    # t and the minimum sits at u = 1; so does a tilt that underflows to 0
    t = _tilt(M, alpha * h) if alpha < m / 2.0 else 0.0
    if t > 0.0:
        best = alpha * h * t + _log_s(M, t)  # log G, overflow-free
        if best < math.log(M + 1):
            return BoundReport(math.exp(best), math.exp(-t), "tilted-mean-newton")
    return BoundReport(float(M + 1), 1.0, "boundary-exact")


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


def star_inequality(r1: int, r2: int, L: int) -> tuple[bool, float]:
    """Check r1/2 + r2/e > L; returns (verdict, margin)."""
    if r1 < 0 or r2 < 0 or L < 1:
        raise ValueError("need r1, r2 >= 0 and L >= 1")
    margin = r1 / 2.0 + r2 / math.e - L
    return margin > 0.0, margin


def _common_level(groups: dict[int, int], L: int, h: int) -> dict[int, float]:
    """Exponents per multiplicity (groups[m] variables each) that put every
    group at one level of Lambda and sum to L, before rescaling; see the
    module docstring.  None is negative, also where the steps run out and
    the exponents are those the last step reached."""
    ms = sorted(groups)
    m0 = ms[0]
    top = math.log(m0 * h + 1)
    uniform = L / sum(groups.values())
    # from uniform >= m0/2 on, every Lambda at the uniform allocation is at
    # least m0*h + 1 (G grows with m), so the level is pinned at m0's top and
    # every other exponent lies below m0/2; a tilt of 0 marks the pin, and
    # _tilt gives it there
    tilt = {m: _tilt(m * h, min(uniform * h, m0 * h / 2.0)) for m in ms}
    alloc = {}
    for _ in range(_NEWTON_STEPS):
        rows = []  # m0 first, as ms is sorted
        for m, t in tilt.items():
            if t:
                mean, slope = _tilted_moments(m * h, t)
                rows.append((m, t, mean / h, slope, t * mean + _log_s(m * h, t)))
        level = top
        if tilt[m0]:
            weights = [groups[m] / (h * t) for m, t, *_ in rows]
            excess = sum(groups[m] * alpha for m, _, alpha, _, _ in rows) - L
            level = (sum(w * own for w, (*_, own) in zip(weights, rows)) - excess) / sum(weights)
            if level >= top:
                level, tilt[m0] = top, 0.0
                del rows[0]
        converged = True
        for m, t, alpha, slope, own in rows:
            step = (own - level) / slope
            converged = converged and abs(step) <= _JOINT_STEP_TOL * t
            # mu moves by -Var*step = -(own - level)/t, up to a term of the
            # step's square
            alloc[m] = max(0.0, alpha - (own - level) / (h * t))
            # the logs need t > 0: a step that overshoots 0 halves t instead
            tilt[m] = t + step if t + step > 0.0 else t / 2.0
        if not tilt[m0]:
            alloc[m0] = (L - sum(groups[m] * alloc[m] for m in ms[1:])) / groups[m0]
            if alloc[m0] < m0 / 2.0:
                # the level lies below the top: unpin it, from a tilt below
                # the one that gives m0 that budget
                tilt[m0] = _tangent_tilt(m0 * h, alloc[m0] * h)
                converged = converged and not tilt[m0]
        if converged:
            break
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
    segment r1*alpha + r2*beta = L, alpha, beta >= 0: the allocation of
    optimize_allocation over the nonempty groups of {1: r1, m: r2}, solved
    at the common level of both branches.  With r1 or r2 zero the
    allocation is forced.
    """
    if r1 < 0 or r2 < 0 or (r1 == 0 and r2 == 0):
        raise ValueError("need r1, r2 >= 0, not both zero")
    if L < 1 or m < 1 or d < 2:
        raise ValueError("need L >= 1, m >= 1, d >= 2")
    groups = Counter({1: r1})
    groups[m] += r2
    value, alloc = _allocate(+groups, L, d - 1)  # unary + drops an empty group
    optimizer = (alloc[1] if r1 else 0.0, alloc[m] if r2 else 0.0)
    forced = r1 == 0 or r2 == 0
    return BoundReport(value, optimizer, "forced-allocation" if forced else "common-level-newton")


def optimize_allocation(t: FpSystem, graph: Optional[SystemHypergraph] = None) -> BoundReport:
    """Best per-variable exponent allocation for a balanced irreducible system.

    Minimizes max_i Lambda_{m_i, alpha_i, p-1} subject to sum(alpha_i) = L.
    Variables sharing a multiplicity share an alpha, and at the optimum all
    groups share one level of Lambda (see the module docstring).  The
    allocation is rescaled to sum to L and the value is the largest Lambda
    at it.  ``graph`` is build_hypergraph(t), when the caller has it.
    """
    if not t.is_balanced:
        raise ValueError("system must be balanced")
    h_graph = build_hypergraph(t) if graph is None else graph
    if not h_graph.irreducible:
        raise ValueError("system must be irreducible")
    mult = h_graph.multiplicities
    value, alloc = _allocate(Counter(mult), h_graph.L, t.p - 1)
    return BoundReport(value, tuple(alloc[m] for m in mult), "common-level-newton")


def _power(base: float, exponent: float) -> float:
    """base ** exponent, or inf where that overflows a float."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def upper_bound_strong(t: FpSystem, n: int, allocation: Optional[BoundReport] = None) -> float:
    """Upper bound C^n for the largest strongly free set in F_p^n (math.inf
    when C^n overflows a float).

    Requires a balanced irreducible system.  When the star inequality
    r1/2 + r2/e > L fails (star_inequality), the bound is usually vacuous
    (C >= p), but it is returned all the same.  C comes from ``allocation``
    when given (the optimize_allocation report for t), otherwise it is
    computed here.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1.0
    rep = allocation if allocation is not None else optimize_allocation(t)
    return _power(rep.value, n)


def wshape_upper(p: int, n: int) -> float:
    """7 * (C_W(p) * p)^(n/2), the distinct-point-solution-free set bound
    attached to the five-variable W system, for a prime p >= 3;
    C_W(p) = c_tilde(3,2,2,2,p).  math.inf when it overflows a float."""
    if p < 3 or not is_prime(p):
        raise ValueError("p must be a prime >= 3")
    if n < 0:
        raise ValueError("n must be >= 0")
    return 7.0 * _power(c_tilde(3, 2, 2, 2, p).value * p, n / 2.0)
