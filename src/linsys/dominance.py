"""Dominant equations, dominant reductions, and the lower bounds they buy.

A balanced equation is *dominant* when one variable's coefficient opposes
all the others: either exactly one coefficient is positive, or exactly one
is negative.  Writing it as b'_j x_j = sum b'_i x_i with every b'_i >= 0
(the standard form), b'_j is the dominant coefficient.  Two-sided
equations b*x_i - b*x_j = 0 are dominant from both ends.

Reducing by a dominant subsystem S' contracts each connected component of
S'-variables to a single merged variable and drops the equations of S'
(they become 0 = 0 because every equation is balanced).  A sequence of
such reductions ending at the empty system in one variable yields b~, the
maximum dominant coefficient used along the way, which converts into
asymptotic lower bounds on free-set sizes via box/sphere constructions.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional

from .arith import is_prime
from .eqsys import ZSystem, subsystem
from .errors import GuardExceeded
from .structure import build_hypergraph

#: reductions the exhaustive strategy may perform (about 0.1 ms each)
EXHAUSTIVE_REDUCTION_CAP = 100_000


@dataclass(frozen=True)
class Dominance:
    """Witnesses of dominance for one equation: 0-based variable positions
    (two for b*x_i - b*x_j, else one) and the dominant coefficient."""

    indices: tuple[int, ...]
    coefficient: int


@dataclass(frozen=True)
class ReductionStep:
    subsystem: tuple[int, ...]                  # equation indices into the step's input
    coefficient: int                            # max dominant coefficient of the subsystem
    merge_map: tuple[tuple[str, str], ...]      # (old name, new name), merged variables only
    result: ZSystem


@dataclass(frozen=True)
class ReductionTrace:
    initial: ZSystem
    steps: tuple[ReductionStep, ...]

    @property
    def terminal(self) -> ZSystem:
        return self.steps[-1].result if self.steps else self.initial

    @property
    def terminated(self) -> bool:
        return _is_terminal(self.terminal)

    @property
    def b_tilde(self) -> int:
        return max((s.coefficient for s in self.steps), default=1)


@dataclass(frozen=True)
class LowerBoundReport:
    """Asymptotic lower-bound base: the free-set maximum is >= base^n once
    n is large enough depending on p (never a finite-n guarantee)."""

    kind: str                       # "strong" | "weak"
    p: int
    b: int
    base: float
    epsilon: Optional[float]
    asymptotic: bool
    floor_term: Optional[int]       # floor((p + b - 1) / b) for the strong kind
    simple_base: Optional[float]    # p/b when b >= 2


def dominance_of(row: tuple[int, ...]) -> Optional[Dominance]:
    """Dominance witnesses of a balanced equation's coefficient row, or None."""
    if sum(row) != 0:
        raise ValueError("equation is not balanced")
    pos = [i for i, c in enumerate(row) if c > 0]
    neg = [i for i, c in enumerate(row) if c < 0]
    if len(pos) == 1 and len(neg) == 1:
        # b x_i - b x_j: dominant from both ends (coefficients match by balance)
        i, j = sorted((pos[0], neg[0]))
        return Dominance((i, j), abs(row[pos[0]]))
    if len(pos) == 1:
        return Dominance((pos[0],), row[pos[0]])
    if len(neg) == 1:
        return Dominance((neg[0],), -row[neg[0]])
    return None


def _subsets(indices: tuple[int, ...]):
    """Every nonempty subset of the ascending ``indices``, in ascending
    tuple order: (0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,)."""
    for i, first in enumerate(indices):
        yield (first,)
        for rest in _subsets(indices[i + 1:]):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# merged-variable labels

_PLAIN = re.compile(r"^x(\d+)$")
_MERGED = re.compile(r"^x_\{(\d+(?:_\d+)*)\}$")


def _atoms(name: str) -> tuple[int, ...]:
    m = _PLAIN.match(name)
    if m:
        return (int(m.group(1)),)
    m = _MERGED.match(name)
    if m:
        return tuple(int(a) for a in m.group(1).split("_"))
    raise ValueError(f"cannot merge variable with non-canonical name {name!r}")


def _merged_name(atom_sets: list[tuple[int, ...]]) -> str:
    atoms = sorted(set(itertools.chain.from_iterable(atom_sets)))
    if len(atoms) == 1:
        return f"x{atoms[0]}"
    return "x_{" + "_".join(str(a) for a in atoms) + "}"


def _reduce_detailed(s: ZSystem, sub: tuple[int, ...]) -> tuple[ZSystem, tuple[tuple[str, str], ...], int]:
    if not sub:
        raise ValueError("subsystem must be nonempty")
    sub = tuple(sorted(set(sub)))
    doms = []
    for i in sub:
        if not 0 <= i < s.L:
            raise IndexError(f"equation index {i} out of range")
        d = dominance_of(s.rows[i])
        if d is None:
            raise ValueError(f"equation {i} is not dominant")
        doms.append(d)
    coefficient = max(d.coefficient for d in doms)

    sub_sys = subsystem(s, sub)
    h = build_hypergraph(sub_sys)
    comp_of: dict[int, int] = {}
    for ci, comp in enumerate(h.components):
        for v in comp:
            comp_of[v] = ci

    # new variable order: untouched variables keep relative order, each
    # merged component sits at the position of its smallest member
    slots: list[tuple[int, object]] = []
    for v in range(s.r):
        if v in comp_of:
            comp = h.components[comp_of[v]]
            if v == comp[0]:
                slots.append((v, comp))
        else:
            slots.append((v, v))
    new_names: list[str] = []
    old_to_new: dict[int, int] = {}
    merge_map: list[tuple[str, str]] = []
    for new_idx, (_, what) in enumerate(slots):
        if isinstance(what, tuple):
            name = _merged_name([_atoms(s.names[v]) for v in what])
            for v in what:
                old_to_new[v] = new_idx
                merge_map.append((s.names[v], name))
        else:
            name = s.names[what]
            old_to_new[what] = new_idx
        new_names.append(name)

    new_r = len(slots)
    assert new_r == s.r - (len(h.vertices) - len(h.components)), "variable bookkeeping broke"

    new_rows = []
    for row in s.rows:
        merged = [0] * new_r
        for i, c in enumerate(row):
            merged[old_to_new[i]] += c
        nz = [c for c in merged if c != 0]
        if not nz:
            continue  # 0 = 0, dropped
        # a single surviving term would mean c * x_K = 0, impossible for
        # balanced input since the row sum is preserved by merging
        assert len(nz) >= 2, "balanced equation collapsed to a single term"
        new_rows.append(tuple(merged))
    return ZSystem(new_r, tuple(new_rows), tuple(new_names)), tuple(merge_map), coefficient


def _is_terminal(s: ZSystem) -> bool:
    return s.L == 0 and s.r == 1


def _exhaustive_steps(s: ZSystem) -> Optional[tuple[ReductionStep, ...]]:
    """Steps of the chain minimizing (b~, #steps, lexicographic encoding),
    or None when no chain reaches the terminal system.

    One breadth-first pass per cap, caps ascending, over the chains whose
    coefficients are all <= cap; after a pass that never meets the terminal
    system, the next cap is the smallest dominant coefficient above the cap
    that the pass met, so the first cap that terminates is b~.  A pass
    expands each state once, layers keep their states in found order and
    subsets come in ascending tuple order, so states are found in (#steps,
    encoding) order of their least chains, and the first chain to meet the
    terminal system is the least.  Two chains reach equal systems exactly
    when they induce the same partition of the original variables.

    Every reduction counts against EXHAUSTIVE_REDUCTION_CAP, and a pass
    whose first step alone has more subsets than the reductions left is
    refused before it reduces any.
    """
    if _is_terminal(s):
        return ()
    reductions = cap = 0
    while True:
        seen = {s}
        layer: list[tuple[ZSystem, tuple[ReductionStep, ...]]] = [(s, ())]
        next_cap: Optional[int] = None
        while layer:
            next_layer = []
            for state, chain in layer:
                within = []
                for i, row in enumerate(state.rows):
                    d = dominance_of(row)
                    if d is None:
                        continue
                    if d.coefficient <= cap:
                        within.append(i)
                    elif next_cap is None or d.coefficient < next_cap:
                        next_cap = d.coefficient
                first_step = 2 ** len(within) - 1
                if not chain and first_step > EXHAUSTIVE_REDUCTION_CAP - reductions:
                    raise GuardExceeded(f"exhaustive reduction would exceed {EXHAUSTIVE_REDUCTION_CAP} "
                                        f"reductions: its first step alone has {first_step} subsets")
                for subset in _subsets(tuple(within)):
                    reductions += 1
                    if reductions > EXHAUSTIVE_REDUCTION_CAP:
                        raise GuardExceeded(f"exhaustive reduction stopped after "
                                            f"{EXHAUSTIVE_REDUCTION_CAP} reductions")
                    reduced, merge_map, coeff = _reduce_detailed(state, subset)
                    if reduced in seen:
                        continue
                    seen.add(reduced)
                    steps = chain + (ReductionStep(subset, coeff, merge_map, reduced),)
                    if _is_terminal(reduced):
                        return steps
                    next_layer.append((reduced, steps))
            layer = next_layer
        if next_cap is None:
            return None
        cap = next_cap


def reduction_sequence(s: ZSystem, strategy: str = "greedy") -> Optional[ReductionTrace]:
    """A sequence of dominant reductions ending at the one-variable empty
    system, or None when no such sequence exists.

    greedy: always reduce by the maximal dominant subsystem (all dominant
    equations at once).  exhaustive: the trace minimizing (b~, #steps,
    lexicographic step encoding) over all subsystem choices, found by one
    breadth-first pass per coefficient cap, caps ascending.  Each pass meets
    states in (#steps, encoding) order, so the first chain it finds to the
    terminal system is the least.  It raises GuardExceeded after
    EXHAUSTIVE_REDUCTION_CAP reductions, or when a pass starts whose first
    step alone has more subsets than the reductions left.
    """
    if not s.is_balanced:
        raise ValueError("system must be balanced")
    if strategy == "greedy":
        current = s
        steps: list[ReductionStep] = []
        while not _is_terminal(current):
            dom = tuple(i for i, row in enumerate(current.rows) if dominance_of(row) is not None)
            if not dom:
                return None
            reduced, merge_map, coeff = _reduce_detailed(current, dom)
            steps.append(ReductionStep(dom, coeff, merge_map, reduced))
            current = reduced
        return ReductionTrace(s, tuple(steps))
    if strategy != "exhaustive":
        raise ValueError("strategy must be 'greedy' or 'exhaustive'")
    found = _exhaustive_steps(s)
    return None if found is None else ReductionTrace(s, found)


def lower_bound_strong(trace: ReductionTrace, p: int, epsilon: float = 1.0 / 16) -> LowerBoundReport:
    """Asymptotic base ((1-eps) * floor((p + b~ - 1)/b~)) from a
    terminating reduction; also carries the plain p/b~ form when b~ >= 2."""
    if not trace.terminated:
        raise ValueError("trace does not end at the one-variable empty system")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    b = trace.b_tilde
    if p <= b:
        raise ValueError(f"need p > b~ (p={p}, b~={b})")
    floor_term = (p + b - 1) // b
    base = (1.0 - epsilon) * floor_term
    simple = p / b if b >= 2 else None
    return LowerBoundReport("strong", p, b, base, epsilon, True, floor_term, simple)


def lower_bound_weak(s: ZSystem, p: int) -> Optional[LowerBoundReport]:
    """Asymptotic base p/b from any single dominant equation with
    coefficient 2 <= b < p (smallest such b), or None."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if not s.is_balanced:
        raise ValueError("system must be balanced")
    candidates = []
    for row in s.rows:
        d = dominance_of(row)
        if d is not None and d.coefficient >= 2 and p > d.coefficient:
            candidates.append(d.coefficient)
    if not candidates:
        return None
    b = min(candidates)
    return LowerBoundReport("weak", p, b, p / b, None, True, None, p / b)
