"""System hypergraph: supports as edges, multiplicities, connectivity.

The hypergraph of a system has one vertex per variable that occurs in at
least one equation and one edge per equation (its support).  The
multiplicity of a variable counts the equations whose support contains it;
r1 counts simple variables (multiplicity exactly 1), r2 the rest of the
occurring ones.  A system is irreducible when every one of its r variables
occurs and the hypergraph is connected.
"""
from __future__ import annotations

from dataclasses import dataclass

from .eqsys import FpSystem, ZSystem


@dataclass(frozen=True)
class SystemHypergraph:
    r: int
    vertices: tuple[int, ...]                 # 0-based, ascending; occurring variables
    edges: tuple[tuple[int, ...], ...]        # per equation, ascending supports
    multiplicities: tuple[int, ...]           # length r; 0 for absent variables
    components: tuple[tuple[int, ...], ...]   # partition of vertices, ordered by min

    @property
    def L(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class SystemParameters:
    r1: int
    r2: int
    L: int
    m_max: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.r1, self.r2, self.L, self.m_max)


class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller label as root so components come out canonical
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def build_hypergraph(s: ZSystem | FpSystem) -> SystemHypergraph:
    rows = s.coefficient_rows()
    edges = tuple(tuple(i for i, c in enumerate(row) if c != 0) for row in rows)
    mult = [0] * s.r
    for e in edges:
        for i in e:
            mult[i] += 1
    vertices = tuple(i for i in range(s.r) if mult[i] > 0)
    uf = _UnionFind(vertices)
    for e in edges:
        for i in e[1:]:
            uf.union(e[0], i)
    groups: dict[int, list[int]] = {}
    for v in vertices:
        groups.setdefault(uf.find(v), []).append(v)
    components = tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))
    return SystemHypergraph(s.r, vertices, edges, tuple(mult), components)


def parameters(h: SystemHypergraph) -> SystemParameters:
    r1 = sum(1 for m in h.multiplicities if m == 1)
    r2 = sum(1 for m in h.multiplicities if m >= 2)
    m_max = max(h.multiplicities, default=0)
    return SystemParameters(r1, r2, h.L, m_max)


def is_irreducible(h: SystemHypergraph) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """(irreducible?, components).  Irreducible := all r variables occur
    and the hypergraph is connected."""
    ok = len(h.vertices) == h.r and len(h.components) == 1
    return ok, h.components


def hypergraph_report(s: ZSystem | FpSystem) -> dict:
    """JSON-ready summary; variable indices are 1-based to match x-names."""
    h = build_hypergraph(s)
    par = parameters(h)
    irr, comps = is_irreducible(h)
    return {
        "J": [v + 1 for v in h.vertices],
        "edges": [[v + 1 for v in e] for e in h.edges],
        "multiplicities": list(h.multiplicities),
        "r1": par.r1,
        "r2": par.r2,
        "L": par.L,
        "m_max": par.m_max,
        "irreducible": irr,
        "components": [[v + 1 for v in c] for c in comps],
        "absent_variables": [i + 1 for i in range(h.r) if h.multiplicities[i] == 0],
    }
