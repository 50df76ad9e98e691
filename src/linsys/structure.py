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

    @property
    def r1(self) -> int:
        return self.multiplicities.count(1)

    @property
    def r2(self) -> int:
        return len(self.vertices) - self.r1

    @property
    def m_max(self) -> int:
        return max(self.multiplicities, default=0)

    @property
    def irreducible(self) -> bool:
        return len(self.vertices) == self.r and len(self.components) == 1


def build_hypergraph(s: ZSystem | FpSystem) -> SystemHypergraph:
    edges = tuple(tuple(i for i, c in enumerate(row) if c != 0) for row in s.rows)
    mult = [0] * s.r
    for e in edges:
        for i in e:
            mult[i] += 1
    vertices = tuple(i for i in range(s.r) if mult[i] > 0)
    # each variable carries the least member of its component so far; an
    # edge relabels every component it touches (r <= 64, so a pass is cheap)
    label = list(range(s.r))
    for e in edges:
        touched = {label[i] for i in e}
        if len(touched) > 1:
            least = min(touched)
            label = [least if lab in touched else lab for lab in label]
    groups: dict[int, list[int]] = {}
    for v in vertices:  # a component's least member comes first, so groups sit in that order
        groups.setdefault(label[v], []).append(v)
    components = tuple(tuple(g) for g in groups.values())
    return SystemHypergraph(s.r, vertices, edges, tuple(mult), components)


def hypergraph_report(s: ZSystem | FpSystem) -> dict:
    """JSON-ready summary; variable indices are 1-based to match x-names."""
    h = build_hypergraph(s)
    return {
        "J": [v + 1 for v in h.vertices],
        "edges": [[v + 1 for v in e] for e in h.edges],
        "multiplicities": list(h.multiplicities),
        "r1": h.r1,
        "r2": h.r2,
        "L": h.L,
        "m_max": h.m_max,
        "irreducible": h.irreducible,
        "components": [[v + 1 for v in c] for c in h.components],
        "absent_variables": [i + 1 for i in range(h.r) if h.multiplicities[i] == 0],
    }
