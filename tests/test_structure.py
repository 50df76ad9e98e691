import json

from linsys.eqsys import parse_system, reduce_mod_p, subsystem
from linsys.structure import build_hypergraph, hypergraph_report
from linsys.systems import builtin

S1 = builtin("S1")


def test_s1_edges_and_multiplicity():
    h = build_hypergraph(S1)
    # 1-based edge sets as written: e1={1,2,3,4}, e2={5,6,7}, e3={5,7,8,9}, e4={4,5,8}
    edges_1based = [tuple(v + 1 for v in e) for e in h.edges]
    assert edges_1based == [(1, 2, 3, 4), (5, 6, 7), (5, 7, 8, 9), (4, 5, 8)]
    assert h.multiplicities[4] == 3  # x5 sits in e2, e3 and e4


def _parameters(h):
    return (h.r1, h.r2, h.L, h.m_max)


def test_s1_parameters():
    assert _parameters(build_hypergraph(S1)) == (5, 4, 4, 3)


def test_w_system_parameters():
    assert _parameters(build_hypergraph(builtin("SW"))) == (3, 2, 2, 2)


def test_4ap_parameters():
    h = build_hypergraph(builtin("S4AP"))
    assert (h.r1, h.r2, h.L) == (2, 2, 2)


def test_s1_irreducible():
    h = build_hypergraph(S1)
    assert h.irreducible
    assert len(h.components) == 1


def test_s1_prime_not_irreducible():
    # first three equations: two connected components
    h = build_hypergraph(subsystem(S1, [0, 1, 2]))
    assert not h.irreducible
    comps_1based = [tuple(v + 1 for v in comp) for comp in h.components]
    assert comps_1based == [(1, 2, 3, 4), (5, 6, 7, 8, 9)]


def test_s1_doubleprime_missing_variable():
    # first, second and fourth equations never mention x9
    h = build_hypergraph(subsystem(S1, [0, 1, 3]))
    assert not h.irreducible
    assert 8 not in h.vertices  # 0-based x9


def test_report_shape_and_1_based_indices():
    rep = hypergraph_report(S1)
    assert rep["J"] == list(range(1, 10))
    assert rep["edges"][0] == [1, 2, 3, 4]
    assert rep["multiplicities"] == [1, 1, 1, 2, 3, 1, 2, 2, 1]
    assert rep["r1"] == 5 and rep["r2"] == 4 and rep["L"] == 4 and rep["m_max"] == 3
    assert rep["irreducible"] is True
    assert rep["absent_variables"] == []
    json.dumps(rep)  # must be JSON-serializable as-is


def test_report_absent_variables():
    rep = hypergraph_report(subsystem(S1, [0, 1, 3]))
    assert rep["absent_variables"] == [9]
    assert rep["irreducible"] is False


def test_hypergraph_on_residue_rows():
    # 3x1 vanishes mod 3: the mod-p hypergraph loses x1
    s = parse_system("3x1 - x2 - 2x3 = 0\nx1 - 2x2 + x3 = 0")
    t = reduce_mod_p(s, 3)
    h = build_hypergraph(t)
    edges_1based = [tuple(v + 1 for v in e) for e in h.edges]
    assert edges_1based == [(2, 3), (1, 2, 3)]


def test_multiplicity_counts_multi_edges():
    # the same support twice still counts twice toward multiplicity
    s = parse_system("x1 - x2 = 0\n2x1 - 2x2 = 0")
    h = build_hypergraph(s)
    assert h.multiplicities == (2, 2)
    assert h.m_max == 2
    assert h.r1 == 0 and h.r2 == 2
