"""Tests of the benchmark's own oracles, on graphs small enough to check
by hand.  Run with `python3 -m pytest perfbench`."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
from oracle import Graph  # noqa: E402
from plan import wall_pairs  # noqa: E402


def make(group: str, edges, labels) -> Graph:
    g = oracle.parse_group(group)
    return Graph(
        g,
        frozenset(v for e in edges for v in e),
        {i: tuple(e) for i, e in enumerate(edges)},
        {i: oracle.decode(g, lab) for i, lab in enumerate(labels)},
    )


def numbers(graph: Graph):
    hot = [c.vertex_set for c in oracle.graph_cycles(graph) if all(oracle.nonzero_coords(graph, c))]
    return oracle.max_packing(hot, 1), oracle.max_packing(hot, 2), oracle.min_transversal(hot)


def test_group_arithmetic():
    free2 = oracle.parse_group("free2")
    assert oracle.add(free2, (1, 2), (-2, -1)) == ()
    assert oracle.neg(free2, (1, -2)) == (2, -1)
    assert oracle.decode(free2, [1, 2, -2, 2]) == (1, 2)
    z5 = oracle.parse_group("z5")
    assert oracle.add(z5, 3, 4) == 2 and oracle.neg(z5, 2) == 3
    g = oracle.parse_group("sum(z,free2)")
    assert g == ("sum", ("z",), ("free", 2))
    assert oracle.add(g, (2, (1,)), (-2, (-1,))) == oracle.zero(g)
    assert oracle.parse_group("sum(z2,za3)") == ("sum", ("zn", 2), ("za", 3))


def test_triangle_value_and_orientation():
    # 0 -> 1 -> 2 -> 0 with labels 1, 1, 1 in Z3: the cycle value is 3 = 0
    tri = make("z3", [(0, 1), (1, 2), (2, 0)], [1, 1, 1])
    (cyc,) = oracle.graph_cycles(tri)
    assert oracle.nonzero_coords(tri, cyc) == (False, False)
    # reversing one edge subtracts its label instead: 1 + 1 - 1 = 1
    bent = make("z3", [(0, 1), (1, 2), (0, 2)], [1, 1, 1])
    (cyc,) = oracle.graph_cycles(bent)
    assert oracle.nonzero_coords(bent, cyc) == (True, True)


def test_free_group_cycle_is_conjugation_invariant():
    # labels a, b, a^-1 b^-1 around a triangle: the value is the
    # commutator a b a^-1 b^-1 from any start, never the identity
    tri = make("free2", [(0, 1), (1, 2), (2, 0)], [[1], [2], [-1, -2]])
    (cyc,) = oracle.graph_cycles(tri)
    assert oracle.nonzero_coords(tri, cyc) == (True, True)
    flat = make("free2", [(0, 1), (1, 2), (2, 0)], [[1], [2], [-2, -1]])
    (cyc,) = oracle.graph_cycles(flat)
    assert oracle.nonzero_coords(flat, cyc) == (False, False)


def test_bowtie_and_disjoint_triangles():
    # one edge labelled (1, 1) per triangle makes each doubly non-zero
    labels = [[1, 1], [0, 0], [0, 0]] * 2
    bowtie = make("sum(z2,z3)", [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)], labels)
    assert numbers(bowtie) == (1, 2, 1)  # both triangles meet at vertex 0
    apart = make("sum(z2,z3)", [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], labels)
    assert numbers(apart) == (2, 2, 2)


def test_k4_all_cycles_hot():
    # distinct powers of two make every cycle non-zero in both coordinates
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    k4 = make("sum(z,z)", edges, [[2**i, 2**i] for i in range(6)])
    assert len(oracle.graph_cycles(k4)) == 7
    # any two cycles of K4 meet; two 4-cycles use every vertex twice;
    # one vertex leaves a triangle, two leave none
    assert numbers(k4) == (1, 2, 2)


def test_milp_on_a_ring_of_sets():
    sets = [frozenset({0, 1, 2}), frozenset({2, 3, 4}), frozenset({4, 5, 0})]
    assert oracle.max_packing(sets, 1) == 1
    assert oracle.max_packing(sets, 2) == 3
    assert oracle.min_transversal(sets) == 2
    assert oracle.max_packing([], 1) == 0 and oracle.min_transversal([]) == 0


def test_cycle_from_edge_ids():
    g = make("z2", [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], [1] * 6)
    cyc = oracle.cycle_from_edge_ids(g, [2, 0, 1])
    assert cyc is not None and cyc.vertex_set == {0, 1, 2}
    assert oracle.cycle_from_edge_ids(g, [0, 1]) is None  # a path
    assert oracle.cycle_from_edge_ids(g, [0, 1, 2, 3, 4, 5]) is None  # two cycles
    assert oracle.cycle_from_edge_ids(g, [0, 0, 1]) is None
    assert oracle.cycle_from_edge_ids(g, [7]) is None


def test_first_coordinate_cover():
    # first coordinate non-zero on two edges that meet at vertex 1
    g = make("sum(z2,z3)", [(0, 1), (1, 2), (2, 0)], [[1, 0], [1, 0], [0, 1]])
    assert oracle.first_coordinate_cover(g) == {1}


def test_confusable():
    # a theta graph: paths A = 0-1, B = 0-2-1, C = 0-3-1 between 0 and 1
    edges = [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)]
    g = make("z5", edges, [0, 1, 0, 1, 0])
    ab = oracle.cycle_from_edge_ids(g, [0, 1, 2])
    ac = oracle.cycle_from_edge_ids(g, [0, 3, 4])
    # equal values (1 or -1) from vertex 0, sharing only edge 0
    assert oracle.confusable(g, ab, ac, frozenset({0}), 0)
    assert not oracle.confusable(g, ab, ac, frozenset(), 0)  # shared edge not on a zero cycle
    g2 = make("z5", edges, [0, 1, 0, 2, 0])
    ab2 = oracle.cycle_from_edge_ids(g2, [0, 1, 2])
    ac2 = oracle.cycle_from_edge_ids(g2, [0, 3, 4])
    assert not oracle.confusable(g2, ab2, ac2, frozenset({0}), 0)  # {1, 4} vs {2, 3}


def test_wall_has_288_cycles():
    pairs = wall_pairs(3)
    assert len(pairs) == 38
    cycles = oracle.topology_cycles({v for p in pairs for v in p}, {frozenset(p): i for i, p in enumerate(pairs)})
    assert len(cycles) == 288
