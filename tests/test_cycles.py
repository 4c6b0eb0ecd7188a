import json
import random
from pathlib import Path

import networkx as nx
import pytest

from nonzero_cycles import groups
from nonzero_cycles.cycles import (
    EnumerationLimitError,
    enumerate_cycles,
    is_robust,
    nonzero_cycles,
    zero_edge_set,
)
from nonzero_cycles.graphs import Edge, LabeledGraph, decode_graph

Z = groups.integers()


def lab(v):
    return groups.element(Z, v)


def parallel_bundle(labels):
    edges = [Edge(i, 0, 1, lab(v)) for i, v in enumerate(labels)]
    return LabeledGraph(Z, [0, 1], edges)


def random_simple_graph(rng, n_max=8, p=0.45):
    n = rng.randint(2, n_max)
    verts = list(range(n))
    edges = []
    eid = 0
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append(Edge(eid, u, v, lab(rng.randint(-2, 2))))
                eid += 1
    return LabeledGraph(Z, verts, edges)


def test_enumeration_matches_networkx_on_simple_graphs():
    rng = random.Random(10)
    for _ in range(40):
        g = random_simple_graph(rng)
        ours = enumerate_cycles(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(g.vertices)
        nxg.add_edges_from((e.tail, e.head) for e in g.edges.values())
        by_ends = {frozenset((e.tail, e.head)): e.id for e in g.edges.values()}
        oracle = set()
        for cyc in nx.simple_cycles(nxg):
            closed = list(cyc) + [cyc[0]]
            oracle.add(frozenset(by_ends[frozenset(p)] for p in zip(closed, closed[1:])))
        assert {c.edges for c in ours} == oracle
        assert len(ours) == len(oracle)


def test_enumeration_multigraph_features():
    g = parallel_bundle([1, 1, 0])
    cs = enumerate_cycles(g)
    assert len(cs) == 3  # each pair of parallel edges
    zero_count = sum(1 for c in cs if c.zero[0])
    assert zero_count == 1  # the two equal labels cancel


def test_enumeration_loops():
    g = LabeledGraph(Z, [0], [Edge(0, 0, 0, lab(3)), Edge(1, 0, 0, lab(0))])
    cs = enumerate_cycles(g)
    assert len(cs) == 2
    flags = {frozenset(c.edges): c.zero[0] for c in cs}
    assert flags[frozenset({0})] is False
    assert flags[frozenset({1})] is True


def test_enumeration_deterministic_order():
    rng = random.Random(3)
    g = random_simple_graph(rng)
    a = [tuple(sorted(c.edges)) for c in enumerate_cycles(g)]
    b = [tuple(sorted(c.edges)) for c in enumerate_cycles(g)]
    assert a == b
    assert a == sorted(a, key=lambda t: (len(t), t))


def test_enumeration_limit():
    # K6 has 5! / 2 hamiltonian cycles alone; limit of 5 must trip
    verts = list(range(6))
    edges = []
    eid = 0
    for u in range(6):
        for v in range(u + 1, 6):
            edges.append(Edge(eid, u, v, lab(0)))
            eid += 1
    g = LabeledGraph(Z, verts, edges)
    with pytest.raises(EnumerationLimitError):
        enumerate_cycles(g, limit=5)


def test_zero_edge_set():
    g = parallel_bundle([1, 1, 0])
    cs = enumerate_cycles(g)
    # the only zero cycle is {0,1}
    assert zero_edge_set(g, 0, cs) == frozenset({0, 1})


def test_nonzero_cycles_direct_sum():
    desc = groups.direct_sum(groups.cyclic(2), groups.cyclic(3))
    edges = [
        Edge(0, 0, 1, groups.element(desc, (1, 0))),
        Edge(1, 0, 1, groups.element(desc, (0, 1))),
        Edge(2, 0, 1, groups.element(desc, (0, 0))),
    ]
    g = LabeledGraph(desc, [0, 1], edges)
    hot = nonzero_cycles(g)
    assert [sorted(c.edges) for c in hot] == [[0, 1]]


def test_is_robust_detects_confusable_pair():
    # p(1), q(1), r(0), r2(0): r lies on the zero cycle {r,r2}; the nonzero
    # cycles {p,r} and {q,r} share exactly r and have equal values.
    g = parallel_bundle([1, 1, 0, 0])
    ok, witness = is_robust(g)
    assert not ok
    assert witness.coordinate == 0
    shared = witness.first.edge_set() & witness.second.edge_set()
    assert shared and shared <= zero_edge_set(g, 0)


def test_is_robust_positive():
    g = parallel_bundle([1, 0, 0])
    ok, witness = is_robust(g)
    assert ok and witness is None


def test_is_robust_nonabelian_rooted_comparison():
    F2 = groups.free_group(2)
    def f(word):
        return groups.element(F2, word)
    # triangles through parallel null edges; every shared edge lies on a
    # null two-cycle, and the triangle values agree from vertex 0
    edges = [
        Edge(0, 0, 1, f([1])),
        Edge(1, 1, 2, f([])),
        Edge(2, 2, 0, f([])),
        Edge(3, 1, 2, f([])),
        Edge(4, 0, 1, f([1])),
        Edge(5, 2, 0, f([])),
    ]
    g = LabeledGraph(F2, [0, 1, 2], edges)
    ok, witness = is_robust(g)
    assert not ok


def test_is_robust_with_given_cycles_matches_its_own_enumeration():
    data = json.loads((Path(__file__).parent / "data" / "analyze_walls.json").read_text())
    graphs = [decode_graph(case["graph"]) for case in data]
    rng = random.Random(17)
    for desc in (Z, groups.direct_sum(groups.free_group(2), groups.free_group(2))):
        for _ in range(15):
            n = rng.randint(2, 6)
            edges = [
                Edge(i, rng.randrange(n), rng.randrange(n), groups.random_element(desc, rng, span=1))
                for i in range(rng.randint(1, 9))
            ]
            graphs.append(LabeledGraph(desc, range(n), edges))
    verdicts = set()
    for g in graphs:
        expected = is_robust(g)
        assert is_robust(g, cycles=enumerate_cycles(g)) == expected
        verdicts.add(expected[0])
    assert verdicts == {True, False}
