import json
import random
import re
from collections import Counter
from pathlib import Path

import networkx as nx
import pytest

from nonzero_cycles import cycles, graphs, groups, packing
from nonzero_cycles.cycles import (
    EnumerationLimitError,
    coordinate_values,
    doubly_nonzero_masks,
    enumerate_cycles,
    enumerate_nonzero_a_paths,
    is_robust,
    zero_edge_set,
)
from nonzero_cycles.graphs import (
    Cycle,
    Edge,
    GraphFormatError,
    LabeledGraph,
    Walk,
    decode_graph,
    shifted_value,
    walk_payload,
    walk_value,
    walk_zeros,
)
from nonzero_cycles.walls import elementary_wall
from test_packing import reference_a_paths

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
    assert doubly_nonzero_masks(g) == [(0b11, (1, 0))]


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


# ---------------------------------------------------------------------------
# the pruned DFS and the mask pair scan against the implementations they
# replaced: a DFS that meets every cycle from both root edges and keeps the
# first traversal, and an all-pairs scan with frozenset tests


def reference_enumeration(graph):
    """(edges, rep.vertices, rep.edges, zero) per cycle, in output order."""
    found = {}

    def record(verts, eids):
        key = frozenset(eids)
        if key not in found:
            found[key] = Cycle(verts, eids)

    adjacency = graph.adjacency()
    order = sorted(graph.vertices)
    bit = {v: 1 << i for i, v in enumerate(order)}
    before = 0
    for root in order:
        before |= bit[root]
        for eid in graph.incident(root):
            e = graph.edge(eid)
            if e.tail == e.head:
                record((root, root), (eid,))
        stack = [(root, (root,), (), before, None)]
        while stack:
            v, verts, eids, used, last = stack.pop()
            for eid, w in adjacency[v]:
                if eid == last:
                    continue
                if w == root:
                    record(verts + (root,), eids + (eid,))
                    continue
                b = bit[w]
                if used & b:
                    continue
                stack.append((w, verts + (w,), eids + (eid,), used | b, eid))
    out = []
    for key, c in found.items():
        v1, v2 = coordinate_values(graph, c)
        out.append((key, c.vertices, c.edges, (groups.is_zero(v1), groups.is_zero(v2))))
    out.sort(key=lambda t: (len(t[0]), tuple(sorted(t[0]))))
    return out


def coordinate_abelian(desc, i):
    # read from the descriptor here, apart from `groups.coordinate_groups`
    return (desc.parts[i] if desc.kind == groups.KIND_DIRECT_SUM else desc).is_abelian


def rooted_coordinate_values(graph, cycle, root, i):
    """Values of the cycle in coordinate i over both traversal directions."""
    rooted = cycle.rooted_at(root)
    vals = set()
    for c in (rooted, rooted.reversed()):
        vals.add(coordinate_values(graph, c)[i])
    return vals


def reference_is_robust(graph, cycles):
    coords = 2 if graph.descriptor.kind == groups.KIND_DIRECT_SUM else 1
    for i in range(coords):
        zi = zero_edge_set(graph, i, cycles)
        hot = [c for c in cycles if c.nonzero_in(i)]
        # each record builds its edge set and representative on read: read once
        edges, reps = [c.edges for c in hot], [c.rep for c in hot]
        rooted = {}  # (a, root) -> rooted_coordinate_values of hot[a]
        abelian = coordinate_abelian(graph.descriptor, i)
        for a in range(len(hot)):
            for b in range(a + 1, len(hot)):
                c1, c2 = reps[a], reps[b]
                shared = edges[a] & edges[b]
                if not shared or not shared <= zi:
                    continue
                common = c1.vertex_set() & c2.vertex_set()
                if not common:
                    continue
                if abelian:
                    v1 = coordinate_values(graph, c1)[i]
                    v2 = coordinate_values(graph, c2)[i]
                    if {v1, groups.inv(v1)} & {v2, groups.inv(v2)}:
                        return False, (i, c1, c2, min(common))
                else:
                    for root in sorted(common):
                        for k, c in ((a, c1), (b, c2)):
                            if (k, root) not in rooted:
                                rooted[k, root] = rooted_coordinate_values(graph, c, root, i)
                        if rooted[a, root] & rooted[b, root]:
                            return False, (i, c1, c2, root)
    return True, None


def robust_summary(graph, verdict):
    ok, witness = verdict
    if witness is None:
        return ok, None
    if isinstance(witness, tuple):
        i, c1, c2, root = witness
        first, second = c1.rooted_at(root), c2.rooted_at(root)
    else:
        i, first, second, root = witness.coordinate, witness.first, witness.second, witness.root
    return ok, (i, first.vertices, first.edges, second.vertices, second.edges, root)


DESCRIPTORS = (
    groups.integers(),
    groups.cyclic(6),
    groups.free_group(2),
    groups.direct_sum(groups.cyclic(2), groups.cyclic(3)),
    groups.direct_sum(groups.free_group(2), groups.free_group(2)),
)


def sparse_label(desc, rng):
    # identity often enough that zero cycles, and so confusable pairs, occur
    if rng.random() < 0.4:
        return groups.identity(desc)
    return groups.random_element(desc, rng, span=1)


def random_multigraph(rng, desc):
    """Loops, parallel edges, one to three components plus isolated
    vertices; vertex and edge ids neither contiguous nor in edge order."""
    verts = rng.sample(range(40), rng.randint(2, 9))
    blocks = [[v] for v in verts[: rng.randint(1, 3)]]
    for v in verts[len(blocks):]:
        rng.choice(blocks).append(v)
    pairs = []
    for block in blocks:
        for _ in range(rng.randint(0, 2 * len(block) + 1)):
            pairs.append((rng.choice(block), rng.choice(block)))
    eids = rng.sample(range(100), len(pairs))
    edges = [Edge(eid, u, v, sparse_label(desc, rng)) for eid, (u, v) in zip(eids, pairs)]
    return LabeledGraph(desc, verts + [40 + rng.randrange(5)], edges)


def labelled_wall(r, desc, rng):
    g = elementary_wall(r, desc).graph
    return g.with_labels({eid: sparse_label(desc, rng) for eid in g.edge_ids()})


def comparison_graphs():
    rng = random.Random(2024)
    graphs = [random_multigraph(rng, DESCRIPTORS[k % len(DESCRIPTORS)]) for k in range(200)]
    for desc in DESCRIPTORS:
        graphs.append(labelled_wall(2, desc, rng))
    for desc in DESCRIPTORS[:4]:
        graphs.append(labelled_wall(3, desc, rng))
    return graphs


def test_pruned_enumeration_matches_reference_dfs():
    sizes = set()
    for g in comparison_graphs():
        got = [(c.edges, c.rep.vertices, c.rep.edges, c.zero) for c in enumerate_cycles(g)]
        assert got == reference_enumeration(g)
        sizes.add(len(got))
    assert 0 in sizes and max(sizes) >= 288  # the 3-wall's cycles are all met


def test_kept_values_are_the_representatives_values():
    # the value the DFS folds as it closes a cycle is the value `walk_value`
    # gives its representative, in abelian and free groups, alone and in
    # direct sums, with loops, parallel edges and zero labels
    rng = random.Random(2025)
    graphs = comparison_graphs()[::3]
    for text in ("z", "z5", "za2", "free2", "q(2,4,0)", "sum(z,free2)", "sum(free2,free2)"):
        graphs += [random_multigraph(rng, groups.parse_descriptor(text)) for _ in range(40)]
    kinds = set()
    for g in graphs:
        for c in enumerate_cycles(g):
            assert c.values == coordinate_values(g, c.rep)
            assert c.zero == (groups.is_zero(c.values[0]), groups.is_zero(c.values[1]))
            kinds.add((str(g.descriptor), len(c.edges) == 1, len(c.edges) == 2, c.zero))
    for text in ("z", "z5", "za2", "free2", "q(2,4,0)"):
        # a loop, a pair of parallel edges and longer cycles, zero and not
        assert {k[1:3] for k in kinds if k[0] == text} == {(True, False), (False, True), (False, False)}
        assert {k[3] for k in kinds if k[0] == text} == {(True, True), (False, False)}
    for text in ("sum(z,free2)", "sum(free2,free2)"):
        assert {k[3] for k in kinds if k[0] == text} == {(True, True), (True, False), (False, True), (False, False)}


def test_mask_pair_scan_matches_all_pairs_reference():
    data = json.loads((Path(__file__).parent / "data" / "analyze_walls.json").read_text())
    graphs = comparison_graphs() + [decode_graph(case["graph"]) for case in data]
    seen = set()
    for g in graphs:
        found = enumerate_cycles(g)
        got = robust_summary(g, is_robust(g, cycles=found))
        assert got == robust_summary(g, reference_is_robust(g, found))
        if not got[0]:
            seen.add(coordinate_abelian(g.descriptor, got[1][0]))
    assert seen == {True, False}  # witnesses in abelian and non-abelian coordinates


def test_doubly_nonzero_masks_are_the_doubly_nonzero_cycles_in_order():
    # the mask has bit i for the i-th smallest vertex of the graph, isolated
    # vertices included, and the edge ids are the representative's
    rng = random.Random(2026)
    graphs = comparison_graphs()[::2]
    for text in ("z", "z5", "za2", "free2", "q(2,4,0)", "sum(z,free2)", "sum(free2,free2)"):
        graphs += [random_multigraph(rng, groups.parse_descriptor(text)) for _ in range(20)]
    kept = dropped = 0
    for g in graphs:
        bit = {v: 1 << i for i, v in enumerate(sorted(g.vertices))}
        found = enumerate_cycles(g)
        expected = [
            (sum(bit[v] for v in c.rep.vertex_set()), c.rep.edges) for c in found if c.doubly_nonzero
        ]
        assert doubly_nonzero_masks(g) == expected
        kept += len(expected)
        dropped += len(found) - len(expected)
    assert kept > 300 and dropped > 300


def test_doubly_nonzero_masks_count_every_cycle_towards_the_limit():
    # a bundle of four parallel edges labelled 1, 1, 0, 0 in z: six cycles,
    # of which only the four mixed pairs are non-zero
    g = parallel_bundle([1, 1, 0, 0])
    assert len(enumerate_cycles(g)) == 6 and len(doubly_nonzero_masks(g)) == 4
    for limit in range(6):
        for enumerate_ in (enumerate_cycles, doubly_nonzero_masks):
            with pytest.raises(EnumerationLimitError, match=f"more than {limit} cycles"):
                enumerate_(g, limit=limit)
    assert len(doubly_nonzero_masks(g, limit=6)) == 4


def test_enumerated_cycles_equal_checked_cycles():
    # `enumerate_cycles` builds its representatives without the checks of
    # `Cycle`; each equals the checked cycle on the same walk, and follows
    # the graph's edges, on multigraphs with loops and parallel edges
    rng = random.Random(2027)
    graphs = [random_multigraph(rng, DESCRIPTORS[k % len(DESCRIPTORS)]) for k in range(150)]
    loops = parallel = 0
    for g in graphs:
        for c in enumerate_cycles(g):
            checked = Cycle(c.rep.vertices, c.rep.edges)
            assert type(c.rep) is Cycle
            assert c.rep == checked and hash(c.rep) == hash(checked)
            checked.validate(g)
            loops += len(c.edges) == 1
            parallel += len(c.edges) == 2
    assert loops > 50 and parallel > 50


def test_raw_shift_reroots_a_cycle():
    # the shift rule on raw payloads: a cycle of raw value x, rerooted at the
    # j-th vertex of its representative, has the value -p + x + p, p the raw
    # value of its first j edges, as `walk_value` gives it on the rerooted
    # cycle; in a free group and in a direct sum with a free summand
    rng = random.Random(2028)
    rerooted = 0
    for text in ("free2", "sum(z,free2)"):
        desc = groups.parse_descriptor(text)
        t = groups.table(desc)
        graphs = [random_multigraph(rng, desc) for _ in range(30)] + [labelled_wall(2, desc, rng)]
        for g in graphs:
            for c in enumerate_cycles(g):
                verts, eids = c.rep.vertices, c.rep.edges
                for j, v in enumerate(verts[:-1]):
                    p = walk_payload(g, Walk(verts[: j + 1], eids[:j]))
                    expected = walk_value(g, c.rep.rooted_at(v))
                    assert groups.GroupElement(desc, shifted_value(t, {v: p}, v, c.raw, v)) == expected
                    rerooted += c.raw != expected.payload
    assert rerooted > 100  # rerooting changed the value that often


def test_walk_reader_reads_every_enumerated_cycle_as_the_dfs_does():
    # `walk_zeros` on a record's representative, on its reverse and rooted at
    # each of its vertices gives the record's zero flags
    rng = random.Random(2040)
    flags = set()
    for text in ("z3", "free2", "sum(z2,z3)", "sum(z,free2)", "sum(free2,free2)"):
        desc = groups.parse_descriptor(text)
        for g in [random_multigraph(rng, desc) for _ in range(30)] + [labelled_wall(2, desc, rng)]:
            for c in enumerate_cycles(g):
                rep = c.rep
                walks = [rep, rep.reversed()] + [rep.rooted_at(v) for v in rep.vertices[:-1]]
                assert all(walk_zeros(g, w) == c.zero for w in walks)
                flags.add((text, c.zero))
    for text in ("sum(z2,z3)", "sum(z,free2)", "sum(free2,free2)"):
        assert {zero for t, zero in flags if t == text} == {(True, True), (True, False), (False, True), (False, False)}
    for text in ("z3", "free2"):
        assert {zero for t, zero in flags if t == text} == {(True, True), (False, False)}


def test_walk_reader_raises_the_errors_of_walk_validate():
    rng = random.Random(2041)
    for text in ("z3", "free2", "sum(z2,z3)", "sum(z,free2)", "sum(free2,free2)"):
        g = labelled_wall(2, groups.parse_descriptor(text), rng)
        rep = enumerate_cycles(g)[0].rep
        wrong_step = Walk(rep.vertices, rep.edges[1:] + rep.edges[:1])
        unknown = Walk(rep.vertices, rep.edges[:-1] + (10**6,))
        for walk in (wrong_step, unknown):
            with pytest.raises(GraphFormatError) as expected:
                walk.validate(g)
            with pytest.raises(GraphFormatError, match=f"^{re.escape(str(expected.value))}$"):
                walk_zeros(g, walk)


def test_enumeration_and_robustness_check_wrap_no_element(monkeypatch):
    # both work on raw payloads: no element is built, no walk is folded,
    # and the only cycles built with the checks are the witness's two
    def refuse(*args):
        raise AssertionError("called on the raw path")

    for name in ("walk_value", "coordinate_values"):
        monkeypatch.setattr(cycles, name, refuse)
    monkeypatch.setattr(graphs, "walk_payload", refuse)  # every walk fold in the package
    checked = []
    post_init = Cycle.__post_init__

    def counting(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(Cycle, "__post_init__", counting)
    data = json.loads((Path(__file__).parent / "data" / "analyze_walls.json").read_text())
    witnesses = 0
    for case in data:
        g = decode_graph(case["graph"])
        g.steps()  # built once from the labels, which are elements
        with monkeypatch.context() as patched:
            patched.setattr(groups.GroupElement, "__init__", refuse)
            ok, witness = is_robust(g, cycles=enumerate_cycles(g))
        assert len(checked) == (0 if ok else 2)
        witnesses += not ok
        checked.clear()
    assert witnesses >= 3


def test_packing_reads_the_a_path_dfs_and_the_mask_decoder_from_cycles():
    # one module owns the DFS formats: packing re-exports, it does not copy
    assert packing.enumerate_nonzero_a_paths is cycles.enumerate_nonzero_a_paths
    assert packing._mask_vertices is cycles._mask_vertices


# ---------------------------------------------------------------------------
# chains: the DFS passes through vertices with exactly two edges, neither a
# loop, unless they are smaller than both their neighbours; every shape of
# run, read against the per-edge reference DFS above, which knows nothing of
# chains


def subdivided_multigraph(rng, desc):
    """A random multigraph on one to five branch vertices whose edges are
    chains of zero to three inner vertices, with closed chains (a chain
    from a vertex back to itself), loops on branch and inner vertices, and
    components that are bare cycles.  Vertex and edge ids are drawn at
    random, so a chain's inner ids lie below and above its ends."""
    new_vertex = iter(rng.sample(range(300), 300)).__next__
    new_edge = iter(rng.sample(range(600), 600)).__next__
    branch = [new_vertex() for _ in range(rng.randint(1, 5))]
    verts, edges = set(branch), []

    def path(seq):
        for a, b in zip(seq, seq[1:]):
            if rng.random() < 0.5:
                a, b = b, a
            edges.append(Edge(new_edge(), a, b, sparse_label(desc, rng)))

    inner = []
    for _ in range(rng.randint(0, 7)):
        u, v = rng.choice(branch), rng.choice(branch)
        run = [new_vertex() for _ in range(rng.randint(1 if u == v else 0, 3))]
        inner += run
        path([u] + run + [v])
    for _ in range(rng.choice((0, 0, 1, 2))):  # a bare cycle of one to four vertices
        ring = [new_vertex() for _ in range(rng.randint(1, 4))]
        verts.update(ring)
        path(ring + ring[:1] if len(ring) > 1 else ring * 2)
    for _ in range(rng.choice((0, 0, 1))):
        v = rng.choice(inner or branch)
        edges.append(Edge(new_edge(), v, v, sparse_label(desc, rng)))
    return LabeledGraph(desc, verts | set(inner), edges)


def runs_of(graph):
    """The maximal runs of vertices with exactly two edges, neither a loop,
    each with its ends: one per edge leaving the run, none for a component
    that is a bare cycle."""
    def is_loop(eid):
        e = graph.edge(eid)
        return e.tail == e.head

    two = {v for v in graph.vertices if len(graph.incident(v)) == 2 and not any(map(is_loop, graph.incident(v)))}
    out, seen = [], set()
    for start in sorted(two):
        if start in seen:
            continue
        run, ends, todo = set(), [], [start]
        while todo:
            v = todo.pop()
            if v in run:
                continue
            run.add(v)
            for eid in graph.incident(v):
                w = graph.other_end(eid, v)
                (todo if w in two else ends).append(w)
        seen |= run
        out.append((run, ends))
    return out


def run_shapes(graph):
    shapes = set()
    for run, ends in runs_of(graph):
        if not ends:
            shapes.add("bare cycle")
        else:
            shapes.add("closed chain" if len(set(ends)) == 1 else "open chain")
            shapes.add("smallest inside" if min(run) < min(ends) else "smallest at an end")
            shapes.add(f"{len(run)} inner" if len(run) < 4 else "4+ inner")
    for eid in graph.edge_ids():
        e = graph.edge(eid)
        if e.tail == e.head and len(graph.incident(e.tail)) == 2:
            shapes.add("loop on a vertex of two edges")
    return shapes


SUBDIVIDED_GROUPS = ("z", "z5", "free2", "sum(z2,z3)", "sum(free2,free2)")


def subdivided_graphs(seed, per_group):
    rng = random.Random(seed)
    return [
        subdivided_multigraph(rng, groups.parse_descriptor(text)) for text in SUBDIVIDED_GROUPS for _ in range(per_group)
    ]


def test_chains_of_every_shape_enumerate_as_the_reference_dfs():
    shapes, found = set(), 0
    for g in subdivided_graphs(2031, 80):
        shapes |= run_shapes(g)
        cs = enumerate_cycles(g)
        assert [(c.edges, c.rep.vertices, c.rep.edges, c.zero) for c in cs] == reference_enumeration(g)
        for c in cs:
            assert c.values == coordinate_values(g, c.rep)
        bit = {v: 1 << i for i, v in enumerate(sorted(g.vertices))}
        expected = [(sum(bit[v] for v in c.rep.vertex_set()), c.rep.edges) for c in cs if c.doubly_nonzero]
        assert doubly_nonzero_masks(g) == expected
        found += len(cs)
    assert shapes == {
        "bare cycle", "closed chain", "open chain", "smallest inside", "smallest at an end",
        "1 inner", "2 inner", "3 inner", "4+ inner", "loop on a vertex of two edges",
    }
    assert found > 1000


def rule_kept(graph, keep):
    """The vertices the kept-vertex rule keeps, read from the edges: those
    without exactly two edges, neither a loop, those of `keep`, and those
    smaller than both their neighbours."""
    out = set()
    for v in graph.vertices:
        eids = graph.incident(v)
        loops = any(graph.edge(eid).tail == graph.edge(eid).head for eid in eids)
        if len(eids) != 2 or loops or v in keep or all(v < graph.other_end(eid, v) for eid in eids):
            out.add(v)
    return out


def test_bit_steps_keeps_the_vertices_below_both_neighbours():
    # with no terminals and with random ones; every cycle's smallest vertex
    # is kept, and many runs keep two or more of their vertices, so the
    # enumeration test on the same graphs meets chains between such vertices
    rng = random.Random(2035)
    several = 0
    for g in subdivided_graphs(2031, 80):
        pool = sorted(g.vertices)
        few = set(rng.sample(pool, min(len(pool), rng.randint(1, 3))))
        for keep in (set(), few, set(rng.sample(pool, len(pool) // 2))):
            assert list(cycles._bit_steps(g, keep)[1]) == sorted(rule_kept(g, keep))
        kept = cycles._bit_steps(g)[1]
        for c in enumerate_cycles(g):
            assert min(c.rep.vertex_set()) in kept
        several += sum(len(run & kept.keys()) >= 2 for run, _ in runs_of(g))
    assert several > 100


def test_a_subdivided_bundle_counts_every_cycle_towards_the_limit():
    # four chains from 10 to 20 with inner ids below, between and above
    # their ends, the first edge of each labelled 1, 1, 0, 0 in z: six
    # cycles, of which only the four mixed pairs are non-zero
    runs = ([5], [15, 25], [30], [1, 2])
    edges = []
    for label, run in zip((1, 1, 0, 0), runs):
        seq = [10] + run + [20]
        for a, b in zip(seq, seq[1:]):
            edges.append(Edge(len(edges), a, b, lab(label if a == 10 else 0)))
    g = LabeledGraph(Z, {10, 20}.union(*runs), edges)
    assert len(enumerate_cycles(g)) == 6 and len(doubly_nonzero_masks(g)) == 4
    for limit in range(6):
        for enumerate_ in (enumerate_cycles, doubly_nonzero_masks):
            with pytest.raises(EnumerationLimitError, match=f"more than {limit} cycles"):
                enumerate_(g, limit=limit)
    assert len(doubly_nonzero_masks(g, limit=6)) == 4


def test_a_paths_with_terminals_inside_runs_and_at_their_ends():
    # each path in the reference's order and from its smaller end
    rng = random.Random(2032)
    seen = Counter()
    for g in subdivided_graphs(2033, 40):
        runs = runs_of(g)
        inside = sorted(set().union(*(run for run, _ in runs)))
        at_ends = sorted({v for _, ends in runs for v in ends})
        pool = sorted(g.vertices)
        for _ in range(3):
            terms = set(rng.sample(inside, min(len(inside), rng.randint(0, 2))))
            terms |= set(rng.sample(at_ends, min(len(at_ends), rng.randint(0, 2))))
            if len(terms) < 2:
                terms |= set(rng.sample(pool, min(len(pool), 2)))
            seen["inside"] += bool(terms & set(inside))
            seen["at an end"] += bool(terms & set(at_ends))
            seen["run between two"] += any(len(set(ends) & terms) == 2 and not run & terms for run, ends in runs)
            paths = enumerate_nonzero_a_paths(g, terms)
            assert paths == reference_a_paths(g, terms)
            seen["paths"] += len(paths)
    assert min(seen.values()) > 30, seen


def test_cycle_counts_match_networkx_on_subdivided_graphs():
    # an oracle apart from the package: the number of cycles of the
    # undirected graph, on walls with extra subdivisions and on subdivided
    # simple random graphs, all with shuffled vertex ids
    rng = random.Random(2034)

    def subdivide(pairs, n):
        # pairs over the vertices 0..n-1, each edge a chain of 0-2 new vertices
        ids = iter(rng.sample(range(3 * len(pairs) + n), 3 * len(pairs) + n)).__next__
        named = [ids() for _ in range(n)]
        arcs = []
        for u, v in pairs:
            seq = [named[u]] + [ids() for _ in range(rng.choice((0, 0, 1, 2)))] + [named[v]]
            arcs += zip(seq, seq[1:])
        verts = set(named).union(*arcs)
        g = LabeledGraph(Z, verts, [Edge(i, a, b, lab(0)) for i, (a, b) in enumerate(arcs)])
        nxg = nx.Graph()
        nxg.add_nodes_from(verts)
        nxg.add_edges_from(arcs)
        return g, nxg

    cases = []
    for r in (2, 3, 4):
        w = elementary_wall(r, Z).graph
        index = {v: i for i, v in enumerate(sorted(w.vertices))}
        pairs = [(index[w.edge(e).tail], index[w.edge(e).head]) for e in w.edge_ids()]
        cases.append(subdivide(pairs, len(index)))
    for _ in range(100):
        n = rng.randint(2, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
        cases.append(subdivide(pairs, n))
    counts = []
    for g, nxg in cases:
        counts.append(len(enumerate_cycles(g)))
        assert counts[-1] == sum(1 for _ in nx.simple_cycles(nxg))
    assert counts[:3] == [14, 288, 19306] and sum(counts[3:]) > 500


# ---------------------------------------------------------------------------
# lean records: the output order is one integer per cycle over edge bits
# numbered from the largest edge id down, and `is_robust` pairs cycles by
# their edge and vertex masks; both against the plain definitions, on
# multigraphs whose edge ids are negative, non-contiguous and shuffled
# against the vertex order


def signed_multigraph(rng, desc):
    """Loops, parallel edges and one or two components, with vertex and
    edge ids drawn from ranges around zero, so that edge ids run negative,
    with gaps, in no relation to the vertex order."""
    verts = rng.sample(range(-30, 30), rng.randint(2, 8))
    cut = rng.randint(1, len(verts))
    blocks = [verts[:cut], verts[cut:]] if cut < len(verts) else [verts]
    pairs = []
    for block in blocks:
        for _ in range(rng.randint(1, 2 * len(block) + 2)):
            pairs.append((rng.choice(block), rng.choice(block)))
    eids = rng.sample(range(-80, 80), len(pairs))
    edges = [Edge(eid, u, v, sparse_label(desc, rng)) for eid, (u, v) in zip(eids, pairs)]
    return LabeledGraph(desc, verts, edges)


LEAN_GROUPS = ("z", "z5", "free2", "sum(z2,z3)", "sum(z,free2)", "sum(free2,free2)")


def lean_graphs():
    rng = random.Random(2036)
    graphs = [signed_multigraph(rng, groups.parse_descriptor(text)) for text in LEAN_GROUPS for _ in range(40)]
    for text in ("free2", "sum(free2,free2)"):
        graphs += [labelled_wall(2, groups.parse_descriptor(text), rng) for _ in range(3)]
    return graphs


def test_enumeration_order_is_length_then_sorted_edge_ids():
    negative = 0
    for g in lean_graphs():
        cs = enumerate_cycles(g)
        keys = [(len(c.edges), sorted(c.edges)) for c in cs]
        assert keys == sorted(keys) and len({tuple(k) for _, k in keys}) == len(keys)
        assert [(len(w.edges), sorted(w.edges)) for w in [c.rep for c in cs]] == keys
        expected = [c.rep.edges for c in cs if c.doubly_nonzero]
        assert [eids for _, eids in doubly_nonzero_masks(g)] == expected
        negative += any(k[1][0] < 0 for k in keys)
    assert negative > 100


def test_a_path_order_is_length_then_sorted_edge_ids():
    rng = random.Random(2037)
    found = 0
    for g in lean_graphs()[::2]:
        terms = rng.sample(sorted(g.vertices), min(len(g.vertices), rng.randint(2, 4)))
        keys = [(len(w.edges), sorted(w.edges)) for w in enumerate_nonzero_a_paths(g, terms)]
        assert keys == sorted(keys)
        found += len(keys)
    assert found > 100


def test_mask_robustness_and_zero_edges_on_signed_multigraphs():
    verdicts = Counter()
    for g in lean_graphs():
        found = enumerate_cycles(g)
        got = robust_summary(g, is_robust(g, cycles=found))
        assert got == robust_summary(g, reference_is_robust(g, found))
        for i in (0, 1):
            expected = frozenset().union(*(c.edges for c in found if c.zero[i]))
            assert zero_edge_set(g, i, found) == expected
        verdicts[str(g.descriptor), got[0]] += 1
    # robust graphs in every group, witnesses in abelian and free coordinates
    assert all(verdicts[text, True] for text in LEAN_GROUPS), verdicts
    assert all(verdicts[text, False] for text in ("z", "free2", "sum(z2,z3)", "sum(free2,free2)")), verdicts


# ---------------------------------------------------------------------------
# the key filter of `is_robust` (`groups.Table.klass`) against the all-pairs
# reference, on labelled 3-walls where about 30% of the edges are non-zero


def raw_label(desc, rng, one_generator):
    """A raw label of `Table.draw(rng, 1)`; in a free group, with
    `one_generator`, a power of the first generator (the identity too), so
    that the values fall into few, large classes."""
    if desc.kind == groups.KIND_DIRECT_SUM:
        return tuple(raw_label(part, rng, one_generator) for part in desc.parts)
    if one_generator and desc.kind == groups.KIND_FREE_GROUP:
        return (rng.choice((1, -1)),) * rng.randint(0, 2)
    return groups.table(desc).draw(rng, 1)


def sparse_wall(desc, rng, one_generator, share=0.3):
    """The elementary 3-wall, each edge non-zero with probability `share`."""
    g = elementary_wall(3, desc).graph
    t = groups.table(desc)
    labels = {}
    for eid in g.edge_ids():
        raw = t.zero
        if rng.random() < share:
            while raw == t.zero:
                raw = raw_label(desc, rng, one_generator)
        labels[eid] = groups.GroupElement(desc, raw)
    return g.with_labels(labels)


# (group, free labels from one generator) -> the robust draws among the first
# 300 of `sparse_wall` from `random.Random(group + str(flag))`: with 70% of
# the edges zero, zero cycles abound and a robust labelling is rare
KEY_FILTER_WALLS = {
    ("sum(z2,z2)", False): [153],
    ("sum(z3,z3)", False): [],
    ("sum(z2,free2)", False): [190],
    ("sum(z2,free2)", True): [],
    ("sum(free2,free2)", False): [24],
    ("sum(free2,free2)", True): [294],
    ("sum(sum(free2,z2),z3)", False): [],
    ("sum(sum(free2,z2),z3)", True): [44],
}


def test_key_filter_keeps_the_all_pairs_verdict_on_sparse_3_walls():
    # the first six draws of each and its robust ones: the same verdict,
    # coordinate, cycles and root as the reference, which tries every pair
    witnesses = set()
    for (text, one_generator), robust in KEY_FILTER_WALLS.items():
        desc = groups.parse_descriptor(text)
        rng = random.Random(text + str(one_generator))
        picked = set(range(6)) | set(robust)
        for k in range(max(picked) + 1):
            g = sparse_wall(desc, rng, one_generator)
            if k not in picked:
                continue
            found = enumerate_cycles(g)
            got = robust_summary(g, is_robust(g, cycles=found))
            assert got == robust_summary(g, reference_is_robust(g, found)), (text, one_generator, k)
            assert got[0] == (k in robust)
            if not got[0]:
                witnesses.add(coordinate_abelian(desc, got[1][0]))
    assert witnesses == {True, False}
