import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonzero_cycles import groups
from nonzero_cycles.graphs import (
    Cycle,
    Edge,
    GraphFormatError,
    LabeledGraph,
    NotGammaBipartiteError,
    Walk,
    _bfs_forest,
    _tree_walk,
    contract_null_edge,
    cycle_from_edges,
    decode_graph,
    encode_graph,
    is_gamma_bipartite,
    normalize_to_null,
    shift,
    shift_sequence,
    walk_value,
)

Z = groups.integers()
Z5 = groups.cyclic(5)
F2 = groups.free_group(2)


def lab(desc, payload):
    return groups.element(desc, payload)


def random_graph(desc, rng, max_vertices=8, max_edges=12, allow_loops=True):
    n = rng.randint(2, max_vertices)
    verts = list(range(n))
    m = rng.randint(1, max_edges)
    edges = []
    for i in range(m):
        t = rng.choice(verts)
        h = rng.choice(verts)
        if not allow_loops and t == h:
            h = (t + 1) % n
        edges.append(Edge(i, t, h, groups.random_element(desc, rng)))
    return LabeledGraph(desc, verts, edges)


def triangle(desc, labels):
    edges = [
        Edge(0, 0, 1, lab(desc, labels[0])),
        Edge(1, 1, 2, lab(desc, labels[1])),
        Edge(2, 2, 0, lab(desc, labels[2])),
    ]
    return LabeledGraph(desc, [0, 1, 2], edges)


def test_walk_value_respects_orientation():
    g = triangle(Z, [1, 2, 3])
    fwd = Walk((0, 1, 2), (0, 1))
    assert walk_value(g, fwd).payload == 3
    back = fwd.reversed()
    assert walk_value(g, back).payload == -3


def test_walk_value_loop():
    g = LabeledGraph(Z, [0], [Edge(0, 0, 0, lab(Z, 4))])
    assert walk_value(g, Walk((0, 0), (0,))).payload == 4


def test_walk_value_nonabelian_order_matters():
    g = triangle(F2, [[1], [2], []])
    c = Cycle((0, 1, 2, 0), (0, 1, 2))
    assert walk_value(g, c).payload == (1, 2)
    rooted = c.rooted_at(1)
    assert walk_value(g, rooted).payload == (2, 1)
    # conjugate of the original value, and zero-status matches
    assert walk_value(g, c.reversed()).payload == (-2, -1)


def test_cycle_validation():
    with pytest.raises(GraphFormatError):
        Cycle((0, 1), (0,))  # not closed
    with pytest.raises(GraphFormatError):
        Cycle((0, 1, 0, 1, 0), (0, 1, 2, 3))  # revisits


def test_cycle_from_edges():
    g = triangle(Z, [1, 1, 1])
    c = cycle_from_edges(g, [0, 1, 2])
    assert c.vertex_set() == frozenset({0, 1, 2})
    assert c.start == 0
    loop_graph = LabeledGraph(Z, [0], [Edge(5, 0, 0, lab(Z, 1))])
    assert cycle_from_edges(loop_graph, [5]).edges == (5,)
    with pytest.raises(GraphFormatError):
        cycle_from_edges(g, [0, 1])


def test_shift_rules():
    g = triangle(Z, [1, 2, 3])
    shifted = shift(g, 1, lab(Z, 10))
    # edge 0 has head 1: label + alpha; edge 1 has tail 1: -alpha + label
    assert shifted.edge(0).label.payload == 11
    assert shifted.edge(1).label.payload == -8
    assert shifted.edge(2).label.payload == 3


def test_shift_loop_conjugates():
    g = LabeledGraph(F2, [0], [Edge(0, 0, 0, lab(F2, [1]))])
    shifted = shift(g, 0, lab(F2, [2]))
    assert shifted.edge(0).label.payload == (-2, 1, 2)


def reference_shift(graph, v, alpha):
    """The single shift as `shift` computed it case by case before it
    became `shift_sequence` over `shifted_value`, kept as the oracle."""
    if v not in graph.vertices:
        raise GraphFormatError(f"no vertex {v}")
    if alpha.descriptor != graph.descriptor:
        raise GraphFormatError("shift value lives in the wrong group")
    neg = groups.inv(alpha)
    labels = {}
    for eid in graph.incident(v):
        e = graph.edge(eid)
        lab = e.label
        if e.tail == e.head:
            lab = groups.op(groups.op(neg, lab), alpha)
        elif e.head == v:
            lab = groups.op(lab, alpha)
        else:
            lab = groups.op(neg, lab)
        labels[eid] = lab
    return graph.with_labels(labels)


def test_shift_sequence_equals_folding_the_reference_shift():
    rng = random.Random(11)
    descs = [Z5, F2, groups.direct_sum(Z5, F2)]
    loops = parallels = repeats = 0
    for _ in range(300):
        desc = rng.choice(descs)
        g = random_graph(desc, rng, max_vertices=6, max_edges=14)
        ends = [(e.tail, e.head) for e in g.edges.values()]
        loops += any(t == h for t, h in ends)
        parallels += len({frozenset(p) for p in ends}) < len(ends)
        verts = sorted(g.vertices)
        seq = [(rng.choice(verts), groups.random_element(desc, rng)) for _ in range(rng.randint(0, 8))]
        repeats += len({v for v, _ in seq}) < len(seq)
        folded = g
        for v, alpha in seq:
            folded = reference_shift(folded, v, alpha)
        assert shift_sequence(g, seq) == folded
        if seq:
            assert shift(g, *seq[0]) == reference_shift(g, *seq[0])
        # a bad shift anywhere in the sequence raises the reference's error
        bad = rng.choice([(max(verts) + 1, seq[0][1] if seq else groups.identity(desc)), (verts[0], lab(Z, 1))])
        at = rng.randint(0, len(seq))
        with pytest.raises(GraphFormatError) as expected:
            for v, alpha in seq[:at] + [bad]:
                reference_shift(g, v, alpha)
        with pytest.raises(GraphFormatError, match=f"^{expected.value}$"):
            shift_sequence(g, seq[:at] + [bad] + seq[at:])
    assert min(loops, parallels, repeats) >= 50


def test_normalize_to_null_builds_one_graph(monkeypatch):
    g = reference_shift(reference_shift(triangle(F2, [[], [], []]), 1, lab(F2, [1, 2])), 2, lab(F2, [-2]))
    assert len(is_gamma_bipartite(g)[1]) == 2
    built = []
    init = LabeledGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LabeledGraph, "__init__", counting_init)
    flat = normalize_to_null(g)
    assert built == [flat]
    assert all(groups.is_zero(e.label) for e in flat.edges.values())


def test_shift_preserves_cycle_values_up_to_conjugacy():
    rng = random.Random(0)
    for _ in range(60):
        desc = rng.choice([Z5, F2, groups.direct_sum(Z5, groups.cyclic(7))])
        g = random_graph(desc, rng)
        from nonzero_cycles.cycles import enumerate_cycles

        before = {c.edges: c.zero for c in enumerate_cycles(g)}
        v = rng.choice(sorted(g.vertices))
        g2 = shift(g, v, groups.random_element(desc, rng))
        after = {c.edges: c.zero for c in enumerate_cycles(g2)}
        assert before == after


def test_is_gamma_bipartite_matches_enumeration_oracle():
    rng = random.Random(1)
    from nonzero_cycles.cycles import enumerate_cycles

    for _ in range(120):
        desc = rng.choice([Z5, F2])
        g = random_graph(desc, rng)
        cycles = enumerate_cycles(g)
        oracle = all(c.zero[0] for c in cycles)
        verdict, cert = is_gamma_bipartite(g)
        assert verdict == oracle
        if verdict:
            flattened = shift_sequence(g, cert)
            assert all(groups.is_zero(e.label) for e in flattened.edges.values())
        else:
            cert.validate(g)
            assert not groups.is_zero(walk_value(g, cert))


def bipartite_by_shifting(g):
    """The shifts and the first non-tree edge left nonzero when the graph
    itself is shifted at each vertex in turn, breadth first from the
    smallest vertex of each component, zeroing the tree edge to it."""
    parent, order, seen = {}, [], set()
    for start in sorted(g.vertices):
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for eid in sorted(g.incident(v)):
                w = g.other_end(eid, v)
                if w not in seen:
                    seen.add(w)
                    parent[w] = eid
                    queue.append(w)
    shifts, work = [], g
    for v in order:
        label = work.edge(parent[v]).label if v in parent else None
        if label is not None and not groups.is_zero(label):
            alpha = groups.inv(label) if work.edge(parent[v]).head == v else label
            shifts.append((v, alpha))
            work = reference_shift(work, v, alpha)
    tree = set(parent.values())
    bad = [eid for eid in work.edge_ids() if eid not in tree and not groups.is_zero(work.edge(eid).label)]
    return shifts, (bad[0] if bad else None)


def test_is_gamma_bipartite_matches_shifting_the_graph():
    rng = random.Random(7)
    descs = [Z5, F2, groups.direct_sum(Z5, F2)]
    flat = 0
    for i in range(200):
        desc = rng.choice(descs)
        g = random_graph(desc, rng)
        if i % 2:
            # a bipartite graph with non-zero labels: shift a null graph
            g = g.with_labels({eid: groups.identity(desc) for eid in g.edge_ids()})
            for v in rng.sample(sorted(g.vertices), len(g.vertices) // 2 + 1):
                g = shift(g, v, groups.random_element(desc, rng))
        shifts, bad = bipartite_by_shifting(g)
        verdict, cert = is_gamma_bipartite(g)
        if bad is None:
            flat += 1
            assert verdict and cert == shifts
        else:
            assert not verdict and cert.edges[-1] == bad
    assert flat >= 100


def test_bfs_forest_and_tree_walk_match_networkx():
    rng = random.Random(3)
    across = 0
    for _ in range(200):
        g = random_graph(Z, rng, max_vertices=10, max_edges=rng.randint(1, 12))
        order, parent = _bfs_forest(g)
        assert sorted(order) == sorted(g.vertices)
        forest = nx.Graph()
        forest.add_nodes_from(g.vertices)
        for v, (u, eid) in parent.items():
            assert {v, u} == {g.edge(eid).tail, g.edge(eid).head}
            forest.add_edge(u, v)
        assert nx.is_forest(forest)
        full = nx.MultiGraph([(e.tail, e.head) for e in g.edges.values()])
        full.add_nodes_from(g.vertices)
        roots = [v for v in order if v not in parent]
        assert roots == sorted(roots)
        assert nx.number_connected_components(forest) == len(roots)
        assert nx.number_connected_components(full) == len(roots)
        for root in roots:
            # breadth first: tree depths are graph distances
            dist = nx.single_source_shortest_path_length(full, root)
            assert nx.single_source_shortest_path_length(forest, root) == dist
        for _ in range(10):
            a, b = rng.choice(sorted(g.vertices)), rng.choice(sorted(g.vertices))
            walk = _tree_walk(parent, a, b)
            if not nx.has_path(forest, a, b):
                assert walk is None
                across += 1
                continue
            assert list(walk.vertices) == nx.shortest_path(forest, a, b)
            assert set(walk.edges) <= {eid for _, eid in parent.values()}
            walk.validate(g)
    assert across >= 100


def test_normalize_to_null():
    g = triangle(Z, [1, 2, -3])
    flat = normalize_to_null(g)
    assert all(groups.is_zero(e.label) for e in flat.edges.values())
    bad = triangle(Z, [1, 2, 3])
    with pytest.raises(NotGammaBipartiteError):
        normalize_to_null(bad)


def test_contract_null_edge():
    g = triangle(Z, [0, 2, 3])
    out = contract_null_edge(g, 0)
    assert len(out.vertices) == 2
    fresh = max(out.vertices)
    assert fresh not in g.vertices
    # surviving edges keep ids, labels, and their own orientations
    assert out.edge(1).label.payload == 2
    assert out.edge(1).tail == fresh
    assert out.edge(2).head == fresh
    with pytest.raises(GraphFormatError):
        contract_null_edge(g, 1)  # nonzero label
    loopy = LabeledGraph(Z, [0], [Edge(0, 0, 0, lab(Z, 0))])
    with pytest.raises(GraphFormatError):
        contract_null_edge(loopy, 0)


def test_contract_creates_loops_from_parallel_edges():
    desc = Z
    g = LabeledGraph(
        desc,
        [0, 1],
        [Edge(0, 0, 1, lab(desc, 0)), Edge(1, 1, 0, lab(desc, 7))],
    )
    out = contract_null_edge(g, 0)
    e = out.edge(1)
    assert e.tail == e.head
    assert e.label.payload == 7


def test_graph_json_round_trip():
    rng = random.Random(2)
    for desc in [Z, Z5, F2, groups.direct_sum(Z, Z), groups.quotient([2, 0])]:
        g = random_graph(desc, rng)
        assert decode_graph(encode_graph(g)) == g


def test_decode_rejects_malformed():
    with pytest.raises(GraphFormatError):
        decode_graph({"group": "z", "vertices": [0], "edges": [{"id": 0}]})
    with pytest.raises(GraphFormatError):
        decode_graph({"group": "z", "vertices": [0], "edges": [{"id": 0, "tail": 0, "head": 3, "label": "0"}]})
    # vertices and edges must be lists: a string is not read as its
    # characters, nor an object as its keys, nor "" or {} as no edges
    edge = {"id": 0, "tail": 0, "head": 1, "label": "1"}
    for key, value in [
        ("vertices", "01"), ("vertices", {"0": 0, "1": 1}), ("vertices", ""),
        ("edges", ""), ("edges", {}), ("edges", {"0": edge}), ("edges", "0"),
    ]:
        data = {"group": "z", "vertices": [0, 1], "edges": [edge], key: value}
        with pytest.raises(GraphFormatError, match=f"^malformed graph payload: '{key}' must be a list"):
            decode_graph(data)


@pytest.mark.parametrize("vertex", [1.7, True, "x", None, [1]], ids=repr)
def test_graph_reads_vertex_ids_by_the_one_integer_rule(vertex):
    # not truncated: int() reads 1.7 and True as vertex 1, which edge 0 meets
    with pytest.raises(GraphFormatError, match="^bad vertex id: "):
        LabeledGraph(Z, [vertex, 0], [Edge(0, 0, 1, lab(Z, 1))])


def test_graph_reads_integral_floats_and_decimal_strings_as_vertex_ids():
    g = LabeledGraph(Z, [1.0, "0"], [Edge(0, 0, 1, lab(Z, 1))])
    assert g.vertices == {0, 1}


def test_decode_repeated_labels_once_and_bad_labels_every_time():
    edge = lambda i, label: {"id": i, "tail": 0, "head": 1, "label": label}
    # the same raw label decodes to one shared element; 1 and "1" are two keys
    g = decode_graph({"group": "z", "vertices": [0, 1], "edges": [edge(0, "1"), edge(1, "1"), edge(2, 1)]})
    assert g.edge(0).label is g.edge(1).label
    assert g.edge(0).label == g.edge(2).label == lab(Z, 1)
    # a repeated malformed label raises the error of its first occurrence,
    # on every decode
    data = {"group": "z", "vertices": [0, 1], "edges": [edge(0, "1"), edge(1, "x"), edge(2, "x")]}
    with pytest.raises(groups.GroupParseError) as first:
        groups.decode_element(Z, "x")
    messages = []
    for _ in range(2):
        with pytest.raises(GraphFormatError) as exc:
            decode_graph(data)
        messages.append(str(exc.value))
    assert messages == [f"malformed graph payload: {first.value}"] * 2


WALK_GROUPS = [
    Z,
    Z5,
    groups.free_abelian(2),
    F2,
    groups.free_group(3),
    groups.quotient([2, 6, 0]),
    groups.direct_sum(groups.cyclic(2), groups.cyclic(3)),
    groups.direct_sum(F2, groups.free_abelian(2)),
    groups.direct_sum(F2, F2),
]


def reference_walk_value(graph, walk):
    """Left fold of groups.op over the labels, each inverted when the step
    runs from head to tail, as the value was defined before compilation."""
    total = groups.identity(graph.descriptor)
    for i, eid in enumerate(walk.edges):
        e = graph.edge(eid)
        if e.tail == e.head or walk.vertices[i + 1] == e.head:
            step = e.label
        else:
            step = groups.inv(e.label)
        total = groups.op(total, step)
    return total


def random_walk(graph, rng, length):
    v = rng.choice(sorted(graph.vertices))
    verts, eids = [v], []
    for _ in range(length):
        if not graph.incident(v):
            break
        eid = rng.choice(graph.incident(v))
        e = graph.edge(eid)
        v = e.head if v == e.tail else e.tail
        verts.append(v)
        eids.append(eid)
    return Walk(tuple(verts), tuple(eids))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(WALK_GROUPS), st.integers(0, 2**32), st.integers(0, 12))
def test_walk_value_equals_reference_fold(desc, seed, length):
    rng = random.Random(seed)
    g = random_graph(desc, rng, max_vertices=5, max_edges=10)
    walk = random_walk(g, rng, length)
    for w in (walk, walk.reversed()):
        value = walk_value(g, w)
        assert value == reference_walk_value(g, w)
        assert value.descriptor == desc


def test_walk_value_errors_name_the_first_bad_step():
    g = LabeledGraph(Z, [0, 1, 2], [Edge(0, 0, 1, lab(Z, 1)), Edge(1, 1, 2, lab(Z, 2)), Edge(2, 2, 2, lab(Z, 3))])
    cases = [
        (Walk((0, 1, 2), (0, 9)), "no edge with id 9"),
        (Walk((0, 2), (0,)), "step 0 of walk does not follow edge 0"),
        (Walk((0, 1, 0), (0, 1)), "step 1 of walk does not follow edge 1"),
        (Walk((1, 1), (0,)), "step 0 of walk does not follow edge 0"),
        (Walk((1, 1), (2,)), "step 0 of walk does not follow edge 2"),
        (Walk((2, 1), (2,)), "step 0 of walk does not follow edge 2"),
        (Walk((0, 2, 9), (1, 9)), "step 0 of walk does not follow edge 1"),
        (Walk((0, 1, 1), (9, 1)), "no edge with id 9"),
    ]
    for walk, message in cases:
        with pytest.raises(GraphFormatError) as info:
            walk.validate(g)
        assert str(info.value) == message
        with pytest.raises(GraphFormatError) as info:
            walk_value(g, walk)
        assert str(info.value) == message


@pytest.mark.parametrize("desc", WALK_GROUPS, ids=str)
def test_walk_value_skips_zero_steps(desc):
    # about half the labels, loops included, are zero; steps() stores None
    # for them, and the value is still the plain fold of every step
    t = groups.table(desc)
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(desc, rng, max_vertices=5, max_edges=10)
        g = g.with_labels({eid: groups.identity(desc) for eid in g.edge_ids() if rng.random() < 0.5})
        steps = g.steps()
        for eid, (tail, head, fwd, bwd) in steps.items():
            zero = groups.is_zero(g.edge(eid).label)
            assert (fwd is None, bwd is None) == (zero, zero)
        walk = random_walk(g, rng, rng.randint(0, 12))
        for w in (walk, walk.reversed()):
            folded = t.zero
            for i, eid in enumerate(w.edges):
                tail, head, fwd, bwd = steps[eid]
                x = fwd if (w.vertices[i], w.vertices[i + 1]) == (tail, head) else bwd
                folded = t.add(folded, t.zero if x is None else x)
            assert walk_value(g, w) == groups.GroupElement(desc, folded) == reference_walk_value(g, w)


def test_walk_value_errors_are_unchanged_on_zero_edges():
    zero = groups.identity(Z)
    g = LabeledGraph(Z, [0, 1, 2], [Edge(0, 0, 1, zero), Edge(1, 1, 2, zero), Edge(2, 2, 2, zero)])
    assert walk_value(g, Walk((0, 1, 2, 2), (0, 1, 2))) == zero
    cases = [
        (Walk((0, 1, 2), (0, 9)), "no edge with id 9"),
        (Walk((0, 1, 0), (0, 1)), "step 1 of walk does not follow edge 1"),
        (Walk((1, 1), (2,)), "step 0 of walk does not follow edge 2"),
    ]
    for walk, message in cases:
        with pytest.raises(GraphFormatError) as info:
            walk_value(g, walk)
        assert str(info.value) == message


def test_a_label_from_another_group_is_a_format_error():
    label = groups.element(groups.cyclic(2), 1)
    with pytest.raises(GraphFormatError) as info:
        LabeledGraph(groups.cyclic(3), [0, 1], [Edge(0, 0, 1, label)])
    assert str(info.value) == "edge 0 labeled in the wrong group"
