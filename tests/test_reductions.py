"""Tests for the constrained-cycle encodings and homology labelings."""

import itertools
import random

import pytest

from nonzero_cycles import cycles, groups
from nonzero_cycles.graphs import (
    Cycle,
    Edge,
    GraphFormatError,
    LabeledGraph,
    Walk,
    null_labeled,
    walk_value,
)
from nonzero_cycles.reductions import (
    EmbeddedGraph,
    correspondence_check,
    decode_embedded,
    encode_embedded,
    euler_characteristic,
    homology_labeling,
    reduce_S1_S2_cycles,
    reduce_S_cycles,
    reduce_odd_S_cycles,
    reduce_odd_cycles,
    reduce_plain_cycles,
    trace_embedded_faces,
)

Z = groups.integers()


def plain(vertices, arcs):
    return null_labeled(Z, vertices, arcs)


def cycle_graph(n):
    return plain(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return plain(range(n), list(itertools.combinations(range(n), 2)))


def random_graph(rng, max_n=8, max_m=14):
    n = rng.randint(2, max_n)
    pairs = list(itertools.combinations(range(n), 2))
    m = rng.randint(1, min(max_m, len(pairs)))
    return plain(range(n), rng.sample(pairs, m))


# ---------------------------------------------------------------------------
# plain cycles


def test_plain_reduction_on_edgeless_graph():
    g = reduce_plain_cycles(plain(range(3), []))
    assert not cycles.enumerate_cycles(g)


def test_plain_reduction_triangle():
    g = reduce_plain_cycles(cycle_graph(3))
    (c,) = cycles.enumerate_cycles(g)
    assert c.doubly_nonzero


def test_plain_reduction_k4_is_robust():
    g = reduce_plain_cycles(complete_graph(4))
    assert all(c.doubly_nonzero for c in cycles.enumerate_cycles(g))
    ok, witness = cycles.is_robust(g)
    assert ok and witness is None


def test_plain_reduction_orients_deterministically():
    g = reduce_plain_cycles(plain(range(3), [(2, 1), (1, 0), (2, 0)]))
    for e in g.edges.values():
        assert e.tail < e.head


# ---------------------------------------------------------------------------
# odd cycles


def test_odd_reduction_parity():
    c5 = reduce_odd_cycles(cycle_graph(5))
    (c,) = cycles.enumerate_cycles(c5)
    assert c.doubly_nonzero
    c4 = reduce_odd_cycles(cycle_graph(4))
    (c,) = cycles.enumerate_cycles(c4)
    assert not c.doubly_nonzero


def test_odd_reduction_random_graphs():
    rng = random.Random(7)
    for _ in range(100):
        g = random_graph(rng)
        assert correspondence_check("odd", reduce_odd_cycles(g))


# ---------------------------------------------------------------------------
# S-cycles and variants


def test_s_reduction_triangle_disjoint_from_s():
    g = reduce_S_cycles(cycle_graph(3), {17})
    (c,) = cycles.enumerate_cycles(g)
    assert not c.doubly_nonzero


def test_s_reduction_empty_and_full_s():
    base = complete_graph(4)
    empty = reduce_S_cycles(base, ())
    assert not [c for c in cycles.enumerate_cycles(empty) if c.doubly_nonzero]
    assert correspondence_check("s", empty)
    full = reduce_S_cycles(base, range(4))
    assert all(c.doubly_nonzero for c in cycles.enumerate_cycles(full))
    assert correspondence_check("s", full, s1=range(4))


def test_odd_s_reduction_single_s_vertex():
    g = reduce_odd_S_cycles(cycle_graph(5), {0})
    (c,) = cycles.enumerate_cycles(g)
    assert c.doubly_nonzero
    even = reduce_odd_S_cycles(cycle_graph(4), {0})
    (c,) = cycles.enumerate_cycles(even)
    assert not c.doubly_nonzero


def test_s1_s2_reduction_one_sided_cycle_not_counted():
    # two triangles sharing a vertex; one meets S1 only
    g = plain(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    red = reduce_S1_S2_cycles(g, {0}, {4})
    for c in cycles.enumerate_cycles(red):
        verts = c.rep.vertex_set()
        if 0 in verts and 4 not in verts:
            assert c.nonzero_in(0) and not c.nonzero_in(1)
    assert correspondence_check("s1s2", red, s1={0}, s2={4})


def test_all_reductions_random_suite():
    rng = random.Random(42)
    for _ in range(100):
        g = random_graph(rng)
        verts = sorted(g.vertices)
        s1 = frozenset(rng.sample(verts, rng.randint(0, len(verts))))
        s2 = frozenset(rng.sample(verts, rng.randint(0, len(verts))))
        assert correspondence_check("plain", reduce_plain_cycles(g))
        assert correspondence_check("odd", reduce_odd_cycles(g))
        assert correspondence_check("s", reduce_S_cycles(g, s1), s1=s1)
        assert correspondence_check("odd_s", reduce_odd_S_cycles(g, s1), s1=s1)
        assert correspondence_check(
            "s1s2", reduce_S1_S2_cycles(g, s1, s2), s1=s1, s2=s2
        )


def test_s_reductions_are_robust_on_random_suite():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, max_n=6, max_m=9)
        verts = sorted(g.vertices)
        s1 = frozenset(rng.sample(verts, rng.randint(0, len(verts))))
        s2 = frozenset(rng.sample(verts, rng.randint(0, len(verts))))
        assert cycles.is_robust(reduce_S_cycles(g, s1))[0]
        assert cycles.is_robust(reduce_S1_S2_cycles(g, s1, s2))[0]


def test_correspondence_check_rejects_unknown_kind():
    with pytest.raises(ValueError):
        correspondence_check("mystery", reduce_plain_cycles(cycle_graph(3)))


# ---------------------------------------------------------------------------
# embedded graphs


def torus_embedding():
    g = plain([0], [(0, 0), (0, 0)])
    return EmbeddedGraph(g, {0: ((0, 0), (1, 0), (0, 1), (1, 1))})


def projective_embedding():
    g = plain([0], [(0, 0)])
    return EmbeddedGraph(g, {0: ((0, 0), (0, 1))}, {0: -1})


def triangle_embedding():
    g = plain(range(3), [(0, 1), (1, 2), (0, 2)])
    return EmbeddedGraph(
        g, {0: ((0, 0), (2, 0)), 1: ((0, 1), (1, 0)), 2: ((1, 1), (2, 1))}
    )


def test_face_tracing_covers_each_edge_twice():
    for emb in (torus_embedding(), projective_embedding(), triangle_embedding()):
        faces = trace_embedded_faces(emb)
        count = sum(len(f) for f in faces)
        assert count == 2 * len(emb.graph.edge_ids())


def test_euler_characteristics():
    assert euler_characteristic(triangle_embedding()) == 2
    assert euler_characteristic(torus_embedding()) == 0
    assert euler_characteristic(projective_embedding()) == 1


def test_embedded_graph_validates_rotations():
    g = plain(range(2), [(0, 1)])
    with pytest.raises(GraphFormatError):
        EmbeddedGraph(g, {0: ((0, 0),)}).validate()
    with pytest.raises(GraphFormatError):
        EmbeddedGraph(g, {0: ((0, 0),), 1: ((0, 0),)}).validate()
    with pytest.raises(GraphFormatError):
        EmbeddedGraph(g, {0: ((0, 0),), 1: ((0, 1),)}, {0: 3}).validate()


def theta_embedding(signs):
    """Three parallel edges 0 -> 1 listed in the same order at both ends."""
    g = plain(range(2), [(0, 1)] * 3)
    return EmbeddedGraph(g, {0: ((0, 0), (1, 0), (2, 0)), 1: ((0, 1), (1, 1), (2, 1))}, signs)


def test_signed_theta_graphs_trace():
    # all edges negative: the sphere, three digon faces
    sphere = theta_embedding({0: -1, 1: -1, 2: -1})
    assert euler_characteristic(sphere) == 2
    assert sorted(len(f) for f in trace_embedded_faces(sphere)) == [2, 2, 2]
    h1 = homology_labeling(sphere).descriptor.parts[0]
    assert h1 == groups.quotient(())
    # one edge negative: the Klein bottle, one face, H1 = Z + Z2
    klein = theta_embedding({0: -1})
    assert euler_characteristic(klein) == 0
    assert [len(f) for f in trace_embedded_faces(klein)] == [6]
    h1 = homology_labeling(klein).descriptor.parts[0]
    assert sorted(h1.parts) == [0, 2]
    # no edge negative: the torus
    assert euler_characteristic(theta_embedding({})) == 0


def random_signed_embedding(rng):
    """A connected multigraph with loops and parallel edges, a random
    rotation at each vertex and random edge signs."""
    n = rng.randint(1, 6)
    arcs = [(rng.randrange(v), v) for v in range(1, n)]
    while len(arcs) < n - 1 + rng.randint(1, 5):
        arcs.append((rng.randrange(n), rng.randrange(n)))
    g = plain(range(n), arcs)
    rotations = {v: [] for v in range(n)}
    for eid, (t, h) in enumerate(arcs):
        rotations[t].append((eid, 0))
        rotations[h].append((eid, 1))
    for rot in rotations.values():
        rng.shuffle(rot)
    signs = {eid: rng.choice((1, -1)) for eid in range(len(arcs))}
    return EmbeddedGraph(g, {v: tuple(rot) for v, rot in rotations.items()}, signs)


def switched(emb, v):
    """Vertex switching at v: reverse its rotation and negate the signs of
    its non-loop edges.  The surface is unchanged."""
    signs = dict(emb.signs)
    for eid in emb.graph.incident(v):
        e = emb.graph.edge(eid)
        if e.tail != e.head:
            signs[eid] = -emb.sign(eid)
    rotations = dict(emb.rotations)
    rotations[v] = tuple(reversed(emb.rotations[v]))
    return EmbeddedGraph(emb.graph, rotations, signs)


def test_euler_characteristic_is_invariant_under_vertex_switching():
    rng = random.Random(11)
    loops = parallel = 0
    for _ in range(300):
        emb = random_signed_embedding(rng)
        g = emb.graph
        loops += any(g.edge(eid).tail == g.edge(eid).head for eid in g.edge_ids())
        parallel += len({frozenset((e.tail, e.head)) for e in g.edges.values()}) < len(g.edge_ids())
        chi = euler_characteristic(emb)
        darts = sorted(eid for face in trace_embedded_faces(emb) for eid, _ in face)
        assert darts == sorted(g.edge_ids() * 2)
        for v in rng.sample(sorted(g.vertices), rng.randint(1, len(g.vertices))):
            emb = switched(emb, v)
            assert euler_characteristic(emb) == chi
    assert loops >= 100 and parallel >= 100


def test_disconnected_sphere_pair_rejected():
    # two disjoint planar triangles: v - e + f exceeds 2
    g = plain(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    rot = {
        0: ((0, 0), (2, 0)),
        1: ((0, 1), (1, 0)),
        2: ((1, 1), (2, 1)),
        3: ((3, 0), (5, 0)),
        4: ((3, 1), (4, 0)),
        5: ((4, 1), (5, 1)),
    }
    with pytest.raises(GraphFormatError):
        euler_characteristic(EmbeddedGraph(g, rot))


# ---------------------------------------------------------------------------
# homology labelings


def test_homology_labeling_sphere_is_trivial():
    hg = homology_labeling(triangle_embedding())
    assert hg.descriptor == groups.direct_sum(groups.quotient(()), groups.quotient(()))
    assert all(not c.doubly_nonzero for c in cycles.enumerate_cycles(hg))


def test_homology_labeling_torus():
    emb = torus_embedding()
    hg = homology_labeling(emb)
    h1 = groups.quotient((0, 0))
    assert hg.descriptor == groups.direct_sum(h1, h1)
    # the two loops map to independent generators
    a = groups.project(hg.edge(0).label, 0)
    b = groups.project(hg.edge(1).label, 0)
    assert not groups.is_zero(a) and not groups.is_zero(b)
    assert a != b and a != groups.inv(b)


def test_homology_labeling_projective_plane():
    hg = homology_labeling(projective_embedding())
    h1 = groups.quotient((2,))
    assert hg.descriptor == groups.direct_sum(h1, h1)
    alpha = groups.project(hg.edge(0).label, 0)
    assert not groups.is_zero(alpha)
    assert groups.is_zero(groups.op(alpha, alpha))


def test_homology_facial_cycles_are_zero():
    # every face boundary, read off dart by dart, evaluates to the
    # identity (walk_value cannot express a backward loop traversal, so
    # the boundary class is accumulated directly)
    for emb in (torus_embedding(), projective_embedding(), triangle_embedding()):
        hg = homology_labeling(emb)
        for face in trace_embedded_faces(emb):
            total = groups.identity(hg.descriptor)
            for eid, d in face:
                lbl = hg.edge(eid).label
                total = groups.op(total, lbl if d == 0 else groups.inv(lbl))
            assert groups.is_zero(total)


def _union_find_forest(graph):
    """A spanning forest by union-find over the edges in id order."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = set()
    for eid in sorted(graph.edge_ids()):
        e = graph.edge(eid)
        ru, rv = find(e.tail), find(e.head)
        if ru != rv:
            parent[ru] = rv
            tree.add(eid)
    return tree


def _reference_homology_labeling(emb):
    """`homology_labeling` over the union-find forest."""
    g = emb.graph
    tree = _union_find_forest(g)
    cotree = [eid for eid in sorted(g.edge_ids()) if eid not in tree]
    col = {eid: i for i, eid in enumerate(cotree)}
    rows = []
    for face in trace_embedded_faces(emb):
        row = [0] * len(cotree)
        for eid, d in face:
            if eid in col:
                row[col[eid]] += 1 if d == 0 else -1
        rows.append(row)
    h1, proj = groups.quotient_with_projection(rows, len(cotree))
    desc = groups.direct_sum(h1, h1)
    edges = []
    for eid in sorted(g.edge_ids()):
        e = g.edge(eid)
        alpha = groups.identity(h1) if eid in tree else proj([int(c == eid) for c in cotree])
        edges.append(Edge(eid, e.tail, e.head, groups.element(desc, (alpha, alpha))))
    return LabeledGraph(desc, g.vertices, edges)


def test_homology_labeling_matches_a_union_find_forest():
    # the forest changes the labels, not H1 or which cycles are zero
    rng = random.Random(11)
    nonnull = 0
    for _ in range(300):
        emb = random_signed_embedding(rng)
        hg, ref = homology_labeling(emb), _reference_homology_labeling(emb)
        assert hg.descriptor == ref.descriptor
        status = [(c.edges, c.zero) for c in cycles.enumerate_cycles(hg)]
        assert status == [(c.edges, c.zero) for c in cycles.enumerate_cycles(ref)]
        nonnull += any(not zero[0] for _, zero in status)
    assert nonnull == 256


def test_orientable_embeddings_have_free_homology():
    for emb in (torus_embedding(), triangle_embedding()):
        hg = homology_labeling(emb)
        h1 = hg.descriptor.parts[0]
        assert all(d == 0 for d in h1.parts)
    pp = homology_labeling(projective_embedding()).descriptor.parts[0]
    assert any(d != 0 for d in pp.parts)


def test_homology_walk_values_are_homology_classes():
    # on the torus, a closed walk winding p times around one loop and q
    # around the other has class p*a + q*b
    hg = homology_labeling(torus_embedding())
    a = hg.edge(0).label
    walk = Walk((0, 0, 0, 0), (0, 0, 1))
    value = walk_value(hg, walk)
    two_a_b = groups.op(groups.op(a, a), hg.edge(1).label)
    assert value == two_a_b


def test_embedded_encode_decode_round_trip():
    for emb in (torus_embedding(), projective_embedding(), triangle_embedding()):
        back = decode_embedded(encode_embedded(emb))
        assert back.graph == emb.graph
        assert back.rotations == emb.rotations
        assert back.sign(0) == emb.sign(0)


def _edited_payload(emb, edit):
    data = encode_embedded(emb)
    edit(data)
    return data


@pytest.mark.parametrize(
    "emb, edit",
    [
        # a fractional sign, which a bare int() truncated to -1
        (projective_embedding, lambda d: d["signs"].update({"0": -1.9})),
        (triangle_embedding, lambda d: d["rotations"]["1"].__setitem__(1, [2.5, 0])),
        # a boolean direction, which a bare int() read as 1
        (triangle_embedding, lambda d: d["rotations"]["1"].__setitem__(0, [0, True])),
        (triangle_embedding, lambda d: d["rotations"].update({"2.5": d["rotations"].pop("2")})),
        (triangle_embedding, lambda d: d["signs"].update({"x": 1})),
        (triangle_embedding, lambda d: d["rotations"]["0"].append([1])),
        (triangle_embedding, lambda d: d.update(rotations=[])),
    ],
    ids=["sign -1.9", "edge id 2.5", "direction true", "vertex key 2.5", "sign key x", "short dart", "rotation list"],
)
def test_decode_embedded_rejects_entries_that_are_not_integers(emb, edit):
    with pytest.raises(GraphFormatError, match="^malformed embedded payload: "):
        decode_embedded(_edited_payload(emb(), edit))


@pytest.mark.parametrize(
    "emb, edit",
    [
        (projective_embedding, lambda d: d["signs"].update({"0": -1.0})),
        (projective_embedding, lambda d: d["signs"].update({"0": "-1"})),
        (triangle_embedding, lambda d: d["rotations"]["1"].__setitem__(0, [0.0, "1"])),
        (triangle_embedding, lambda d: d["rotations"]["2"].__setitem__(1, ["2", 1.0])),
    ],
    ids=["sign -1.0", "sign string", "integral float id", "decimal string id"],
)
def test_decode_embedded_reads_integral_floats_and_decimal_strings(emb, edit):
    expected = emb()
    back = decode_embedded(_edited_payload(expected, edit))
    assert (back.graph, back.rotations, back.signs) == (expected.graph, expected.rotations, expected.signs)
