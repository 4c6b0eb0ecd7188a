"""Tests for wall construction, subwalls, and local rerouting."""

import json
import math

import networkx as nx
import pytest

from nonzero_cycles import groups
from nonzero_cycles.graphs import Edge, GraphFormatError, LabeledGraph, Walk, _bfs_forest, _tree_walk
from nonzero_cycles.reductions import decode_embedded
from nonzero_cycles.walls import (
    Wall,
    WallFormatError,
    _elementary,
    containment_indices,
    decode_wall,
    elementary_wall,
    encode_wall,
    is_k_contained,
    local_reroute,
    subwall,
    top_nails,
    trace_faces,
    validate_wall,
)


def to_networkx(graph: LabeledGraph) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(graph.vertices)
    for eid, e in graph.edges.items():
        g.add_edge(e.tail, e.head, key=eid)
    return g


# ---------------------------------------------------------------------------
# elementary walls


@pytest.mark.parametrize("r", range(2, 13))
def test_elementary_wall_invariants(r):
    w = elementary_wall(r)
    validate_wall(w)
    assert w.r == r
    assert all(w.graph.degree(v) <= 3 for v in w.graph.vertices)
    assert len(w.corners) == len(set(w.corners)) == 4
    assert len(w.bricks) == r * r
    for brick in w.bricks:
        assert len(brick.vertex_set() & w.branch) == 6
    # Euler's formula on the connected plane graph: inner faces = E - V + 1.
    ne = len(w.graph.edge_ids())
    nv = len(w.graph.vertices)
    assert len(w.bricks) == ne - nv + 1
    # an elementary wall is subdivision-free: every brick is a hexagon
    assert all(len(brick.edges) == 6 for brick in w.bricks)
    assert nx.is_bipartite(to_networkx(w.graph))
    assert len(w.nails) == 4 * r - 2


def test_elementary_wall_vertex_count():
    # 2(r+1)^2 - 2 vertices: the grid keeps all 2(r+1)(r+1) vertices except
    # the two degree-1 ones pruned at the ends.
    for r in range(2, 13):
        assert len(elementary_wall(r).graph.vertices) == 2 * (r + 1) ** 2 - 2
    assert len(elementary_wall(6).graph.vertices) == 96


def test_elementary_wall_top_nail_order_matches_coordinates():
    w = elementary_wall(5)
    on_top = [v for v in w.nails if v in set(w.horizontal[0].vertices)]
    xs = [w.coords[v][0] for v in on_top]
    assert xs == sorted(xs)


def test_elementary_wall_rejects_small():
    with pytest.raises(WallFormatError):
        elementary_wall(1)
    with pytest.raises(WallFormatError):
        elementary_wall(0)


def test_elementary_wall_null_labels():
    desc = groups.parse_descriptor("sum(z3,z3)")
    w = elementary_wall(3, desc)
    ident = groups.identity(desc)
    assert all(e.label == ident for e in w.graph.edges.values())


# ---------------------------------------------------------------------------
# subwalls


def test_subwall_full_index_sets_is_the_wall_itself():
    w = elementary_wall(4)
    s = subwall(w, range(5), range(5))
    assert s.graph.edge_ids() == w.graph.edge_ids()
    assert s.corners == w.corners
    assert is_k_contained(s, w, 0)
    assert not is_k_contained(s, w, 1)


@pytest.mark.parametrize("s,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_subwall_middle_block_is_k_contained(s, k):
    w = elementary_wall(s + 2 * k)
    idx = range(k, k + s + 1)
    sw = subwall(w, idx, idx)
    validate_wall(sw)
    assert sw.r == s
    assert is_k_contained(sw, w, k)
    assert not is_k_contained(sw, w, k + 1)


def test_subwall_paths_are_subpaths_of_parent():
    w = elementary_wall(6)
    sw = subwall(w, [1, 2, 4, 6], [0, 2, 3, 5])
    validate_wall(sw)
    parent_edges = set(w.graph.edge_ids())
    for walk in sw.horizontal + sw.vertical:
        assert walk.edge_set() <= parent_edges
    ih, iv = containment_indices(sw, w)
    assert ih == (1, 2, 4, 6)
    assert iv == (0, 2, 3, 5)


def test_subwall_top_nails_ordered_left_to_right():
    w = elementary_wall(6)
    sw = subwall(w, range(2, 5), range(2, 5))
    nails = top_nails(sw, w)
    assert nails
    xs = [w.coords[v][0] for v in nails]
    assert xs == sorted(xs)
    # top nails sit on the subwall top row and are branch vertices of the parent
    top = set(sw.horizontal[0].vertices)
    assert all(v in top and v in w.branch for v in nails)


def test_subwall_rejects_bad_indices():
    w = elementary_wall(4)
    with pytest.raises(WallFormatError):
        subwall(w, [0, 1, 2], [0, 1])
    with pytest.raises(WallFormatError):
        subwall(w, [0, 1], [0, 1])
    with pytest.raises(WallFormatError):
        subwall(w, [0, 1, 9], [0, 1, 2])


# ---------------------------------------------------------------------------
# local rerouting


def _vertical_segment(wall):
    """A brick-side subpath of a vertical path with no internal branch vertex."""
    v = wall.vertical[2]
    # walk until we pass between two consecutive branch vertices
    verts, eids = v.vertices, v.edges
    marks = [i for i, u in enumerate(verts) if u in wall.branch]
    i, j = marks[1], marks[2]
    return Walk(tuple(verts[i : j + 1]), tuple(eids[i:j]))


def test_local_reroute_identity_returns_wall_unchanged():
    w = elementary_wall(4)
    seg = _vertical_segment(w)
    assert local_reroute(w, seg, seg) is w


def _host_with_detour(wall, seg, extra_vertices):
    new_id = max(wall.graph.edge_ids()) + 1
    chain = [seg.start, *extra_vertices, seg.end]
    ident = groups.identity(wall.graph.descriptor)
    edges = list(wall.graph.edges.values())
    eids = []
    for a, b in zip(chain, chain[1:]):
        edges.append(Edge(new_id, a, b, ident))
        eids.append(new_id)
        new_id += 1
    host = LabeledGraph(
        wall.graph.descriptor,
        wall.graph.vertices | set(extra_vertices),
        edges,
    )
    return host, Walk(tuple(chain), tuple(eids))


@pytest.mark.parametrize("n_new", [1, 2, 3])
def test_local_reroute_through_external_path(n_new):
    w = elementary_wall(4)
    seg = _vertical_segment(w)
    fresh = [10_000 + i for i in range(n_new)]
    host, q = _host_with_detour(w, seg, fresh)
    w2 = local_reroute(w, seg, q, host=host)
    validate_wall(w2)
    assert w2.r == w.r
    assert len(w2.bricks) == len(w.bricks)
    assert set(fresh) <= w2.graph.vertices
    assert not seg.edge_set() & set(w2.graph.edge_ids())
    # branch vertices are untouched by a local reroute
    assert w2.branch == w.branch


def test_local_reroute_rejects_boundary_segment():
    w = elementary_wall(4)
    v = w.vertical[0]
    marks = [i for i, u in enumerate(v.vertices) if u in w.branch]
    i, j = marks[0], marks[1]
    seg = Walk(tuple(v.vertices[i : j + 1]), tuple(v.edges[i:j]))
    host, q = _host_with_detour(w, seg, [10_000])
    with pytest.raises(WallFormatError):
        local_reroute(w, seg, q, host=host)


def test_local_reroute_rejects_internal_branch_vertex():
    w = elementary_wall(4)
    v = w.vertical[2]
    marks = [i for i, u in enumerate(v.vertices) if u in w.branch]
    i, j = marks[1], marks[3]  # spans a branch vertex in the middle
    seg = Walk(tuple(v.vertices[i : j + 1]), tuple(v.edges[i:j]))
    host, q = _host_with_detour(w, seg, [10_000])
    with pytest.raises(WallFormatError):
        local_reroute(w, seg, q, host=host)


def test_local_reroute_twice_keeps_wall_valid():
    w = elementary_wall(5)
    seg = _vertical_segment(w)
    host, q = _host_with_detour(w, seg, [10_000, 10_001])
    w2 = local_reroute(w, seg, q, host=host)
    seg2 = _vertical_segment(w2)
    host2, q2 = _host_with_detour(w2, seg2, [20_000])
    w3 = local_reroute(w2, seg2, q2, host=host2)
    validate_wall(w3)
    assert len(w3.bricks) == 25


# ---------------------------------------------------------------------------
# serialization


def test_wall_encode_decode_round_trip():
    w = elementary_wall(4)
    data = encode_wall(w)
    w2 = decode_wall(data)
    assert w2.graph == w.graph
    assert w2.r == w.r
    assert w2.branch == w.branch
    assert w2.corners == w.corners
    assert w2.nails == w.nails
    assert [p.edges for p in w2.horizontal] == [p.edges for p in w.horizontal]
    assert [p.edges for p in w2.vertical] == [p.edges for p in w.vertical]
    assert [c.edge_set() for c in w2.bricks] == [c.edge_set() for c in w.bricks]


def test_wall_decode_reads_integral_numbers_as_integers():
    w = elementary_wall(2)
    data = json.loads(json.dumps(encode_wall(w)))
    data["anatomy"]["r"] = 2.0
    v = next(iter(data["anatomy"]["coords"]))
    x, y = data["anatomy"]["coords"][v]
    data["anatomy"]["coords"][v] = [float(x), str(y)]
    a = data["anatomy"]
    for key in ("branch", "corners", "nails"):
        a[key] = [float(v) for v in a[key]]
    for walk in a["rows"] + a["snakes"] + a["horizontal"] + a["vertical"] + a["bricks"] + [a["boundary"]]:
        walk["vertices"] = [str(v) for v in walk["vertices"]]
        walk["edges"] = [float(e) for e in walk["edges"]]
    w2 = decode_wall(data)
    assert type(w2.r) is int and w2.r == 2
    assert dict(w2.coords) == dict(w.coords)
    assert all(type(c) is int for xy in w2.coords.values() for c in xy)
    assert (w2.branch, w2.corners, w2.nails) == (w.branch, w.corners, w.nails)
    walks = w2.rows + w2.snakes + w2.horizontal + w2.vertical + w2.bricks + (w2.boundary,)
    numbers = list(w2.branch) + list(w2.corners) + list(w2.nails)
    numbers += [x for walk in walks for x in walk.vertices + walk.edges]
    assert all(type(x) is int for x in numbers)
    assert walks == w.rows + w.snakes + w.horizontal + w.vertical + w.bricks + (w.boundary,)


def _first_coords_key(data):
    return next(iter(data["anatomy"]["coords"]))


BROKEN_WALL_PAYLOADS = {
    "fractional size": lambda d: d["anatomy"].update(r=2.5),
    "boolean size": lambda d: d["anatomy"].update(r=True),
    "fractional coordinate": lambda d: d["anatomy"]["coords"].update({_first_coords_key(d): [0.5, 0]}),
    "three coordinates": lambda d: d["anatomy"]["coords"].update({_first_coords_key(d): [0, 0, 0]}),
    "fractional coordinate key": lambda d: d["anatomy"]["coords"].update({"2.5": [0, 0]}),
    "coordinates not a mapping": lambda d: d["anatomy"].update(coords=[]),
    "missing nails": lambda d: d["anatomy"].pop("nails"),
    "fractional branch vertex": lambda d: d["anatomy"]["branch"].append(2.5),
    "text branch vertex": lambda d: d["anatomy"]["branch"].append("x"),
    "fractional corner": lambda d: d["anatomy"]["corners"].__setitem__(0, 0.5),
    "text nail": lambda d: d["anatomy"]["nails"].append("nail"),
    "fractional row vertex": lambda d: d["anatomy"]["rows"][0]["vertices"].__setitem__(0, 0.5),
    "boolean snake edge": lambda d: d["anatomy"]["snakes"][0]["edges"].__setitem__(0, True),
    "missing anatomy": lambda d: d.pop("anatomy"),
}


@pytest.mark.parametrize("case", list(BROKEN_WALL_PAYLOADS))
def test_wall_decode_rejects_malformed_payloads(case):
    # a WallFormatError naming the payload, not a bare KeyError or ValueError
    data = json.loads(json.dumps(encode_wall(elementary_wall(2))))
    BROKEN_WALL_PAYLOADS[case](data)
    with pytest.raises(WallFormatError, match="malformed wall payload"):
        decode_wall(data)


@pytest.mark.parametrize("data", [{}, {"anatomy": {}}, {"rotations": {}}, [], "graph", None, 5], ids=repr)
@pytest.mark.parametrize(
    "decode, error", [(decode_wall, WallFormatError), (decode_embedded, GraphFormatError)], ids=["wall", "embedded"]
)
def test_a_payload_with_no_graph_is_a_typed_error(decode, error, data):
    # the decoder's typed error, not a bare KeyError or TypeError
    with pytest.raises(error, match="^malformed (wall|embedded) payload: "):
        decode(data)


BAD_WALL_ANATOMIES = {
    "branch vertex off the graph": (
        lambda d: d["anatomy"]["branch"].append(99),
        "branch vertices must be vertices of the graph",
    ),
    "one row": (lambda d: d["anatomy"]["rows"].__delitem__(slice(1, None)), "r\\+1 rows and snakes"),
    "no snakes": (lambda d: d["anatomy"]["snakes"].clear(), "r\\+1 rows and snakes"),
    "row off the graph": (
        lambda d: d["anatomy"]["rows"].__setitem__(0, {"vertices": [0, 999], "edges": [77777]}),
        "no edge with id 77777",
    ),
    "brick off the graph": (
        lambda d: d["anatomy"]["bricks"][0]["edges"].__setitem__(0, 77777),
        "no edge with id 77777",
    ),
    "row that is no path": (
        lambda d: d["anatomy"]["rows"][0].update(
            vertices=d["anatomy"]["rows"][0]["vertices"][:2] + d["anatomy"]["rows"][0]["vertices"][:1],
            edges=d["anatomy"]["rows"][0]["edges"][:1] * 2,
        ),
        "anatomy paths must be simple",
    ),
}


@pytest.mark.parametrize("case", list(BAD_WALL_ANATOMIES))
def test_wall_decode_rejects_an_anatomy_the_graph_does_not_hold(case):
    # each of these decoded, or raised a GraphFormatError, before; `subwall`
    # of the wall with one row then raised a bare IndexError
    data = json.loads(json.dumps(encode_wall(elementary_wall(2))))
    change, message = BAD_WALL_ANATOMIES[case]
    change(data)
    with pytest.raises(WallFormatError, match=message):
        decode_wall(data)


def test_rerouted_wall_round_trip():
    w = elementary_wall(4)
    seg = _vertical_segment(w)
    host, q = _host_with_detour(w, seg, [10_000])
    w2 = local_reroute(w, seg, q, host=host)
    w3 = decode_wall(encode_wall(w2))
    validate_wall(w3)
    assert w3.graph == w2.graph


# ---------------------------------------------------------------------------
# memoised, read-only elementary walls


def test_equal_descriptors_give_the_same_wall_object():
    parsed = groups.parse_descriptor("sum(z2,z3)")
    built = groups.direct_sum(groups.cyclic(2), groups.cyclic(3))
    assert elementary_wall(4, parsed) is elementary_wall(4, built)
    assert elementary_wall(3) is elementary_wall(3, groups.integers())
    assert elementary_wall(3, parsed) is not elementary_wall(4, parsed)


def test_wall_coords_are_read_only():
    w = elementary_wall(3)
    v = next(iter(w.coords))
    with pytest.raises(TypeError):
        w.coords[v] = (0, 0)
    with pytest.raises(TypeError):
        w.coords[10_000] = (0, 0)
    # a wall given a plain dict keeps a read-only copy of it
    coords = dict(w.coords)
    copy = Wall(**{**w.__dict__, "coords": coords})
    coords[v] = (99, 99)
    assert copy.coords == w.coords
    with pytest.raises(TypeError):
        copy.coords[v] = (0, 0)


# ---------------------------------------------------------------------------
# face tracing from coordinates


def reference_trace_faces(graph, coords):
    """The straight-line face tracer that walked darts by angle directly,
    kept as the oracle for `trace_faces`."""
    rotation = {}
    for v in graph.vertices:
        outs = []
        for eid in graph.incident(v):
            w = graph.other_end(eid, v)
            dx = coords[w][0] - coords[v][0]
            dy = coords[w][1] - coords[v][1]
            outs.append((math.atan2(dy, dx), eid, w))
        outs.sort()
        rotation[v] = [(eid, w) for _, eid, w in outs]
    unused = {(eid, 0) for eid in graph.edge_ids()} | {(eid, 1) for eid in graph.edge_ids()}
    faces = []
    while unused:
        start = min(unused)
        face = []
        half = start
        while True:
            unused.discard(half)
            eid, d = half
            e = graph.edge(eid)
            u, v = (e.tail, e.head) if d == 0 else (e.head, e.tail)
            face.append((eid, u))
            rot = rotation[v]
            idx = rot.index((eid, u))
            next_eid, _ = rot[(idx + 1) % len(rot)]
            ne = graph.edge(next_eid)
            half = (next_eid, 0 if ne.tail == v else 1)
            if half == start:
                break
        faces.append(face)
    return faces


def _rerouted_with_coords():
    """A rerouted 4-wall whose detour vertices bend into a brick, with
    coordinates for them."""
    w = elementary_wall(4)
    seg = _vertical_segment(w)
    fresh = [10_000, 10_001]
    host, q = _host_with_detour(w, seg, fresh)
    w2 = local_reroute(w, seg, q, host=host)
    (x0, y0), (x1, y1) = w.coords[seg.start], w.coords[seg.end]
    coords = dict(w.coords)
    for k, v in enumerate(fresh, start=1):
        t = k / (len(fresh) + 1)
        coords[v] = (x0 + t * (x1 - x0) + 0.3 * (y1 - y0), y0 + t * (y1 - y0) - 0.3 * (x1 - x0))
    return w2.graph, coords


def test_trace_faces_matches_the_reference_tracer():
    cases = [(_elementary(r).graph, _elementary(r).coords) for r in range(1, 9)]
    w = elementary_wall(6)
    for sub in (subwall(w, range(5), range(5)), subwall(w, [1, 2, 4, 6], [0, 2, 3, 5])):
        cases.append((sub.graph, sub.coords))
    cases.append(_rerouted_with_coords())
    for graph, coords in cases:
        assert trace_faces(graph, coords) == reference_trace_faces(graph, coords)
    for r in range(1, 9):
        wall = _elementary(r)
        faces = {frozenset(eid for eid, _ in f) for f in reference_trace_faces(wall.graph, wall.coords)}
        assert all(b.edge_set() in faces for b in wall.bricks)


def reference_snakes(wall, r):
    """The column snakes as the walk between the two degree-1 vertices of
    each column subgraph, in its breadth-first forest."""
    snakes = []
    for i in range(r + 1):
        cols = {2 * i, 2 * i + 1}
        column = wall.graph.subgraph(
            e.id for e in wall.graph.edges.values() if wall.coords[e.tail][0] in cols and wall.coords[e.head][0] in cols
        )
        tips = sorted((wall.coords[v][1], wall.coords[v][0], v) for v in column.vertices if column.degree(v) == 1)
        snakes.append(_tree_walk(_bfs_forest(column)[1], tips[0][2], tips[1][2]))
    return tuple(snakes)


@pytest.mark.parametrize("r", range(1, 13))
def test_elementary_snakes_are_the_column_tree_walks(r):
    # the snakes are read off the grid as zigzags; each column subgraph is a
    # path, so its tree walk from top tip to bottom tip is the same walk
    wall = _elementary(r)
    assert wall.snakes == reference_snakes(wall, r)
