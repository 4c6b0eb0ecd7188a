"""Independent oracles: answers computed apart from `nonzero_cycles`.

Cycles come from `networkx.simple_cycles`, cycle values from the small
group arithmetic below, and exact packing and covering numbers from
`scipy.optimize.milp`.  Nothing here imports the program.  Instance files
are read as plain JSON in the program's documented format.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp


class OracleError(ValueError):
    """An instance or certificate the oracle cannot read."""


# ---------------------------------------------------------------------------
# group arithmetic: z, z<n>, za<k>, free<g>, sum(<d>,<d>)
#
# A descriptor is a tuple: ("z",), ("zn", n), ("za", k), ("free", g) or
# ("sum", left, right).  Elements are ints (z, zn), int tuples (za, and
# reduced words for free) or pairs of elements (sum).


def parse_group(text: str):
    text = text.strip().lower()
    if text.startswith("sum(") and text.endswith(")"):
        inner = text[4:-1]
        depth = 0
        for i, ch in enumerate(inner):
            depth += ch == "("
            depth -= ch == ")"
            if ch == "," and depth == 0:
                return ("sum", parse_group(inner[:i]), parse_group(inner[i + 1:]))
        raise OracleError(f"bad sum group {text!r}")
    m = re.fullmatch(r"(free|za|z)(\d*)", text)
    if not m:
        raise OracleError(f"unsupported group {text!r}")
    kind, num = m.group(1), m.group(2)
    if kind == "z":
        return ("zn", int(num)) if num else ("z",)
    if not num:
        raise OracleError(f"group {text!r} needs a size")
    return (kind, int(num))


def _reduce(word) -> tuple:
    out: list = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def decode(g, data):
    kind = g[0]
    if kind == "z":
        return int(data)
    if kind == "zn":
        return int(data) % g[1]
    if kind == "za":
        vec = tuple(int(x) for x in data)
        if len(vec) != g[1]:
            raise OracleError("za element of wrong length")
        return vec
    if kind == "free":
        word = tuple(int(x) for x in data)
        if any(x == 0 or abs(x) > g[1] for x in word):
            raise OracleError("free-group letter out of range")
        return _reduce(word)
    return (decode(g[1], data[0]), decode(g[2], data[1]))


def add(g, a, b):
    kind = g[0]
    if kind == "z":
        return a + b
    if kind == "zn":
        return (a + b) % g[1]
    if kind == "za":
        return tuple(x + y for x, y in zip(a, b))
    if kind == "free":
        return _reduce(a + b)
    return (add(g[1], a[0], b[0]), add(g[2], a[1], b[1]))


def neg(g, a):
    kind = g[0]
    if kind == "z":
        return -a
    if kind == "zn":
        return (-a) % g[1]
    if kind == "za":
        return tuple(-x for x in a)
    if kind == "free":
        return tuple(-x for x in reversed(a))
    return (neg(g[1], a[0]), neg(g[2], a[1]))


def zero(g):
    kind = g[0]
    if kind in ("z", "zn"):
        return 0
    if kind == "za":
        return (0,) * g[1]
    if kind == "free":
        return ()
    return (zero(g[1]), zero(g[2]))


def coordinates(g, a) -> Tuple[object, object]:
    """The two label coordinates; a single group counts as both."""
    return (a[0], a[1]) if g[0] == "sum" else (a, a)


def coordinate_groups(g):
    return (g[1], g[2]) if g[0] == "sum" else (g, g)


# ---------------------------------------------------------------------------
# graphs and cycles


@dataclass
class Graph:
    group: tuple
    vertices: FrozenSet[int]
    ends: Dict[int, Tuple[int, int]]  # edge id -> (tail, head)
    labels: Dict[int, object]  # edge id -> element

    @property
    def pair_to_edge(self) -> Dict[FrozenSet[int], int]:
        out: Dict[FrozenSet[int], int] = {}
        for eid, (t, h) in self.ends.items():
            key = frozenset((t, h))
            if t == h or key in out:
                raise OracleError("the oracle handles simple graphs only")
            out[key] = eid
        return out


def read_graph(path: str) -> Graph:
    with open(path) as fh:
        doc = json.load(fh)
    return graph_from_doc(doc.get("graph", doc))


def graph_from_doc(doc: dict) -> Graph:
    g = parse_group(doc["group"])
    ends, labels = {}, {}
    for e in doc["edges"]:
        eid = int(e["id"])
        ends[eid] = (int(e["tail"]), int(e["head"]))
        labels[eid] = decode(g, e["label"])
    return Graph(g, frozenset(int(v) for v in doc["vertices"]), ends, labels)


@dataclass(frozen=True)
class OCycle:
    vertices: Tuple[int, ...]  # cyclic order, v[i] -- e[i] -- v[i+1]
    edges: Tuple[int, ...]

    @property
    def edge_set(self) -> FrozenSet[int]:
        return frozenset(self.edges)

    @property
    def vertex_set(self) -> FrozenSet[int]:
        return frozenset(self.vertices)


def topology_cycles(vertices, pairs: Dict[FrozenSet[int], int]) -> List[OCycle]:
    """Every simple cycle of a simple graph, by networkx."""
    nxg = nx.Graph()
    nxg.add_nodes_from(vertices)
    nxg.add_edges_from(tuple(p) for p in pairs)
    out = []
    for vs in nx.simple_cycles(nxg):
        k = len(vs)
        es = tuple(pairs[frozenset((vs[i], vs[(i + 1) % k]))] for i in range(k))
        out.append(OCycle(tuple(vs), es))
    return out


def graph_cycles(graph: Graph) -> List[OCycle]:
    return topology_cycles(graph.vertices, graph.pair_to_edge)


def walk_value(graph: Graph, vertices: Sequence[int], edges: Sequence[int]):
    """Value of the closed walk v0 e0 v1 e1 ... back to v0: each edge adds
    its label when traversed tail to head and subtracts it otherwise."""
    g = graph.group
    total = zero(g)
    k = len(edges)
    for i, eid in enumerate(edges):
        t, h = graph.ends[eid]
        arrive = vertices[(i + 1) % k]
        if arrive not in (t, h) or vertices[i] not in (t, h):
            raise OracleError("walk does not follow its edges")
        lab = graph.labels[eid]
        total = add(g, total, lab if arrive == h else neg(g, lab))
    return total


def nonzero_coords(graph: Graph, cyc: OCycle) -> Tuple[bool, bool]:
    """Whether the cycle's value is non-zero in each coordinate.  Zero-ness
    does not depend on the start vertex or direction, even in free
    groups, because a conjugate or inverse of the identity is the identity."""
    val = walk_value(graph, cyc.vertices, cyc.edges)
    g1, g2 = coordinate_groups(graph.group)
    a, b = coordinates(graph.group, val)
    return a != zero(g1), b != zero(g2)


def cycle_from_edge_ids(graph: Graph, eids) -> Optional[OCycle]:
    """The cycle whose edge set is `eids`, or None if they form no single
    cycle of the graph."""
    eids = [int(e) for e in eids]
    if not eids or len(set(eids)) != len(eids) or any(e not in graph.ends for e in eids):
        return None
    adj: Dict[int, List[int]] = {}
    for e in eids:
        t, h = graph.ends[e]
        if t == h:
            return None
        adj.setdefault(t, []).append(e)
        adj.setdefault(h, []).append(e)
    if any(len(inc) != 2 for inc in adj.values()):
        return None
    start = min(adj)
    verts, order, prev, v = [start], [], None, start
    while True:
        e = adj[v][0] if adj[v][0] != prev else adj[v][1]
        order.append(e)
        t, h = graph.ends[e]
        v = h if v == t else t
        prev = e
        if v == start:
            break
        verts.append(v)
    if len(order) != len(eids):
        return None
    return OCycle(tuple(verts), tuple(order))


# ---------------------------------------------------------------------------
# exact packing and covering by integer programming


def max_packing(vertex_sets: Sequence[FrozenSet[int]], max_use: int) -> int:
    """Largest number of the given (distinct) cycles with every vertex in at
    most `max_use` of them."""
    if not vertex_sets:
        return 0
    verts = sorted(set().union(*vertex_sets))
    row = {v: i for i, v in enumerate(verts)}
    a = np.zeros((len(verts), len(vertex_sets)))
    for j, vs in enumerate(vertex_sets):
        for v in vs:
            a[row[v], j] = 1
    res = milp(
        c=-np.ones(len(vertex_sets)),
        constraints=LinearConstraint(a, -np.inf, max_use),
        integrality=np.ones(len(vertex_sets)),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise OracleError(f"milp failed: {res.message}")
    return int(round(-res.fun))


def min_transversal(vertex_sets: Sequence[FrozenSet[int]]) -> int:
    """Fewest vertices meeting every given cycle."""
    if not vertex_sets:
        return 0
    verts = sorted(set().union(*vertex_sets))
    col = {v: i for i, v in enumerate(verts)}
    a = np.zeros((len(vertex_sets), len(verts)))
    for i, vs in enumerate(vertex_sets):
        for v in vs:
            a[i, col[v]] = 1
    res = milp(
        c=np.ones(len(verts)),
        constraints=LinearConstraint(a, 1, np.inf),
        integrality=np.ones(len(verts)),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise OracleError(f"milp failed: {res.message}")
    return int(round(res.fun))


def first_coordinate_cover(graph: Graph) -> FrozenSet[int]:
    """A vertex cover of the edges whose first-coordinate label is non-zero.
    Every doubly non-zero cycle uses such an edge, so this is a transversal
    for any labelling and bounds τ from above."""
    g1 = coordinate_groups(graph.group)[0]
    hot = [
        graph.ends[e]
        for e in sorted(graph.ends)
        if coordinates(graph.group, graph.labels[e])[0] != zero(g1)
    ]
    cover: set = set()
    while True:
        left = [p for p in hot if p[0] not in cover and p[1] not in cover]
        if not left:
            return frozenset(cover)
        deg: Dict[int, int] = {}
        for t, h in left:
            deg[t] = deg.get(t, 0) + 1
            deg[h] = deg.get(h, 0) + 1
        cover.add(min(deg, key=lambda v: (-deg[v], v)))


# ---------------------------------------------------------------------------
# robustness: two confusable cycles


def _rooted_values(graph: Graph, cyc: OCycle, root: int, coord: int) -> set:
    """Values in one coordinate of the cycle walked from `root`, both ways."""
    i = cyc.vertices.index(root)
    verts = cyc.vertices[i:] + cyc.vertices[:i]
    edges = cyc.edges[i:] + cyc.edges[:i]
    back_verts = (verts[0],) + tuple(reversed(verts[1:]))
    back_edges = tuple(reversed(edges))
    out = set()
    for vs, es in ((verts, edges), (back_verts, back_edges)):
        out.add(coordinates(graph.group, walk_value(graph, vs, es))[coord])
    return out


def zero_edges(cycles: Sequence[OCycle], nonzero: Sequence[Tuple[bool, bool]], coord: int) -> FrozenSet[int]:
    """Edges lying on some cycle whose value is zero in `coord`."""
    out: set = set()
    for c, nz in zip(cycles, nonzero):
        if not nz[coord]:
            out |= c.edge_set
    return frozenset(out)


def confusable(graph: Graph, c1: OCycle, c2: OCycle, zero_set: FrozenSet[int], coord: int) -> bool:
    """Two distinct cycles, both non-zero in `coord`, are confusable when
    they share at least one edge, all shared edges lie in `zero_set`, and
    from some common start vertex they have equal values."""
    if c1.edge_set == c2.edge_set:
        return False
    shared = c1.edge_set & c2.edge_set
    if not shared or not shared <= zero_set:
        return False
    return any(
        _rooted_values(graph, c1, root, coord) & _rooted_values(graph, c2, root, coord)
        for root in sorted(c1.vertex_set & c2.vertex_set)
    )


def bitmask(items) -> int:
    out = 0
    for x in items:
        out |= 1 << x
    return out


def has_confusable_pair(graph: Graph, cycles: Sequence[OCycle], nonzero: Sequence[Tuple[bool, bool]], coord: int) -> bool:
    zero_set = zero_edges(cycles, nonzero, coord)
    zero_mask = bitmask(zero_set)
    hot = [(c, bitmask(c.edges), bitmask(c.vertices)) for c, nz in zip(cycles, nonzero) if nz[coord]]
    for a in range(len(hot)):
        c1, e1, v1 = hot[a]
        for c2, e2, v2 in hot[a + 1:]:
            shared = e1 & e2
            # the bit tests only skip pairs that `confusable` would reject
            if shared and not shared & ~zero_mask and v1 & v2:
                if confusable(graph, c1, c2, zero_set, coord):
                    return True
    return False
