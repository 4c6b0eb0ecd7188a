"""Group-labeled oriented multigraphs.

Edges are oriented (tail -> head) and carry a group label.  The label of
an edge seen from its head is the label itself; seen from its tail it is
the inverse.  Loops and parallel edges are allowed.

A graph builds two read-only tables lazily, once each, for the hot loops:
`steps()`, per edge its tail, head and the raw label payloads (see
`groups.Table`) seen arriving at either end, None where zero, which
`walk_payload`, `is_gamma_bipartite`, `cycles.is_robust` and the cycle DFS
(`cycles._bit_steps`) read; and
`adjacency()`, per vertex its non-loop `(eid, neighbour)` pairs in
`incident` order, which the chord router walks.

Shifting has one rule, `shifted_value`, over raw payloads: the table of
the group, a raw shift per vertex and a raw value.  `shift_sequence`
relabels by it into one graph however many shifts it applies;
`is_gamma_bipartite` and `cycles.is_robust` read shifted raw values through
it and build no graph, and only the shifts `is_gamma_bipartite` returns are
wrapped as elements.  `walk_payload` folds a walk's raw value, and
`walk_value` wraps it.

One breadth-first spanning forest (`_bfs_forest`) and one walk along its
parent links (`_tree_walk`) serve the package: the fundamental cycle of
`is_gamma_bipartite`, the tree paths of clique models and the column
snakes of elementary walls.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import groups
from .groups import GroupDescriptor, GroupElement, as_integer


class GraphFormatError(ValueError):
    """Raised for malformed graphs, walks, or serialised payloads."""


class NotGammaBipartiteError(ValueError):
    """Raised when an operation requires every cycle to be zero-valued."""


class Edge(NamedTuple):
    id: int
    tail: int
    head: int
    label: GroupElement


class LabeledGraph:
    """Immutable multigraph with group-labeled oriented edges."""

    __slots__ = ("descriptor", "_vertices", "_edges", "_incident", "_steps", "_adjacency")

    def __init__(
        self,
        descriptor: GroupDescriptor,
        vertices: Iterable[int],
        edges: Iterable[Edge],
    ):
        self.descriptor = descriptor
        self._vertices = frozenset(int(v) for v in vertices)
        edge_map: Dict[int, Edge] = {}
        for e in edges:
            if e.id in edge_map:
                raise GraphFormatError(f"duplicate edge id {e.id}")
            if e.tail not in self._vertices or e.head not in self._vertices:
                raise GraphFormatError(f"edge {e.id} attached to unknown vertex")
            if e.label.descriptor is not descriptor:
                raise GraphFormatError(f"edge {e.id} labeled in the wrong group")
            edge_map[e.id] = e
        self._edges = edge_map
        incident: Dict[int, List[int]] = {v: [] for v in self._vertices}
        for e in edge_map.values():
            incident[e.tail].append(e.id)
            if e.head != e.tail:
                incident[e.head].append(e.id)
        self._incident = {v: tuple(sorted(eids)) for v, eids in incident.items()}
        self._steps: Optional[Mapping[int, Tuple[int, int, object, object]]] = None
        self._adjacency: Optional[Mapping[int, Tuple[Tuple[int, int], ...]]] = None

    @property
    def vertices(self) -> frozenset:
        return self._vertices

    @property
    def edges(self) -> Dict[int, Edge]:
        return dict(self._edges)

    def edge(self, eid: int) -> Edge:
        try:
            return self._edges[eid]
        except KeyError:
            raise GraphFormatError(f"no edge with id {eid}") from None

    def incident(self, v: int) -> Tuple[int, ...]:
        return self._incident.get(v, ())

    def steps(self) -> Mapping[int, Tuple[int, int, object, object]]:
        """Read-only `eid -> (tail, head, forward, backward)`, where forward
        is the raw payload (see `groups.Table`) of the label as seen
        arriving at the head and backward as seen arriving at the tail; a
        loop contributes its label either way.  A zero payload is stored as
        None, so a fold can skip it: adding zero is the identity.  Built on
        first use."""
        if self._steps is None:
            t = groups.table(self.descriptor)
            steps = {}
            for e in self._edges.values():
                fwd = t.unwrap(e.label)
                if fwd == t.zero:
                    steps[e.id] = (e.tail, e.head, None, None)
                else:
                    steps[e.id] = (e.tail, e.head, fwd, fwd if e.tail == e.head else t.neg(fwd))
            self._steps = MappingProxyType(steps)
        return self._steps

    def adjacency(self) -> Mapping[int, Tuple[Tuple[int, int], ...]]:
        """Read-only `v -> ((eid, neighbour), ...)` over the non-loop edges at
        v, in `incident(v)` order.  Built on first use."""
        if self._adjacency is None:
            adj = {}
            for v, eids in self._incident.items():
                pairs = []
                for eid in eids:
                    e = self._edges[eid]
                    if e.tail != e.head:
                        pairs.append((eid, e.head if e.tail == v else e.tail))
                adj[v] = tuple(pairs)
            self._adjacency = MappingProxyType(adj)
        return self._adjacency

    def edge_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._edges))

    def other_end(self, eid: int, v: int) -> int:
        e = self.edge(eid)
        if v == e.tail:
            return e.head
        if v == e.head:
            return e.tail
        raise GraphFormatError(f"vertex {v} not an end of edge {eid}")

    def degree(self, v: int) -> int:
        d = 0
        for eid in self.incident(v):
            e = self._edges[eid]
            d += 2 if e.tail == e.head else 1
        return d

    def with_labels(self, labels: Dict[int, GroupElement]) -> "LabeledGraph":
        new_edges = [
            e._replace(label=labels.get(e.id, e.label)) for e in self._edges.values()
        ]
        return LabeledGraph(self.descriptor, self._vertices, new_edges)

    def subgraph(self, edge_ids: Iterable[int], vertices: Iterable[int] = ()) -> "LabeledGraph":
        keep = set(edge_ids)
        edges = [self.edge(eid) for eid in sorted(keep)]
        verts = set(vertices)
        for e in edges:
            verts.add(e.tail)
            verts.add(e.head)
        return LabeledGraph(self.descriptor, verts, edges)

    def without_vertices(self, removed: Iterable[int]) -> "LabeledGraph":
        gone = set(removed)
        edges = [
            e for e in self._edges.values() if e.tail not in gone and e.head not in gone
        ]
        return LabeledGraph(self.descriptor, self._vertices - gone, edges)

    def __eq__(self, other):
        return (
            isinstance(other, LabeledGraph)
            and self.descriptor == other.descriptor
            and self._vertices == other._vertices
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((self.descriptor, self._vertices, frozenset(self._edges.items())))

    def __repr__(self):
        return f"LabeledGraph(|V|={len(self._vertices)}, |E|={len(self._edges)}, {self.descriptor})"


def null_labeled(descriptor: GroupDescriptor, vertices, arcs: Sequence[Tuple[int, int]]) -> LabeledGraph:
    """Graph with every edge labeled by the identity; arcs are (tail, head)
    pairs and edge ids are assigned consecutively."""
    zero = groups.identity(descriptor)
    edges = [Edge(i, t, h, zero) for i, (t, h) in enumerate(arcs)]
    return LabeledGraph(descriptor, vertices, edges)


# ---------------------------------------------------------------------------
# walks and cycles


@dataclass(frozen=True)
class Walk:
    """Alternating vertex/edge sequence; vertices has one more entry than
    edges and consecutive entries must be joined by the listed edge."""

    vertices: Tuple[int, ...]
    edges: Tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.edges) + 1:
            raise GraphFormatError("walk needs one more vertex than edges")

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def reversed(self) -> "Walk":
        return Walk(tuple(reversed(self.vertices)), tuple(reversed(self.edges)))

    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    def concat(self, other: "Walk") -> "Walk":
        if self.end != other.start:
            raise GraphFormatError("walks do not share an endpoint")
        return Walk(self.vertices + other.vertices[1:], self.edges + other.edges)

    def is_path(self) -> bool:
        return len(set(self.vertices)) == len(self.vertices)

    def validate(self, graph: LabeledGraph) -> None:
        """GraphFormatError unless each step follows its edge (`walk_value`)."""
        walk_value(graph, self)


@dataclass(frozen=True)
class Cycle(Walk):
    """Closed walk with pairwise-distinct internal vertices and edges."""

    def __post_init__(self):
        super().__post_init__()
        if len(self.edges) == 0:
            raise GraphFormatError("a cycle has at least one edge")
        if self.vertices[0] != self.vertices[-1]:
            raise GraphFormatError("cycle must be closed")
        interior = self.vertices[:-1]
        if len(set(interior)) != len(interior):
            raise GraphFormatError("cycle revisits a vertex")
        if len(set(self.edges)) != len(self.edges):
            raise GraphFormatError("cycle repeats an edge")

    @classmethod
    def trusted(cls, vertices: Tuple[int, ...], edges: Tuple[int, ...]) -> "Cycle":
        """The cycle `Cycle(vertices, edges)` without the checks of
        `__post_init__`, for a walk its maker has built closed and simple:
        the enumerating DFS (`cycles.enumerate_cycles`).  Walks from outside
        (certificates, lemmas) take the checked constructor."""
        cycle = object.__new__(cls)
        object.__setattr__(cycle, "vertices", vertices)
        object.__setattr__(cycle, "edges", edges)
        return cycle

    def rooted_at(self, v: int) -> "Cycle":
        interior = self.vertices[:-1]
        if v not in interior:
            raise GraphFormatError(f"vertex {v} not on cycle")
        i = interior.index(v)
        verts = interior[i:] + interior[:i] + (v,)
        edges = self.edges[i:] + self.edges[:i]
        return Cycle(verts, edges)

    def reversed(self) -> "Cycle":
        return Cycle(tuple(reversed(self.vertices)), tuple(reversed(self.edges)))

    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices[:-1])


def walk_payload(graph: LabeledGraph, walk: Walk):
    """The raw payload (see `groups.Table`) of the walk's value: the ordered
    sum of edge labels as seen from each step's arrival vertex.

    Checks each step as `Walk.validate` does, with the same errors, while
    folding the raw payloads of `graph.steps()`.  Zero payloads, stored as
    None, are skipped: adding zero leaves the sum as it is, so only the
    non-zero labels of a walk cost an addition."""
    t = groups.table(graph.descriptor)
    steps = graph.steps()
    add = t.add
    total = t.zero
    verts = walk.vertices
    u = verts[0]
    for i, eid in enumerate(walk.edges):
        try:
            tail, head, fwd, bwd = steps[eid]
        except KeyError:
            raise GraphFormatError(f"no edge with id {eid}") from None
        v = verts[i + 1]
        if u == tail and v == head:
            x = fwd
        elif u == head and v == tail:
            x = bwd
        else:
            raise GraphFormatError(f"step {i} of walk does not follow edge {eid}")
        if x is not None:
            total = add(total, x)
        u = v
    return total


def walk_value(graph: LabeledGraph, walk: Walk) -> GroupElement:
    """The walk's value as an element: `walk_payload`, wrapped."""
    return groups.table(graph.descriptor).wrap(walk_payload(graph, walk))


def cycle_from_edges(graph: LabeledGraph, edge_ids: Iterable[int]) -> Cycle:
    """Reassemble a cycle walk from an edge set (must form a single cycle)."""
    eids = sorted(set(edge_ids))
    if not eids:
        raise GraphFormatError("empty edge set")
    if len(eids) == 1:
        e = graph.edge(eids[0])
        if e.tail != e.head:
            raise GraphFormatError("single non-loop edge is not a cycle")
        return Cycle((e.tail, e.tail), (e.id,))
    adj: Dict[int, List[int]] = {}
    for eid in eids:
        e = graph.edge(eid)
        if e.tail == e.head:
            raise GraphFormatError("loop mixed into a longer cycle")
        adj.setdefault(e.tail, []).append(eid)
        adj.setdefault(e.head, []).append(eid)
    for v, inc in adj.items():
        if len(inc) != 2:
            raise GraphFormatError("edge set is not a single cycle")
    start = min(adj)
    verts = [start]
    edges: List[int] = []
    prev_edge = None
    v = start
    while True:
        nxt = [eid for eid in adj[v] if eid != prev_edge]
        eid = min(nxt) if prev_edge is None else nxt[0]
        edges.append(eid)
        v = graph.other_end(eid, v)
        verts.append(v)
        prev_edge = eid
        if v == start:
            break
    if len(edges) != len(eids):
        raise GraphFormatError("edge set is not a single cycle")
    return Cycle(tuple(verts), tuple(edges))


# ---------------------------------------------------------------------------
# shifting


def shifted_value(t: groups.Table, alpha: Mapping[int, object], u: int, x, v: int):
    """The raw value x (see `groups.Table`; `t` is its group's table) of a
    walk from u to v once each vertex w is shifted by the raw alpha[w] (zero
    without an entry): -alpha[u] + x + alpha[v], the switching rule of
    Zaslavsky, "Biased graphs I" (JCTB 1989), in a group written additively
    and read left to right."""
    if u in alpha:
        x = t.add(t.neg(alpha[u]), x)
    if v in alpha:
        x = t.add(x, alpha[v])
    return x


def shift(graph: LabeledGraph, v: int, alpha: GroupElement) -> LabeledGraph:
    """Shift at v by alpha: edges with head v gain alpha on the right, edges
    with tail v gain the inverse of alpha on the left; loops at v get both.
    This is `shift_sequence` with the one shift (v, alpha)."""
    return shift_sequence(graph, [(v, alpha)])


def shift_sequence(graph: LabeledGraph, shifts: Sequence[Tuple[int, GroupElement]]) -> LabeledGraph:
    """Apply the shifts in order, building one graph.  Shifting at v by a,
    then by b, is shifting at v by a·b; shifts at different vertices
    commute.  Each edge is relabelled by `shifted_value`."""
    t = groups.table(graph.descriptor)
    alpha: Dict[int, object] = {}
    for v, a in shifts:
        if v not in graph.vertices:
            raise GraphFormatError(f"no vertex {v}")
        if a.descriptor is not graph.descriptor:
            raise GraphFormatError("shift value lives in the wrong group")
        a = t.unwrap(a)
        alpha[v] = t.add(alpha[v], a) if v in alpha else a
    return graph.with_labels(
        {e.id: t.wrap(shifted_value(t, alpha, e.tail, t.unwrap(e.label), e.head)) for e in graph.edges.values()}
    )


def is_gamma_bipartite(graph: LabeledGraph):
    """Decide whether every cycle has zero value.

    Returns (True, shifts) where applying `shifts` makes every label zero,
    or (False, witness) with a nonzero-valued cycle of the input graph.
    Each vertex appears at most once in `shifts`.

    No shifted graph is built: with `alpha` the raw shift value per vertex
    so far, an edge carries the `shifted_value` of its raw label from
    `graph.steps()`.  Only the returned shifts are wrapped as elements.
    """
    t = groups.table(graph.descriptor)
    zero = t.zero
    steps = graph.steps()
    alpha: Dict[int, object] = {}
    order, parent = _bfs_forest(graph)
    tree_edges = {eid for (_, eid) in parent.values()}
    for v in order:
        if v not in parent:
            continue
        # only the parent end of the tree edge is shifted so far
        tail, head, fwd, _ = steps[parent[v][1]]
        lab = shifted_value(t, alpha, tail, zero if fwd is None else fwd, head)
        if lab == zero:
            continue
        # choose alpha so the tree edge becomes zero after shifting at v
        alpha[v] = t.neg(lab) if head == v else lab
    for eid in graph.edge_ids():
        tail, head, fwd, _ = steps[eid]
        if eid in tree_edges or shifted_value(t, alpha, tail, zero if fwd is None else fwd, head) == zero:
            continue
        # fundamental cycle: tree walk head -> tail, closed by the edge
        walk = _tree_walk(parent, head, tail)
        return False, Cycle(walk.vertices + (head,), walk.edges + (eid,))
    return True, [(v, t.wrap(a)) for v, a in alpha.items()]


def _bfs_forest(graph: LabeledGraph) -> Tuple[List[int], Dict[int, Tuple[int, int]]]:
    """Breadth-first spanning forest: the visiting order, and for each
    non-root vertex its (parent vertex, tree edge id).  Roots are taken in
    sorted order and each vertex's edges in `incident` order."""
    adjacency = graph.adjacency()
    parent: Dict[int, Tuple[int, int]] = {}
    order: List[int] = []
    seen = set()
    for root in sorted(graph.vertices):
        if root in seen:
            continue
        seen.add(root)
        i = len(order)
        order.append(root)
        while i < len(order):
            v = order[i]
            i += 1
            for eid, w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    parent[w] = (v, eid)
                    order.append(w)
    return order, parent


def _tree_walk(parent: Mapping[int, Tuple[int, int]], a: int, b: int) -> Optional[Walk]:
    """The walk from a to b in the forest of `parent` links (as returned by
    `_bfs_forest`), or None when a and b lie in different trees."""
    up = [a]
    while up[-1] in parent:
        up.append(parent[up[-1]][0])
    depth = {v: i for i, v in enumerate(up)}
    down_vs, down_es = [b], []
    while down_vs[-1] not in depth:
        if down_vs[-1] not in parent:
            return None
        u, eid = parent[down_vs[-1]]
        down_vs.append(u)
        down_es.append(eid)
    k = depth[down_vs[-1]]
    return Walk(
        tuple(up[:k]) + tuple(reversed(down_vs)),
        tuple(parent[v][1] for v in up[:k]) + tuple(reversed(down_es)),
    )


def normalize_to_null(graph: LabeledGraph) -> LabeledGraph:
    """Shift every edge label to zero by one `shift_sequence`, so building
    one graph; requires all cycles zero."""
    ok, cert = is_gamma_bipartite(graph)
    if not ok:
        raise NotGammaBipartiteError(f"graph has a nonzero cycle through edges {sorted(cert.edges)}")
    out = shift_sequence(graph, cert)
    for e in out.edges.values():
        if not groups.is_zero(e.label):  # pragma: no cover - internal sanity
            raise AssertionError("normalisation left a nonzero label")
    return out


def contract_null_edge(graph: LabeledGraph, eid: int) -> LabeledGraph:
    """Contract a zero-labeled non-loop edge; both ends are replaced by a
    fresh vertex and every other edge keeps its id, orientation and label."""
    e = graph.edge(eid)
    if e.tail == e.head:
        raise GraphFormatError("cannot contract a loop")
    if not groups.is_zero(e.label):
        raise GraphFormatError("only zero-labeled edges may be contracted")
    fresh = max(graph.vertices) + 1
    merged = {e.tail, e.head}
    edges = []
    for other in graph.edges.values():
        if other.id == eid:
            continue
        tail = fresh if other.tail in merged else other.tail
        head = fresh if other.head in merged else other.head
        edges.append(other._replace(tail=tail, head=head))
    vertices = (graph.vertices - merged) | {fresh}
    return LabeledGraph(graph.descriptor, vertices, edges)


# ---------------------------------------------------------------------------
# JSON serialisation


def encode_graph(graph: LabeledGraph) -> dict:
    return {
        "group": groups.format_descriptor(graph.descriptor),
        "vertices": sorted(graph.vertices),
        "edges": [
            {
                "id": e.id,
                "tail": e.tail,
                "head": e.head,
                "label": groups.encode_element(e.label),
            }
            for e in sorted(graph.edges.values())
        ],
    }


def decode_graph(data: dict) -> LabeledGraph:
    """Parse an `encode_graph` payload.  Each distinct label is decoded once,
    keyed by the `repr` of its raw JSON value (which tells `0` from `"0"`);
    only successful decodes are kept, so a bad label raises every time."""
    decoded: Dict[str, GroupElement] = {}

    def label(desc: GroupDescriptor, raw) -> GroupElement:
        key = repr(raw)
        value = decoded.get(key)
        if value is None:
            value = decoded[key] = groups.decode_element(desc, raw)
        return value

    try:
        desc = groups.parse_descriptor(data["group"])
        vertices = [as_integer(v) for v in data["vertices"]]
        edges = [
            Edge(as_integer(item["id"]), as_integer(item["tail"]), as_integer(item["head"]), label(desc, item["label"]))
            for item in data["edges"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed graph payload: {exc}") from exc
    return LabeledGraph(desc, vertices, edges)
