"""Encodings of classical constrained-cycle problems as doubly-labeled
graphs, plus the homology labeling of an embedded graph.

Each reduction reorients the input deterministically (tail = smaller
vertex id) and assigns labels so the constrained cycles of the input are
exactly the doubly nonzero cycles of the output.  Signed power-of-two
labels make distinct edge subsets sum to distinct values, which is what
the plain, S-, and S1-S2 encodings rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from . import cycles, groups
from .graphs import Edge, GraphFormatError, LabeledGraph, _bfs_forest, decode_graph, encode_graph


# ---------------------------------------------------------------------------
# deterministic reorientation and enumeration


def _canonical_arcs(graph: LabeledGraph) -> List[Tuple[int, int, int]]:
    """(eid, tail, head) for every edge, reoriented tail = smaller vertex
    id, in increasing edge-id order."""
    out = []
    for eid in sorted(graph.edge_ids()):
        e = graph.edge(eid)
        u, v = sorted((e.tail, e.head))
        out.append((eid, u, v))
    return out


def _relabel(
    graph: LabeledGraph,
    desc: groups.GroupDescriptor,
    label_of: Callable[[int, int, int, int], groups.GroupElement],
) -> LabeledGraph:
    """New graph with canonical orientation and label_of(rank, eid, u, v);
    ranks start at 1 in edge-id order."""
    edges = [
        Edge(eid, u, v, label_of(i + 1, eid, u, v))
        for i, (eid, u, v) in enumerate(_canonical_arcs(graph))
    ]
    return LabeledGraph(desc, graph.vertices, edges)


# ---------------------------------------------------------------------------
# the five cycle-problem encodings


def reduce_plain_cycles(graph: LabeledGraph) -> LabeledGraph:
    """Every cycle becomes doubly nonzero: edge i carries (2^i, 2^i)."""
    return reduce_S1_S2_cycles(graph, graph.vertices, graph.vertices)


def reduce_odd_cycles(graph: LabeledGraph) -> LabeledGraph:
    """Odd cycles become doubly nonzero: every edge carries (1, 1)."""
    desc = groups.direct_sum(groups.cyclic(2), groups.cyclic(2))
    return _relabel(graph, desc, lambda i, eid, u, v: groups.element(desc, (1, 1)))


def reduce_S_cycles(graph: LabeledGraph, s: Iterable[int]) -> LabeledGraph:
    """Cycles meeting S become doubly nonzero: edge i carries (2^i, 2^i)
    when it has an end in S and (0, 0) otherwise."""
    s = frozenset(s)
    return reduce_S1_S2_cycles(graph, s, s)


def reduce_odd_S_cycles(graph: LabeledGraph, s: Iterable[int]) -> LabeledGraph:
    """Odd cycles meeting S become doubly nonzero: edge i carries
    (1, 2^i) when it has an end in S and (1, 0) otherwise."""
    s = frozenset(s)
    desc = groups.direct_sum(groups.cyclic(2), groups.integers())

    def lab(i, eid, u, v):
        hot = u in s or v in s
        return groups.element(desc, (1, 2**i) if hot else (1, 0))

    return _relabel(graph, desc, lab)


def reduce_S1_S2_cycles(
    graph: LabeledGraph, s1: Iterable[int], s2: Iterable[int]
) -> LabeledGraph:
    """Cycles meeting both S1 and S2 become doubly nonzero: edge i
    carries (d1 * 2^i, d2 * 2^i) with dj = 1 exactly when it has an end
    in Sj."""
    s1, s2 = frozenset(s1), frozenset(s2)
    desc = groups.direct_sum(groups.integers(), groups.integers())

    def lab(i, eid, u, v):
        d1 = 1 if (u in s1 or v in s1) else 0
        d2 = 1 if (u in s2 or v in s2) else 0
        return groups.element(desc, (d1 * 2**i, d2 * 2**i))

    return _relabel(graph, desc, lab)


# ---------------------------------------------------------------------------
# the reductions, by kind, and the cycles each one keeps


class Reduction(NamedTuple):
    reduce: Callable[..., LabeledGraph]  # reduce(graph, *sets) labels the graph
    sets: int  # how many vertex sets both read: none, S, or S1 and S2
    keeps: Callable[..., bool]  # keeps(cycle, *sets): is the cycle made doubly nonzero


REDUCTIONS: Dict[str, Reduction] = {
    "plain": Reduction(reduce_plain_cycles, 0, lambda c: True),
    "odd": Reduction(reduce_odd_cycles, 0, lambda c: len(c.edges) % 2 == 1),
    "s": Reduction(reduce_S_cycles, 1, lambda c, s: bool(c.vertex_set() & s)),
    "odd_s": Reduction(reduce_odd_S_cycles, 1, lambda c, s: len(c.edges) % 2 == 1 and bool(c.vertex_set() & s)),
    "s1s2": Reduction(reduce_S1_S2_cycles, 2, lambda c, s1, s2: bool(c.vertex_set() & s1 and c.vertex_set() & s2)),
}


def correspondence_check(
    kind: str,
    reduced: LabeledGraph,
    s1: Iterable[int] = (),
    s2: Iterable[int] = (),
    limit: Optional[int] = None,
) -> bool:
    """Exhaustively confirm that the doubly nonzero cycles of a reduced
    graph are exactly the constrained cycles of the original (which has
    the same vertices, edge ids, and adjacencies)."""
    reduction = REDUCTIONS.get(kind)
    if reduction is None:
        raise ValueError(f"unknown reduction kind {kind!r}")
    sets = (frozenset(s1), frozenset(s2))[: reduction.sets]
    return all(
        c.doubly_nonzero == reduction.keeps(c.rep, *sets)
        for c in cycles.enumerate_cycles(reduced, limit=limit)
    )


# ---------------------------------------------------------------------------
# embedded graphs: rotation systems with edge signs


Dart = Tuple[int, int]  # (edge id, direction): 0 = tail->head, 1 = head->tail


@dataclass(frozen=True)
class EmbeddedGraph:
    """A graph embedded in a surface: a cyclic order of outgoing darts at
    each vertex and a sign per edge (-1 marks orientation-reversing
    bands, as needed for non-orientable surfaces)."""

    graph: LabeledGraph
    rotations: Dict[int, Tuple[Dart, ...]]
    signs: Dict[int, int] = field(default_factory=dict)

    def sign(self, eid: int) -> int:
        return self.signs.get(eid, 1)

    def validate(self) -> None:
        g = self.graph
        if set(self.rotations) != set(g.vertices):
            raise GraphFormatError("rotation system must cover every vertex")
        expected: Dict[int, List[Dart]] = {v: [] for v in g.vertices}
        for eid in g.edge_ids():
            e = g.edge(eid)
            expected[e.tail].append((eid, 0))
            expected[e.head].append((eid, 1))
        for v, rot in self.rotations.items():
            if sorted(rot) != sorted(expected[v]):
                raise GraphFormatError(
                    f"rotation at vertex {v} must list its outgoing darts once"
                )
        for eid, s in self.signs.items():
            if s not in (1, -1):
                raise GraphFormatError("edge signs are +1 or -1")
            if eid not in g.edges:
                raise GraphFormatError(f"sign for unknown edge {eid}")


def trace_embedded_faces(emb: EmbeddedGraph) -> List[List[Dart]]:
    """Face boundary walks of the embedding.  States are (dart, side):
    after arriving along a dart the side flips on negative edges, and the
    next dart is the rotation successor (positive side) or predecessor
    (negative side) of the reversed dart.  A face is traced once: the
    mirror of state (dart (e, d), side s) is ((e, 1 - d), -s * sign(e)),
    the same edge walked back on the other side, and the mirror of each
    traced orbit is skipped.  Start states are tried in edge-id and
    direction order, all on side +1 before any on side -1, so on an
    orientable embedding each face comes out in its side +1 direction."""
    emb.validate()
    g = emb.graph
    sign = {eid: emb.sign(eid) for eid in g.edge_ids()}
    # each dart's rotation (that of the vertex it leaves) and its place there
    place: Dict[Dart, Tuple[Tuple[Dart, ...], int]] = {
        dart: (rot, i) for rot in emb.rotations.values() for i, dart in enumerate(rot)
    }

    def step(dart: Dart, side: int) -> Tuple[Dart, int]:
        side *= sign[dart[0]]
        rot, k = place[(dart[0], 1 - dart[1])]
        return rot[(k + side) % len(rot)], side

    faces: List[List[Dart]] = []
    seen = set()
    darts = [(eid, d) for eid in sorted(g.edge_ids()) for d in (0, 1)]
    for start in [(dart, s) for s in (1, -1) for dart in darts]:
        if start in seen:
            continue
        face = []
        state = start
        while True:
            dart, side = state
            face.append(dart)
            seen.add(state)
            seen.add(((dart[0], 1 - dart[1]), -side * sign[dart[0]]))
            state = step(*state)
            if state == start:
                break
        faces.append(face)
    total = sum(len(f) for f in faces)
    if total != 2 * len(g.edge_ids()):
        raise GraphFormatError("face tracing must cover every edge twice")
    return faces


def euler_characteristic(emb: EmbeddedGraph) -> int:
    g = emb.graph
    chi = len(g.vertices) - len(g.edge_ids()) + len(trace_embedded_faces(emb))
    if chi > 2:
        raise GraphFormatError("Euler characteristic above 2")
    return chi


# ---------------------------------------------------------------------------
# homology labeling


def homology_labeling(emb: EmbeddedGraph) -> LabeledGraph:
    """Label the embedded graph over H1 + H1 so the value of every closed
    walk is (h, h) with h the walk's homology class: spanning-forest edges
    get 0 and each remaining edge the class of its fundamental cycle.
    Homology is Z^(non-tree edges) modulo the face-boundary relations."""
    g = emb.graph
    tree = {eid for _, eid in _bfs_forest(g)[1].values()}
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
    ident = groups.identity(h1)
    edges = []
    for eid in sorted(g.edge_ids()):
        e = g.edge(eid)
        if eid in tree:
            alpha = ident
        else:
            unit = [0] * len(cotree)
            unit[col[eid]] = 1
            alpha = proj(unit)
        edges.append(Edge(eid, e.tail, e.head, groups.element(desc, (alpha, alpha))))
    return LabeledGraph(desc, g.vertices, edges)


# ---------------------------------------------------------------------------
# serialization


def encode_embedded(emb: EmbeddedGraph) -> dict:
    return {
        "graph": encode_graph(emb.graph),
        "rotations": {str(v): [[eid, d] for eid, d in rot] for v, rot in emb.rotations.items()},
        "signs": {str(eid): s for eid, s in emb.signs.items()},
    }


def decode_embedded(data: dict) -> EmbeddedGraph:
    """Parse an `encode_embedded` payload.  Rotation keys, edge ids,
    directions and signs are integers by `groups.as_integer`; anything else
    raises GraphFormatError, as a bad `decode_graph` payload does."""
    as_int = groups.as_integer
    try:
        graph = data["graph"]
        rotations = {
            as_int(v): tuple((as_int(eid), as_int(d)) for eid, d in rot) for v, rot in data["rotations"].items()
        }
        signs = {as_int(eid): as_int(s) for eid, s in data.get("signs", {}).items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed embedded payload: {exc}") from exc
    emb = EmbeddedGraph(graph=decode_graph(graph), rotations=rotations, signs=signs)
    emb.validate()
    return emb
