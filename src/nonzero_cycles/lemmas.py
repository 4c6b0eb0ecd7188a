"""Constructive combination and rerouting procedures.

These realise the proof steps that turn partially nonzero material into
doubly nonzero cycles (two-cycle and brick combiners), exchange-reroute
two path systems into a combined disjoint system, and verify odd
clique-models.

Each combiner searches the finite set of arc choices its proof names, in
a fixed order, and returns the first cycle `classify` finds doubly
nonzero; the proof, in its docstring, is why one exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from . import groups
from .cycles import classify
from .graphs import Cycle, LabeledGraph, Walk, _bfs_forest, _tree_walk, walk_value


class HypothesisError(ValueError):
    """A lemma hypothesis is violated; `hypothesis` names which one."""

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        super().__init__(f"hypothesis violated: {hypothesis}" + (f" ({detail})" if detail else ""))


def _require(cond: bool, hypothesis: str, detail: str = ""):
    if not cond:
        raise HypothesisError(hypothesis, detail)


def _nonzero_in(graph: LabeledGraph, walk: Walk, i: int) -> bool:
    return not groups.zero_flags(walk_value(graph, walk))[i]


def _orient_connecting_path(path: Walk, from_set: FrozenSet[int], to_set: FrozenSet[int], name: str) -> Walk:
    _require(path.is_path(), f"{name} is a path", "vertices repeat")
    s_in_from, e_in_to = path.start in from_set, path.end in to_set
    s_in_to, e_in_from = path.start in to_set, path.end in from_set
    if s_in_from and e_in_to:
        oriented = path
    elif s_in_to and e_in_from:
        oriented = path.reversed()
    else:
        raise HypothesisError(f"{name} connects the two cycles")
    _require(
        all(v not in from_set and v not in to_set for v in oriented.vertices[1:-1]),
        f"{name} is internally disjoint from the cycles",
    )
    return oriented


def _cycle_arcs(cycle: Cycle, a: int, b: int) -> Tuple[Walk, Walk]:
    """Both arcs of the cycle as walks from a to b, canonically ordered."""
    rooted = cycle.rooted_at(a)
    idx = rooted.vertices.index(b)
    first = Walk(rooted.vertices[: idx + 1], rooted.edges[:idx])
    second = Walk(rooted.vertices[idx:], rooted.edges[idx:]).reversed()
    arcs = sorted((first, second), key=lambda w: (len(w.edges), tuple(sorted(w.edges))))
    return arcs[0], arcs[1]


def _first_doubly_nonzero(graph: LabeledGraph, walks) -> Cycle:
    """The first of the closed `walks` that is a doubly nonzero cycle."""
    for walk in walks:
        out = Cycle(walk.vertices, walk.edges)
        if classify(graph, out).doubly_nonzero:
            return out
    raise AssertionError("no arc choice gives a doubly nonzero cycle")  # pragma: no cover - guarded by proof


def combine_two_cycles(graph: LabeledGraph, c1: Cycle, c2: Cycle, p1: Walk, p2: Walk) -> Cycle:
    """Produce a doubly nonzero cycle inside c1 ∪ c2 ∪ p1 ∪ p2.

    Hypotheses: the cycles are disjoint, c1 is nonzero in the first
    coordinate, c2 in the second, and p1, p2 are disjoint paths from c1 to
    c2.  Returns c1 or c2 when it is already doubly nonzero, and otherwise
    the first doubly nonzero cycle arc1·p2·arc2·p1⁻¹, trying the arc
    choices (0, 0), (1, 0), (0, 1), (1, 1) of `_cycle_arcs` in that order.

    One exists.  c1 is then zero in coordinate 1, so swapping c1's arc
    multiplies the cycle's value by a conjugate of c1's value: coordinate
    1 stays, and coordinate 0 is nonzero for at least one of c1's arcs.
    Likewise c2 is zero in coordinate 0, and coordinate 1 is nonzero for at
    least one of c2's arcs, whichever arc of c1 is chosen.
    """
    for c in (c1, c2):
        c.validate(graph)
    v1s = c1.vertex_set()
    v2s = c2.vertex_set()
    _require(not (v1s & v2s), "c1 and c2 are disjoint")
    _require(_nonzero_in(graph, c1, 0), "c1 is nonzero in coordinate 0")
    _require(_nonzero_in(graph, c2, 1), "c2 is nonzero in coordinate 1")
    if classify(graph, c1).doubly_nonzero:
        return c1
    if classify(graph, c2).doubly_nonzero:
        return c2
    p1 = _orient_connecting_path(p1, v1s, v2s, "p1")
    p2 = _orient_connecting_path(p2, v1s, v2s, "p2")
    p1.validate(graph)
    p2.validate(graph)
    _require(not (set(p1.vertices) & set(p2.vertices)), "p1 and p2 are disjoint")
    arcs1 = _cycle_arcs(c1, p1.start, p2.start)
    arcs2 = _cycle_arcs(c2, p2.end, p1.end)
    return _first_doubly_nonzero(
        graph,
        (
            arcs1[i].concat(p2).concat(arcs2[j]).concat(p1.reversed())
            for i, j in ((0, 0), (1, 0), (0, 1), (1, 1))
        ),
    )


# ---------------------------------------------------------------------------
# brick combiner


def combine_brick(
    graph: LabeledGraph,
    c: Cycle,
    c1: Cycle,
    c2: Cycle,
    p1: Walk,
    p1p: Walk,
    p2: Walk,
    p2p: Walk,
) -> Cycle:
    """Doubly nonzero cycle through both "opposite" arcs of the central
    cycle c, where c1 attaches to c via p1, p1p and c2 via p2, p2p.

    Hypotheses: the three cycles are pairwise disjoint; the attachment
    ends appear on c in the cyclic order p1, p1p, p2, p2p; c1 is nonzero
    in coordinate 0 and zero in coordinate 1; c2 is nonzero in
    coordinate 1.  Returns the first doubly nonzero cycle
    p1·arc1·p1p⁻¹·i2·p2·arc2·p2p⁻¹·i1, where i1 and i2 are the arcs of c
    between the attachments, trying each arc2 of c2 and, for each, each
    arc1 of c1, in `_cycle_arcs` order.

    One exists.  Shift the skeleton (i1, i2 and the four attachment paths)
    to null; a shift does not change whether a cycle is zero.  The
    candidate's value is then arc1·arc2 per coordinate.  c1's arcs agree
    in coordinate 1, on some y₁, since c1 is zero there; as c2 is nonzero
    in coordinate 1, its arcs differ there by a conjugate of that value,
    so some arc2 has y₁·y(arc2) nonzero.  Likewise c1's arcs differ in
    coordinate 0 by a nonzero value, so at most one of them makes
    x(arc1)·x(arc2) zero.
    """
    for cyc in (c, c1, c2):
        cyc.validate(graph)
    vc, v1s, v2s = c.vertex_set(), c1.vertex_set(), c2.vertex_set()
    _require(not (vc & v1s) and not (vc & v2s) and not (v1s & v2s), "cycles are pairwise disjoint")
    _require(_nonzero_in(graph, c1, 0), "c1 is nonzero in coordinate 0")
    _require(not _nonzero_in(graph, c1, 1), "c1 is zero in coordinate 1")
    _require(_nonzero_in(graph, c2, 1), "c2 is nonzero in coordinate 1")
    p1 = _orient_connecting_path(p1, vc, v1s, "p1")
    p1p = _orient_connecting_path(p1p, vc, v1s, "p1p")
    p2 = _orient_connecting_path(p2, vc, v2s, "p2")
    p2p = _orient_connecting_path(p2p, vc, v2s, "p2p")
    paths = (p1, p1p, p2, p2p)
    for w in paths:
        w.validate(graph)
        _require(
            not (set(w.vertices[1:-1]) & (vc | v1s | v2s)),
            "attachment paths avoid all three cycles internally",
        )
    for i in range(4):
        for j in range(i + 1, 4):
            _require(
                not (set(paths[i].vertices) & set(paths[j].vertices)),
                "attachment paths are pairwise disjoint",
            )
    e1, e1p, e2, e2p = (w.start for w in paths)
    q1, q1p, q2, q2p = (w.end for w in paths)
    # the ends must occur on c in the cyclic order e1, e1p, e2, e2p
    rooted = c.rooted_at(e1)
    pos = {v: i for i, v in enumerate(rooted.vertices[:-1])}
    by_pos = sorted(((pos[e1p], "e1p"), (pos[e2], "e2"), (pos[e2p], "e2p")))
    names = [name for _, name in by_pos]
    _require(names in (["e1p", "e2", "e2p"], ["e2p", "e2", "e1p"]), "cyclic attachment order on c")

    def arc_avoiding(cycle: Cycle, a: int, b: int, avoid: int) -> Walk:
        first, second = _cycle_arcs(cycle, a, b)
        if avoid not in first.vertices:
            return first
        _require(avoid not in second.vertices, "arc avoids the excluded attachment")
        return second

    i1 = arc_avoiding(c, e2p, e1, e2)  # ends p2p .. p1, avoiding p2
    i2 = arc_avoiding(c, e1p, e2, e1)  # ends p1p .. p2, avoiding p1
    _require(e1p not in i1.vertices, "arc i1 avoids p1p")
    _require(e2p not in i2.vertices, "arc i2 avoids p2p")

    arcs1 = _cycle_arcs(c1, q1, q1p)  # q1 -> q1p
    arcs2 = _cycle_arcs(c2, q2, q2p)  # q2 -> q2p
    return _first_doubly_nonzero(
        graph,
        (
            p1
            .concat(arc1)
            .concat(p1p.reversed())
            .concat(i2)
            .concat(p2)
            .concat(arc2)
            .concat(p2p.reversed())
            .concat(i1)
            for arc2 in arcs2
            for arc1 in arcs1
        ),
    )


# ---------------------------------------------------------------------------
# exchange rerouting


def _check_s_path(graph: LabeledGraph, walk: Walk, s: FrozenSet[int], coordinate: int, name: str):
    walk.validate(graph)
    _require(walk.is_path(), f"{name} is a path")
    _require(len(walk.edges) >= 1, f"{name} has an edge")
    _require(walk.start in s and walk.end in s, f"{name} ends in S")
    _require(all(v not in s for v in walk.vertices[1:-1]), f"{name} internally avoids S")
    _require(_nonzero_in(graph, walk, coordinate), f"{name} is nonzero in coordinate {coordinate}")


def _rewirings(q_paths: Sequence[Walk], rs: Sequence[Walk]):
    """Each rewiring (index in `rs`, new path), by Q path, direction, then
    tail: along a touched Q path with no end on an R path to the first
    vertex `meet` of an R path, then along that to its end or back to its
    start.  It is an S-path off the other R paths: `meet` lies inside the
    Q path, and the Q part before it meets no R path."""
    owner = {v: i for i, r in enumerate(rs) for v in r.vertices}
    for qw in q_paths:
        if owner.keys().isdisjoint(qw.vertices) or qw.start in owner or qw.end in owner:
            continue
        for path in (qw, qw.reversed()):
            hit = next(k for k, v in enumerate(path.vertices) if v in owner)
            meet = path.vertices[hit]
            r = rs[owner[meet]]
            at = r.vertices.index(meet)
            prefix = Walk(path.vertices[: hit + 1], path.edges[:hit])
            yield owner[meet], prefix.concat(Walk(r.vertices[at:], r.edges[at:]))
            yield owner[meet], prefix.concat(Walk(r.vertices[: at + 1], r.edges[:at]).reversed())


def exchange_reroute(graph: LabeledGraph, s, q_paths: Sequence[Walk], r_paths: Sequence[Walk]) -> List[Walk]:
    """From 3t disjoint coordinate-0-nonzero S-paths and t disjoint
    coordinate-1-nonzero S-paths, produce 2t disjoint S-paths: the first t
    nonzero in coordinate 0, the last t in coordinate 1.

    While more than 2t Q paths touch an R path, replaces an R path by the
    first of `_rewirings` that is nonzero in coordinate 1 and has fewer
    edges outside the Q paths; that count (the potential) falls at every
    step, so the loop ends.
    """
    s = frozenset(s)
    t = len(r_paths)
    _require(len(q_paths) == 3 * t, "3t paths on the Q side")
    for fam, coord, name in ((q_paths, 0, "Q"), (r_paths, 1, "R")):
        used: set = set()
        for i, w in enumerate(fam):
            _check_s_path(graph, w, s, coord, f"{name}[{i}]")
            _require(not (set(w.vertices) & used), f"{name} paths are pairwise disjoint")
            used |= set(w.vertices)

    q_edges = {eid for w in q_paths for eid in w.edges}

    def potential(w: Walk) -> int:
        return sum(1 for eid in w.edges if eid not in q_edges)

    rs = list(r_paths)
    while True:
        r_vertices = {v for r in rs for v in r.vertices}
        free = [qw for qw in q_paths if r_vertices.isdisjoint(qw.vertices)]
        if len(free) >= t:  # at most 2t Q paths touched
            return free[:t] + rs
        for i, w in _rewirings(q_paths, rs):
            if potential(w) < potential(rs[i]) and _nonzero_in(graph, w, 1):
                rs[i] = w
                break
        else:
            raise HypothesisError("an exchange step exists", "no valid rewiring found")


# ---------------------------------------------------------------------------
# odd clique-models


@dataclass(frozen=True)
class KtModel:
    """Clique model: `trees[v]` is (vertex set, edge-id set) of the branch
    tree at v; `connectors[(u, v)]` holds one or two edge ids joining the
    two trees (u < v)."""

    trees: Dict[int, Tuple[FrozenSet[int], FrozenSet[int]]]
    connectors: Dict[Tuple[int, int], Tuple[int, ...]]


class ModelFormatError(ValueError):
    pass


def _tree_forest(graph: LabeledGraph, model: KtModel, node: int) -> Dict[int, Tuple[int, int]]:
    """The `_bfs_forest` parent links of the model's tree at `node`."""
    vs, es = model.trees[node]
    return _bfs_forest(graph.subgraph(es, vs))[1]


def _tree_path(parent: Dict[int, Tuple[int, int]], a: int, b: int) -> Walk:
    walk = _tree_walk(parent, a, b)
    if walk is None:
        raise ModelFormatError(f"tree does not connect {a} and {b}")
    return walk


def _validate_model(graph: LabeledGraph, model: KtModel, t: int) -> Dict[int, Dict[int, Tuple[int, int]]]:
    """Check the model; returns each tree's `_tree_forest` parent links."""
    if sorted(model.trees) != list(range(t)):
        raise ModelFormatError("model must have trees 0..t-1")
    used: set = set()
    forests = {}
    for node, (vs, es) in model.trees.items():
        if not vs:
            raise ModelFormatError(f"tree {node} is empty")
        if used & vs:
            raise ModelFormatError(f"tree {node} meets another tree")
        used |= vs
        if len(es) != len(vs) - 1:
            raise ModelFormatError(f"tree {node} is not a tree")
        for eid in es:
            e = graph.edge(eid)
            if e.tail not in vs or e.head not in vs:
                raise ModelFormatError(f"tree {node} edge {eid} leaves the tree")
        # |vs| - 1 edges inside vs form a tree exactly when they connect vs
        forests[node] = _tree_forest(graph, model, node)
        if len(forests[node]) != len(vs) - 1:
            raise ModelFormatError(f"tree {node} is not connected")
    for (u, v), eids in model.connectors.items():
        if not (0 <= u < v < t):
            raise ModelFormatError(f"bad connector key {(u, v)}")
        if not 1 <= len(eids) <= 2:
            raise ModelFormatError(f"connector {(u, v)} needs one or two edges")
        for eid in eids:
            e = graph.edge(eid)
            ends = {e.tail, e.head}
            if not (ends & model.trees[u][0] and ends & model.trees[v][0]):
                raise ModelFormatError(f"connector edge {eid} does not join trees {u} and {v}")
    for u in range(t):
        for v in range(u + 1, t):
            if (u, v) not in model.connectors:
                raise ModelFormatError(f"missing connector {(u, v)}")
    return forests


def triangle_cycle(graph: LabeledGraph, model: KtModel, triple, selection) -> Cycle:
    """The unique cycle through the three selected connector edges."""
    return _triangle_cycle(graph, model, {n: _tree_forest(graph, model, n) for n in triple}, triple, selection)


def _triangle_cycle(graph: LabeledGraph, model: KtModel, forests, triple, selection) -> Cycle:
    """`triangle_cycle` walking the trees through their `_tree_forest`
    parent links in `forests`."""
    x, y, z = sorted(triple)
    exy, exz, eyz = selection

    def end_in(eid: int, node: int) -> int:
        e = graph.edge(eid)
        vs = model.trees[node][0]
        if e.tail in vs:
            return e.tail
        if e.head in vs:
            return e.head
        raise ModelFormatError(f"edge {eid} has no end in tree {node}")

    # tree x: from end of exz to end of exy; then edge exy into tree y; etc.
    walk = _tree_path(forests[x], end_in(exz, x), end_in(exy, x))
    walk = walk.concat(Walk((end_in(exy, x), end_in(exy, y)), (exy,)))
    walk = walk.concat(_tree_path(forests[y], end_in(exy, y), end_in(eyz, y)))
    walk = walk.concat(Walk((end_in(eyz, y), end_in(eyz, z)), (eyz,)))
    walk = walk.concat(_tree_path(forests[z], end_in(eyz, z), end_in(exz, z)))
    walk = walk.concat(Walk((end_in(exz, z), end_in(exz, x)), (exz,)))
    return Cycle(walk.vertices, walk.edges)


def verify_odd_kt_model(graph: LabeledGraph, model: KtModel, t: int):
    """True when the model is well-formed and every triple admits, for each
    coordinate, a connector selection whose triangle cycle is nonzero
    there.  Returns (ok, witness); the witness names the failing triple and
    coordinate."""
    forests = _validate_model(graph, model, t)
    for triple in itertools.combinations(range(t), 3):
        x, y, z = triple
        options = [
            model.connectors[(x, y)],
            model.connectors[(x, z)],
            model.connectors[(y, z)],
        ]
        for coordinate in (0, 1):
            ok = False
            for selection in itertools.product(*options):
                cyc = _triangle_cycle(graph, model, forests, triple, selection)
                if _nonzero_in(graph, cyc, coordinate):
                    ok = True
                    break
            if not ok:
                return False, {"triple": triple, "coordinate": coordinate}
    return True, None


def triangle_color(graph: LabeledGraph, model: KtModel, triple) -> str:
    """Red when the unique triangle cycle of a single-edge model is
    nonzero, blue otherwise."""
    x, y, z = sorted(triple)
    for key in ((x, y), (x, z), (y, z)):
        if len(model.connectors[key]) != 1:
            raise ModelFormatError("triangle coloring needs single-edge connectors")
    selection = (
        model.connectors[(x, y)][0],
        model.connectors[(x, z)][0],
        model.connectors[(y, z)][0],
    )
    cyc = triangle_cycle(graph, model, triple, selection)
    return "red" if _nonzero_in(graph, cyc, 0) else "blue"
