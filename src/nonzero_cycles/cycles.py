"""Cycle enumeration and value classification.

A cycle is identified with its edge set; representatives store one rooted
traversal.  For direct-sum labels each coordinate is classified separately,
for a single group both coordinates coincide.

Cycles and A-paths (`packing.enumerate_nonzero_a_paths`) come from one
simple-path DFS over int bitmasks, `_simple_paths`, under one enumeration
limit.  Each cycle is met once, in one orientation (see `enumerate_cycles`),
and keeps the coordinate values `classify` computed for it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from . import groups
from .graphs import Cycle, LabeledGraph, Walk, shifted_value, walk_value

DEFAULT_LIMIT = 10**6
LIMIT_ENV_VAR = "NONZERO_CYCLES_LIMIT"


class EnumerationLimitError(RuntimeError):
    """Raised when cycle enumeration exceeds the configured ceiling."""


class LimitFormatError(ValueError):
    """An enumeration limit that is not a non-negative integer."""


def parse_limit(text: str) -> int:
    """The enumeration limit written as `text`; LimitFormatError unless it
    is a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise LimitFormatError(f"must be a non-negative integer, not {text!r}")
    return value


def enumeration_limit(explicit: Optional[int] = None) -> int:
    if explicit is not None:
        return explicit
    raw = os.environ.get(LIMIT_ENV_VAR)
    try:
        return parse_limit(raw) if raw else DEFAULT_LIMIT
    except LimitFormatError as exc:
        raise LimitFormatError(f"{LIMIT_ENV_VAR} {exc}") from None


@dataclass(frozen=True)
class ClassifiedCycle:
    """One cycle with its zero/nonzero status per label coordinate."""

    edges: FrozenSet[int]
    rep: Cycle
    zero: Tuple[bool, bool]
    values: Tuple[groups.GroupElement, groups.GroupElement]  # of `rep`, per coordinate

    @property
    def doubly_nonzero(self) -> bool:
        return not self.zero[0] and not self.zero[1]

    def nonzero_in(self, i: int) -> bool:
        return not self.zero[i]

    def canonical_key(self) -> Tuple[int, Tuple[int, ...]]:
        return (len(self.edges), tuple(sorted(self.edges)))


def coordinate_values(graph: LabeledGraph, walk) -> Tuple[groups.GroupElement, groups.GroupElement]:
    """Value of a walk in each coordinate (duplicated for single groups)."""
    return groups.coordinates(walk_value(graph, walk))


def classify(graph: LabeledGraph, cycle: Cycle) -> ClassifiedCycle:
    v1, v2 = coordinate_values(graph, cycle)
    return ClassifiedCycle(cycle.edge_set(), cycle, (groups.is_zero(v1), groups.is_zero(v2)), (v1, v2))


def _bit_steps(graph: LabeledGraph):
    """`(bit, adj)`: a bit per vertex, in sorted order, and per vertex its
    steps `(eid, neighbour, neighbour's bit, edge's bit)` in `incident`
    order, a loop being a step back to its vertex."""
    bit = {v: 1 << i for i, v in enumerate(sorted(graph.vertices))}
    ebit = {eid: 1 << i for i, eid in enumerate(graph.edge_ids())}
    adj = {}
    for v in bit:
        steps = ((eid, graph.other_end(eid, v)) for eid in graph.incident(v))
        adj[v] = tuple((eid, w, bit[w], ebit[eid]) for eid, w in steps)
    return bit, adj


def _simple_paths(adj, jobs, limit: Optional[int], what: str, make) -> list:
    """The paths a DFS from each job closes over the `_bit_steps` adjacency,
    as `make(vertices, edge ids)`.  A job `(node, used, closing, ends)`
    starts from the path `node`, `(vertex, edge into it, parent node)` back
    to `(start, None, None)`: a step by an edge of the bitmask `closing` to
    a vertex of the bitmask `used` closes a path, and a step to any other
    vertex extends it while a vertex of `ends` is off `used`.  Raises
    EnumerationLimitError when more than `limit` paths close."""
    ceiling = enumeration_limit(limit)
    out = []
    for top, used, closing, ends in jobs:
        stack = [(top, used)]
        while stack:
            node, used = stack.pop()
            grow = ends & ~used  # 0: no vertex off the path can close
            for eid, w, wb, eb in adj[node[0]]:
                if used & wb:
                    if eb & closing:
                        if len(out) >= ceiling:
                            raise EnumerationLimitError(
                                f"more than {ceiling} {what}; raise {LIMIT_ENV_VAR} to continue"
                            )
                        # lists, then one tuple each: short-lived tuples of
                        # every length would stay in the interpreter's tuple
                        # free lists and raise the process's peak memory
                        verts, eids, at = [w], [eid], node
                        while at[1] is not None:
                            verts.append(at[0])
                            eids.append(at[1])
                            at = at[2]
                        verts.append(at[0])
                        verts.reverse()
                        eids.reverse()
                        out.append(make(tuple(verts), tuple(eids)))
                elif grow:
                    stack.append(((w, eid, node), used | wb))
    return out


def enumerate_cycles(graph: LabeledGraph, limit: Optional[int] = None) -> List[ClassifiedCycle]:
    """All simple cycles (as edge sets) with classified representatives,
    sorted by (length, sorted edge ids).  Raises EnumerationLimitError when
    more than `limit` cycles exist.

    A cycle is found from its smallest vertex, the root, and its
    representative is the orientation that leaves the root by the later of
    its two root edges (in `incident(root)` order among the edges to later
    vertices) and comes back by the earlier one: the orientation a
    last-in first-out DFS over every root edge meets first.  So the DFS
    skips the subtree of the root's first such edge, closes a cycle in the
    subtree of the k-th one only through an edge before k, and cuts a
    branch once every vertex such an edge leads to is on the path (the
    branch at one of them still closes there).  A loop closes at its root."""
    bit, adj = _bit_steps(graph)
    jobs = []
    # a path from `root` may use only vertices after root in sorted order,
    # so the bits of root and every earlier vertex start out used
    before = 0
    for root, rb in bit.items():
        before |= rb
        top = (root, None, None)
        jobs.append((top, before, sum(eb for _, w, _, eb in adj[root] if w == root), 0))
        closing = ends = 0  # the root edges before this one, the vertices they lead to
        for eid, w, wb, eb in adj[root]:
            if not before & wb:
                if closing:
                    jobs.append(((w, eid, top), before | wb, closing, ends))
                closing |= eb
                ends |= wb
    cycles = [classify(graph, c) for c in _simple_paths(adj, jobs, limit, "cycles", Cycle)]
    cycles.sort(key=lambda c: c.canonical_key())
    return cycles


def nonzero_cycles(graph: LabeledGraph, limit: Optional[int] = None) -> List[ClassifiedCycle]:
    return [c for c in enumerate_cycles(graph, limit) if c.doubly_nonzero]


def zero_edge_set(graph: LabeledGraph, i: int, cycles: Optional[List[ClassifiedCycle]] = None) -> FrozenSet[int]:
    """Edges lying on at least one cycle whose coordinate-i value is zero."""
    if cycles is None:
        cycles = enumerate_cycles(graph)
    out: set = set()
    for c in cycles:
        if c.zero[i]:
            out |= c.edges
    return frozenset(out)


@dataclass(frozen=True)
class RobustnessWitness:
    coordinate: int
    first: Cycle
    second: Cycle
    root: int


def rooted_coordinate_values(graph: LabeledGraph, cycle: Cycle, root: int, i: int):
    """Values of the cycle in coordinate i over both traversal directions."""
    rooted = cycle.rooted_at(root)
    vals = set()
    for c in (rooted, rooted.reversed()):
        vals.add(coordinate_values(graph, c)[i])
    return vals


def is_robust(
    graph: LabeledGraph,
    limit: Optional[int] = None,
    cycles: Optional[List[ClassifiedCycle]] = None,
):
    """Check the no-two-confusable-cycles condition in every coordinate.

    Two distinct cycles are confusable in coordinate i when they are both
    nonzero there, every shared edge lies on some zero cycle of that
    coordinate, they share at least one edge, and from some common start
    vertex they can be traversed with equal values.  Returns (True, None)
    or (False, witness).  `cycles`, when given, is the output of
    `enumerate_cycles(graph)`, and saves enumerating again.

    Edge sets are int masks.  Split each nonzero cycle's mask into its
    part inside the zero-edge mask of the coordinate and its part outside
    it: a pair is a candidate exactly when the inside parts meet and the
    outside parts do not, and a cycle with no inside part is never one.
    Pairs are scanned in enumeration order, so the witness is the first
    confusable pair in that order.

    Rerooting is the shift rule: from the j-th vertex v of its
    representative, a cycle of value x has value p⁻¹·x·p (`shifted_value`
    at v by p), p the value of the first j edges, or its inverse the other
    way.  An abelian coordinate tries only the smallest common vertex.
    """
    if cycles is None:
        cycles = enumerate_cycles(graph, limit)
    ebit = {eid: 1 << i for i, eid in enumerate(graph.edge_ids())}
    masks = [sum(ebit[e] for e in c.edges) for c in cycles]
    coords = 2 if graph.descriptor.kind == groups.KIND_DIRECT_SUM else 1
    for i in range(coords):
        zmask = 0
        for c, m in zip(cycles, masks):
            if c.zero[i]:
                zmask |= m
        hot, inside, outside = [], [], []
        for c, m in zip(cycles, masks):
            if c.nonzero_in(i) and m & zmask:
                hot.append(c)
                inside.append(m & zmask)
                outside.append(m & ~zmask)
        abelian = _coordinate_abelian(graph.descriptor, i)
        rooted = {}  # (index in hot, root) -> values from root, both ways

        def values(a: int, root: int):
            if (a, root) not in rooted:
                rep = hot[a].rep
                j = rep.vertices.index(root)
                p = coordinate_values(graph, Walk(rep.vertices[: j + 1], rep.edges[:j]))[i]
                x = shifted_value({root: p}, root, hot[a].values[i], root)
                # a loop reversed keeps its value rather than inverting it,
                # but no loop is ever a candidate: no other cycle has its edge
                rooted[a, root] = {x, groups.inv(x)}
            return rooted[a, root]

        for a in range(len(hot)):
            ina, outa = inside[a], outside[a]
            for b in range(a + 1, len(hot)):
                if not ina & inside[b] or outa & outside[b]:
                    continue
                c1, c2 = hot[a].rep, hot[b].rep
                common = c1.vertex_set() & c2.vertex_set()
                for root in [min(common)] if abelian else sorted(common):
                    if values(a, root) & values(b, root):
                        return False, RobustnessWitness(i, c1.rooted_at(root), c2.rooted_at(root), root)
    return True, None


def _coordinate_abelian(desc: groups.GroupDescriptor, i: int) -> bool:
    if desc.kind == groups.KIND_DIRECT_SUM:
        return desc.parts[i].is_abelian
    return desc.is_abelian
