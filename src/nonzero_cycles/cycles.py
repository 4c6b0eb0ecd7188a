"""Cycle enumeration and value classification.

A cycle is identified with its edge set; representatives store one rooted
traversal.  For direct-sum labels each coordinate is classified separately,
for a single group both coordinates coincide.

Enumeration runs one DFS per root over `LabeledGraph.adjacency()`, with the
vertices on the current path, the root and every vertex before the root
held in one int bitmask.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from . import groups
from .graphs import Cycle, LabeledGraph, walk_value

DEFAULT_LIMIT = 10**6
LIMIT_ENV_VAR = "NONZERO_CYCLES_LIMIT"


class EnumerationLimitError(RuntimeError):
    """Raised when cycle enumeration exceeds the configured ceiling."""


def enumeration_limit(explicit: Optional[int] = None) -> int:
    if explicit is not None:
        return explicit
    raw = os.environ.get(LIMIT_ENV_VAR)
    return int(raw) if raw else DEFAULT_LIMIT


@dataclass(frozen=True)
class ClassifiedCycle:
    """One cycle with its zero/nonzero status per label coordinate."""

    edges: FrozenSet[int]
    rep: Cycle
    zero: Tuple[bool, bool]

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
    return ClassifiedCycle(cycle.edge_set(), cycle, (groups.is_zero(v1), groups.is_zero(v2)))


def enumerate_cycles(graph: LabeledGraph, limit: Optional[int] = None) -> List[ClassifiedCycle]:
    """All simple cycles (as edge sets) with classified representatives,
    sorted by (length, sorted edge ids).  Raises EnumerationLimitError when
    more than `limit` cycles exist."""
    ceiling = enumeration_limit(limit)
    found: Dict[FrozenSet[int], Cycle] = {}

    def record(verts: Tuple[int, ...], eids: Tuple[int, ...]):
        key = frozenset(eids)
        if key not in found:
            if len(found) >= ceiling:
                raise EnumerationLimitError(
                    f"more than {ceiling} cycles; raise {LIMIT_ENV_VAR} to continue"
                )
            found[key] = Cycle(verts, eids)

    # a DFS path from `root` may use only vertices after root in sorted
    # order, so the bits of root and every earlier vertex start out used
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
    cycles = [classify(graph, c) for c in found.values()]
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
    """
    if cycles is None:
        cycles = enumerate_cycles(graph, limit)
    coords = 2 if graph.descriptor.kind == groups.KIND_DIRECT_SUM else 1
    for i in range(coords):
        zi = zero_edge_set(graph, i, cycles)
        hot = [c for c in cycles if c.nonzero_in(i)]
        abelian = _coordinate_abelian(graph.descriptor, i)
        vals = {}
        rooted = {}  # (index in hot, root) -> rooted_coordinate_values
        if abelian:
            for c in hot:
                v = coordinate_values(graph, c.rep)[i]
                vals[c.edges] = {v, groups.inv(v)}
        for a in range(len(hot)):
            for b in range(a + 1, len(hot)):
                c1, c2 = hot[a], hot[b]
                shared = c1.edges & c2.edges
                if not shared or not shared <= zi:
                    continue
                common = c1.rep.vertex_set() & c2.rep.vertex_set()
                if not common:
                    continue
                if abelian:
                    if vals[c1.edges] & vals[c2.edges]:
                        root = min(common)
                        return False, RobustnessWitness(i, c1.rep.rooted_at(root), c2.rep.rooted_at(root), root)
                else:
                    for root in sorted(common):
                        if (a, root) not in rooted:
                            rooted[a, root] = rooted_coordinate_values(graph, c1.rep, root, i)
                        if (b, root) not in rooted:
                            rooted[b, root] = rooted_coordinate_values(graph, c2.rep, root, i)
                        if rooted[a, root] & rooted[b, root]:
                            return False, RobustnessWitness(i, c1.rep.rooted_at(root), c2.rep.rooted_at(root), root)
    return True, None


def _coordinate_abelian(desc: groups.GroupDescriptor, i: int) -> bool:
    if desc.kind == groups.KIND_DIRECT_SUM:
        return desc.parts[i].is_abelian
    return desc.is_abelian
