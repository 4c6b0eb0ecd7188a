"""Cycle enumeration and value classification.

A cycle is identified with its edge set; representatives store one rooted
traversal.  For direct-sum labels each coordinate is classified separately,
for a single group both coordinates coincide.

Cycles and non-zero A-paths (`enumerate_nonzero_a_paths`) come from one
simple-path DFS over int bitmasks, `_simple_paths`, under one enumeration
limit.  Each cycle is met once, in one orientation (see `enumerate_cycles`).
The DFS carries each step's raw label payload, and as it closes a path
it reads the path back and sums the non-zero payloads in path order with
one `groups.Table.fold` call.  `enumerate_cycles` keeps every cycle as a
`ClassifiedCycle`, a record of its edge set, representative, zero flags
and that raw value, and builds no group element: `values` wraps the raw
value only when read.  `classify` gives walks from outside (certificates,
lemmas) the same record through `walk_payload`; both test zeros by
`groups.zero_reader`.  `is_robust` compares raw coordinate values, shifted
by `graphs.shifted_value` where a non-abelian coordinate is rerooted.
`doubly_nonzero_masks`, which the exact packing and covering solvers read,
keeps only the doubly non-zero cycles, each as the vertex bitmask and the
edge ids the DFS already holds.

Only this module builds DFS jobs or reads the DFS's step, job and path
formats; other modules read the vertex-bit order (`_vertex_bits`, decoded
by `_mask_vertices`) and the public functions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from . import groups
from .graphs import Cycle, LabeledGraph, Walk, shifted_value, walk_payload, walk_value

DEFAULT_LIMIT = 10**6
LIMIT_ENV_VAR = "NONZERO_CYCLES_LIMIT"


class EnumerationLimitError(RuntimeError):
    """Raised when cycle enumeration exceeds the configured ceiling."""


class LimitFormatError(ValueError):
    """An enumeration limit that is not a non-negative integer."""


def parse_limit(text: str) -> int:
    """The enumeration limit written as `text`; LimitFormatError unless it
    is a non-negative integer by `groups.as_integer`."""
    try:
        value = groups.as_integer(text)
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


class ClassifiedCycle(NamedTuple):
    """One cycle with its zero/nonzero status per label coordinate, and the
    raw payload (see `groups.Table`) of its representative's value in the
    group `descriptor`, as the DFS or `classify` folded it."""

    edges: FrozenSet[int]
    rep: Cycle
    zero: Tuple[bool, bool]
    raw: Any
    descriptor: groups.GroupDescriptor

    @property
    def values(self) -> Tuple[groups.GroupElement, groups.GroupElement]:
        """The value of `rep` per coordinate, wrapped as elements on read."""
        return groups.coordinates(groups.table(self.descriptor).wrap(self.raw))

    @property
    def doubly_nonzero(self) -> bool:
        return not self.zero[0] and not self.zero[1]

    def nonzero_in(self, i: int) -> bool:
        return not self.zero[i]


def coordinate_values(graph: LabeledGraph, walk) -> Tuple[groups.GroupElement, groups.GroupElement]:
    """Value of a walk in each coordinate (duplicated for single groups)."""
    return groups.coordinates(walk_value(graph, walk))


def classify(graph: LabeledGraph, cycle: Cycle) -> ClassifiedCycle:
    raw = walk_payload(graph, cycle)
    desc = graph.descriptor
    return ClassifiedCycle(cycle.edge_set(), cycle, groups.zero_reader(desc)(raw), raw, desc)


def _vertex_bits(vertices: Iterable[int]) -> Dict[int, int]:
    """Bit i for the i-th smallest vertex: the package's one vertex-bit order."""
    return {v: 1 << i for i, v in enumerate(sorted(vertices))}


def _mask_vertices(mask: int, bit: Dict[int, int]) -> FrozenSet[int]:
    """The vertices of `mask`, each vertex v standing for its bit `bit[v]`
    (a `_vertex_bits` table, whose i-th vertex holds bit i); only the set
    bits are decoded."""
    order = list(bit)
    found = []
    while mask:
        low = mask & -mask
        found.append(order[low.bit_length() - 1])
        mask ^= low
    return frozenset(found)


def _bit_steps(graph: LabeledGraph):
    """`(bit, adj)`: the `_vertex_bits` of the graph, and per vertex its
    steps `(eid, neighbour, neighbour's bit, edge's bit, arrival payload)`
    in `incident` order, a loop being a step back to its vertex.  The
    arrival payload is the raw label seen arriving at the neighbour, from
    `graph.steps()`, so None where zero."""
    bit = _vertex_bits(graph.vertices)
    ebit = {eid: 1 << i for i, eid in enumerate(graph.edge_ids())}
    steps = graph.steps()
    adj = {}
    for v in bit:
        out = []
        for eid in graph.incident(v):
            tail, head, fwd, bwd = steps[eid]
            w, x = (head, fwd) if v == tail else (tail, bwd)
            out.append((eid, w, bit[w], ebit[eid], x))
        adj[v] = tuple(out)
    return bit, adj


def _simple_paths(adj, jobs, limit: Optional[int], what: str, make, table: groups.Table) -> list:
    """The paths a DFS from each job closes over the `_bit_steps` adjacency,
    as `make(vertices, edge ids, raw value)`, left out where that is None.
    A job `(node, used, closing, ends)` starts from the path `node`,
    `(vertex, edge into it, arrival payload, parent node)` back to
    `(start, None, None, None)`: a step by an edge of the bitmask `closing`
    to a vertex of the bitmask `used` closes a path, and a step to any other
    vertex extends it while a vertex of `ends` is off `used`.  The raw
    value, in `table`'s group, is the sum of the arrival payloads in path
    order: the non-zero ones are collected while the closed path is read
    back and, when there are two or more, summed by one `table.fold` call
    in path order, so that the order holds in a non-abelian group.
    Raises EnumerationLimitError when more than `limit` paths close, kept
    or not."""
    ceiling = enumeration_limit(limit)
    fold, zero = table.fold, table.zero
    out = []
    closed = 0
    for top, used, closing, ends in jobs:
        stack = [(top, used)]
        while stack:
            node, used = stack.pop()
            grow = ends & ~used  # 0: no vertex off the path can close
            for eid, w, wb, eb, x in adj[node[0]]:
                if used & wb:
                    if eb & closing:
                        if closed == ceiling:
                            raise EnumerationLimitError(
                                f"more than {ceiling} {what}; raise {LIMIT_ENV_VAR} to continue"
                            )
                        closed += 1
                        # lists, then one tuple each: short-lived tuples of
                        # every length would stay in the interpreter's tuple
                        # free lists and raise the process's peak memory
                        verts, eids, xs, at = [w], [eid], [] if x is None else [x], node
                        while at[1] is not None:
                            verts.append(at[0])
                            eids.append(at[1])
                            if at[2] is not None:
                                xs.append(at[2])
                            at = at[3]
                        verts.append(at[0])
                        verts.reverse()
                        eids.reverse()
                        if len(xs) > 1:
                            xs.reverse()
                            total = fold(xs)
                        else:
                            total = xs[0] if xs else zero
                        item = make(tuple(verts), tuple(eids), total)
                        if item is not None:
                            out.append(item)
                elif grow:
                    stack.append(((w, eid, x, node), used | wb))
    return out


def _cycle_jobs(bit, adj) -> list:
    """The `_simple_paths` jobs that meet every cycle once, in the
    orientation `enumerate_cycles` describes, over the `_bit_steps`
    bitmasks `bit` and adjacency `adj`."""
    jobs = []
    # a path from `root` may use only vertices after root in sorted order,
    # so the bits of root and every earlier vertex start out used
    before = 0
    for root, rb in bit.items():
        before |= rb
        top = (root, None, None, None)
        jobs.append((top, before, sum(eb for _, w, _, eb, _ in adj[root] if w == root), 0))
        closing = ends = 0  # the root edges before this one, the vertices they lead to
        for eid, w, wb, eb, x in adj[root]:
            if not before & wb:
                if closing:
                    jobs.append(((w, eid, x, top), before | wb, closing, ends))
                closing |= eb
                ends |= wb
    return jobs


def enumerate_nonzero_a_paths(graph: LabeledGraph, terminals, limit: Optional[int] = None) -> List[Walk]:
    """All nonzero-valued paths with both (distinct) ends in `terminals`
    and no internal vertex there, each from its smaller end, sorted by
    (length, sorted edge ids)."""
    a_set = set(terminals)
    if not a_set <= graph.vertices:
        raise ValueError("terminals must be vertices of the graph")
    bit, adj = _bit_steps(graph)
    t = groups.table(graph.descriptor)
    used = sum(bit[v] for v in a_set)
    # one job per start s, every terminal used: a path closes by an edge at
    # a later terminal, so it grows only while a neighbour of one is free
    jobs = []
    closing = ends = 0
    for s in sorted(a_set, reverse=True):
        jobs.append(((s, None, None, None), used, closing, ends))
        for _, _, wb, eb, _ in adj[s]:
            closing |= eb
            ends |= wb
    # every closed path counts towards the limit; only the nonzero ones are kept
    paths = _simple_paths(adj, jobs, limit, "A-paths", lambda vs, es, raw: None if raw == t.zero else Walk(vs, es), t)
    paths.sort(key=lambda w: _by_length_then_edges(w.edges))
    return paths


def _by_length_then_edges(eids) -> Tuple[int, List[int]]:
    return len(eids), sorted(eids)


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
    branch at one of them still closes there).  A loop closes at its root.
    The DFS builds each representative closed and simple, so it takes
    `Cycle.trusted`, without the checks."""
    bit, adj = _bit_steps(graph)
    desc = graph.descriptor
    zeros = groups.zero_reader(desc)

    def make(verts, eids, raw):
        return ClassifiedCycle(frozenset(eids), Cycle.trusted(verts, eids), zeros(raw), raw, desc)

    cycles = _simple_paths(adj, _cycle_jobs(bit, adj), limit, "cycles", make, groups.table(desc))
    cycles.sort(key=lambda c: _by_length_then_edges(c.rep.edges))
    return cycles


def doubly_nonzero_masks(graph: LabeledGraph, limit: Optional[int] = None) -> List[Tuple[int, Tuple[int, ...]]]:
    """The doubly non-zero cycles of `enumerate_cycles`, in its order, each
    as `(vertex mask, edge ids)`: the `_vertex_bits` of its vertices and
    the edge ids of its representative.  A cycle is kept by the value the
    DFS folds as it closes the cycle, and no `Cycle`, `ClassifiedCycle` or
    frozenset is built for any cycle.  Every closed cycle, kept or not, counts towards
    `limit`, so the limit is `enumerate_cycles`'s."""
    bit, adj = _bit_steps(graph)
    zeros = groups.zero_reader(graph.descriptor)

    def make(verts, eids, raw):
        # the root closes the cycle, so it is the first and the last vertex
        return None if True in zeros(raw) else (sum(map(bit.__getitem__, verts[1:])), eids)

    cycles = _simple_paths(adj, _cycle_jobs(bit, adj), limit, "cycles", make, groups.table(graph.descriptor))
    cycles.sort(key=lambda c: _by_length_then_edges(c[1]))
    return cycles


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

    Split each nonzero cycle's edges into those on a zero cycle of the
    coordinate (inside) and the rest (outside): a pair is a candidate
    exactly when the inside parts meet and the outside parts do not, so a
    cycle with no inside part, never one, is left out, and the others are
    the hot cycles.  Each edge gets the bitmask of the hot cycles through
    it; the candidates of cycle a are then the OR of the masks on its
    inside edges minus the OR of those on its outside edges.  Each a takes
    its later candidates b in ascending order, so the witness is the first
    confusable pair (a, b) in enumeration order.

    Values are compared as raw payloads (see `groups.Table`) in the
    coordinate's table.  Rerooting is the shift rule: from the j-th vertex
    v of its representative, a cycle of raw value x has value -p + x + p
    (`shifted_value` at v by p), p the raw value of the first j edges,
    one `fold` of their non-zero payloads in `graph.steps()`, or its
    negative the other way.  An abelian coordinate tries only the smallest
    common vertex, where a cycle's value is x from every root, so it folds
    no prefix.
    """
    if cycles is None:
        cycles = enumerate_cycles(graph, limit)
    desc = graph.descriptor
    steps = graph.steps()
    # a single group is one coordinate group, checked once
    for i, part in enumerate(groups.coordinate_groups(desc)):
        t, read = groups.table(part), groups.coordinate_payload(desc, i)
        zero_edges = zero_edge_set(graph, i, cycles)
        hot = [c for c in cycles if c.nonzero_in(i) and not c.edges.isdisjoint(zero_edges)]
        through: dict = {}  # edge id -> bitmask of the hot cycles through it
        for a, c in enumerate(hot):
            for e in c.edges:
                through[e] = through.get(e, 0) | 1 << a
        abelian = part.is_abelian
        rooted = {}  # (index in hot, root, or None if abelian) -> raw values from root, both ways

        def values(a: int, root: int):
            key = a, None if abelian else root
            if key not in rooted:
                c = hot[a]
                x = read(c.raw)
                if not abelian:
                    verts, eids, prefix = c.rep.vertices, c.rep.edges, []
                    for k in range(verts.index(root)):
                        tail, _, fwd, bwd = steps[eids[k]]
                        step = fwd if verts[k] == tail else bwd
                        if step is not None:
                            prefix.append(read(step))
                    x = shifted_value(t, {root: t.fold(prefix)}, root, x, root)
                # a loop reversed keeps its value rather than negating it,
                # but no loop is ever a candidate: no other cycle has its edge
                rooted[key] = {x, t.neg(x)}
            return rooted[key]

        for a, first in enumerate(hot):
            meet = avoid = 0
            for e in first.edges:
                if e in zero_edges:
                    meet |= through[e]
                else:
                    avoid |= through[e]
            later = (meet & ~avoid) >> (a + 1)  # bit k: the candidate a + 1 + k
            while later:
                low = later & -later
                later ^= low
                b = a + low.bit_length()
                c1, c2 = first.rep, hot[b].rep
                common = c1.vertex_set() & c2.vertex_set()
                for root in [min(common)] if abelian else sorted(common):
                    if values(a, root) & values(b, root):
                        return False, RobustnessWitness(i, c1.rooted_at(root), c2.rooted_at(root), root)
    return True, None
