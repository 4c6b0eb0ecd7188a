"""Cycle enumeration and value classification.

A cycle is identified with its edge set; representatives store one rooted
traversal.  For direct-sum labels each coordinate is classified separately,
for a single group both coordinates coincide.

Cycles and non-zero A-paths (`enumerate_nonzero_a_paths`) come from one
simple-path DFS over int bitmasks, `_simple_paths`, under one enumeration
limit.  The DFS steps over chains (`_bit_steps`): a vertex with exactly
two edges, neither a loop, is passed through unless it is smaller than
both its neighbours, so one step walks a whole run of such degree-2
vertices.  Every cycle's smallest vertex is kept (proof at `_bit_steps`),
and each cycle is met once, from that vertex, already in its
representative's orientation, with no rotation or reversal (see
`enumerate_cycles`).  The DFS carries each chain's raw label payload,
prefolded in its direction of travel, and as it closes a path it reads the
path back and sums the non-zero payloads in path order with one
`groups.Table.fold` call.  `enumerate_cycles` keeps every cycle as a
lean `ClassifiedCycle` record: its edge and vertex bitmasks, zero flags,
that raw value, and its start and chains.  Its edge set and
representative are built from the chains only when read, and `values`
builds elements only when read, so no group element is built.  Edge
bits run from the largest edge id down (`_edge_bits`), so one integer
per cycle sorts by (length, sorted edge ids).  The DFS is the record's
one maker; a walk from outside (a certificate, a lemma's cycle) is tested
by `graphs.walk_zeros` instead, and both read zeros by `groups.zero_reader`.
`is_robust` picks and pairs cycles by their masks, skips a pair whose
values lie in different classes of `groups.Table.klass` (no rerooting
makes them meet), and compares raw coordinate values, shifted by
`graphs.shifted_value` where a non-abelian coordinate is rerooted.
`doubly_nonzero_masks`, which the exact packing and covering solvers
read, keeps only the doubly non-zero cycles, each as the OR of its
chains' vertex bitmasks and its edge ids, in the same order.

Only this module builds DFS jobs or reads the DFS's step, job and path
formats; other modules read the vertex-bit order (`_vertex_bits`, decoded
by `_mask_vertices`) and the public functions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

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
    """One cycle, kept lean: its edge and vertex bitmasks (`_edge_bits` and
    `_vertex_bits` of the graph), its zero/nonzero status per label
    coordinate, the raw payload (see `groups.Table`) of its
    representative's value in the group `descriptor`, as the DFS folded
    it, and the representative as its first vertex `start` and the list
    of its chains (see `_bit_steps`).  The edge set `edges` and the
    representative `rep` are built from the chains each time they are
    read.  Only the DFS of `enumerate_cycles` makes one."""

    emask: int
    vmask: int
    zero: Tuple[bool, bool]
    raw: Any
    start: int
    chains: list
    descriptor: groups.GroupDescriptor

    @property
    def edges(self) -> FrozenSet[int]:
        return frozenset(eid for chain in self.chains for eid in chain[0])

    @property
    def rep(self) -> Cycle:
        """The representative, built without the checks of `Cycle`: the DFS
        made it closed and simple."""
        return Cycle.trusted(*_walk_lists(self.start, self.chains))

    @property
    def values(self) -> Tuple[groups.GroupElement, groups.GroupElement]:
        """The value of `rep` per coordinate, as elements built on read."""
        return groups.coordinates(groups.GroupElement(self.descriptor, self.raw))

    @property
    def doubly_nonzero(self) -> bool:
        return not self.zero[0] and not self.zero[1]

    def nonzero_in(self, i: int) -> bool:
        return not self.zero[i]


def coordinate_values(graph: LabeledGraph, walk) -> Tuple[groups.GroupElement, groups.GroupElement]:
    """Value of a walk in each coordinate (duplicated for single groups)."""
    return groups.coordinates(walk_value(graph, walk))


def _vertex_bits(vertices: Iterable[int]) -> Dict[int, int]:
    """Bit i for the i-th smallest vertex: the package's one vertex-bit order."""
    return {v: 1 << i for i, v in enumerate(sorted(vertices))}


def _edge_bits(graph: LabeledGraph) -> Dict[int, int]:
    """Bit i for the i-th largest edge id: the package's one edge-bit order.

    Numbered from the largest id down, the masks of two edge sets of one
    size compare as their sorted id lists do, reversed: the lists first
    differ at the smallest id of the symmetric difference, which is the
    highest bit where the masks differ.  So the integer `_edge_order` key
    sorts by (length, sorted edge ids)."""
    return {eid: 1 << i for i, eid in enumerate(reversed(graph.edge_ids()))}


def _edge_order(m: int, mask_of):
    """The sort key of (length, sorted edge ids) for items whose edge set
    is `mask_of(item)`, an `_edge_bits` mask of a graph with m edges:
    `(length << m) - mask`, one integer per item (see `_edge_bits`)."""

    def key(item):
        mask = mask_of(item)
        return (mask.bit_count() << m) - mask

    return key


def _mask_vertices(mask: int, bit: Dict[int, int]) -> FrozenSet[int]:
    """The vertices of `mask`, each vertex v standing for its bit `bit[v]`
    (a `_vertex_bits` table, whose i-th vertex holds bit i; an `_edge_bits`
    table decodes edge ids the same way); only the set bits are decoded."""
    order = list(bit)
    found = []
    while mask:
        low = mask & -mask
        found.append(order[low.bit_length() - 1])
        mask ^= low
    return frozenset(found)


def _bit_steps(graph: LabeledGraph, keep: Iterable[int] = ()):
    """`(bit, adj)`: the `_vertex_bits` of the graph, and per kept vertex,
    in that order, one step per chain at it in `incident` order of the
    chain's first edge, `(far end, far end's bit, chain's edge bits, chain,
    payload)`.

    The kept-vertex rule: a vertex with exactly two edges, neither a loop,
    that is not in `keep`, is passed through unless it is smaller than both
    its neighbours; every other vertex is kept.  The smallest vertex of a
    cycle is smaller than its two neighbours on the cycle, and a vertex
    with two edges has no other neighbours, so every cycle's smallest
    vertex is kept.

    A chain is a walk from a kept vertex whose inner vertices are not kept,
    to the next kept vertex, its far end: one edge, a loop, or a run with
    its two edges out.  `chain` is `(edge ids, vertices, vertex mask, edge
    mask)`: the edge ids and the vertices after the first in the direction
    of travel, the `_vertex_bits` of those vertices and the `_edge_bits` of
    those edges, which the step repeats as its edge bits.  The payload
    is the sum of the raw labels seen arriving along the chain, from
    `graph.steps()`, folded in the direction of travel (exact in a
    non-abelian group too), None where zero.  A loop is a chain back to its
    vertex.  So is a closed chain, a run whose two ends are one vertex; its
    two directions make one cycle, so it is listed once, leaving by its
    later edge."""
    bit = _vertex_bits(graph.vertices)
    ebit = _edge_bits(graph)
    steps = graph.steps()
    t = groups.table(graph.descriptor)
    fold, zero = t.fold, t.zero
    keep = set(keep)
    links = {}  # passed-through vertex -> its two edge ids
    for v in bit:
        eids = graph.incident(v)
        if len(eids) == 2 and v not in keep:
            (a, b), (c, d) = steps[eids[0]][:2], steps[eids[1]][:2]
            # v ends both edges, so it is below both neighbours iff it is least of the four ends
            if a != b and c != d and v > min(a, b, c, d):
                links[v] = eids
    kept = {v for v in bit if v not in links}
    adj = {}
    for v in bit:
        if v not in kept:
            continue
        out = []
        for first in graph.incident(v):
            tail, head, fwd, bwd = steps[first]
            w, x = (head, fwd) if v == tail else (tail, bwd)
            wb, eb = bit[w], ebit[first]
            if w in kept:  # a chain of one edge, or a loop
                out.append((w, wb, eb, ((first,), (w,), wb, eb), x))
                continue
            eids, verts, xs, mask, eid = [first], [w], [] if x is None else [x], wb, first
            while w not in kept:
                a, b = links[w]
                at, eid = w, (b if a == eid else a)
                tail, head, fwd, bwd = steps[eid]
                w, x = (head, fwd) if at == tail else (tail, bwd)
                eids.append(eid)
                verts.append(w)
                eb |= ebit[eid]
                mask |= bit[w]
                if x is not None:
                    xs.append(x)
            if w == v and first < eid:
                continue  # a closed chain, listed leaving by its later edge
            if len(xs) > 1:
                x = fold(xs)
                x = None if x == zero else x
            else:
                x = xs[0] if xs else None
            out.append((w, bit[w], eb, (tuple(eids), tuple(verts), mask, eb), x))
        adj[v] = tuple(out)
    return bit, adj


def _simple_paths(adj, jobs, limit: Optional[int], what: str, make, table: groups.Table) -> list:
    """The paths a DFS from each job closes over the `_bit_steps` adjacency,
    as `make(start, chains, raw value)`, left out where that is None; the
    chains are those of the path in order, in a list of their own that
    `make` may keep, and the path leaves `start`.  (A list, not a tuple:
    tuples shorter than 20, freed by the thousand when the kept records
    go, would stay in the interpreter's tuple free lists and raise the
    process's peak memory.)
    A job `(node, used, closing, ends)` starts from the path `node`,
    `(vertex, chain into it, its payload, parent node)` back to
    `(start, None, None, None)`: a step by a chain with an edge in the
    bitmask `closing` to a vertex of the bitmask `used` closes a path, and
    a step to any other vertex extends it while a vertex of `ends` is off
    `used`.  Only kept vertices have bits in `used`: a chain's inner
    vertices lie on no other chain, so a path meets them only along it.
    The raw value, in `table`'s group, is the sum of the chain payloads in
    path order: the non-zero ones are collected while the closed path is
    read back and, when there are two or more, summed by one `table.fold`
    call in path order, so that the order holds in a non-abelian group.
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
            for w, wb, eb, chain, x in adj[node[0]]:
                if used & wb:
                    if eb & closing:
                        if closed == ceiling:
                            raise EnumerationLimitError(
                                f"more than {ceiling} {what}; raise {LIMIT_ENV_VAR} to continue"
                            )
                        closed += 1
                        chains, xs, at = [chain], [] if x is None else [x], node
                        while at[1] is not None:
                            chains.append(at[1])
                            if at[2] is not None:
                                xs.append(at[2])
                            at = at[3]
                        if len(xs) > 1:
                            xs.reverse()
                            total = fold(xs)
                        else:
                            total = xs[0] if xs else zero
                        item = make(at[0], chains[::-1], total)
                        if item is not None:
                            out.append(item)
                elif grow:
                    stack.append(((w, chain, x, node), used | wb))
    return out


def _walk_lists(start, chains):
    """The vertices and edge ids of the path that leaves `start` along
    `chains`, extended once per chain: lists, then one tuple each, since
    short-lived tuples of every length would stay in the interpreter's
    tuple free lists and raise the process's peak memory."""
    verts, eids = [start], []
    for chain_eids, chain_verts, _, _ in chains:
        eids += chain_eids
        verts += chain_verts
    return tuple(verts), tuple(eids)


def _cycle_jobs(bit, adj) -> list:
    """The `_simple_paths` jobs that meet every cycle once, in the
    orientation `enumerate_cycles` describes, over the `_bit_steps`
    bitmasks `bit` and adjacency `adj`.  The roots are the kept vertices,
    which hold every cycle's smallest vertex (see `_bit_steps`): one job
    per root chain to a later vertex after the first, and one more at a
    root with a loop or a closed chain, which closes those."""
    jobs = []
    # a path from `root` may use only kept vertices after root in sorted
    # order, so the bits of root and every earlier kept vertex start out used
    before = 0
    for root, steps in adj.items():
        before |= bit[root]
        top = (root, None, None, None)
        own = sum(eb for w, _, eb, _, _ in steps if w == root)
        if own:
            jobs.append((top, before, own, 0))
        closing = ends = 0  # the root chains before this one, the vertices they lead to
        for w, wb, eb, chain, x in steps:
            if not before & wb:
                if closing:
                    jobs.append(((w, chain, x, top), before | wb, closing, ends))
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
    # terminals are kept, so every A-path is a walk along whole chains
    bit, adj = _bit_steps(graph, a_set)
    t = groups.table(graph.descriptor)
    used = sum(bit[v] for v in a_set)
    # one job per start s, every terminal used: a path closes by a chain at
    # a later terminal, so it grows only while a neighbour of one is free
    jobs = []
    closing = ends = 0
    for s in sorted(a_set, reverse=True):
        jobs.append(((s, None, None, None), used, closing, ends))
        for _, wb, eb, _, _ in adj[s]:
            closing |= eb
            ends |= wb

    def make(start, chains, raw):
        if raw == t.zero:
            return None
        emask = 0
        for chain in chains:
            emask |= chain[3]
        return emask, Walk(*_walk_lists(start, chains))

    # every closed path counts towards the limit; only the nonzero ones are kept
    paths = _simple_paths(adj, jobs, limit, "A-paths", make, t)
    paths.sort(key=_edge_order(len(graph.edge_ids()), itemgetter(0)))
    return [walk for _, walk in paths]


def enumerate_cycles(graph: LabeledGraph, limit: Optional[int] = None) -> List[ClassifiedCycle]:
    """All simple cycles (as edge sets) with classified representatives,
    sorted by (length, sorted edge ids).  Raises EnumerationLimitError when
    more than `limit` cycles exist.

    A cycle is found from its smallest vertex, the root, and its
    representative is the orientation that leaves the root by the later of
    its two root edges (in `incident(root)` order among the edges to later
    vertices) and comes back by the earlier one: the orientation a
    last-in first-out DFS over every root edge meets first.

    The DFS walks the chains between the vertices that the kept-vertex
    rule of `_bit_steps` keeps.  Every cycle's smallest vertex is kept
    (proof at `_bit_steps`), so the DFS roots each cycle there.  A chain
    leaves the root by its first edge, in `incident` order, so the DFS
    skips the subtree of the root's first chain to a later vertex, closes a
    cycle in the subtree of the k-th one only through a chain before k,
    and cuts a branch once every vertex such a chain leads to is on the
    path (the branch at one of them still closes there).  A loop, or a
    closed chain, listed leaving by its later edge, closes at its root.
    Each cycle is so met once and already in the representative's
    orientation, with no rotation or reversal.

    Each cycle is kept as a lean `ClassifiedCycle`, made as the DFS closes
    it: the ORs of its chains' edge and vertex masks, its zero flags and
    raw value, and its start and the list of its chains, whose tuples are
    the `_bit_steps` ones, shared by every cycle through a chain.  The sort
    reads one integer per cycle (see `_edge_bits`).  The DFS builds each
    representative closed and simple, so `rep` takes `Cycle.trusted`,
    without the checks."""
    bit, adj = _bit_steps(graph)
    desc = graph.descriptor
    zeros = groups.zero_reader(desc)

    def make(start, chains, raw):
        vmask = emask = 0
        for _, _, chain_vmask, chain_emask in chains:
            vmask |= chain_vmask
            emask |= chain_emask
        return ClassifiedCycle(emask, vmask, zeros(raw), raw, start, chains, desc)

    cycles = _simple_paths(adj, _cycle_jobs(bit, adj), limit, "cycles", make, groups.table(desc))
    cycles.sort(key=_edge_order(len(graph.edge_ids()), attrgetter("emask")))
    return cycles


def doubly_nonzero_masks(graph: LabeledGraph, limit: Optional[int] = None) -> List[Tuple[int, Tuple[int, ...]]]:
    """The doubly non-zero cycles of `enumerate_cycles`, in its order, each
    as `(vertex mask, edge ids)`: the `_vertex_bits` of its vertices and
    the edge ids of its representative.  A cycle is kept by the value the
    DFS folds as it closes the cycle; its mask is the OR of its chains'
    vertex masks, and its edge ids are built only when it is kept.  No
    `Cycle` or `ClassifiedCycle` is built for any cycle.  The
    DFS is `enumerate_cycles`'s, rooted at the kept vertices of
    `_bit_steps`, which hold every cycle's smallest vertex, and every
    closed cycle, kept or not, counts towards `limit`, so the limit is
    `enumerate_cycles`'s."""
    bit, adj = _bit_steps(graph)
    zeros = groups.zero_reader(graph.descriptor)

    def make(start, chains, raw):
        if True in zeros(raw):
            return None
        vmask = emask = 0
        eids = []
        for chain_eids, _, chain_vmask, chain_emask in chains:
            vmask |= chain_vmask
            emask |= chain_emask
            eids += chain_eids
        return emask, (vmask, tuple(eids))

    cycles = _simple_paths(adj, _cycle_jobs(bit, adj), limit, "cycles", make, groups.table(graph.descriptor))
    cycles.sort(key=_edge_order(len(graph.edge_ids()), itemgetter(0)))
    return [cycle for _, cycle in cycles]


def zero_edge_set(graph: LabeledGraph, i: int, cycles: Optional[List[ClassifiedCycle]] = None) -> FrozenSet[int]:
    """Edges lying on at least one cycle whose coordinate-i value is zero."""
    if cycles is None:
        cycles = enumerate_cycles(graph)
    return _mask_vertices(_zero_edges(cycles, i), _edge_bits(graph))


def _zero_edges(cycles: List[ClassifiedCycle], i: int) -> int:
    """The OR of the edge masks of the cycles zero in coordinate i."""
    mask = 0
    for c in cycles:
        if c.zero[i]:
            mask |= c.emask
    return mask


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
    the hot cycles.  All of this runs on the records' masks: the inside
    edges are the OR of the zero cycles' edge masks, a cycle is hot when
    its edge mask meets that OR, and two cycles share an edge exactly when
    they share the chain (see `_bit_steps`) through it, since a cycle with
    one edge of a chain has them all; so a chain lies wholly inside or
    wholly outside.  Each chain, keyed by its edge mask, gets the bitmask
    of the hot cycles through it; the candidates of cycle a are then the
    OR of the masks on its inside chains minus the OR of those on its
    outside chains.  Each a takes its later candidates b in ascending
    order, so the witness is the first confusable pair (a, b) in
    enumeration order, and the common vertices of a pair are the AND of
    their vertex masks.

    Values are compared as raw payloads (see `groups.Table`) in the
    coordinate's table.  Rerooting is the shift rule: from the j-th vertex
    v of its representative, a cycle of raw value x has value -p + x + p
    (`shifted_value` at v by p), p the raw value of the first j edges,
    one `fold` of their non-zero payloads in `graph.steps()`, or its
    negative the other way.  So every value a cycle takes from any root,
    either way, is a conjugate of x or of -x, and has the key
    `Table.klass(x)`: a candidate pair whose keys differ can meet at no
    root, and is skipped before any value from a root is computed.  Each
    hot cycle's key is computed when it first meets a candidate, and kept.
    In an abelian coordinate a cycle's value is x from every root and the
    key is exact, x up to sign, so equal keys make the pair confusable at
    its smallest common vertex, and no prefix is folded.  In a non-abelian
    one a pair with equal keys tries its common vertices in ascending
    order, and each cycle folds its prefix once per root it is tried at.
    The prefix is read along the cycle's chains; only the witness builds
    `Cycle`s.
    """
    if cycles is None:
        cycles = enumerate_cycles(graph, limit)
    desc = graph.descriptor
    steps = graph.steps()
    order = sorted(graph.vertices)  # bit k of a vertex mask is order[k]
    # a single group is one coordinate group, checked once
    for i, part in enumerate(groups.coordinate_groups(desc)):
        t, read = groups.table(part), groups.coordinate_payload(desc, i)
        klass = t.klass
        inside = _zero_edges(cycles, i)
        hot = [c for c in cycles if not c.zero[i] and c.emask & inside]
        through: dict = {}  # a chain's edge mask -> bitmask of the hot cycles through it
        for a, c in enumerate(hot):
            for chain in c.chains:
                through[chain[3]] = through.get(chain[3], 0) | 1 << a
        abelian = part.is_abelian
        keys = [None] * len(hot)  # index in hot -> its value's klass, once computed
        rooted = {}  # (index in hot, root) -> raw values from root, both ways; non-abelian only

        def values(a: int, root: int):
            key = a, root
            if key not in rooted:
                c = hot[a]
                # the payloads along the representative, from its start to root
                prefix, at = [], c.start
                for chain_eids, chain_verts, _, _ in c.chains:
                    for eid, w in zip(chain_eids, chain_verts):
                        if at == root:
                            break
                        tail, _, fwd, bwd = steps[eid]
                        step = fwd if at == tail else bwd
                        if step is not None:
                            prefix.append(read(step))
                        at = w
                x = shifted_value(t, {root: t.fold(prefix)}, root, read(c.raw), root)
                # a loop reversed keeps its value rather than negating it,
                # but no loop is ever a candidate: no other cycle has its edge
                rooted[key] = {x, t.neg(x)}
            return rooted[key]

        for a, first in enumerate(hot):
            meet = avoid = 0
            for chain in first.chains:
                if chain[3] & inside:
                    meet |= through[chain[3]]
                else:
                    avoid |= through[chain[3]]
            later = (meet & ~avoid) >> (a + 1)  # bit k: the candidate a + 1 + k
            if not later:
                continue
            own = keys[a]
            if own is None:
                own = keys[a] = klass(read(first.raw))
            while later:
                low = later & -later
                later ^= low
                b = a + low.bit_length()
                other = keys[b]
                if other is None:
                    other = keys[b] = klass(read(hot[b].raw))
                if other != own:
                    continue  # conjugate to neither value, from every root
                common = first.vmask & hot[b].vmask
                while common:
                    vbit = common & -common
                    common ^= vbit
                    root = order[vbit.bit_length() - 1]  # ascending roots; abelian: the smallest only
                    if abelian or values(a, root) & values(b, root):
                        witness = first.rep.rooted_at(root), hot[b].rep.rooted_at(root)
                        return False, RobustnessWitness(i, *witness, root)
    return True, None
