"""Exact packing and covering of nonzero cycles and nonzero A-paths.

All solvers enumerate candidate cycles/paths explicitly and then run a
deterministic branch-and-bound; ties break lexicographically on sorted
edge-id tuples.  Intended for desk-scale instances.

`_min_hitting_set` is the package's one exact hitting-set solver: here over
every enumerated cycle or A-path, and on wall instances over the witness
cycles of the implicit hitting-set loop (`obstructions._exact_transversal`).

The packing search (`_max_disjoint`, for ν with each vertex used once and
ν½ with each vertex used at most twice) keeps its vertex-use state in int
bitmasks, hands each branch only the candidates that still fit, and cuts a
branch when the vertex uses left cannot hold enough further candidates to
beat the best packing found.  It returns the first optimum in branch order,
so its answer is the lexicographically smallest optimal index tuple.  The
branches live on an explicit stack, so a packing of any size stays clear of
the interpreter's recursion limit.

A-paths come from the DFS that enumerates cycles (`cycles._simple_paths`),
one start per terminal, so they obey the same limit, `NONZERO_CYCLES_LIMIT`
included.  `missed_cycle` is the one transversal check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import groups
from .cycles import ClassifiedCycle, _bit_steps, _simple_paths, classify, enumerate_cycles, nonzero_cycles
from .graphs import GraphFormatError, LabeledGraph, Walk, cycle_from_edges, walk_value


@dataclass(frozen=True)
class PackCoverReport:
    """Exact packing number, half-integral packing number, and transversal
    number for the doubly-nonzero cycles of a graph, with witnesses."""

    nu: int
    nu_half: int
    tau: int
    packing: Tuple[FrozenSet[int], ...]
    half_packing: Tuple[FrozenSet[int], ...]
    transversal: FrozenSet[int]


def _max_disjoint(items: List[Tuple[FrozenSet[int], FrozenSet[int]]], max_use: int) -> List[int]:
    """Largest selection of (vertex_set, edge_set) items that uses every
    vertex at most `max_use` times (1 or 2); returns the indices of the
    lexicographically smallest such selection.

    Only the vertex sets are read: callers pass distinct cycles or paths,
    so two items with one vertex set may both be chosen.  Every vertex set
    must be non-empty, which keeps the capacity bound finite.

    Each vertex set becomes an int bitmask, bits in order of first
    appearance.  The search carries `once`, the vertices one more use would
    fill (with `max_use=1` every vertex starts there); the vertices that are
    already full are implicit, because each child gets only the later
    candidates whose masks miss them.  Choosing an item fills
    `once & mask`, so only the candidates meeting those vertices drop out,
    and feasibility only shrinks down a branch.  A branch is cut when even
    `min(len(cands), capacity // smallest candidate size)` more items, where
    capacity is `max_use * |V|` minus the vertex uses so far, cannot beat the
    best found.  Branches run in index order and `best` changes only on a
    strictly larger selection; a bound cuts only branches that cannot hold
    one, so the first optimum found is still the one returned.  The search
    keeps its open branches on an explicit stack rather than recursing.
    """
    if max_use not in (1, 2):
        raise ValueError("max_use must be 1 or 2")
    bits: Dict[int, int] = {}
    masks: List[int] = []
    sizes: List[int] = []
    for vertex_set, _ in items:
        if not vertex_set:
            raise ValueError("every item needs a non-empty vertex set")
        mask = 0
        for v in vertex_set:
            if v not in bits:
                bits[v] = 1 << len(bits)
            mask |= bits[v]
        masks.append(mask)
        sizes.append(len(vertex_set))
    best: List[int] = []
    chosen: List[int] = []
    # the open branches above the current one, as (candidates, once,
    # capacity, next position); the current branch chose all of `chosen`,
    # and a branch whose next position is len(candidates) is finished
    above: List[Tuple[List[int], int, int, int]] = []

    def promising(cands: List[int], capacity: int, depth: int) -> bool:
        room = capacity // min(map(sizes.__getitem__, cands))
        return depth + min(len(cands), room) > len(best)

    cands = list(range(len(items)))
    once = (1 << len(bits)) - 1 if max_use == 1 else 0
    capacity = max_use * len(bits)
    k = 0 if cands and promising(cands, capacity, 0) else len(cands)
    while True:
        if k == len(cands) or len(chosen) + len(cands) - k <= len(best):
            if not above:
                return best
            cands, once, capacity, k = above.pop()
            chosen.pop()
            continue
        i = cands[k]
        k += 1
        if len(chosen) >= len(best):
            best = chosen + [i]
        rest = cands[k:]
        filled = once & masks[i]
        if filled:
            rest = [j for j in rest if not masks[j] & filled]
        if rest and promising(rest, capacity - sizes[i], len(chosen) + 1):
            above.append((cands, once, capacity, k))
            chosen.append(i)
            cands, once, capacity, k = rest, once ^ masks[i], capacity - sizes[i], 0


def _min_hitting_set(sets: List[FrozenSet[int]]) -> FrozenSet[int]:
    """Exact minimum vertex set meeting every set; deterministic."""
    if not sets:
        return frozenset()
    # greedy upper bound
    remaining = list(sets)
    greedy: set = set()
    while remaining:
        counts: Dict[int, int] = {}
        for s in remaining:
            for v in s:
                counts[v] = counts.get(v, 0) + 1
        v = min(counts, key=lambda x: (-counts[x], x))
        greedy.add(v)
        remaining = [s for s in remaining if v not in s]
    best: Optional[frozenset] = frozenset(greedy)

    def search(uncovered: List[FrozenSet[int]], chosen: set):
        nonlocal best
        if not uncovered:
            if best is None or len(chosen) < len(best):
                best = frozenset(chosen)
            return
        # lower bound: disjoint uncovered sets each need a separate vertex
        lb = 0
        used: set = set()
        for s in uncovered:
            if not (s & used):
                lb += 1
                used |= s
        if best is not None and len(chosen) + lb >= len(best):
            return
        pivot = min(uncovered, key=lambda s: (len(s), tuple(sorted(s))))
        for v in sorted(pivot):
            rest = [s for s in uncovered if v not in s]
            chosen.add(v)
            search(rest, chosen)
            chosen.discard(v)

    search(list(sets), set())
    return best if best is not None else frozenset()


def pack_and_cover(graph: LabeledGraph, limit: Optional[int] = None) -> PackCoverReport:
    """Exact nu, nu_half and tau over the doubly-nonzero cycles."""
    cycles = nonzero_cycles(graph, limit)
    items = [(c.rep.vertex_set(), c.edges) for c in cycles]
    pack_idx = _max_disjoint(items, max_use=1)
    half_idx = _max_disjoint(items, max_use=2)
    transversal = _min_hitting_set([c.rep.vertex_set() for c in cycles])
    return PackCoverReport(
        nu=len(pack_idx),
        nu_half=len(half_idx),
        tau=len(transversal),
        packing=tuple(cycles[i].edges for i in pack_idx),
        half_packing=tuple(cycles[i].edges for i in half_idx),
        transversal=transversal,
    )


def min_transversal(graph: LabeledGraph, limit: Optional[int] = None) -> FrozenSet[int]:
    """Exact minimum vertex set meeting every doubly-nonzero cycle: the
    transversal of `pack_and_cover`, without the two packing searches."""
    return _min_hitting_set([c.rep.vertex_set() for c in nonzero_cycles(graph, limit)])


def missed_cycle(graph: LabeledGraph, transversal, limit: Optional[int] = None) -> Optional[ClassifiedCycle]:
    """The first doubly-nonzero cycle of the graph minus `transversal`, in
    `enumerate_cycles` order, or None when the transversal meets them all."""
    rest = graph.without_vertices(transversal)
    return next((c for c in enumerate_cycles(rest, limit) if c.doubly_nonzero), None)


def verify_transversal(graph: LabeledGraph, transversal, limit: Optional[int] = None) -> bool:
    """Re-check a transversal by deleting it and looking for survivors."""
    return missed_cycle(graph, transversal, limit) is None


def verify_packing(graph: LabeledGraph, edge_sets: Sequence[FrozenSet[int]], max_use: int = 1) -> bool:
    """Check the members are doubly-nonzero cycles respecting vertex usage."""
    usage: Dict[int, int] = {}
    seen = set()
    for es in edge_sets:
        key = frozenset(es)
        if key in seen:
            return False
        seen.add(key)
        try:
            cyc = cycle_from_edges(graph, es)
        except GraphFormatError:
            return False
        if not classify(graph, cyc).doubly_nonzero:
            return False
        for v in cyc.vertex_set():
            usage[v] = usage.get(v, 0) + 1
            if usage[v] > max_use:
                return False
    return True


# ---------------------------------------------------------------------------
# nonzero A-paths


@dataclass(frozen=True)
class APathReport:
    nu: int
    tau: int
    packing: Tuple[Walk, ...]
    cover: FrozenSet[int]
    duality_ok: bool  # tau <= 2 * nu


def enumerate_nonzero_a_paths(graph: LabeledGraph, terminals, limit: Optional[int] = None) -> List[Walk]:
    """All nonzero-valued paths with both (distinct) ends in `terminals`
    and no internal vertex there, each from its smaller end, sorted by
    (length, sorted edge ids)."""
    a_set = set(terminals)
    if not a_set <= graph.vertices:
        raise ValueError("terminals must be vertices of the graph")
    bit, adj = _bit_steps(graph)
    used = sum(bit[t] for t in a_set)
    # one job per start s, every terminal used: a path closes by an edge at
    # a later terminal, so it grows only while a neighbour of one is free
    jobs = []
    closing = ends = 0
    for s in sorted(a_set, reverse=True):
        jobs.append(((s, None, None), used, closing, ends))
        for _, _, wb, eb in adj[s]:
            closing |= eb
            ends |= wb
    paths = _simple_paths(adj, jobs, limit, "A-paths", Walk)
    hot = [w for w in paths if not groups.is_zero(walk_value(graph, w))]
    hot.sort(key=lambda w: (len(w.edges), tuple(sorted(w.edges))))
    return hot


def a_path_pack_and_cover(graph: LabeledGraph, terminals, limit: Optional[int] = None) -> APathReport:
    paths = enumerate_nonzero_a_paths(graph, terminals, limit)
    items = [(frozenset(w.vertices), w.edge_set()) for w in paths]
    pack_idx = _max_disjoint(items, max_use=1)
    cover = _min_hitting_set([frozenset(w.vertices) for w in paths])
    nu, tau = len(pack_idx), len(cover)
    return APathReport(
        nu=nu,
        tau=tau,
        packing=tuple(paths[i] for i in pack_idx),
        cover=cover,
        duality_ok=tau <= 2 * nu,
    )
