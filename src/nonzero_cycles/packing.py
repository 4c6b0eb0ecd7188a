"""Exact packing and covering of nonzero cycles and nonzero A-paths.

All solvers enumerate candidate cycles/paths explicitly and then run a
deterministic branch-and-bound; ties break lexicographically on sorted
edge-id tuples.  Intended for desk-scale instances.  Both searches read
vertex sets as the int bitmasks of `_vertex_masks` and keep their open
branches on an explicit stack.

The packing search (`_max_disjoint`, for ν with each vertex used once and
ν½ with each vertex used at most twice) hands each branch only the
candidates that still fit, and cuts a branch when the vertex uses left
cannot hold enough further candidates to beat the best packing found.
`pack_and_cover` computes ν½ last and hands it τ's transversal X as a
cover: every candidate takes a use of a vertex of X, so the free uses left
on X bound the further picks, and ν½ ≤ 2τ stops the search once reached.
Its answer is the lexicographically smallest optimal index tuple, with or
without the cover.

`_min_hitting_set` is the package's one exact hitting-set solver: over
every enumerated cycle or A-path, and on wall instances over the witness
cycles of the implicit hitting-set loop (`obstructions._exact_transversal`).
It stops once it holds a hitting set as small as the lower bound its caller
has proved: ν here, the previous round's minimum in that loop.

A-paths come from the DFS that enumerates cycles (`cycles._simple_paths`),
one start per terminal, so they obey the same limit, `NONZERO_CYCLES_LIMIT`
included, and are kept by the value that DFS folds as it closes each one.
`missed_cycle` is the one transversal check.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import groups
from .cycles import ClassifiedCycle, _bit_steps, _simple_paths, classify, enumerate_cycles, nonzero_cycles
from .graphs import GraphFormatError, LabeledGraph, Walk, cycle_from_edges


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


def _vertex_masks(sets: Sequence[AbstractSet[int]]) -> Tuple[List[int], Dict[int, int]]:
    """Each (non-empty) vertex set as an int bitmask, and the bit of each
    vertex: bit i for the i-th smallest vertex of the union, in that order."""
    if not all(sets):
        raise ValueError("every vertex set must be non-empty")
    bit = {v: 1 << i for i, v in enumerate(sorted(set().union(*sets)))}
    return [sum(map(bit.__getitem__, s)) for s in sets], bit


def _max_disjoint(
    vertex_sets: Sequence[AbstractSet[int]], max_use: int, cover: Optional[AbstractSet[int]] = None
) -> List[int]:
    """Largest selection of vertex sets that uses every vertex at most
    `max_use` times (1 or 2); returns the indices of the lexicographically
    smallest such selection.

    Two equal sets (distinct cycles through the same vertices) may both be
    chosen.  Sets must be non-empty, which keeps the capacity bound finite.
    `cover`, when given, is a vertex set X that meets every set (ValueError
    otherwise), such as a transversal: each chosen set then takes a use of
    a vertex of X, so no selection exceeds `max_use * |X|`.

    The search carries `once`, the vertices one more use would fill (with
    `max_use=1` every vertex starts there), and `full`, the vertices used
    up; each child gets only the later candidates whose masks miss `full`.
    A branch is cut when even `min(len(cands), capacity // smallest
    candidate size, free uses on X)` more items, where capacity is
    `max_use * |V|` minus the vertex uses so far and the free uses on X are
    `2|X| - |X & once| - 2|X & full|`, cannot beat the best found; the
    search stops once the best reaches `max_use * |X|`.  Branches run in
    index order and `best` changes only on a strictly larger selection, and
    a cut drops only branches that cannot beat it, so the first optimum in
    branch order, the lexicographically smallest, is the one returned,
    with or without `cover`.
    """
    if max_use not in (1, 2):
        raise ValueError("max_use must be 1 or 2")
    masks, bit = _vertex_masks(vertex_sets)
    sizes = [len(s) for s in vertex_sets]
    xmask = sum(b for v, b in bit.items() if v in cover) if cover is not None else 0
    if cover is not None and not all(m & xmask for m in masks):
        raise ValueError("cover must meet every vertex set")
    xsize = xmask.bit_count()
    # the most items any selection holds: all of them, or one per use of X
    most = len(masks) if cover is None else max_use * xsize
    best: List[int] = []
    chosen: List[int] = []
    # the open branches above the current one, as (candidates, once, full,
    # capacity, next position); the current branch chose all of `chosen`,
    # and a branch whose next position is len(candidates) is finished
    above: List[Tuple[List[int], int, int, int, int]] = []

    def promising(cands: List[int], once: int, full: int, capacity: int, depth: int) -> bool:
        room = capacity // min(map(sizes.__getitem__, cands))
        if cover is not None:
            room = min(room, 2 * xsize - (once & xmask).bit_count() - 2 * (full & xmask).bit_count())
        return depth + min(len(cands), room) > len(best)

    cands = list(range(len(masks)))
    once = (1 << len(bit)) - 1 if max_use == 1 else 0
    full = 0
    capacity = max_use * len(bit)
    k = 0 if cands and promising(cands, once, full, capacity, 0) else len(cands)
    while True:
        if k == len(cands) or len(chosen) + len(cands) - k <= len(best):
            if not above:
                return best
            cands, once, full, capacity, k = above.pop()
            chosen.pop()
            continue
        i = cands[k]
        k += 1
        if len(chosen) >= len(best):
            best = chosen + [i]
            if len(best) == most:
                return best
        rest = cands[k:]
        filled = once & masks[i]
        if filled:
            rest = [j for j in rest if not masks[j] & filled]
        child = (once ^ masks[i], full | filled, capacity - sizes[i])
        if rest and promising(rest, *child, len(chosen) + 1):
            above.append((cands, once, full, capacity, k))
            chosen.append(i)
            cands, k = rest, 0
            once, full, capacity = child


def _disjoint_count(masks: List[int]) -> int:
    """How many masks a greedy pass keeps pairwise disjoint; each needs its own vertex."""
    count = used = 0
    for m in masks:
        if not m & used:
            count += 1
            used |= m
    return count


def _min_hitting_set(sets: Sequence[AbstractSet[int]], at_least: int = 0) -> FrozenSet[int]:
    """Exact minimum vertex set meeting every set; deterministic.  It stops
    at a hitting set of `at_least` vertices, a proved lower bound (or 0).
    The greedy set (the vertex in most unmet sets, ties to the smaller) is
    the first incumbent, replaced only by a strictly smaller hitting set.
    A branch pivots on the smallest unmet set by (size, sorted vertices),
    tries its vertices in ascending order when entered, and is cut when
    its chosen vertices plus `_disjoint_count` of its unmet sets reach the
    incumbent.  So the answer is the greedy set when that is optimal, and
    otherwise the first optimum in branch order, for any valid `at_least`.
    """
    masks, bit = _vertex_masks(sets)
    best = 0
    remaining = range(len(masks))
    while remaining:
        counts = Counter(itertools.chain.from_iterable(sets[i] for i in remaining))
        v = bit[min(counts, key=lambda u: (-counts[u], u))]
        best |= v
        remaining = [i for i in remaining if not masks[i] & v]
    size = best.bit_count()
    # open branches: (unmet masks, chosen, its size, bound, untried pivot bits)
    stack = []
    if size > max(at_least, _disjoint_count(masks)):
        unmet = [masks[i] for i in sorted(range(len(sets)), key=lambda i: (len(sets[i]), sorted(sets[i])))]
        stack.append((unmet, 0, 0, 0, unmet[0]))
    while stack:
        unmet, chosen, depth, lb, pending = stack.pop()
        if not pending or depth + lb >= size:
            continue
        v = pending & -pending
        stack.append((unmet, chosen, depth, lb, pending ^ v))
        rest = [m for m in unmet if not m & v]
        if rest:
            stack.append((rest, chosen | v, depth + 1, _disjoint_count(rest), rest[0]))
        else:
            best, size = chosen | v, depth + 1
            if size <= at_least:
                break
    return frozenset(v for v, b in bit.items() if best & b)


def pack_and_cover(graph: LabeledGraph, limit: Optional[int] = None) -> PackCoverReport:
    """Exact nu, nu_half and tau over the doubly-nonzero cycles: nu first,
    as tau's lower bound, then tau, whose transversal caps the nu_half
    search."""
    cycles = nonzero_cycles(graph, limit)
    vertex_sets = [c.rep.vertex_set() for c in cycles]
    pack_idx = _max_disjoint(vertex_sets, max_use=1)
    transversal = _min_hitting_set(vertex_sets, at_least=len(pack_idx))
    half_idx = _max_disjoint(vertex_sets, max_use=2, cover=transversal)
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
    hot = [w for w in paths if w is not None]
    hot.sort(key=lambda w: (len(w.edges), tuple(sorted(w.edges))))
    return hot


def a_path_pack_and_cover(graph: LabeledGraph, terminals, limit: Optional[int] = None) -> APathReport:
    paths = enumerate_nonzero_a_paths(graph, terminals, limit)
    vertex_sets = [frozenset(w.vertices) for w in paths]
    pack_idx = _max_disjoint(vertex_sets, max_use=1)
    cover = _min_hitting_set(vertex_sets, at_least=len(pack_idx))
    nu, tau = len(pack_idx), len(cover)
    return APathReport(
        nu=nu,
        tau=tau,
        packing=tuple(paths[i] for i in pack_idx),
        cover=cover,
        duality_ok=tau <= 2 * nu,
    )
