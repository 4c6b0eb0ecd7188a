"""Exact packing and covering of nonzero cycles and nonzero A-paths.

All solvers enumerate candidate cycles/paths explicitly and then run a
deterministic branch-and-bound; ties break lexicographically on sorted
edge-id tuples.  Intended for desk-scale instances.  Both searches read
vertex sets as int bitmasks, bit i for the i-th smallest vertex of the
graph (`cycles._vertex_bits`, decoded by `cycles._mask_vertices`), and keep
their open branches on an explicit stack.  Doubly non-zero cycles come as
masks from the enumerating DFS (`cycles.doubly_nonzero_masks`), A-paths as
walks (`cycles.enumerate_nonzero_a_paths`, under the same limit); other
vertex sets become masks here.  `missed_cycle` is the one transversal check.

The packing search (`_max_disjoint`, for ν with each vertex used once and
ν½ with each vertex used at most twice) runs one branch-and-bound on the
exchange-closed family (`_exchange_families`): the masks whose earlier
strictly smaller sub-masks are pairwise disjoint, or absent for ν.  That
family holds the lexicographically smallest maximum packing, so the search's
answer, mapped back by index, is the lexicographically smallest optimal
index tuple over all the masks.  The branch-and-bound hands each branch
only the candidates that still fit, and cuts a branch when the vertex uses
left cannot hold enough further candidates to beat the best packing found.
`pack_and_cover` builds both families in one pass, computes ν½ last and
hands it τ's transversal X as a cover: every candidate takes a use of a
vertex of X, so the free uses left on X bound the further picks, drop the
candidates that would take too many of them, and stop the search once ν½
reaches 2τ.

`_min_hitting_set` is the package's one exact hitting-set solver: over
every enumerated cycle or A-path, and over the witnesses of the implicit
hitting-set loop `implicit_transversal`, which asks an oracle instead (the
wall instances' chord router).  It stops at a hitting set as small as the
lower bound its caller has proved: ν here, the previous round's minimum in
that loop.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import AbstractSet, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .cycles import _mask_vertices, _vertex_bits, classify, doubly_nonzero_masks, enumerate_nonzero_a_paths
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


def _union(masks: Sequence[int]) -> int:
    """The union of vertex masks; ValueError if one of them is empty."""
    if not all(masks):
        raise ValueError("every vertex set must be non-empty")
    return functools.reduce(operator.or_, masks, 0)


def _max_disjoint(
    masks: Sequence[int], max_use: int, cover: Optional[int] = None, family: Optional[List[int]] = None
) -> List[int]:
    """Largest selection of vertex masks that uses every vertex at most
    `max_use` times (1 or 2); returns the indices of the lexicographically
    smallest such selection.

    Two equal masks (distinct cycles through the same vertices) may both be
    chosen.  Masks must be non-empty, which keeps the capacity bound finite.
    `cover`, when given, is the mask of a vertex set X that meets every mask
    (ValueError otherwise), such as a transversal: each chosen set then
    takes a use of a vertex of X, so no selection exceeds `max_use * |X|`.
    Only vertices of the union of the family's masks count, in X as in the
    capacity.  `family`, when given, is `_exchange_families(masks)[max_use -
    1]`, built once by a caller that packs the same masks twice.

    One `_packing_search` on the family, mapped back by index, gives the
    answer: the family holds the lexicographically smallest maximum
    selection (see `_exchange_families`), so a largest selection of the
    family is a largest one of all the masks.
    """
    if max_use not in (1, 2):
        raise ValueError("max_use must be 1 or 2")
    _union(masks)  # ValueError on an empty mask
    if cover is not None and not all(m & cover for m in masks):
        raise ValueError("cover must meet every vertex set")
    if family is None:
        family = _exchange_families(masks)[max_use - 1]
    return [family[i] for i in _packing_search([masks[i] for i in family], max_use, cover)]


def _exchange_families(masks: Sequence[int]) -> Tuple[List[int], List[int]]:
    """The indices, in order, of the masks that the lexicographically
    smallest maximum selection may use, for `max_use=1` and for `max_use=2`:
    mask C is kept when no earlier mask lies strictly inside it
    (`max_use=1`), or when the earlier masks strictly inside it are pairwise
    disjoint (`max_use=2`).  Equal masks are never strictly inside each
    other, so they are kept together, and the first list is a sublist of the
    second.

    Why it is exact, for any order of the masks: if that selection S used C
    but not an earlier D strictly inside C, S - C + D would be a selection
    of the same size and lexicographically smaller.  So S holds every such
    D, and two of them that met would put a third use on a shared vertex.
    On masks sorted by size, as the package packs them, every mask strictly
    inside C comes earlier; this is then the domination rule of Fomin,
    Grandoni and Kratsch (JACM 2009).

    Bit j stands for mask j.  The vertices that the same small masks (those
    with fewer vertices than the largest) pass through form one class, with
    the bits of the small masks that miss it.  C starts from the earlier
    small masks other than its equals, one AND with `(1 << i) - 1`, and
    keeps those that miss each class with a vertex outside C.
    """
    sizes = [m.bit_count() for m in masks]
    # only a mask with fewer vertices than the largest can lie inside another
    largest = max(sizes, default=0)
    small = [j for j, s in enumerate(sizes) if s < largest]
    if not small:
        return list(range(len(masks))), list(range(len(masks)))
    # the vertices that the same small masks pass through form a class, kept
    # as (its vertex mask, the bits of the small masks that miss it); each
    # small mask splits every class it cuts in two
    smalls = sum(1 << j for j in small)
    classes = [(functools.reduce(operator.or_, (masks[j] for j in small)), smalls)]
    for j in small:
        d, bit = masks[j], 1 << j
        split = []
        for vertices, missing in classes:
            through = vertices & d
            if through:
                split.append((through, missing ^ bit))
            if through != vertices:
                split.append((vertices ^ through, missing))
        classes = split
    same: Dict[int, int] = {}
    for j, m in enumerate(masks):
        same[m] = same.get(m, 0) | 1 << j
    ones, twos = [], []
    for i, c in enumerate(masks):
        inside = smalls & ~same[c] & ((1 << i) - 1)
        outside = ~c
        for vertices, missing in classes:
            if not inside:
                break
            if vertices & outside:
                inside &= missing
        if not inside:
            ones.append(i)
            twos.append(i)
            continue
        # for max_use=2 the masks inside must be pairwise disjoint
        used = 0
        while inside:
            j = inside & -inside
            m = masks[j.bit_length() - 1]
            if m & used:
                break
            used |= m
            inside ^= j
        if not inside:
            twos.append(i)
    return ones, twos


def _packing_search(masks: Sequence[int], max_use: int, cover: Optional[int]) -> List[int]:
    """The branch-and-bound of `_max_disjoint` on non-empty masks, with
    `cover` already checked: the lexicographically smallest largest
    selection.

    The search carries `once`, the vertices one more use would fill (with
    `max_use=1` every vertex starts there), and `full`, the vertices used
    up; each child gets only the later candidates whose masks miss `full`.
    A selection must have more than `bar` items, the best found, to count.
    Each further item takes at least one use of X, so a candidate taking
    more uses of X than the free ones (`2|X| - |X & once| - 2|X & full|`),
    less one for each other item a selection beating `bar` needs, is
    dropped.  A child is cut when even `min(its candidates, capacity //
    smallest candidate size, free uses on X)` more items cannot beat `bar`,
    where capacity is `max_use * |V|` minus the vertex uses so far.  The
    search stops once the best reaches `max_use * |X|`.  Branches run in
    index order and `best` changes only on a strictly larger selection, and
    a cut or a drop removes only selections that cannot beat `bar`, so the
    first optimum in branch order, the lexicographically smallest, is the
    one returned, with or without `cover`.
    """
    union = _union(masks)
    sizes = [m.bit_count() for m in masks]
    xmask = cover & union if cover is not None else 0
    xuses = [(m & xmask).bit_count() for m in masks]
    most_xuses = max(xuses, default=0)
    xsize = xmask.bit_count()
    # the most items any selection holds: all of them, or one per use of X
    most = len(masks) if cover is None else max_use * xsize
    # a selection counts only when it has more than `bar` items
    bar = 0
    best: List[int] = []
    chosen: List[int] = []
    # the open branches above the current one, as (candidates, once, full,
    # capacity, next position); the current branch chose all of `chosen`,
    # and a branch whose next position is len(candidates) is finished
    above: List[Tuple[List[int], int, int, int, int]] = []

    def promising(cands: List[int], capacity: int, free: int, depth: int) -> bool:
        room = min(len(cands), capacity // min(map(sizes.__getitem__, cands)), free)
        return depth + room > bar

    cands = list(range(len(masks)))
    once = union if max_use == 1 else 0
    full = 0
    capacity = max_use * union.bit_count()
    k = 0
    while True:
        if k == len(cands) or len(chosen) + len(cands) - k <= bar:
            if not above:
                return best
            cands, once, full, capacity, k = above.pop()
            chosen.pop()
            continue
        i = cands[k]
        k += 1
        depth = len(chosen) + 1
        if depth > bar:
            best = chosen + [i]
            bar = depth
            if bar == most:
                return best
        m = masks[i]
        filled = once & m
        child_once, child_full = once ^ m, full | filled
        # each further item takes a use of X, so the free uses left bound them
        free = most
        if cover is not None:
            free = 2 * xsize - (child_once & xmask).bit_count() - 2 * (child_full & xmask).bit_count()
        # an item beyond X's spare uses cannot join a selection beating bar
        spare = free - (bar - depth)
        rest = cands[k:]
        if filled or spare < most_xuses:
            rest = [j for j in rest if not masks[j] & filled and xuses[j] <= spare]
        if rest and promising(rest, capacity - sizes[i], free, depth):
            above.append((cands, once, full, capacity, k))
            chosen.append(i)
            cands, k = rest, 0
            once, full, capacity = child_once, child_full, capacity - sizes[i]


def _disjoint_count(masks: List[int]) -> int:
    """How many masks a greedy pass keeps pairwise disjoint; each needs its own vertex."""
    count = used = 0
    for m in masks:
        if not m & used:
            count += 1
            used |= m
    return count


def _most_frequent_bit(masks: Sequence[int]) -> int:
    """The bit set in the most of the (non-empty) masks, the lowest of
    those tied.  The counts are bit-sliced: bit b of `counts[k]` is bit k of
    the count of bit b, so each mask is added to every count at once, with
    a carry as long as the binary addition needs."""
    counts: List[int] = []
    for carry in masks:
        for k, c in enumerate(counts):
            counts[k], carry = c ^ carry, c & carry
            if not carry:
                break
        else:
            counts.append(carry)
    # from the highest count bit down, keep the bits whose count has it
    top = functools.reduce(operator.or_, counts)
    for c in reversed(counts):
        if top & c:
            top &= c
    return top & -top


def _min_hitting_set(masks: Sequence[int], at_least: int = 0) -> int:
    """Exact minimum vertex set meeting every (non-empty) vertex mask, as a
    mask; deterministic, with bit i for the i-th smallest vertex.  It stops
    at a hitting set of `at_least` vertices, a proved lower bound (or 0).
    The greedy set (the vertex in most unmet sets, ties to the smaller) is
    the first incumbent, replaced only by a strictly smaller hitting set.
    A branch pivots on the smallest unmet set by (size, sorted vertices),
    tries its vertices in ascending order when entered, and is cut when
    its chosen vertices plus `_disjoint_count` of its unmet sets reach the
    incumbent.  So the answer is the greedy set when that is optimal, and
    otherwise the first optimum in branch order, for any valid `at_least`.
    """
    width = _union(masks).bit_length()
    best = 0
    unmet = masks
    while unmet:
        v = _most_frequent_bit(unmet)
        best |= v
        unmet = [m for m in unmet if not m & v]
    size = best.bit_count()
    # open branches: (unmet masks, chosen, its size, bound, untried pivot bits)
    stack = []
    if size > max(at_least, _disjoint_count(masks)):
        # the bits reversed make one set of a size sort before another when
        # the lowest vertex the two do not share is its own
        unmet = sorted(masks, key=lambda m: (m.bit_count(), -int(f"{m:0{width}b}"[::-1], 2)))
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
    return best


def implicit_transversal(
    vertices: Iterable[int], oracle: Callable[[FrozenSet[int]], Optional[AbstractSet[int]]], first
) -> FrozenSet[int]:
    """A minimum vertex set meeting every doubly non-zero cycle of a graph on
    `vertices`, by the implicit hitting-set loop (Karp and Moreno-Centeno,
    2013), which lists no cycle.  `oracle(X)` returns the vertex set of such
    a cycle avoiding X, or None; `first` is its answer for the empty X.  X is
    a minimum hitting set of the witnesses so far, each made a mask once, in
    the bit order of `sorted(vertices)`; when the oracle finds none, no
    smaller transversal exists.  |X| bounds the next round's minimum below."""
    bit = _vertex_bits(vertices)
    masks: List[int] = []
    hit: FrozenSet[int] = frozenset()
    witness = first
    while witness is not None:
        masks.append(sum(map(bit.__getitem__, witness)))
        hit = _mask_vertices(_min_hitting_set(masks, at_least=len(hit)), bit)
        witness = oracle(hit)
    return hit


def max_packing(vertices: Iterable[int], sets: Sequence[AbstractSet[int]], max_use: int = 1) -> List[int]:
    """`_max_disjoint` over the non-empty vertex `sets` of a graph on
    `vertices`: the lexicographically smallest largest selection's indices.
    The sets may come in any order, not only by size: the exchange family
    keeps that selection for every order."""
    bit = _vertex_bits(vertices)
    return _max_disjoint([sum(map(bit.__getitem__, s)) for s in sets], max_use)


def pack_and_cover(graph: LabeledGraph, limit: Optional[int] = None) -> PackCoverReport:
    """Exact nu, nu_half and tau over the doubly-nonzero cycles: nu first,
    as tau's lower bound, then tau, whose transversal caps the nu_half
    search."""
    found = doubly_nonzero_masks(graph, limit)
    masks = [m for m, _ in found]
    ones, twos = _exchange_families(masks)
    pack_idx = _max_disjoint(masks, max_use=1, family=ones)
    transversal = _min_hitting_set(masks, at_least=len(pack_idx))
    half_idx = _max_disjoint(masks, max_use=2, cover=transversal, family=twos)
    return PackCoverReport(
        nu=len(pack_idx),
        nu_half=len(half_idx),
        tau=transversal.bit_count(),
        packing=tuple(frozenset(found[i][1]) for i in pack_idx),
        half_packing=tuple(frozenset(found[i][1]) for i in half_idx),
        transversal=_mask_vertices(transversal, _vertex_bits(graph.vertices)),
    )


def min_transversal(graph: LabeledGraph, limit: Optional[int] = None) -> FrozenSet[int]:
    """Exact minimum vertex set meeting every doubly-nonzero cycle: the
    transversal of `pack_and_cover`, without the two packing searches."""
    masks = [m for m, _ in doubly_nonzero_masks(graph, limit)]
    return _mask_vertices(_min_hitting_set(masks), _vertex_bits(graph.vertices))


def missed_cycle(graph: LabeledGraph, transversal, limit: Optional[int] = None) -> Optional[Tuple[int, ...]]:
    """The edge ids of the first doubly-nonzero cycle of the graph minus
    `transversal`, in `enumerate_cycles` order (as its representative
    lists them), or None when the transversal meets them all."""
    found = doubly_nonzero_masks(graph.without_vertices(transversal), limit)
    return found[0][1] if found else None


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


def a_path_pack_and_cover(graph: LabeledGraph, terminals, limit: Optional[int] = None) -> APathReport:
    paths = enumerate_nonzero_a_paths(graph, terminals, limit)
    bit = _vertex_bits(graph.vertices)
    masks = [sum(map(bit.__getitem__, w.vertices)) for w in paths]
    pack_idx = _max_disjoint(masks, max_use=1)
    cover = _mask_vertices(_min_hitting_set(masks, at_least=len(pack_idx)), bit)
    nu, tau = len(pack_idx), len(cover)
    return APathReport(nu=nu, tau=tau, packing=tuple(paths[i] for i in pack_idx), cover=cover, duality_ok=tau <= 2 * nu)
