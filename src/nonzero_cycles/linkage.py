"""Linkage combinatorics over an ordered terminal row.

Paths are abstracted as intervals (left < right positions in a fixed
terminal order).  A linkage is pure when all pairs relate the same way:
in series, nested, or crossing.

`obstructions` takes its linkage types, chord crossing test (`crosses`)
and linkage placement (`pure_linkage`) from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

SERIES = "series"
NESTED = "nested"
CROSSING = "crossing"
LINKAGE_TYPES = (SERIES, NESTED, CROSSING)


class LinkageError(ValueError):
    """Raised when linkage hypotheses are violated."""


@dataclass(frozen=True)
class LinkPath:
    """A path with endpoints at terminal positions left < right."""

    left: int
    right: int

    def __post_init__(self):
        if self.left >= self.right:
            raise LinkageError("endpoints must satisfy left < right")

    @property
    def interval(self) -> Tuple[int, int]:
        return (self.left, self.right)


def crosses(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    """Whether the chords with end positions `a` and `b` cross: exactly one
    end of `b` lies strictly between the ends of `a`."""
    a1, a2 = sorted(a)
    return sum(1 for p in b if a1 < p < a2) == 1


def classify_pair(p: LinkPath, q: LinkPath) -> str:
    """Relation of two paths with four distinct endpoint positions."""
    if len({p.left, p.right, q.left, q.right}) != 4:
        raise LinkageError("paths share a terminal position")
    if crosses(p.interval, q.interval):
        return CROSSING
    a, b = sorted((p.interval, q.interval))
    return SERIES if a[1] < b[0] else NESTED


def linkage_type(paths: Sequence[LinkPath]) -> Optional[str]:
    """The common pairwise relation, or None when the family is mixed.
    Families of size < 2 are vacuously pure of every type; they report
    SERIES as canonical."""
    kinds = {
        classify_pair(paths[i], paths[j])
        for i in range(len(paths))
        for j in range(i + 1, len(paths))
    }
    if not kinds:
        return SERIES
    if len(kinds) == 1:
        return next(iter(kinds))
    return None


def pure_linkage(kind: str, slots: Sequence[int]) -> List[LinkPath]:
    """The pure linkage of the given type on 2h ascending positions `slots`:
    in series it joins slots 2i and 2i+1, nested joins slot i to slot
    2h−1−i, and crossing joins slot i to slot h+i, for i < h."""
    h = len(slots) // 2
    if kind == SERIES:
        pairs = [(2 * i, 2 * i + 1) for i in range(h)]
    elif kind == NESTED:
        pairs = [(i, 2 * h - 1 - i) for i in range(h)]
    elif kind == CROSSING:
        pairs = [(i, h + i) for i in range(h)]
    else:
        raise LinkageError(f"unknown linkage type {kind!r}")
    return [LinkPath(slots[i], slots[j]) for i, j in pairs]


def is_pure(paths: Sequence[LinkPath]) -> bool:
    return linkage_type(paths) is not None


def _check_linkage(paths: Sequence[LinkPath]) -> None:
    ends: List[int] = []
    for p in paths:
        ends.extend(p.interval)
    if len(set(ends)) != len(ends):
        raise LinkageError("linkage paths must have pairwise distinct endpoints")


# ---------------------------------------------------------------------------
# extracting a pure sublinkage (needs size >= t^3)


def extract_pure(paths: Sequence[LinkPath], t: int) -> Tuple[str, List[LinkPath]]:
    """From >= t^3 paths extract a pure sublinkage of size t.

    Strategy: greedy interval scheduling finds t pairwise disjoint
    intervals (series) if they exist; otherwise some point is stabbed by
    more than t^2 intervals and a longest monotone subsequence of their
    right endpoints (ordered by left endpoint) is crossing or nested.
    Crossing wins ties.
    """
    _check_linkage(paths)
    if t < 1:
        raise LinkageError("t must be positive")
    if len(paths) < t**3:
        raise LinkageError(f"need at least t^3 = {t**3} paths, got {len(paths)}")
    by_right = sorted(paths, key=lambda p: (p.right, p.left))
    chosen: List[LinkPath] = []
    frontier = None
    for p in by_right:
        if frontier is None or p.left > frontier:
            chosen.append(p)
            frontier = p.right
    if len(chosen) >= t:
        return SERIES, chosen[:t]
    # a point of maximum overlap is stabbed by more than t^2 intervals
    points = sorted({x for p in paths for x in p.interval})
    stabbed: List[LinkPath] = []
    for x in points:
        here = [p for p in paths if p.left <= x <= p.right]
        if len(here) > len(stabbed):
            stabbed = here
    if len(stabbed) <= t * t:  # pragma: no cover - impossible given sizes
        raise LinkageError("overlap bound violated")
    stabbed.sort(key=lambda p: p.left)
    rights = [p.right for p in stabbed]
    inc = _longest_monotone(rights, increasing=True)
    dec = _longest_monotone(rights, increasing=False)
    if len(inc) >= t:
        return CROSSING, [stabbed[i] for i in inc[:t]]
    if len(dec) >= t:
        return NESTED, [stabbed[i] for i in dec[:t]]
    raise LinkageError("monotone subsequence bound violated")  # pragma: no cover


def _longest_monotone(xs: Sequence[int], increasing: bool) -> List[int]:
    """Indices of one longest strictly monotone subsequence (first in
    lexicographic order among the longest)."""
    n = len(xs)
    best_len = [1] * n
    prev = [-1] * n
    for i in range(n):
        for j in range(i):
            ok = xs[j] < xs[i] if increasing else xs[j] > xs[i]
            if ok and best_len[j] + 1 > best_len[i]:
                best_len[i] = best_len[j] + 1
                prev[i] = j
    if not xs:
        return []
    end = max(range(n), key=lambda i: (best_len[i], -i))
    out = []
    while end != -1:
        out.append(end)
        end = prev[end]
    return list(reversed(out))


# ---------------------------------------------------------------------------
# separating two pure linkages


def separate_linkages(ps: Sequence[LinkPath], qs: Sequence[LinkPath], t: int) -> Tuple[List[LinkPath], List[LinkPath]]:
    """Given pure linkages of size 4t each whose union is a linkage of size
    8t, select size-t sublinkages whose endpoint intervals separate: hulls
    disjoint when both inputs are in series; the series family's hull clear
    of the other's endpoint runs when exactly one is; and all four endpoint
    runs pairwise disjoint when neither is (`satisfies_separation_clause`).

    Each family, sorted by left end, is cut into four blocks of t
    consecutive paths, and the first pair (P block outer, Q block inner)
    that satisfies the clause is returned.  One exists.  The clause
    compares a series block's hull, or a non-series block's two endpoint
    runs, with the other block's.  Within one family these intervals are
    pairwise disjoint: a series family is ordered, and a nested or
    crossing family has every left end before every right end and its
    right ends monotone in its left ends.  Two families of pairwise
    disjoint intervals meet in a bipartite interval graph, which is
    chordal and triangle-free, hence a forest.  So at most 15 pairs of
    the at most 16 intervals meet, each ruling out one of the 16 block
    pairs, and some block pair meets nowhere.
    """
    if t < 1:
        raise LinkageError("t must be positive")
    if len(ps) != 4 * t or len(qs) != 4 * t:
        raise LinkageError("both linkages must have size exactly 4t")
    _check_linkage(list(ps) + list(qs))
    tp, tq = linkage_type(ps), linkage_type(qs)
    if tp is None or tq is None:
        raise LinkageError("input linkages must be pure")

    def blocks(paths: Sequence[LinkPath]) -> List[List[LinkPath]]:
        paths = sorted(paths, key=lambda p: p.left)
        return [paths[i * t : (i + 1) * t] for i in range(4)]

    q_blocks = blocks(qs)
    for pb in blocks(ps):
        for qb in q_blocks:
            if satisfies_separation_clause(pb, qb, tp, tq):
                return pb, qb
    raise LinkageError("no separable block pair found")  # pragma: no cover


def _endpoint_runs(block: Sequence[LinkPath]) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """The span of the left ends and the span of the right ends; the
    family's hull runs from the start of the first to the end of the
    second."""
    lefts = [p.left for p in block]
    rights = [p.right for p in block]
    return (min(lefts), max(lefts)), (min(rights), max(rights))


def _intervals_disjoint(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    return a[1] < b[0] or b[1] < a[0]


def satisfies_separation_clause(p_sel, q_sel, tp: str, tq: str) -> bool:
    """The disjointness outcome matching the input type combination."""
    pl, pr = _endpoint_runs(p_sel)
    ql, qr = _endpoint_runs(q_sel)
    p_hull = (pl[0], pr[1])
    q_hull = (ql[0], qr[1])
    if tp == SERIES and tq == SERIES:
        return _intervals_disjoint(p_hull, q_hull)
    if tp == SERIES:
        return _intervals_disjoint(p_hull, ql) and _intervals_disjoint(p_hull, qr)
    if tq == SERIES:
        return _intervals_disjoint(q_hull, pl) and _intervals_disjoint(q_hull, pr)
    runs = [pl, pr, ql, qr]
    return all(
        _intervals_disjoint(runs[i], runs[j])
        for i in range(4)
        for j in range(i + 1, 4)
    )


def _interleaved(first: Sequence[LinkPath], second: Sequence[LinkPath]) -> bool:
    """All left ends of `first`, then all left ends of `second`, then all
    right ends of `first`, then all right ends of `second`."""
    fl, fr = _endpoint_runs(first)
    sl, sr = _endpoint_runs(second)
    return fl[1] < sl[0] and sl[1] < fr[0] and fr[1] < sr[0]


def satisfies_interval_clause(ps: Sequence[LinkPath], qs: Sequence[LinkPath]) -> bool:
    """Interval condition for a pair of linkages: either the interval of ps
    lies entirely before the interval of qs, or the left endpoint runs and
    right endpoint runs strictly interleave and neither family is in
    series."""
    (_, pr), (ql, _) = _endpoint_runs(ps), _endpoint_runs(qs)
    if pr[1] < ql[0]:  # the hull of ps ends before the hull of qs starts
        return True
    if _interleaved(ps, qs):
        return linkage_type(ps) != SERIES and linkage_type(qs) != SERIES
    return False
