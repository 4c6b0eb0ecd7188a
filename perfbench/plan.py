"""Seeded input plans for the three workloads.

A plan is everything random about a run's inputs, drawn from `--seed` by
this module alone: graphs, labels and vertex sets for `sweep`, wall
labellings for `census`, and group choices for `obstruction`.  The
workload process turns a plan into instance files during its set-up,
through the program's own `gen` and `reduce` commands where the workload
uses them.

Instance sizes are fixed in the quantity that drives the work, so that
two seeds give workloads of the same size:

- `sweep` draws each slot until its number of doubly non-zero cycles lies
  in a fixed band for the slot's kind.  The packing branch-and-bound
  works on exactly those cycles.
- `census` draws each `sum(free2,free2)` labelling until the number of
  candidate confusable pairs (the pairs that the robustness check has to
  compare value by value) lies in a fixed band.  That count sets the cost
  of the check in non-abelian coordinates, and it ranges from 0 to over
  14,000 between draws.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Tuple

from oracle import Graph, OCycle, bitmask, nonzero_coords, topology_cycles

# sweep: one fixed graph size, three kinds of instance
SWEEP_N, SWEEP_M = 9, 16
SWEEP_S = 2  # |S1| = |S2| for the s1s2 encoding
SWEEP_KINDS = ("z2z3", "odd", "s1s2")
SWEEP_SLOTS_PER_KIND = 50
SWEEP_BANDS = {"z2z3": (26, 30), "odd": (42, 46), "s1s2": (63, 67)}

# census: the labelled 3-wall
CENSUS_R = 3
CENSUS_GROUPS = ("sum(z2,z3)", "sum(z5,za2)", "sum(z,free2)", "sum(free2,free2)")
CENSUS_SLOTS_PER_GROUP = 10
CENSUS_PAIR_BAND = (60, 200)

# obstruction: six h=2 two-linkage instances per group draw, plus Escher
OBSTRUCTION_H = 2
ESCHER_H = 3
LINKAGE_PAIRS = tuple(itertools.permutations(("series", "nested", "crossing"), 2))
OBSTRUCTION_GROUPS = ("z2", "z3", "z4", "z5", "z6", "z", "za2")
OBSTRUCTION_DRAWS = 6


# The tail percentile of each workload, and the fewest passes a run makes,
# so that every run has at least ten samples beyond that percentile.
TAIL = {"sweep": (90, 2), "census": (85, 2), "obstruction": (90, 4)}


# ---------------------------------------------------------------------------
# sweep


def _connected(n: int, pairs) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[find(u)] = find(v)
    return len({find(x) for x in range(n)}) == 1


def _random_topology(rng: random.Random) -> List[Tuple[int, int]]:
    all_pairs = list(itertools.combinations(range(SWEEP_N), 2))
    while True:
        chosen = sorted(rng.sample(all_pairs, SWEEP_M))
        if _connected(SWEEP_N, chosen):
            return chosen


def _cycles_of(pairs) -> List[OCycle]:
    return topology_cycles(range(SWEEP_N), {frozenset(p): i for i, p in enumerate(pairs)})


def _sweep_slot(rng: random.Random, kind: str) -> dict:
    lo, hi = SWEEP_BANDS[kind]
    while True:
        pairs = _random_topology(rng)
        cycles = _cycles_of(pairs)
        if kind == "z2z3":
            labels = [[rng.randrange(2), rng.randrange(3)] for _ in pairs]
            graph = Graph(
                ("sum", ("zn", 2), ("zn", 3)),
                frozenset(range(SWEEP_N)),
                {i: p for i, p in enumerate(pairs)},
                {i: tuple(lab) for i, lab in enumerate(labels)},
            )
            count = sum(all(nonzero_coords(graph, c)) for c in cycles)
            if lo <= count <= hi:
                return {"kind": kind, "edges": pairs, "labels": labels}
        elif kind == "odd":
            count = sum(len(c.edges) % 2 for c in cycles)
            if lo <= count <= hi:
                return {"kind": kind, "edges": pairs}
        else:
            # a few vertex-set draws per topology before drawing a new one
            for _ in range(4):
                s1 = sorted(rng.sample(range(SWEEP_N), SWEEP_S))
                s2 = sorted(rng.sample(range(SWEEP_N), SWEEP_S))
                count = sum(
                    bool(c.vertex_set & set(s1)) and bool(c.vertex_set & set(s2))
                    for c in cycles
                )
                if lo <= count <= hi:
                    return {"kind": kind, "edges": pairs, "s1": s1, "s2": s2}


def sweep_plan(seed: int) -> dict:
    rng = random.Random(seed)
    slots = []
    for _ in range(SWEEP_SLOTS_PER_KIND):
        for kind in SWEEP_KINDS:
            slots.append(_sweep_slot(rng, kind))
    return {"workload": "sweep", "min_passes": TAIL["sweep"][1], "n": SWEEP_N, "slots": slots}


# ---------------------------------------------------------------------------
# census


def wall_pairs(r: int) -> List[Tuple[int, int]]:
    """Edges of the elementary r-wall as vertex pairs, vertex (x, y) of the
    2(r+1) x (r+1) grid numbered y * 2(r+1) + x: the grid with every other
    vertical edge, minus the two vertices left with degree one."""
    width, height = 2 * (r + 1), r + 1
    arcs = [((x, y), (x + 1, y)) for y in range(height) for x in range(width - 1)]
    arcs += [
        ((x, y), (x, y + 1))
        for y in range(height - 1)
        for x in range(width)
        if (x + y) % 2 == 1
    ]
    degree: Dict[Tuple[int, int], int] = {}
    for a, b in arcs:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    return [
        (a[1] * width + a[0], b[1] * width + b[0])
        for a, b in arcs
        if degree[a] > 1 and degree[b] > 1
    ]


def _label(rng: random.Random, kind: str):
    if kind.startswith("free"):
        word: list = []
        for _ in range(rng.randint(0, 2)):
            x = rng.choice((1, -1, 2, -2))
            if word and word[-1] == -x:
                word.pop()
            else:
                word.append(x)
        return word
    if kind.startswith("za"):
        return [rng.randint(-2, 2) for _ in range(int(kind[2:]))]
    if kind == "z":
        return str(rng.randint(-3, 3))
    return rng.randrange(int(kind[1:]))


def _free_values(cycles: List[OCycle], ends, words) -> List[tuple]:
    """Reduced free-group value of each cycle for one coordinate's labels."""
    inverse = [tuple(-x for x in reversed(w)) for w in words]
    out = []
    for c in cycles:
        k = len(c.vertices)
        acc: list = []
        for i, e in enumerate(c.edges):
            step = words[e] if ends[e][1] == c.vertices[(i + 1) % k] else inverse[e]
            for x in step:
                if acc and acc[-1] == -x:
                    acc.pop()
                else:
                    acc.append(x)
        out.append(tuple(acc))
    return out


def _candidate_pairs(cycles: List[OCycle], masks, ends, labels, cap: int) -> int:
    """For `sum(free2,free2)` labels: pairs of cycles non-zero in a
    coordinate that share an edge, share only edges lying on zero cycles
    of that coordinate, and meet in a vertex.  Counting stops above `cap`."""
    total = 0
    for coord in (0, 1):
        values = _free_values(cycles, ends, [lab[coord] for lab in labels])
        zero_mask, hot = 0, []
        for (emask, vmask), value in zip(masks, values):
            if value:
                hot.append((emask, vmask))
            else:
                zero_mask |= emask
        # a candidate pair shares at least one zero edge
        by_edge: Dict[int, List[int]] = {}
        for k, (emask, _) in enumerate(hot):
            common = emask & zero_mask
            while common:
                low = common & -common
                by_edge.setdefault(low.bit_length() - 1, []).append(k)
                common ^= low
        seen = set()
        for members in by_edge.values():
            for a in range(len(members)):
                ea, va = hot[members[a]]
                for b in members[a + 1:]:
                    if (members[a], b) in seen:
                        continue
                    seen.add((members[a], b))
                    eb, vb = hot[b]
                    shared = ea & eb
                    if not shared & ~zero_mask and va & vb:
                        total += 1
                        if total > cap:
                            return total
    return total


def _census_slot(rng, group: str, pairs, cycles, masks) -> dict:
    kinds = group[4:-1].split(",")
    while True:
        labels = [[_label(rng, kinds[0]), _label(rng, kinds[1])] for _ in pairs]
        if group != "sum(free2,free2)":
            return {"group": group, "labels": labels}
        lo, hi = CENSUS_PAIR_BAND
        if lo <= _candidate_pairs(cycles, masks, pairs, labels, hi) <= hi:
            return {"group": group, "labels": labels}


def census_plan(seed: int) -> dict:
    rng = random.Random(seed)
    pairs = wall_pairs(CENSUS_R)
    cycles = topology_cycles({v for p in pairs for v in p}, {frozenset(p): i for i, p in enumerate(pairs)})
    masks = [(bitmask(c.edges), bitmask(c.vertices)) for c in cycles]
    slots = []
    for _ in range(CENSUS_SLOTS_PER_GROUP):
        for group in CENSUS_GROUPS:
            slots.append(_census_slot(rng, group, pairs, cycles, masks))
    return {"workload": "census", "min_passes": TAIL["census"][1], "r": CENSUS_R, "edges": pairs, "slots": slots}


# ---------------------------------------------------------------------------
# obstruction


def obstruction_plan(seed: int) -> dict:
    rng = random.Random(seed)
    slots = []
    for _ in range(OBSTRUCTION_DRAWS):
        g1, g2 = rng.choice(OBSTRUCTION_GROUPS), rng.choice(OBSTRUCTION_GROUPS)
        for p, q in LINKAGE_PAIRS:
            slots.append(
                {"kind": "linkage", "p": p, "q": q, "groups": f"{g1},{g2}", "seed": rng.randrange(2**31)}
            )
        slots.append({"kind": "escher"})
    return {
        "workload": "obstruction",
        "min_passes": TAIL["obstruction"][1],
        "h": OBSTRUCTION_H,
        "escher_h": ESCHER_H,
        "slots": slots,
    }


PLANS = {"sweep": sweep_plan, "census": census_plan, "obstruction": obstruction_plan}
