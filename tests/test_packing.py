import functools
import itertools
import operator
import random
from collections import Counter

import networkx as nx
import pytest

from nonzero_cycles import groups, packing
from nonzero_cycles.cycles import LIMIT_ENV_VAR, EnumerationLimitError, _vertex_bits, enumerate_cycles
from nonzero_cycles.graphs import Edge, LabeledGraph, Walk, walk_value
from nonzero_cycles.obstructions import escher_wall
from nonzero_cycles.packing import (
    _exchange_families,
    _mask_vertices,
    _max_disjoint,
    _min_hitting_set,
    _most_frequent_bit,
    a_path_pack_and_cover,
    enumerate_nonzero_a_paths,
    missed_cycle,
    pack_and_cover,
    verify_packing,
    verify_transversal,
)

ZZ = groups.direct_sum(groups.cyclic(3), groups.cyclic(3))
Z3 = groups.cyclic(3)


def max_disjoint(vertex_sets, max_use, cover=None):
    """`_max_disjoint` over vertex sets, read through `_vertex_bits`."""
    bit = _vertex_bits(set().union(*vertex_sets))
    masks = [sum(map(bit.__getitem__, s)) for s in vertex_sets]
    xmask = None if cover is None else sum(b for v, b in bit.items() if v in cover)
    return _max_disjoint(masks, max_use, xmask)


def min_hitting_set(sets, at_least=0):
    """`_min_hitting_set` over vertex sets, read through `_vertex_bits`."""
    bit = _vertex_bits(set().union(*sets))
    return _mask_vertices(_min_hitting_set([sum(map(bit.__getitem__, s)) for s in sets], at_least), bit)


def random_graph(desc, rng, n_max=7, m_max=11):
    n = rng.randint(2, n_max)
    m = rng.randint(1, m_max)
    edges = [
        Edge(i, rng.randrange(n), rng.randrange(n), groups.random_element(desc, rng))
        for i in range(m)
    ]
    return LabeledGraph(desc, range(n), edges)


def brute_force_nu(graph, max_use):
    cycles = [c for c in enumerate_cycles(graph) if c.doubly_nonzero]
    best = 0
    for k in range(len(cycles), 0, -1):
        for combo in itertools.combinations(cycles, k):
            usage = {}
            ok = True
            for c in combo:
                for v in c.rep.vertex_set():
                    usage[v] = usage.get(v, 0) + 1
                    if usage[v] > max_use:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return k
    return best


def lexmin_max_disjoint(vertex_sets, max_use):
    """The lexicographically smallest index tuple of maximum size whose
    vertex sets use no vertex more than `max_use` times."""
    for k in range(len(vertex_sets), 0, -1):
        for combo in itertools.combinations(range(len(vertex_sets)), k):
            usage = Counter(v for i in combo for v in vertex_sets[i])
            if all(n <= max_use for n in usage.values()):
                return list(combo)
    return []


def brute_force_tau(graph):
    cycles = [c.rep.vertex_set() for c in enumerate_cycles(graph) if c.doubly_nonzero]
    if not cycles:
        return 0
    universe = sorted(set().union(*cycles))
    for k in range(0, len(universe) + 1):
        for combo in itertools.combinations(universe, k):
            s = set(combo)
            if all(s & c for c in cycles):
                return k
    return len(universe)


def brute_force_hitting_number(sets):
    """The fewest vertices meeting every set, by trying every vertex subset
    of the union in order of size."""
    universe = sorted(set().union(*sets)) if sets else []
    for k in range(len(universe) + 1):
        for combo in itertools.combinations(universe, k):
            if all(s.intersection(combo) for s in sets):
                return k
    raise AssertionError("the union meets every set")


def test_pack_and_cover_matches_brute_force():
    # sum(z3,z3), then groups whose raw values are pairs, words and vectors:
    # a free summand, two free summands, and z2 + z4 + z as a quotient
    rng = random.Random(21)
    texts = ("sum(z,free2)", "sum(free2,free2)", "q(2,4,0)")
    for desc, count in [(ZZ, 60)] + [(groups.parse_descriptor(text), 25) for text in texts]:
        done = hot = 0
        while done < count:
            g = random_graph(desc, rng)
            cycles = [c for c in enumerate_cycles(g) if c.doubly_nonzero]
            if len(cycles) > 12:
                continue
            done += 1
            hot += bool(cycles)
            report = pack_and_cover(g)
            assert report.nu == brute_force_nu(g, 1)
            assert report.nu_half == brute_force_nu(g, 2)
            assert report.tau == brute_force_tau(g)
            # the witnesses are the lexicographically first optima over the
            # cycles in enumeration order
            vertex_sets = [c.rep.vertex_set() for c in cycles]
            for found, max_use in ((report.packing, 1), (report.half_packing, 2)):
                assert found == tuple(cycles[i].edges for i in lexmin_max_disjoint(vertex_sets, max_use))
            assert verify_packing(g, report.packing, max_use=1)
            assert verify_packing(g, report.half_packing, max_use=2)
            assert verify_transversal(g, report.transversal)
            # structural relations
            assert report.nu <= report.nu_half
            assert report.nu <= report.tau
        assert hot > count // 3


def test_missed_cycle_is_the_first_surviving_doubly_nonzero_cycle():
    rng = random.Random(33)
    missed = 0
    for _ in range(40):
        g = random_graph(ZZ, rng)
        for removed in (frozenset(), frozenset(rng.sample(sorted(g.vertices), 1))):
            survivors = [c for c in enumerate_cycles(g.without_vertices(removed)) if c.doubly_nonzero]
            assert missed_cycle(g, removed) == (survivors[0].rep.edges if survivors else None)
            assert verify_transversal(g, removed) == (not survivors)
            missed += bool(survivors)
    assert 10 < missed < 70


def test_pack_and_cover_empty():
    g = LabeledGraph(ZZ, [0, 1], [Edge(0, 0, 1, groups.identity(ZZ))])
    report = pack_and_cover(g)
    assert (report.nu, report.nu_half, report.tau) == (0, 0, 0)


def test_pack_deterministic():
    rng = random.Random(5)
    g = random_graph(ZZ, rng)
    a = pack_and_cover(g)
    b = pack_and_cover(g)
    assert a == b


def brute_force_apath_nu(paths):
    best = 0
    for k in range(len(paths), 0, -1):
        for combo in itertools.combinations(paths, k):
            used = set()
            ok = True
            for p in combo:
                vs = set(p.vertices)
                if used & vs:
                    ok = False
                    break
                used |= vs
            if ok:
                return k
    return best


def test_a_paths_enumeration_and_duality():
    rng = random.Random(8)
    done = 0
    while done < 60:
        g = random_graph(Z3, rng, n_max=7, m_max=10)
        terms = sorted(rng.sample(sorted(g.vertices), min(len(g.vertices), rng.randint(2, 4))))
        paths = enumerate_nonzero_a_paths(g, terms)
        if len(paths) > 14:
            continue
        done += 1
        for p in paths:
            assert p.start in terms and p.end in terms and p.start != p.end
            assert not any(v in terms for v in p.vertices[1:-1])
            assert p.is_path()
        report = a_path_pack_and_cover(g, terms)
        assert report.nu == brute_force_apath_nu(paths)
        # min-max duality: covering needs at most twice the packing number
        assert report.duality_ok
        rest = g.without_vertices(report.cover)
        surviving_terms = [t for t in terms if t in rest.vertices]
        assert not enumerate_nonzero_a_paths(rest, surviving_terms)


def reference_a_paths(graph, terminals):
    """The A-path DFS `enumerate_nonzero_a_paths` ran on its own before it
    shared the cycle DFS (without its limit): every path from each start
    terminal, kept from its smaller end, keyed by edge set and ends."""
    a_set = set(terminals)
    adjacency = graph.adjacency()
    bit = {v: 1 << i for i, v in enumerate(sorted(graph.vertices))}
    found = {}
    for start in sorted(a_set):
        stack = [(start, (start,), (), bit[start])]
        while stack:
            v, verts, eids, used = stack.pop()
            for eid, w in adjacency[v]:
                if used & bit[w]:
                    continue
                if w in a_set:
                    if w > start:
                        key = (frozenset(eids + (eid,)), frozenset((start, w)))
                        if key not in found:
                            found[key] = Walk(verts + (w,), eids + (eid,))
                    continue
                stack.append((w, verts + (w,), eids + (eid,), used | bit[w]))
    hot = [w for w in found.values() if not groups.is_zero(walk_value(graph, w))]
    hot.sort(key=lambda w: (len(w.edges), tuple(sorted(w.edges))))
    return hot


def networkx_a_path_edge_sets(graph, terminals):
    """Edge sets of the nonzero paths between two terminals with no
    terminal inside, from `networkx.all_simple_edge_paths`."""
    mg = nx.MultiGraph()
    mg.add_nodes_from(graph.vertices)
    for e in graph.edges.values():
        mg.add_edge(e.tail, e.head, key=e.id)
    out = set()
    for s, t in itertools.combinations(sorted(set(terminals)), 2):
        for path in nx.all_simple_edge_paths(mg, s, t):
            if any(v in terminals for _, v, _ in path[:-1]):
                continue
            walk = Walk((s,) + tuple(v for _, v, _ in path), tuple(k for _, _, k in path))
            if not groups.is_zero(walk_value(graph, walk)):
                out.add(frozenset(walk.edges))
    return out


# the enumeration keeps a path by the value its DFS folds, and
# `reference_a_paths` by `walk_value`, then `is_zero`
A_PATH_GROUPS = [Z3, groups.free_group(2), groups.direct_sum(groups.cyclic(2), groups.cyclic(3))] + [
    groups.parse_descriptor(text) for text in ("z", "z5", "za2", "q(2,4,0)", "sum(z,free2)", "sum(free2,free2)")
]


@pytest.mark.parametrize("desc", A_PATH_GROUPS, ids=str)
def test_a_paths_are_all_nonzero_a_paths_in_reference_order(desc):
    rng = random.Random(90)
    loops = parallel = found = 0
    for _ in range(70):
        n = rng.randint(2, 7)
        edges = []
        for i in range(rng.randint(1, 11)):
            if edges and rng.random() < 0.2:  # parallel to an earlier edge
                u, v = rng.choice(edges).tail, rng.choice(edges).head
            else:
                u, v = rng.randrange(n), rng.randrange(n)
            edges.append(Edge(i, u, v, groups.random_element(desc, rng, span=1)))
        g = LabeledGraph(desc, range(n), edges)
        loops += any(e.tail == e.head for e in edges)
        parallel += len({frozenset((e.tail, e.head)) for e in edges}) < len(edges)
        terms = rng.sample(range(n), min(n, rng.randint(2, 4)))
        paths = enumerate_nonzero_a_paths(g, terms)
        assert {w.edge_set() for w in paths} == networkx_a_path_edge_sets(g, terms)
        assert len(paths) == len({w.edge_set() for w in paths})
        assert paths == reference_a_paths(g, terms)
        found += len(paths)
    assert loops > 20 and parallel > 20 and found > 80


def random_family(rng):
    """Up to 12 vertex sets over a few vertices, with loops (one vertex) and
    sets that repeat an earlier one, as a second cycle through the same
    vertices would."""
    n = rng.randint(1, 8)
    vertex_sets = []
    for _ in range(rng.randint(0, 12)):
        if vertex_sets and rng.random() < 0.25:
            vertex_set = rng.choice(vertex_sets)
        else:
            size = min(n, rng.choice((1, 1, 2, 3, 4)))
            vertex_set = frozenset(rng.sample(range(n), size))
        vertex_sets.append(vertex_set)
    return vertex_sets


@pytest.mark.parametrize("max_use", [1, 2])
def test_max_disjoint_is_lexmin_optimum_on_random_families(max_use):
    rng = random.Random(40 + max_use)
    loops = shared = 0
    for _ in range(250):
        vertex_sets = random_family(rng)
        loops += any(len(vs) == 1 for vs in vertex_sets)
        shared += len(set(vertex_sets)) < len(vertex_sets)
        assert max_disjoint(vertex_sets, max_use) == lexmin_max_disjoint(vertex_sets, max_use)
    assert loops > 60 and shared > 60


@pytest.mark.parametrize("max_use", [1, 2])
def test_max_disjoint_is_lexmin_optimum_on_a_path_families(max_use):
    rng = random.Random(80 + max_use)
    done = 0
    while done < 40:
        g = random_graph(Z3, rng, n_max=7, m_max=10)
        terms = sorted(rng.sample(sorted(g.vertices), min(len(g.vertices), rng.randint(2, 4))))
        paths = enumerate_nonzero_a_paths(g, terms)
        if not paths or len(paths) > 12:
            continue
        done += 1
        vertex_sets = [frozenset(w.vertices) for w in paths]
        expected = lexmin_max_disjoint(vertex_sets, max_use)
        assert max_disjoint(vertex_sets, max_use) == expected
        if max_use == 1:
            report = a_path_pack_and_cover(g, terms)
            assert report.packing == tuple(paths[i] for i in expected)


def nested_family(rng):
    """Up to 11 vertex sets over at most 7 vertices, each a copy, a subset
    or a superset of an earlier set about half the time, so that chains of
    nested and equal sets are common."""
    n = rng.randint(1, 7)
    vertex_sets = []
    for _ in range(rng.randint(0, 11)):
        pick = rng.random()
        if vertex_sets and pick < 0.2:
            vertex_set = rng.choice(vertex_sets)
        elif vertex_sets and pick < 0.4:
            base = sorted(rng.choice(vertex_sets))
            vertex_set = frozenset(rng.sample(base, rng.randint(1, len(base))))
        elif vertex_sets and pick < 0.6:
            vertex_set = rng.choice(vertex_sets) | frozenset(rng.sample(range(n), rng.randint(1, n)))
        else:
            vertex_set = frozenset(rng.sample(range(n), rng.randint(1, min(n, 4))))
        vertex_sets.append(vertex_set)
    return vertex_sets


def exchange_family_reference(vertex_sets, max_use):
    """The indices of the sets C whose strictly smaller subsets, equal ones
    counted apart, are pairwise disjoint (`max_use=2`) or absent, by
    comparing every pair."""
    kept = []
    for i, c in enumerate(vertex_sets):
        inside = [d for d in vertex_sets if d < c]
        if not inside if max_use == 1 else all(not a & b for a, b in itertools.combinations(inside, 2)):
            kept.append(i)
    return kept


def exchange_family_earlier_reference(vertex_sets, max_use):
    """The indices of the sets C whose earlier strictly smaller subsets,
    equal ones counted apart, are pairwise disjoint (`max_use=2`) or absent,
    by comparing every pair."""
    kept = []
    for i, c in enumerate(vertex_sets):
        inside = [d for d in vertex_sets[:i] if d < c]
        if not inside if max_use == 1 else all(not a & b for a, b in itertools.combinations(inside, 2)):
            kept.append(i)
    return kept


def exchange_family_before_fusing(masks, max_use):
    """`_exchange_family` as one call built it for one `max_use`."""
    sizes = [m.bit_count() for m in masks]
    ranked = sorted(range(len(masks)), key=sizes.__getitem__)
    below = {}
    for r, i in enumerate(ranked):
        below.setdefault(sizes[i], r)
    small = below[sizes[ranked[-1]]] if masks else 0
    if not small:
        return list(range(len(masks)))
    classes = [(functools.reduce(operator.or_, (masks[i] for i in ranked[:small])), (1 << small) - 1)]
    for r in range(small):
        d, bit = masks[ranked[r]], 1 << r
        split = []
        for vertices, missing in classes:
            through = vertices & d
            if through:
                split.append((through, missing ^ bit))
            if through != vertices:
                split.append((vertices ^ through, missing))
        classes = split
    kept = []
    for i, c in enumerate(masks):
        inside = (1 << below[sizes[i]]) - 1
        outside = ~c
        for vertices, missing in classes:
            if not inside:
                break
            if vertices & outside:
                inside &= missing
        if inside and max_use == 2:
            used = 0
            while inside:
                r = inside & -inside
                m = masks[ranked[r.bit_length() - 1]]
                if m & used:
                    break
                used |= m
                inside ^= r
        if not inside:
            kept.append(i)
    return kept


def duplicate_family(rng):
    """Up to 14 vertex sets drawn with repetition from a pool of at most 4
    sets over at most 6 vertices."""
    n = rng.randint(1, 6)
    pool = [frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 4))]
    return [rng.choice(pool) for _ in range(rng.randint(0, 14))]


def test_exchange_families_equal_two_builds_before_fusing():
    rng = random.Random(26)
    differ = dropped = 0
    for draw in (nested_family, duplicate_family) * 300:
        vertex_sets = draw(rng)
        bit = _vertex_bits(set().union(*vertex_sets))
        masks = [sum(map(bit.__getitem__, s)) for s in vertex_sets]
        ones, twos = _exchange_families(masks)
        assert ones == exchange_family_earlier_reference(vertex_sets, 1)
        assert twos == exchange_family_earlier_reference(vertex_sets, 2)
        assert set(ones) <= set(twos)
        # sorted by size, as the package packs, a set inside another comes
        # earlier, and the family is the one built before the index order
        by_size = sorted(masks, key=int.bit_count)
        ones, twos = _exchange_families(by_size)
        assert ones == exchange_family_before_fusing(by_size, 1)
        assert twos == exchange_family_before_fusing(by_size, 2)
        differ += ones != twos
        dropped += len(twos) < len(masks)
    assert differ > 60 and dropped > 120


def test_mask_vertices_reads_the_set_bits_in_the_vertex_bit_order():
    rng = random.Random(5)
    for _ in range(200):
        vertices = rng.sample(range(-20, 200), rng.randint(1, 40))
        bit = _vertex_bits(vertices)
        chosen = frozenset(rng.sample(vertices, rng.randint(0, len(vertices))))
        assert _mask_vertices(sum(map(bit.__getitem__, chosen)), bit) == chosen


@pytest.mark.parametrize("max_use", [1, 2])
def test_exchange_family_matches_the_pairwise_reference(max_use):
    rng = random.Random(30 + max_use)
    dropped = equal = 0
    for _ in range(400):
        vertex_sets = nested_family(rng)
        bit = _vertex_bits(set().union(*vertex_sets))
        masks = [sum(map(bit.__getitem__, s)) for s in vertex_sets]
        assert _exchange_families(masks)[max_use - 1] == exchange_family_earlier_reference(vertex_sets, max_use)
        expected = exchange_family_reference(sorted(vertex_sets, key=len), max_use)
        assert _exchange_families(sorted(masks, key=int.bit_count))[max_use - 1] == expected
        dropped += len(expected) < len(vertex_sets)
        equal += len(set(vertex_sets)) < len(vertex_sets)
    assert dropped > 150 and equal > 150


@pytest.mark.parametrize("max_use", [1, 2])
def test_max_disjoint_is_lexmin_optimum_on_nested_families(max_use):
    # the size comes from the exchange family, the witness from every set
    rng = random.Random(50 + max_use)
    recovered = 0
    for _ in range(250):
        vertex_sets = nested_family(rng)
        expected = lexmin_max_disjoint(vertex_sets, max_use)
        assert max_disjoint(vertex_sets, max_use) == expected
        if vertex_sets:
            assert max_disjoint(vertex_sets, max_use, cover=min_hitting_set(vertex_sets)) == expected
            kept = set(exchange_family_reference(vertex_sets, max_use))
            recovered += not kept.issuperset(expected)
    assert recovered > 20  # the lexmin optimum often uses a set the family drops


@pytest.mark.parametrize(
    "vertex_sets, max_use, family, expected",
    [
        # {0, 1} holds {0}: the family drops it, yet the lexmin optimum is (0, 2)
        ([{0, 1}, {0}, {2}], 1, [1, 2], [0, 2]),
        # {0, 1} holds two equal sets {0}, which meet: dropped, yet in (0, 1, 3)
        ([{0, 1}, {0}, {0}, {2}], 2, [1, 2, 3], [0, 1, 3]),
    ],
)
def test_max_disjoint_recovers_a_lexmin_optimum_through_a_dropped_set(vertex_sets, max_use, family, expected):
    vertex_sets = [frozenset(s) for s in vertex_sets]
    assert exchange_family_reference(vertex_sets, max_use) == family
    assert lexmin_max_disjoint(vertex_sets, max_use) == expected
    assert max_disjoint(vertex_sets, max_use) == expected
    assert max_disjoint(vertex_sets, max_use, cover={0, 2}) == expected


def test_exchange_families_keep_a_set_whose_inner_sets_all_come_later():
    masks = [0b11, 0b01, 0b100]  # {0, 1}, {0}, {2}
    assert _exchange_families(masks) == ([0, 1, 2], [0, 1, 2])
    assert _exchange_families([0b11, 0b01, 0b01, 0b100])[1] == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "vertex_sets, max_use, expected", [([{0, 1}, {0}, {2}], 1, [0, 2]), ([{0, 1}, {0}, {0}, {2}], 2, [0, 1, 3])]
)
def test_max_disjoint_runs_one_search(monkeypatch, vertex_sets, max_use, expected):
    calls = []
    search = packing._packing_search
    monkeypatch.setattr(packing, "_packing_search", lambda *args: calls.append(args) or search(*args))
    assert max_disjoint([frozenset(s) for s in vertex_sets], max_use) == expected
    assert len(calls) == 1


def larger_hitting_set(vertex_sets, rng):
    """A hitting set with a vertex more than the minimum, where the union
    has one to spare, else the minimum itself."""
    least = min_hitting_set(vertex_sets)
    spare = sorted(set().union(*vertex_sets) - least)
    return least | set(rng.sample(spare, min(len(spare), rng.randint(1, 3))))


@pytest.mark.parametrize("max_use", [1, 2])
def test_max_disjoint_with_a_cover_is_the_same_lexmin_optimum(max_use):
    # the cover bound cuts only branches that cannot beat the best, so the
    # answer is the one without it, for a minimum, a larger or the whole
    # vertex set as the cover
    rng = random.Random(60 + max_use)
    capped = 0
    for _ in range(250):
        vertex_sets = random_family(rng)
        expected = lexmin_max_disjoint(vertex_sets, max_use)
        assert max_disjoint(vertex_sets, max_use) == expected
        union = set().union(*vertex_sets)
        for cover in (min_hitting_set(vertex_sets), larger_hitting_set(vertex_sets, rng), union):
            assert max_disjoint(vertex_sets, max_use, cover=cover) == expected
        capped += len(expected) == max_use * len(min_hitting_set(vertex_sets)) > 0
    assert capped > 30  # the search often stops at the cover's capacity


@pytest.mark.parametrize("max_use", [1, 2])
def test_max_disjoint_with_a_cover_on_the_cycles_of_random_graphs(max_use):
    rng = random.Random(70 + max_use)
    done = 0
    while done < 40:
        g = random_graph(ZZ, rng)
        vertex_sets = [c.rep.vertex_set() for c in enumerate_cycles(g) if c.doubly_nonzero]
        if not vertex_sets or len(vertex_sets) > 12:
            continue
        done += 1
        cover = min_hitting_set(vertex_sets)
        assert max_disjoint(vertex_sets, max_use, cover=cover) == lexmin_max_disjoint(vertex_sets, max_use)


def test_max_disjoint_rejects_a_cover_that_misses_a_set():
    vertex_sets = [frozenset({0, 1}), frozenset({2}), frozenset({1, 3})]
    for cover in ({1}, {0, 3}, set(), {7}):
        with pytest.raises(ValueError, match="cover must meet every vertex set"):
            max_disjoint(vertex_sets, 2, cover=cover)
    assert max_disjoint(vertex_sets, 2, cover={1, 2, 7}) == [0, 1, 2]


def test_max_disjoint_rejects_empty_vertex_sets_and_other_use_limits():
    with pytest.raises(ValueError):
        max_disjoint([frozenset({0}), frozenset()], 1)
    with pytest.raises(ValueError):
        max_disjoint([frozenset({0})], 3)


def spread_masks(vertex_sets, rng):
    """The vertex sets as masks whose bits keep the order of the vertices
    but skip a few positions, as the graph-wide bits of
    `cycles.doubly_nonzero_masks` do around vertices on no set; and the
    vertex of each bit position."""
    order = sorted(set().union(*vertex_sets))
    position, at = {}, rng.randint(0, 3)
    for v in order:
        position[v] = at
        at += rng.randint(1, 3)
    masks = [sum(1 << position[v] for v in s) for s in vertex_sets]
    return masks, {p: v for v, p in position.items()}


@pytest.mark.parametrize("max_use", [1, 2])
def test_solvers_read_masks_with_unused_bits_as_vertex_sets(max_use):
    # capacity comes from the union of the masks, and ties and pivots
    # follow the bit order, so bits no set uses change no answer
    rng = random.Random(90 + max_use)
    for _ in range(250):
        vertex_sets = random_family(rng)
        masks, vertex = spread_masks(vertex_sets, rng)
        hit = _min_hitting_set(masks)
        assert frozenset(vertex[p] for p in vertex if hit >> p & 1) == min_hitting_set(vertex_sets)
        expected = max_disjoint(vertex_sets, max_use)
        assert _max_disjoint(masks, max_use) == expected
        assert _max_disjoint(masks, max_use, cover=hit) == expected
        assert _max_disjoint(masks, max_use, cover=-1) == expected  # every bit, used or not


def test_solvers_reject_an_empty_mask():
    for solve in (lambda m: _max_disjoint(m, 1), _min_hitting_set):
        with pytest.raises(ValueError, match="every vertex set must be non-empty"):
            solve([0b11, 0])


def test_most_frequent_bit_is_the_lowest_of_the_most_common():
    rng = random.Random(12)
    for _ in range(300):
        masks = [rng.randrange(1, 1 << rng.randint(1, 70)) for _ in range(rng.randint(1, 40))]
        counts = Counter(b for m in masks for b in range(m.bit_length()) if m >> b & 1)
        most = max(counts.values())
        assert _most_frequent_bit(masks) == 1 << min(b for b, n in counts.items() if n == most)


def test_escher_wall_h3_packing_numbers():
    # nu = 1, nu_half = 5 and tau = 3 over the 1,016 doubly nonzero cycles,
    # cross-checked with an integer program (scipy.optimize.milp).
    g = escher_wall(3)
    report = pack_and_cover(g)
    assert (report.nu, report.nu_half, report.tau) == (1, 5, 3)
    assert verify_packing(g, report.half_packing, max_use=2)
    assert verify_packing(g, report.packing, max_use=1)
    assert verify_transversal(g, report.transversal)


def test_max_disjoint_takes_1200_disjoint_items_without_recursion():
    vertex_sets = [frozenset({v}) for v in range(1200)]
    assert max_disjoint(vertex_sets, 1) == list(range(1200))


def test_limit_variable_caps_a_path_enumeration(monkeypatch):
    # three parallel edges between two terminals, with labels 1, 2, 1 in Z3:
    # three nonzero A-paths
    g = LabeledGraph(Z3, [0, 1], [Edge(i, 0, 1, groups.element(Z3, x)) for i, x in enumerate((1, 2, 1))])
    assert len(enumerate_nonzero_a_paths(g, [0, 1])) == 3
    monkeypatch.setenv(LIMIT_ENV_VAR, "2")
    with pytest.raises(EnumerationLimitError, match=f"more than 2 A-paths; raise {LIMIT_ENV_VAR}"):
        enumerate_nonzero_a_paths(g, [0, 1])
    assert len(enumerate_nonzero_a_paths(g, [0, 1], limit=3)) == 3


def reference_min_hitting_set(sets):
    """The recursive frozenset search `_min_hitting_set` replaced: the same
    greedy incumbent, pivot and branch order, with no caller's bound."""
    if not sets:
        return frozenset()
    # greedy upper bound
    remaining = list(sets)
    greedy: set = set()
    while remaining:
        counts = {}
        for s in remaining:
            for v in s:
                counts[v] = counts.get(v, 0) + 1
        v = min(counts, key=lambda x: (-counts[x], x))
        greedy.add(v)
        remaining = [s for s in remaining if v not in s]
    best = frozenset(greedy)

    def search(uncovered, chosen):
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = frozenset(chosen)
            return
        # lower bound: disjoint uncovered sets each need a separate vertex
        lb = 0
        used: set = set()
        for s in uncovered:
            if not (s & used):
                lb += 1
                used |= s
        if len(chosen) + lb >= len(best):
            return
        pivot = min(uncovered, key=lambda s: (len(s), tuple(sorted(s))))
        for v in sorted(pivot):
            chosen.add(v)
            search([s for s in uncovered if v not in s], chosen)
            chosen.discard(v)

    search(list(sets), set())
    return best


@pytest.mark.parametrize("large", [False, True])
def test_min_hitting_set_is_a_minimum_on_random_families(large):
    # small sets over a few vertices, and sets of 8-16 of 48 vertices, the
    # size of witness cycles on walls, with minima of 1 to 4
    rng = random.Random(60 + large)
    for _ in range(120 if large else 300):
        if large:
            sets = [frozenset(rng.sample(range(48), rng.randint(8, 16))) for _ in range(rng.randint(1, 16))]
        else:
            n = rng.randint(1, 9)
            sets = [frozenset(rng.sample(range(n), rng.randint(1, min(n, 4)))) for _ in range(rng.randint(0, 12))]
        hit = min_hitting_set(sets)
        assert all(s & hit for s in sets)
        assert hit <= set().union(*sets)
        assert len(hit) == brute_force_hitting_number(sets)
        assert min_hitting_set(list(sets)) == hit
        # the set the old search returns, whatever valid lower bound it is told
        assert hit == reference_min_hitting_set(sets)
        for at_least in range(len(hit) + 1):
            assert min_hitting_set(sets, at_least) == hit


def test_min_hitting_set_goes_on_past_a_larger_set_to_the_minimum():
    # the greedy set is {0, 1, 2, 3}: decoy d meets 2 * (16, 8, 4, 2)[d] sets,
    # more than 4 or 5 still meets at each step; the first branch then finds
    # {0, 4, 5}, one above the minimum {4, 5}, which only later branches find
    sets = [frozenset({d, end}) for d, n in enumerate((16, 8, 4, 2)) for _ in range(n) for end in (4, 5)]
    assert reference_min_hitting_set(sets) == frozenset({4, 5})
    for at_least in range(3):
        assert min_hitting_set(sets, at_least) == frozenset({4, 5})
