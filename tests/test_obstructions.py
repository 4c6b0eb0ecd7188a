"""Tests for Escher walls and the doubly-labeled wall obstructions."""

import dataclasses
import functools
import itertools
import math
import random
from collections import deque

import networkx as nx
import pytest

from nonzero_cycles import cycles, groups, obstructions, packing
from nonzero_cycles.graphs import Edge, LabeledGraph, Walk, decode_graph, encode_graph
from nonzero_cycles.linkage import (
    LINKAGE_TYPES,
    LinkPath,
    crosses,
    linkage_type,
    satisfies_interval_clause,
    satisfies_separation_clause,
)
from nonzero_cycles.obstructions import (
    ObstructionFormatError,
    ObstructionSpec,
    WallInstance,
    _assemble_cycle,
    _attach,
    _bfs_walk,
    _boundary_positions,
    _families,
    _find_cycle,
    _find_cycles,
    _half_integral_family,
    _outer_face_route,
    _reconstruct,
    _route_chords,
    _row_slots,
    _Shape,
    _witness,
    build_obstruction,
    build_obstruction_instance,
    escher_instance,
    escher_wall,
    verify_instance,
    verify_obstruction,
)
from nonzero_cycles.walls import _elementary, elementary_wall
from test_packing import brute_force_hitting_number, max_disjoint, min_hitting_set, reference_min_hitting_set

Z2 = groups.cyclic(2)
Z3 = groups.cyclic(3)
ONE3 = groups.element(Z3, 1)
TYPE_PAIRS = list(itertools.permutations(LINKAGE_TYPES, 2))


def simple_spec(h, p_type, q_type, p_values=None, q_values=None):
    return ObstructionSpec(
        h=h,
        p_type=p_type,
        q_type=q_type,
        gamma1=Z3,
        gamma2=Z3,
        p_values=p_values or (ONE3,) * h,
        q_values=q_values or (ONE3,) * h,
    )


def to_networkx(graph: LabeledGraph) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(graph.vertices)
    for eid, e in graph.edges.items():
        g.add_edge(e.tail, e.head, key=eid)
    return g


# ---------------------------------------------------------------------------
# Escher walls


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_escher_wall_shape(h):
    inst = escher_instance(h)
    assert inst.wall.r == h
    assert len(inst.attachments) == h
    # one end in the i-th top brick, the other in the (h-i+1)-th bottom brick
    top = _row_slots(inst.wall, 0)
    bottom = _row_slots(inst.wall, h)
    for i, att in enumerate(sorted(inst.attachments, key=lambda a: a.name)):
        assert {att.walk.start, att.walk.end} == {top[i], bottom[h - 1 - i]}
    # attachments are vertex-disjoint two-edge paths
    interiors = [v for a in inst.attachments for a_v in [a.interior] for v in a_v]
    assert len(set(interiors)) == h
    # the wall part is bipartite, and each attachment breaks parity
    assert nx.is_bipartite(to_networkx(inst.wall.graph))
    for att in inst.attachments:
        g1, g2 = cycles.coordinate_values(inst.graph, att.walk)
        assert not groups.is_zero(g1)


def test_escher_wall_rejects_zero_height():
    with pytest.raises(ObstructionFormatError):
        escher_wall(0)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_escher_wall_matches_brute_force(h):
    g = escher_wall(h)
    full = packing.pack_and_cover(g)
    rep = verify_instance(escher_instance(h), h)
    assert rep["nu"] == full.nu == 1
    assert rep["tau"] == full.tau == h
    # the chord solver's nu_half packs the routed cycles collected until
    # there are 32, a lower bound (4 against the exact 5 at h=3)
    assert rep["nu_half"] <= full.nu_half


def test_escher_wall_height_three_packing_and_cover():
    rep = verify_instance(escher_instance(3), 3)
    assert rep["nu"] == 1
    assert rep["tau"] >= 3


def test_escher_wall_every_odd_cycle_uses_an_attachment():
    inst = escher_instance(2)
    interiors = {v for a in inst.attachments for v in a.interior}
    for c in cycles.enumerate_cycles(inst.graph):
        if c.doubly_nonzero:
            assert set(c.rep.vertices) & interiors


def test_escher_wall_alone_has_no_odd_cycle():
    wall = _elementary(3, Z2)
    assert not [c for c in cycles.enumerate_cycles(wall.graph) if c.doubly_nonzero]


# ---------------------------------------------------------------------------
# obstruction construction


def test_build_obstruction_rejects_equal_types():
    with pytest.raises(ObstructionFormatError):
        build_obstruction(simple_spec(1, "series", "series"))


def test_build_obstruction_rejects_bad_values():
    zero = groups.identity(Z3)
    with pytest.raises(ObstructionFormatError):
        build_obstruction(simple_spec(1, "series", "nested", p_values=(zero,)))
    with pytest.raises(ObstructionFormatError):
        build_obstruction(simple_spec(2, "series", "nested", p_values=(ONE3,)))
    two = groups.element(Z3, 2)
    with pytest.raises(ObstructionFormatError):
        # a nested linkage must carry one common value
        build_obstruction(simple_spec(2, "nested", "series", p_values=(ONE3, two)))
    with pytest.raises(ObstructionFormatError):
        build_obstruction(simple_spec(0, "series", "nested", p_values=(), q_values=()))


@pytest.mark.parametrize("p_type,q_type", TYPE_PAIRS)
def test_build_obstruction_structure(p_type, q_type):
    h = 2
    inst = build_obstruction_instance(simple_spec(h, p_type, q_type))
    wall = inst.wall
    assert wall.r == 4 * h
    # edge-wise decomposition into wall and the two linkages
    wall_edges = set(wall.graph.edge_ids())
    att_edges = [set(a.walk.edges) for a in inst.attachments]
    all_edges = set(inst.graph.edge_ids())
    assert set().union(wall_edges, *att_edges) == all_edges
    assert sum(len(s) for s in att_edges) + len(wall_edges) == len(all_edges)
    # the wall is null-labeled
    ident = groups.identity(inst.graph.descriptor)
    assert all(wall.graph.edge(e).label == ident for e in wall_edges)
    # linkage values live in exactly one coordinate
    for att in inst.attachments:
        g1, g2 = cycles.coordinate_values(inst.graph, att.walk)
        if att.kind == "P":
            assert not groups.is_zero(g1) and groups.is_zero(g2)
        else:
            assert groups.is_zero(g1) and not groups.is_zero(g2)
    # endpoints: degree-2 top-row non-corner wall vertices, one per brick
    top = set(wall.horizontal[0].vertices)
    endpoints = [v for a in inst.attachments for v in (a.left, a.right)]
    assert len(set(endpoints)) == 4 * h
    for v in endpoints:
        assert v in top and v not in wall.corners
        assert wall.graph.degree(v) == 2
    for brick in wall.bricks:
        assert len(brick.vertex_set() & set(endpoints)) <= 1
    # the union of the linkages is a 2h-linkage: disjoint simple paths
    seen = set()
    for a in inst.attachments:
        assert a.walk.is_path()
        assert not (set(a.walk.vertices) & seen)
        seen |= set(a.walk.vertices)


def linkage_paths(inst, kind):
    """The attachments of one kind as paths between boundary positions."""
    return [LinkPath(a.left_pos, a.right_pos) for a in inst.attachments if a.kind == kind]


@pytest.mark.parametrize("p_type,q_type", TYPE_PAIRS)
def test_build_obstruction_interval_clause(p_type, q_type):
    for h in range(1, 7):
        inst = build_obstruction_instance(simple_spec(h, p_type, q_type))
        p = [a for a in inst.attachments if a.kind == "P"]
        q = [a for a in inst.attachments if a.kind == "Q"]
        p_range = (min(a.left_pos for a in p), max(a.right_pos for a in p))
        q_range = (min(a.left_pos for a in q), max(a.right_pos for a in q))
        disjoint = p_range[1] < q_range[0] or q_range[1] < p_range[0]
        if "series" in (p_type, q_type):
            # disjoint intervals with the first linkage strictly left
            assert disjoint and p_range[1] < q_range[0]
        else:
            # interleaved: all left ends of P, then of Q, then the right ends
            assert not disjoint
            assert max(a.left_pos for a in p) < min(a.left_pos for a in q)
            assert max(a.left_pos for a in q) < min(a.right_pos for a in p)
            assert max(a.right_pos for a in p) < min(a.right_pos for a in q)
        # at h = 1 a single path is "series" by convention, so the linkage
        # model's clauses speak about the pair only from h = 2 on
        if h >= 2:
            ps, qs = linkage_paths(inst, "P"), linkage_paths(inst, "Q")
            assert satisfies_interval_clause(ps, qs)
            assert satisfies_separation_clause(ps, qs, p_type, q_type)


def test_build_obstruction_interval_types():
    # the attachment intervals realize the requested relation
    for h in range(2, 7):
        for p_type, q_type in TYPE_PAIRS:
            inst = build_obstruction_instance(simple_spec(h, p_type, q_type))
            assert linkage_type(linkage_paths(inst, "P")) == p_type
            assert linkage_type(linkage_paths(inst, "Q")) == q_type


def reference_row_slots(wall, row_index):
    """The brick scan `_row_slots` used to be: the one nail of each brick
    along the outer row, bricks ordered by their leftmost x."""
    row = set(wall.horizontal[row_index].vertices)
    nails = set(wall.nails)
    slots = []
    row_bricks = [b for b in wall.bricks if set(b.vertices) & row]
    row_bricks.sort(key=lambda b: min(wall.coords[v][0] for v in b.vertex_set()))
    for brick in row_bricks:
        cand = sorted(brick.vertex_set() & row & nails, key=lambda v: wall.coords[v])
        assert len(cand) == 1
        slots.append(cand[0])
    return slots


@pytest.mark.parametrize("r", range(1, 13))
def test_row_slots_match_the_brick_scan(r):
    wall = _elementary(r)
    for row in (0, r):
        assert _row_slots(wall, row) == reference_row_slots(wall, row)


def test_nested_series_obstruction_is_planar():
    g = build_obstruction(simple_spec(2, "nested", "series"))
    ok, _ = nx.check_planarity(to_networkx(g))
    assert ok


# ---------------------------------------------------------------------------
# obstruction verification


@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("p_type,q_type", TYPE_PAIRS)
def test_obstruction_packs_exactly_one_cycle(h, p_type, q_type):
    inst = build_obstruction_instance(simple_spec(h, p_type, q_type))
    rep = verify_instance(inst, h)
    assert rep["nu"] == 1
    assert rep["nu_ok"]
    assert rep["tau"] >= h


def test_crossing_nested_h2_report():
    inst = build_obstruction_instance(simple_spec(2, "crossing", "nested"))
    rep = verify_instance(inst, 2)
    assert rep["nu"] == 1
    assert rep["nu_half"] >= 2
    # one vertex per first-linkage path covers everything, so tau is
    # exactly h rather than strictly above it
    assert rep["tau"] == 2
    assert not rep["tau_ok"]


def test_verify_obstruction_reconstructs_built_instances():
    spec = simple_spec(1, "crossing", "nested")
    rep = verify_obstruction(build_obstruction(spec), 1)
    assert rep["method"] == "chords"
    assert rep["nu"] == 1 and rep["nu_ok"]


def test_verify_instance_rejects_a_labeled_wall():
    inst = build_obstruction_instance(simple_spec(1, "crossing", "nested"))
    g = inst.wall.graph
    eid = min(g.edges)
    label = groups.element(g.descriptor, (1, 0))
    edges = [e._replace(label=label) if e.id == eid else e for e in g.edges.values()]
    wall = dataclasses.replace(inst.wall, graph=LabeledGraph(g.descriptor, g.vertices, edges))
    with pytest.raises(ObstructionFormatError, match="the wall part must be null-labeled"):
        verify_instance(dataclasses.replace(inst, wall=wall), 1)


def test_escher_h3_nu_half_is_reported_as_a_bound():
    # the 32 routed cycles pack to 4; enumeration over every cycle gives 5
    rep = verify_instance(escher_instance(3), 3)
    assert (rep["nu_half"], rep["nu_half_exact"]) == (4, False)


def test_verify_obstruction_on_bare_wall():
    g = elementary_wall(4, groups.direct_sum(Z3, Z3)).graph
    rep = verify_obstruction(g, 1)
    assert rep["nu"] == 0 and rep["tau"] == 0
    assert not rep["nu_ok"]


def test_verify_obstruction_enumeration_fallback():
    # a labeled K4 is no wall instance: the verifier falls back to
    # enumerating all cycles
    desc = groups.direct_sum(Z2, Z2)
    one = groups.element(desc, (1, 1))
    from nonzero_cycles.graphs import Edge

    edges = [
        Edge(i, a, b, one)
        for i, (a, b) in enumerate([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    ]
    g = LabeledGraph(desc, range(4), edges)
    rep = verify_obstruction(g, 1)
    assert rep["method"] == "enumeration"
    assert rep["nu"] == 1


def test_small_instance_matches_brute_force():
    # a 2-wall with one path per coordinate glued to the top and bottom
    # nails: small enough to enumerate every cycle
    desc = groups.direct_sum(Z3, Z3)
    wall = _elementary(2, desc)
    top = _row_slots(wall, 0)
    bottom = _row_slots(wall, 2)
    p_val = groups.element(desc, (1, 0))
    q_val = groups.element(desc, (0, 1))
    inst = _attach(
        wall,
        [("P1", top[0], top[1], p_val), ("Q1", bottom[0], bottom[1], q_val)],
    )
    rep = verify_instance(inst, 1)
    full = packing.pack_and_cover(inst.graph)
    assert rep["nu"] == full.nu
    assert rep["tau"] == full.tau
    assert rep["nu_half"] <= full.nu_half


def shared_end_graph():
    """A 4-wall over Z3 ⊕ Z3 with P = (1,0) and Q = (0,1) both attached
    between the first two top nails, glued by hand as `_attach` would."""
    desc = groups.direct_sum(Z3, Z3)
    wall = elementary_wall(4, desc)
    a, b = _row_slots(wall, 0)[:2]
    edges = list(wall.graph.edges.values())
    eid, m = max(wall.graph.edge_ids()) + 1, max(wall.graph.vertices) + 1
    for value in ((1, 0), (0, 1)):
        edges += [Edge(eid, a, m, groups.element(desc, value)), Edge(eid + 1, m, b, groups.identity(desc))]
        eid, m = eid + 2, m + 1
    return LabeledGraph(desc, wall.graph.vertices | {m - 2, m - 1}, edges)


def test_attachments_must_have_distinct_wall_ends():
    desc = groups.direct_sum(Z3, Z3)
    wall = elementary_wall(4, desc)
    top = _row_slots(wall, 0)
    p_val, q_val = groups.element(desc, (1, 0)), groups.element(desc, (0, 1))
    for ends in (
        [("P1", top[0], top[1], p_val), ("Q1", top[0], top[1], q_val)],
        [("P1", top[0], top[1], p_val), ("Q1", top[1], top[2], q_val)],
        [("P1", top[0], top[0], p_val)],
    ):
        with pytest.raises(ObstructionFormatError, match="pairwise distinct wall ends"):
            _attach(wall, ends)
    # a bare graph of that shape is not taken for a wall instance
    assert _reconstruct(shared_end_graph()) is None


def test_nu_counts_a_third_disjoint_cycle_like_enumeration():
    # a 3-wall with three (1,1)-valued attachments: top slots 0-1, bottom
    # slots 0-1, and last top slot to last bottom slot; each attachment
    # closes a doubly nonzero cycle of its own, and the three are disjoint
    desc = groups.direct_sum(Z3, Z3)
    wall = _elementary(3, desc)
    top, bottom = _row_slots(wall, 0), _row_slots(wall, 3)
    one = groups.element(desc, (1, 1))
    inst = _attach(
        wall,
        [("A1", top[0], top[1], one), ("A2", bottom[0], bottom[1], one), ("A3", top[-1], bottom[-1], one)],
    )
    found = [c for c in cycles.enumerate_cycles(inst.graph) if c.doubly_nonzero]
    assert len(found) == 1046
    nu = len(max_disjoint([c.rep.vertex_set() for c in found], max_use=1))
    assert verify_instance(inst, 1)["nu"] == nu == 3


def test_distinct_series_values_still_pack_one():
    two = groups.element(Z3, 2)
    spec = simple_spec(2, "series", "crossing", p_values=(ONE3, two))
    rep = verify_instance(build_obstruction_instance(spec), 2)
    assert rep["nu"] == 1


# ---------------------------------------------------------------------------
# τ by the implicit hitting-set loop


@pytest.mark.parametrize("p_type,q_type", TYPE_PAIRS)
def test_exact_transversal_height_three(p_type, q_type):
    # the subset scan that came before the implicit hitting-set loop gave
    # τ = 3 for every type pair; the transversal is asked for directly,
    # without the ν and ν½ searches of `verify_instance`
    inst = build_obstruction_instance(simple_spec(3, p_type, q_type))
    hit = packing.implicit_transversal(inst.graph.vertices, functools.partial(_witness, inst), _witness(inst))
    assert len(hit) == 3
    assert _find_cycle(inst, hit) is None
    # each vertex of the transversal is needed
    for v in hit:
        assert _find_cycle(inst, hit - {v}) is not None


@pytest.mark.parametrize("h", [1, 2, 3])
def test_exact_transversal_of_escher_wall_passes_enumeration(h):
    inst = escher_instance(h)
    hit = packing.implicit_transversal(inst.graph.vertices, functools.partial(_witness, inst), _witness(inst))
    assert len(hit) == h
    assert packing.verify_transversal(inst.graph, hit)


def test_exact_transversal_of_two_linkage_passes_enumeration():
    inst = build_obstruction_instance(simple_spec(1, "nested", "series"))
    hit = packing.implicit_transversal(inst.graph.vertices, functools.partial(_witness, inst), _witness(inst))
    assert len(hit) == 1
    assert packing.verify_transversal(inst.graph, hit)


@pytest.mark.parametrize("kind", ["nested_series", "escher"])
def test_exact_transversal_height_four(kind):
    # about 3 s: 291 rounds of the implicit hitting-set loop for nested/series
    if kind == "escher":
        inst = escher_instance(4)
    else:
        inst = build_obstruction_instance(simple_spec(4, "nested", "series"))
    hit = packing.implicit_transversal(inst.graph.vertices, functools.partial(_witness, inst), _witness(inst))
    assert len(hit) == 4
    assert _find_cycle(inst, hit) is None
    for v in hit:
        assert _find_cycle(inst, hit - {v}) is not None


def _reference_loop(oracle):
    """The implicit hitting-set loop asking `oracle` for every X, ∅
    included, with the recursive hitting-set search of the test suite.
    Returns (the last X, every X asked, in order, the witness vertex sets)."""
    asked, found = [], []
    while True:
        hit = reference_min_hitting_set(found)
        asked.append(hit)
        witness = oracle(hit)
        if witness is None:
            return hit, asked, found
        found.append(witness)


def _reference_transversal(inst):
    """`_reference_loop` with the vertex sets of `_find_cycle` as the oracle."""
    return _reference_loop(lambda hit: None if (c := _find_cycle(inst, hit)) is None else c.vertex_set())


@pytest.mark.parametrize("large", [False, True])
def test_implicit_transversal_on_explicit_families(large):
    # the oracle scans an explicit family for the first set X misses; the
    # loop then asks the same X, in order, as the reference loop, and ends
    # at a minimum hitting set of the whole family.  The sets use some of
    # the vertices only, so the masks have unused bits between used ones
    rng = random.Random(70 + large)
    for _ in range(60 if large else 200):
        if large:
            sets = [frozenset(rng.sample(range(48), rng.randint(8, 16))) for _ in range(rng.randint(1, 16))]
        else:
            n = rng.randint(1, 9)
            every_third = range(0, 3 * n, 3)
            sets = [frozenset(rng.sample(every_third, rng.randint(1, min(n, 4)))) for _ in range(rng.randint(0, 12))]
        asked = []

        def scan(hit):
            asked.append(hit)
            return next((s for s in sets if not s & hit), None)

        hit = packing.implicit_transversal(range(60), scan, scan(frozenset()))
        assert len(hit) == len(min_hitting_set(sets)) == brute_force_hitting_number(sets)
        ref_hit, ref_asked, _ = _reference_loop(lambda x: next((s for s in sets if not s & x), None))
        assert (hit, asked) == (ref_hit, ref_asked)


@pytest.mark.parametrize(
    "inst",
    [
        pytest.param(build_obstruction_instance(simple_spec(h, p, q)), id=f"{p}_{q}{h}")
        for h in (1, 2, 3)
        for p, q in TYPE_PAIRS
    ]
    + [pytest.param(escher_instance(h), id=f"escher{h}") for h in (1, 2, 3)],
)
def test_min_hitting_set_matches_the_old_search_on_witness_lists(inst):
    hit, asked, found = _reference_transversal(inst)
    # after i witnesses the old search chose asked[i]; the loop's bound is
    # the size of the X before it
    for i in range(1, len(found) + 1):
        assert min_hitting_set(found[:i]) == asked[i]
        assert min_hitting_set(found[:i], at_least=len(asked[i - 1])) == asked[i]
    assert packing.implicit_transversal(inst.graph.vertices, functools.partial(_witness, inst), _witness(inst)) == hit


@pytest.mark.parametrize(
    "inst",
    [escher_instance(1), escher_instance(2), escher_instance(3),
     build_obstruction_instance(simple_spec(2, "nested", "series"))],
    ids=["escher1", "escher2", "escher3", "nested_series2"],
)
def test_verify_instance_asks_the_oracle_once_for_the_empty_set(inst, monkeypatch):
    hit, asked, _ = _reference_transversal(inst)
    assert packing.implicit_transversal(inst.graph.vertices, functools.partial(_witness, inst), _witness(inst)) == hit
    calls = []

    def counted(inst, removed=frozenset()):
        calls.append(removed)
        return _find_cycle(inst, removed)

    monkeypatch.setattr(obstructions, "_find_cycle", counted)
    rep = verify_instance(inst, 2)
    # the same X values in the same order, with ∅ asked once, not twice
    assert calls == asked
    assert rep["tau"] == len(hit)


# ---------------------------------------------------------------------------
# one shape table per instance: the same answers as a fresh pass over every
# generated shape


def _reference_shapes(attachments, desc):
    """Every cycle shape over nonempty attachment subsets, up to rotation
    and reflection, crossing or not; only doubly nonzero ones are yielded,
    by size, subset, visiting order and orientations."""
    t = groups.table(desc)
    raw = {id(a): (t.unwrap(a.value), t.neg(t.unwrap(a.value))) for a in attachments}
    index = {id(a): i for i, a in enumerate(attachments)}
    for size in range(1, len(attachments) + 1):
        for subset in itertools.combinations(attachments, size):
            first, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                seq = (first,) + perm
                for tail in itertools.product((0, 1), repeat=size - 1):
                    orients = (0,) + tail
                    total = t.zero
                    for att, o in zip(seq, orients):
                        total = t.add(total, raw[id(att)][o])
                    g1, g2 = groups.coordinates(t.wrap(total))
                    if groups.is_zero(g1) or groups.is_zero(g2):
                        continue
                    chords, chord_pos = [], []
                    for k in range(size):
                        a, oa = seq[k], orients[k]
                        b, ob = seq[(k + 1) % size], orients[(k + 1) % size]
                        exit_v, exit_p = (a.right, a.right_pos) if oa == 0 else (a.left, a.left_pos)
                        entry_v, entry_p = (b.left, b.left_pos) if ob == 0 else (b.right, b.right_pos)
                        chords.append((exit_v, entry_v))
                        chord_pos.append((exit_p, entry_p))
                    members = sum(1 << index[id(a)] for a in seq)
                    yield _Shape(seq, orients, tuple(chords), tuple(chord_pos), members)


def _noncrossing(chord_pos):
    return not any(crosses(a, b) for a, b in itertools.combinations(chord_pos, 2))


def _reference_find_cycle(inst, removed=frozenset()):
    """`_find_cycle` as a loop over `_shapes` of the live attachments."""
    alive = [a for a in inst.attachments if not (set(a.walk.vertices) & removed)]
    wall_removed = frozenset(v for v in removed if v in inst.wall.graph.vertices)
    for shape in _reference_shapes(alive, inst.graph.descriptor):
        if not _noncrossing(shape.chord_pos):
            continue
        routes = _route_chords(inst.wall, shape.chords, wall_removed)
        if routes is not None:
            return _assemble_cycle(inst.graph, shape, routes)
    return None


def _reference_two_disjoint(inst):
    shapes = list(_reference_shapes(inst.attachments, inst.graph.descriptor))
    for s1, s2 in itertools.combinations(shapes, 2):
        if {a.name for a in s1.sequence} & {a.name for a in s2.sequence}:
            continue
        if not _noncrossing(s1.chord_pos + s2.chord_pos):
            continue
        routes = _route_chords(inst.wall, s1.chords + s2.chords)
        if routes is None:
            continue
        k = len(s1.chords)
        return (_assemble_cycle(inst.graph, s1, routes[:k]), _assemble_cycle(inst.graph, s2, routes[k:]))
    return None


def _reference_half_integral_family(inst):
    cycles_, seen = [], set()
    for shape in _reference_shapes(inst.attachments, inst.graph.descriptor):
        if len(cycles_) >= 32:
            break
        if not _noncrossing(shape.chord_pos):
            continue
        routes = _route_chords(inst.wall, shape.chords)
        if routes is None:
            continue
        variants = [routes]
        interior = frozenset(v for w in routes for v in w.vertices[1:-1])
        alt = _route_chords(inst.wall, shape.chords, interior)
        if alt is not None:
            variants.append(alt)
        for variant in variants:
            cycle = _assemble_cycle(inst.graph, shape, variant)
            if cycle.edge_set() not in seen:
                seen.add(cycle.edge_set())
                cycles_.append(cycle)
    chosen = max_disjoint([c.vertex_set() for c in cycles_], max_use=2)
    return [cycles_[i] for i in chosen]


SHAPE_TABLE_INSTANCES = [
    pytest.param(build_obstruction_instance(simple_spec(2, p, q)), id=f"{p}_{q}2") for p, q in TYPE_PAIRS
] + [pytest.param(escher_instance(h), id=f"escher{h}") for h in (1, 2, 3)]


@pytest.mark.parametrize("inst", SHAPE_TABLE_INSTANCES)
def test_find_cycle_matches_a_fresh_shape_pass_for_random_removals(inst):
    rng = random.Random(len(inst.attachments))
    on_attachments = sorted({v for a in inst.attachments for v in a.walk.vertices})
    on_wall = sorted(inst.wall.graph.vertices)
    for _ in range(40):
        removed = frozenset(
            rng.sample(on_attachments, rng.randint(0, 3)) + rng.sample(on_wall, rng.randint(0, 4))
        )
        assert _find_cycle(inst, removed) == _reference_find_cycle(inst, removed)


@pytest.mark.parametrize("inst", SHAPE_TABLE_INSTANCES)
def test_pair_and_half_integral_family_match_a_fresh_shape_pass(inst):
    assert _find_cycles(inst, 2) == _reference_two_disjoint(inst)
    assert _half_integral_family(inst) == _reference_half_integral_family(inst)


def _instances(h):
    return [
        pytest.param(build_obstruction_instance(simple_spec(h, p, q)), id=f"{p}_{q}{h}") for p, q in TYPE_PAIRS
    ] + [pytest.param(escher_instance(h), id=f"escher{h}")]


@pytest.mark.parametrize("inst", _instances(1) + _instances(2) + _instances(3))
def test_shape_table_is_the_noncrossing_part_of_every_shape(inst):
    reference = _reference_shapes(inst.attachments, inst.graph.descriptor)
    assert inst.shapes == tuple(s for s in reference if _noncrossing(s.chord_pos))


@pytest.mark.parametrize(
    "inst, size",
    [pytest.param(p.values[0], n, id=p.id) for p, n in zip(_instances(4), (292, 490, 292, 2092, 490, 2092, 12))],
)
def test_shape_table_at_height_four(inst, size):
    # sizes checked once against the generate-and-filter reference, which
    # takes 15-20 s per two-linkage instance
    table = inst.shapes
    assert len(table) == size
    index = {a.name: i for i, a in enumerate(inst.attachments)}
    keys = []
    for shape in table:
        seq = tuple(index[a.name] for a in shape.sequence)
        keys.append((len(seq), sorted(seq), seq, shape.orients))
        assert seq[0] == min(seq) and shape.orients[0] == 0
        assert shape.members == sum(1 << i for i in seq)
        assert _noncrossing(shape.chord_pos)
        value = groups.identity(inst.graph.descriptor)
        for a, o in zip(shape.sequence, shape.orients):
            value = groups.op(value, a.value if o == 0 else groups.inv(a.value))
        assert not any(groups.is_zero(g) for g in groups.coordinates(value))
    # strictly increasing: the DFS order, each shape once
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))


def test_reconstructed_instances_share_the_built_wall():
    inst = build_obstruction_instance(simple_spec(2, "nested", "series"))
    again = _reconstruct(inst.graph)
    assert again.wall is inst.wall
    assert [a.walk for a in again.attachments] == [a.walk for a in inst.attachments]
    assert again.shapes is again.shapes


# ---------------------------------------------------------------------------
# the chord router: the given order by BFS, then the exact outer-face
# router when a later chord fails.  Its routes are those of the router that
# tried every order whenever the given order routes, it routes whenever that
# router does, and it agrees with an exhaustive search



def _reference_bfs_walk(graph, s, t, blocked):
    if s in blocked or t in blocked:
        return None
    if s == t:
        return None
    parent = {s: (-1, -1)}
    adjacency = graph.adjacency()
    queue = deque([s])
    while queue:
        v = queue.popleft()
        if v == t:
            verts, eids = [t], []
            while verts[-1] != s:
                pv, pe = parent[verts[-1]]
                eids.append(pe)
                verts.append(pv)
            return Walk(tuple(reversed(verts)), tuple(reversed(eids)))
        for eid, w in adjacency.get(v, ()):
            if w in parent or (w in blocked and w != t):
                continue
            parent[w] = (v, eid)
            queue.append(w)
    return None


def _reference_route_chords(graph, chords, forbidden=()):
    n = len(chords)
    terminals = {v for c in chords for v in c}
    base = set(forbidden)
    orders = itertools.permutations(range(n)) if n <= 4 else [tuple(range(n))]
    for order in orders:
        used = set(base)
        walks = [None] * n
        ok = True
        for idx in order:
            s, t = chords[idx]
            blocked = used | (terminals - {s, t})
            walk = _reference_bfs_walk(graph, s, t, blocked)
            if walk is None:
                ok = False
                break
            walks[idx] = walk
            used |= set(walk.vertices)
        if ok:
            return [w for w in walks if w is not None]
    return None


def _greedy_in_order(graph, chords, forbidden=()):
    """The every-order router's first order: BFS per chord, in the given order."""
    terminals, used, walks = {v for c in chords for v in c}, set(forbidden), []
    for s, t in chords:
        walk = _reference_bfs_walk(graph, s, t, used | (terminals - {s, t}))
        if walk is None:
            return None
        walks.append(walk)
        used |= set(walk.vertices)
    return walks


def exhaustive_routable(graph, chords, forbidden=()):
    """Whether vertex-disjoint paths join the ends of every chord avoiding
    `forbidden`: every simple path for each chord in turn, cut where some
    remaining chord's ends are no longer connected around the paths so far."""
    terminals = {v for c in chords for v in c}
    adjacency = graph.adjacency()

    def connected(s, t, blocked):
        seen, stack = {s}, [s]
        while stack:
            v = stack.pop()
            if v == t:
                return True
            for _, w in adjacency[v]:
                if w not in seen and w not in blocked:
                    seen.add(w)
                    stack.append(w)
        return False

    def route(i, used):
        if i == len(chords):
            return True
        if not all(connected(s, t, used | (terminals - {s, t})) for s, t in chords[i:]):
            return False
        s, t = chords[i]
        blocked = used | (terminals - {s, t})
        path = {s}

        def extend(v):
            if v == t:
                return route(i + 1, used | path)
            for _, w in adjacency[v]:
                if w in path or w in blocked or not connected(w, t, blocked | path):
                    continue
                path.add(w)
                if extend(w):
                    return True
                path.discard(w)
            return False

        return extend(s)

    return terminals.isdisjoint(forbidden) and route(0, set(forbidden))


def check_routing(wall, chords, forbidden, routes):
    """Each walk follows wall edges from its chord's first end to its second,
    is vertex-disjoint from the others, and avoids `forbidden` and the other
    chords' ends."""
    terminals, used = {v for c in chords for v in c}, set()
    assert len(routes) == len(chords)
    for (s, t), walk in zip(chords, routes):
        walk.validate(wall.graph)
        assert walk.is_path() and (walk.start, walk.end) == (s, t)
        verts = set(walk.vertices)
        assert verts.isdisjoint(used | set(forbidden) | (terminals - {s, t}))
        used |= verts


def check_against_reference(wall, chords, forbidden=()):
    """`_route_chords` against the every-order router: the same routes when
    the given order routes, and a valid routing whenever it routes."""
    routes = _route_chords(wall, chords, forbidden)
    greedy = _greedy_in_order(wall.graph, chords, forbidden)
    reference = _reference_route_chords(wall.graph, chords, forbidden)
    if greedy is not None:
        assert routes == greedy == reference
    if reference is not None:
        assert routes is not None
    if routes is not None:
        check_routing(wall, chords, forbidden, routes)
    return routes, greedy


@pytest.mark.parametrize("inst", _instances(1) + _instances(2) + _instances(3))
def test_route_chords_matches_the_every_order_router_in_verify(inst, monkeypatch):
    calls = []

    def checked(wall, chords, forbidden=()):
        routes, _ = check_against_reference(wall, chords, forbidden)
        calls.append(routes is None)
        return routes

    monkeypatch.setattr(obstructions, "_route_chords", checked)
    verify_instance(inst, 2)
    assert calls


def _noncrossing_matching(ends, rng):
    """A random perfect matching of the boundary-sorted `ends` whose chords
    do not cross: the first end pairs with one an odd number of places on,
    and the ends between them and after them are matched apart."""
    if not ends:
        return []
    j = rng.randrange(1, len(ends), 2)
    return [(ends[0], ends[j])] + _noncrossing_matching(ends[1:j], rng) + _noncrossing_matching(ends[j + 1 :], rng)


def random_chord_system(wall, rng, max_chords, max_forbidden):
    """1 to `max_chords` non-crossing chords between distinct boundary
    vertices, in random order and orientation, and up to `max_forbidden`
    random wall vertices."""
    pos = _boundary_positions(wall)
    n = rng.randint(1, min(max_chords, len(pos) // 2))
    ends = sorted(rng.sample(sorted(pos), 2 * n), key=pos.get)
    chords = _noncrossing_matching(ends, rng)
    rng.shuffle(chords)
    chords = [c if rng.random() < 0.5 else c[::-1] for c in chords]
    assert _noncrossing([(pos[a], pos[b]) for a, b in chords])
    forbidden = frozenset(rng.sample(sorted(wall.graph.vertices), rng.randint(0, max_forbidden)))
    return chords, forbidden


@pytest.mark.parametrize("r", [4, 8])
def test_route_chords_matches_the_every_order_router_on_random_systems(r):
    wall = elementary_wall(r, Z3)
    graph = wall.graph
    rng = random.Random(r)
    outcomes = {"given order": 0, "exact router": 0, "none": 0}
    for _ in range(300):
        chords, forbidden = random_chord_system(wall, rng, 4, 6)
        routes, greedy = check_against_reference(wall, chords, forbidden)
        outcomes["none" if routes is None else "given order" if greedy else "exact router"] += 1
        # the given order, greedily: a chord that first fails after the
        # first position is the case the exact router decides
        terminals, used = {v for c in chords for v in c}, set(forbidden)
        for s, t in chords:
            blocked = used | (terminals - {s, t})
            walk = _bfs_walk(graph, s, t, blocked)
            assert walk == _reference_bfs_walk(graph, s, t, blocked)
            if walk is None:
                break
            used.update(walk.vertices)
    assert min(outcomes.values()) > 0, outcomes


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_outer_face_route_matches_exhaustive_search(r):
    # 800 systems per wall, 3,200 in all; r = 1 is the h = 1 Escher wall
    wall = _elementary(r, Z3)
    rng = random.Random(100 + r)
    routed = 0
    for _ in range(800):
        chords, forbidden = random_chord_system(wall, rng, 4, min(20, len(wall.graph.vertices) // 2))
        exact = _outer_face_route(wall, chords, forbidden)
        assert (exact is not None) == exhaustive_routable(wall.graph, chords, forbidden), (chords, forbidden)
        assert (_route_chords(wall, chords, forbidden) is not None) == (exact is not None)
        if exact is not None:
            check_routing(wall, chords, forbidden, exact)
            routed += 1
    assert 100 < routed < 700, routed


def test_route_chords_routes_a_system_no_order_of_the_greedy_routes():
    wall = elementary_wall(3, Z3)
    chords, forbidden = [(7, 25), (29, 27), (1, 6), (22, 31)], {2}
    assert _reference_route_chords(wall.graph, chords, forbidden) is None
    assert exhaustive_routable(wall.graph, chords, forbidden)
    routes = _route_chords(wall, chords, forbidden)
    assert routes is not None
    check_routing(wall, chords, forbidden, routes)


@pytest.mark.parametrize("inst", _instances(1) + _instances(2) + _instances(3))
def test_every_noncrossing_family_routes_with_nothing_removed(inst):
    # the module docstring's claim, for families of up to three shapes
    for k in (1, 2, 3):
        for family in _families(inst.shapes, k, 0, 0, ()):
            assert _route_chords(inst.wall, [c for s in family for c in s.chords]) is not None


def test_reconstruct_rejects_a_core_that_differs_from_the_wall_by_one_edge():
    inst = build_obstruction_instance(simple_spec(1, "nested", "series"))
    graph, wall = inst.graph, inst.wall.graph
    assert _reconstruct(graph) is not None
    edges = list(graph.edges.values())
    wall_eids = sorted(wall.edge_ids())
    e = graph.edge(wall_eids[len(wall_eids) // 2])
    zero = groups.identity(graph.descriptor)
    a, b = sorted(wall.vertices)[0], sorted(wall.vertices)[-1]
    assert b not in {wall.other_end(x, a) for x in wall.incident(a)}
    fresh = max(graph.edge_ids()) + 1
    cases = {
        "extra chord": edges + [Edge(fresh, a, b, zero)],
        "missing edge": [x for x in edges if x.id != e.id],
        "reversed edge": [x._replace(tail=e.head, head=e.tail) if x.id == e.id else x for x in edges],
        "renumbered edge": [x._replace(id=fresh) if x.id == e.id else x for x in edges],
    }
    for name, changed in cases.items():
        assert _reconstruct(LabeledGraph(graph.descriptor, graph.vertices, changed)) is None, name


def reconstruct_by_vertex_scan(graph):
    """The instance `_reconstruct` built when it found the attachment middles
    by scanning every vertex for degree 2 and a non-zero incident label."""
    middles = [
        v
        for v in sorted(graph.vertices)
        if graph.degree(v) == 2 and any(not groups.is_zero(graph.edge(e).label) for e in graph.incident(v))
    ]
    side = math.isqrt((len(graph.vertices) - len(middles) + 2) // 2)
    ref = elementary_wall(side - 1, graph.descriptor)
    walks = []
    for i, m in enumerate(middles):
        e1, e2 = graph.incident(m)
        walks.append((f"A{i + 1}", Walk((graph.other_end(e1, m), m, graph.other_end(e2, m)), (e1, e2))))
    return obstructions._instance(graph, ref, walks)


def _attachments(inst):
    return [(a.name, a.kind, a.walk, a.value, a.left_pos, a.right_pos) for a in inst.attachments]


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("gamma1", [Z3, groups.direct_sum(Z2, Z3)], ids=str)
def test_reconstruct_finds_the_attachments_the_vertex_scan_found(h, gamma1):
    p_value = groups.element(gamma1, 1 if gamma1 is Z3 else (1, 2))
    for p_type, q_type in TYPE_PAIRS:
        spec = dataclasses.replace(simple_spec(h, p_type, q_type), gamma1=gamma1, p_values=(p_value,) * h)
        built = build_obstruction_instance(spec)
        for graph in (built.graph, decode_graph(encode_graph(built.graph))):
            inst = _reconstruct(graph)
            assert inst.wall is built.wall
            assert _attachments(inst) == _attachments(reconstruct_by_vertex_scan(graph))
            assert [a.walk for a in inst.attachments] == [a.walk for a in built.attachments]


def test_reconstruct_rejects_a_labelled_wall_edge_and_a_middle_of_degree_three():
    inst = build_obstruction_instance(simple_spec(1, "nested", "series"))
    graph, wall = inst.graph, inst.wall.graph
    value = groups.element(graph.descriptor, (1, 0))
    for eid in wall.edge_ids():
        edges = [e._replace(label=value) if e.id == eid else e for e in graph.edges.values()]
        assert _reconstruct(LabeledGraph(graph.descriptor, graph.vertices, edges)) is None, eid
    # a third, zero edge at a middle leaves it a wall vertex too many
    m = inst.attachments[0].interior[0]
    far = next(v for v in sorted(wall.vertices) if v not in inst.attachments[0].walk.vertices)
    extra = Edge(max(graph.edge_ids()) + 1, m, far, groups.identity(graph.descriptor))
    assert _reconstruct(LabeledGraph(graph.descriptor, graph.vertices, [*graph.edges.values(), extra])) is None
