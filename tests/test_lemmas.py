import hashlib
import random

import pytest

from nonzero_cycles import groups, lemmas
from nonzero_cycles.cycles import coordinate_values, enumerate_cycles
from nonzero_cycles.graphs import (
    Cycle,
    Edge,
    LabeledGraph,
    Walk,
    is_gamma_bipartite,
    shift_sequence,
)
from nonzero_cycles.lemmas import (
    HypothesisError,
    KtModel,
    ModelFormatError,
    combine_brick,
    combine_two_cycles,
    exchange_reroute,
    triangle_color,
    triangle_cycle,
    verify_odd_kt_model,
)
from test_graphs import reference_shift

Z5Z7 = groups.direct_sum(groups.cyclic(5), groups.cyclic(7))
FZ = groups.direct_sum(groups.free_group(2), groups.integers())
Z3Z3 = groups.direct_sum(groups.cyclic(3), groups.cyclic(3))
Z2 = groups.cyclic(2)
Z2Z2 = groups.direct_sum(Z2, Z2)


def nonzero_part(desc, rng):
    while True:
        x = groups.random_element(desc, rng)
        if not groups.is_zero(x):
            return x


def pair(desc, left, right):
    return groups.element(desc, (left, right))


def cycle_edges(desc, verts, labels, next_eid, rng):
    """Edges of a cycle through verts, randomly oriented, with the last
    label compensating so the forward traversal value equals `labels`."""
    k = len(verts)
    edges = []
    prefix = groups.identity(desc)
    for i in range(k - 1):
        lab = groups.random_element(desc, rng)
        if rng.random() < 0.5:
            edges.append(Edge(next_eid + i, verts[i], verts[i + 1], lab))
            prefix = groups.op(prefix, lab)
        else:
            edges.append(Edge(next_eid + i, verts[i + 1], verts[i], lab))
            prefix = groups.op(prefix, groups.inv(lab))
    last = groups.op(groups.inv(prefix), labels)
    edges.append(Edge(next_eid + k - 1, verts[k - 1], verts[0], last))
    return edges


def path_edges(desc, verts, next_eid, rng):
    edges = []
    for i in range(len(verts) - 1):
        lab = groups.random_element(desc, rng)
        if rng.random() < 0.5:
            edges.append(Edge(next_eid + i, verts[i], verts[i + 1], lab))
        else:
            edges.append(Edge(next_eid + i, verts[i + 1], verts[i], lab))
    return edges


def walk_through(graph, verts):
    ends = {}
    for eid, e in graph.edges.items():
        ends[frozenset((e.tail, e.head))] = eid
    eids = tuple(ends[frozenset((verts[i], verts[i + 1]))] for i in range(len(verts) - 1))
    return Walk(tuple(verts), eids)


def two_cycle_instance(desc, rng, force_combination):
    k1, k2 = rng.randint(3, 5), rng.randint(3, 5)
    c1_verts = list(range(k1))
    c2_verts = list(range(10, 10 + k2))
    v1 = pair(
        desc,
        nonzero_part(desc.parts[0], rng),
        groups.identity(desc.parts[1]) if force_combination else groups.random_element(desc.parts[1], rng),
    )
    v2 = pair(
        desc,
        groups.identity(desc.parts[0]) if force_combination else groups.random_element(desc.parts[0], rng),
        nonzero_part(desc.parts[1], rng),
    )
    edges = cycle_edges(desc, c1_verts, v1, 0, rng)
    edges += cycle_edges(desc, c2_verts, v2, 100, rng)
    p1_verts = [rng.choice(c1_verts)] + list(range(20, 20 + rng.randint(0, 2))) + [rng.choice(c2_verts)]
    q_start = [v for v in c1_verts if v != p1_verts[0]]
    q_end = [v for v in c2_verts if v != p1_verts[-1]]
    p2_verts = [rng.choice(q_start)] + list(range(30, 30 + rng.randint(0, 2))) + [rng.choice(q_end)]
    edges += path_edges(desc, p1_verts, 200, rng)
    edges += path_edges(desc, p2_verts, 300, rng)
    verts = sorted({v for e in edges for v in (e.tail, e.head)})
    graph = LabeledGraph(desc, verts, edges)
    c1 = Cycle(tuple(c1_verts) + (c1_verts[0],), tuple(range(k1)))
    c2 = Cycle(tuple(c2_verts) + (c2_verts[0],), tuple(range(100, 100 + k2)))
    p1 = walk_through(graph, p1_verts)
    p2 = walk_through(graph, p2_verts)
    return graph, c1, c2, p1, p2


def assert_doubly_nonzero_cycle_of(graph, out):
    out.validate(graph)
    v1, v2 = coordinate_values(graph, out)
    assert not groups.is_zero(v1) and not groups.is_zero(v2)
    found = {c.edges for c in enumerate_cycles(graph)}
    assert frozenset(out.edges) in found


# sha256 of the repr of the (vertices, edges) pairs combine_two_cycles
# returns on the 1,000 instances test_combine_two_cycles_fuzz draws from
# each seed
TWO_CYCLES_FUZZ_SHA256 = {
    20240: "6777e4072358f6ee490e76856f6f13599e66fc133728efd7a5e4c5d074db6eda",
    20241: "e0fe1d52f4601cbe43a90948c90c94d32c7e03db67cee7fce5717890b04a5172",
}


@pytest.mark.parametrize("desc, seed", [(Z5Z7, 20240), (FZ, 20241)], ids=["z5+z7", "free2+z"])
def test_combine_two_cycles_fuzz(desc, seed):
    rng = random.Random(seed)
    outs = []
    for trial in range(1000):
        graph, c1, c2, p1, p2 = two_cycle_instance(desc, rng, force_combination=trial % 2 == 0)
        out = combine_two_cycles(graph, c1, c2, p1, p2)
        assert_doubly_nonzero_cycle_of(graph, out)
        outs.append((out.vertices, out.edges))
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == TWO_CYCLES_FUZZ_SHA256[seed]


def test_combine_two_cycles_returns_input_when_already_doubly_nonzero():
    rng = random.Random(7)
    graph, c1, c2, p1, p2 = two_cycle_instance(Z5Z7, rng, force_combination=False)
    v1, v2 = coordinate_values(graph, c1)
    if not groups.is_zero(v2):
        assert combine_two_cycles(graph, c1, c2, p1, p2).edges == c1.edges


def test_combine_two_cycles_rejects_bad_hypotheses():
    rng = random.Random(11)
    graph, c1, c2, p1, p2 = two_cycle_instance(Z5Z7, rng, force_combination=True)
    with pytest.raises(HypothesisError, match="disjoint"):
        combine_two_cycles(graph, c1, c1, p1, p2)
    inside_c1 = Walk(c1.vertices[:2], c1.edges[:1])
    with pytest.raises(HypothesisError, match="connects"):
        combine_two_cycles(graph, c1, c2, p1, inside_c1)
    # kill the coordinate-0 value of c1
    dead = {eid: pair(Z5Z7, 0, rng.randrange(7)) for eid in c1.edges}
    broken = graph.with_labels(dead)
    with pytest.raises(HypothesisError, match="coordinate 0"):
        combine_two_cycles(broken, c1, c2, p1, p2)


# ---------------------------------------------------------------------------
# brick combiner


def brick_instance(rng):
    desc = Z3Z3
    kc = rng.randint(4, 6)
    c_verts = list(range(kc))
    c_val = pair(desc, rng.randrange(3), rng.randrange(3))
    edges = cycle_edges(desc, c_verts, c_val, 0, rng)
    c1_verts = [10, 11, 12]
    c2_verts = [20, 21, 22]
    v1 = pair(desc, nonzero_part(desc.parts[0], rng), 0)
    v2 = pair(desc, rng.randrange(3), nonzero_part(desc.parts[1], rng))
    edges += cycle_edges(desc, c1_verts, v1, 100, rng)
    edges += cycle_edges(desc, c2_verts, v2, 200, rng)
    spots = sorted(rng.sample(range(kc), 4))
    e1, e1p, e2, e2p = spots
    attach = [
        (e1, rng.choice(c1_verts), 300),
        (e1p, rng.choice(c1_verts), 310),
        (e2, rng.choice(c2_verts), 320),
        (e2p, rng.choice(c2_verts), 330),
    ]
    paths = []
    interior = 40
    for start, end, base in attach:
        mids = list(range(interior, interior + rng.randint(0, 1)))
        interior += 2
        verts = [start] + mids + [end]
        edges += path_edges(desc, verts, base, rng)
        paths.append(verts)
    # the two ends on c1 (and on c2) must differ
    if paths[0][-1] == paths[1][-1] or paths[2][-1] == paths[3][-1]:
        return None
    all_verts = sorted({v for e in edges for v in (e.tail, e.head)})
    graph = LabeledGraph(desc, all_verts, edges)
    c = Cycle(tuple(c_verts) + (c_verts[0],), tuple(range(kc)))
    c1 = Cycle(tuple(c1_verts) + (c1_verts[0],), (100, 101, 102))
    c2 = Cycle(tuple(c2_verts) + (c2_verts[0],), (200, 201, 202))
    walks = [walk_through(graph, p) for p in paths]
    return graph, c, c1, c2, walks


def central_arc_edges(c, a, b, avoid):
    rooted = c.rooted_at(a)
    idx = rooted.vertices.index(b)
    first = set(rooted.edges[:idx])
    second = set(rooted.edges[idx:])
    first_verts = set(rooted.vertices[: idx + 1])
    return first if avoid not in first_verts else second


def test_combine_brick_fuzz():
    rng = random.Random(424242)
    done = 0
    while done < 1000:
        inst = brick_instance(rng)
        if inst is None:
            continue
        graph, c, c1, c2, (p1, p1p, p2, p2p) = inst
        out = combine_brick(graph, c, c1, c2, p1, p1p, p2, p2p)
        assert_doubly_nonzero_cycle_of(graph, out)
        # the result must traverse both "opposite" arcs of the central cycle
        i1 = central_arc_edges(c, p2p.start, p1.start, p2.start)
        i2 = central_arc_edges(c, p1p.start, p2.start, p1.start)
        assert (i1 | i2) <= set(out.edges)
        for w in (p1, p1p, p2, p2p):
            assert set(w.edges) <= set(out.edges)
        done += 1


def reference_null_shifts(graph, edge_ids):
    """The breadth-first shifter that made a forest's edges null for
    `combine_brick` before it called `is_gamma_bipartite`, kept as the
    oracle for its null shift."""
    adj = {}
    for eid in sorted(edge_ids):
        e = graph.edge(eid)
        assert e.tail != e.head
        adj.setdefault(e.tail, []).append(eid)
        adj.setdefault(e.head, []).append(eid)
    seen = set()
    work = graph
    for root in sorted(adj):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        while queue:
            v = queue.pop(0)
            for eid in adj[v]:
                e = work.edge(eid)
                w = e.head if v == e.tail else e.tail
                if w in seen:
                    continue
                seen.add(w)
                if not groups.is_zero(e.label):
                    work = reference_shift(work, w, groups.inv(e.label) if e.head == w else e.label)
                queue.append(w)
    return work


# sha256 of the repr of the (vertices, edges) pairs combine_brick returns on
# the 1,000 instances of test_combine_brick_fuzz
BRICK_FUZZ_CYCLES_SHA256 = "a181ae54c95f6730a25e477900483c914afc9c060659c413807c4394214ef5f9"


def test_combine_brick_null_shift_and_cycles_are_unchanged():
    rng = random.Random(424242)
    outs = []
    while len(outs) < 1000:
        inst = brick_instance(rng)
        if inst is None:
            continue
        graph, c, c1, c2, (p1, p1p, p2, p2p) = inst
        out = combine_brick(graph, c, c1, c2, p1, p1p, p2, p2p)
        outs.append((out.vertices, out.edges))
        skeleton = frozenset(
            central_arc_edges(c, p2p.start, p1.start, p2.start)
            | central_arc_edges(c, p1p.start, p2.start, p1.start)
            | {eid for w in (p1, p1p, p2, p2p) for eid in w.edges}
        )
        null = shift_sequence(graph, is_gamma_bipartite(graph.subgraph(skeleton))[1])
        assert null == reference_null_shifts(graph, skeleton)
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == BRICK_FUZZ_CYCLES_SHA256


def test_combine_brick_rejects_bad_hypotheses():
    rng = random.Random(5)
    inst = None
    while inst is None:
        inst = brick_instance(rng)
    graph, c, c1, c2, (p1, p1p, p2, p2p) = inst
    with pytest.raises(HypothesisError, match="cyclic attachment order"):
        combine_brick(graph, c, c1, c2, p1p, p1, p2, p2p)
    dead = {eid: pair(Z3Z3, 0, 1) for eid in c1.edges}
    with pytest.raises(HypothesisError, match="coordinate 0"):
        combine_brick(graph.with_labels(dead), c, c1, c2, p1, p1p, p2, p2p)
    hot = {c1.edges[0]: pair(Z3Z3, 1, 1), c1.edges[1]: pair(Z3Z3, 0, 0), c1.edges[2]: pair(Z3Z3, 0, 0)}
    with pytest.raises(HypothesisError, match="zero in coordinate 1"):
        combine_brick(graph.with_labels(hot), c, c1, c2, p1, p1p, p2, p2p)


# ---------------------------------------------------------------------------
# exchange rerouting


def reroute_instance(rng, t):
    desc = Z3Z3
    edges = []
    eid = 0
    verts = set()
    s = []
    q_paths = []
    next_v = 100
    for i in range(3 * t):
        a, b = next_v, next_v + 1
        next_v += 2
        mids = list(range(next_v, next_v + rng.randint(0, 1)))
        next_v += 2
        pv = [a] + mids + [b]
        s += [a, b]
        labels = [pair(desc, rng.randrange(3), rng.randrange(3)) for _ in range(len(pv) - 1)]
        total0 = sum(l.payload[0] for l in labels) % 3
        if total0 == 0:
            labels[-1] = groups.op(labels[-1], pair(desc, 1, 0))
        for j in range(len(pv) - 1):
            edges.append(Edge(eid, pv[j], pv[j + 1], labels[j]))
            eid += 1
        verts |= set(pv)
        q_paths.append(pv)
    q_interiors = [v for pv in q_paths for v in pv[1:-1]]
    r_paths = []
    used = set()
    for i in range(t):
        a, b = next_v, next_v + 1
        next_v += 2
        s += [a, b]
        mids = []
        pool = [v for v in q_interiors if v not in used]
        rng.shuffle(pool)
        take = pool[: rng.randint(0, min(2, len(pool)))]
        fresh = list(range(next_v, next_v + rng.randint(0, 1)))
        next_v += 2
        mids = take + fresh
        rng.shuffle(mids)
        used |= set(mids)
        pv = [a] + mids + [b]
        labels = [pair(desc, rng.randrange(3), rng.randrange(3)) for _ in range(len(pv) - 1)]
        total1 = sum(l.payload[1] for l in labels) % 3
        if total1 == 0:
            labels[-1] = groups.op(labels[-1], pair(desc, 0, 1))
        for j in range(len(pv) - 1):
            edges.append(Edge(eid, pv[j], pv[j + 1], labels[j]))
            eid += 1
        verts |= set(pv)
        r_paths.append(pv)
    graph = LabeledGraph(desc, sorted(verts), edges)
    qs = [walk_through_ids(graph, pv) for pv in q_paths]
    rs = [walk_through_ids(graph, pv) for pv in r_paths]
    return graph, frozenset(s), qs, rs


def walk_through_ids(graph, verts):
    """Like walk_through but tolerant of parallel edges: first match wins."""
    eids = []
    for i in range(len(verts) - 1):
        a, b = verts[i], verts[i + 1]
        eid = next(
            e for e in graph.incident(a)
            if {graph.edge(e).tail, graph.edge(e).head} == {a, b} and e not in eids
        )
        eids.append(eid)
    return Walk(tuple(verts), tuple(eids))


def test_exchange_reroute_fuzz():
    rng = random.Random(777)
    for trial in range(200):
        t = rng.choice([1, 2])
        graph, s, qs, rs = reroute_instance(rng, t)
        assert_exchange_contract(graph, s, t, exchange_reroute(graph, s, qs, rs))


def threaded_reroute_instance(rng, t):
    """3t Q paths, each with two to four interior vertices, and t R paths
    that each thread through the interiors of three to five distinct Q
    paths (fresh vertices here and there between them), together touching
    more than 2t Q paths, so the exchange must rewire.  Labels are random
    in Z3 ⊕ Z3, the last edge of each path fixing its coordinate nonzero."""
    desc = Z3Z3
    next_v = 0

    def fresh(k):
        nonlocal next_v
        next_v += k
        return list(range(next_v - k, next_v))

    def labelled(verts, coord):
        labels = [pair(desc, rng.randrange(3), rng.randrange(3)) for _ in verts[1:]]
        if sum(lab.payload[coord] for lab in labels) % 3 == 0:
            labels[-1] = groups.op(labels[-1], pair(desc, 1 - coord, coord))
        return labels

    s, paths = [], []
    q_paths = [fresh(rng.randint(4, 6)) for _ in range(3 * t)]
    for pv in q_paths:
        s += [pv[0], pv[-1]]
        paths.append((pv, labelled(pv, 0)))
    free_mids = [pv[1:-1] for pv in q_paths]
    for pv in free_mids:
        rng.shuffle(pv)
    must = rng.sample(range(3 * t), rng.randint(2 * t + 1, 3 * t))
    threads = [{q: free_mids[q].pop() for q in must[i::t]} for i in range(t)]
    r_paths = []
    for mine in threads:
        others = [q for q in range(3 * t) if q not in mine and free_mids[q]]
        for q in rng.sample(others, min(len(others), max(0, rng.randint(3, 5) - len(mine)))):
            mine[q] = free_mids[q].pop()
        mids = list(mine.values())
        rng.shuffle(mids)
        pv = fresh(1)
        for v in mids:
            pv += fresh(rng.randint(0, 1)) + [v]
        pv += fresh(1)
        s += [pv[0], pv[-1]]
        paths.append((pv, labelled(pv, 1)))
        r_paths.append(pv)
    edges = []
    for pv, labels in paths:
        for a, b, label in zip(pv, pv[1:], labels):
            edges.append(Edge(len(edges), a, b, label) if rng.random() < 0.5
                         else Edge(len(edges), b, a, groups.inv(label)))
    graph = LabeledGraph(desc, range(next_v), edges)
    qs = [walk_through_ids(graph, pv) for pv in q_paths]
    rs = [walk_through_ids(graph, pv) for pv in r_paths]
    return graph, frozenset(s), qs, rs


def reference_exchange_reroute(graph, s, q_paths, r_paths):
    """`exchange_reroute` as it was before its rewirings came from one
    generator, kept as the oracle for its output."""
    s = frozenset(s)
    t = len(r_paths)
    lemmas._require(len(q_paths) == 3 * t, "3t paths on the Q side")
    for fam, coord, name in ((q_paths, 0, "Q"), (r_paths, 1, "R")):
        used = set()
        for i, w in enumerate(fam):
            lemmas._check_s_path(graph, w, s, coord, f"{name}[{i}]")
            lemmas._require(not (set(w.vertices) & used), f"{name} paths are pairwise disjoint")
            used |= set(w.vertices)
    q_edges = {eid for w in q_paths for eid in w.edges}

    def potential(fam):
        return sum(1 for w in fam for eid in w.edges if eid not in q_edges)

    rs = list(r_paths)
    guard = sum(len(w.edges) for w in rs) + 1
    for _ in range(guard + 1):
        r_vertices = {}
        for idx, r in enumerate(rs):
            for v in r.vertices:
                r_vertices[v] = idx
        touched = [qi for qi, qw in enumerate(q_paths) if any(v in r_vertices for v in qw.vertices)]
        if len(touched) <= 2 * t:
            free = [qw for qi, qw in enumerate(q_paths) if qi not in touched]
            return list(free[:t]) + rs
        replaced = False
        for qi in touched:
            qw = q_paths[qi]
            if qw.start in r_vertices or qw.end in r_vertices:
                continue
            for start_at_end in (False, True):
                path = qw.reversed() if start_at_end else qw
                hit = next((k for k, v in enumerate(path.vertices) if v in r_vertices), None)
                if hit is None:
                    continue
                r_idx = r_vertices[path.vertices[hit]]
                r1 = rs[r_idx]
                prefix = Walk(path.vertices[: hit + 1], path.edges[:hit])
                meet = path.vertices[hit]
                at = r1.vertices.index(meet)
                tail_a = Walk(r1.vertices[at:], r1.edges[at:])
                tail_b = Walk(r1.vertices[: at + 1], r1.edges[:at]).reversed()
                for tail in (tail_a, tail_b):
                    candidate = prefix.concat(tail) if tail.edges else prefix
                    if not candidate.is_path() or len(candidate.edges) == 0:
                        continue
                    if candidate.start not in s or candidate.end not in s:
                        continue
                    if any(v in s for v in candidate.vertices[1:-1]):
                        continue
                    if not lemmas._nonzero_in(graph, candidate, 1):
                        continue
                    others = [r for k, r in enumerate(rs) if k != r_idx]
                    if any(set(candidate.vertices) & set(o.vertices) for o in others):
                        continue
                    new_rs = [candidate if k == r_idx else r for k, r in enumerate(rs)]
                    if potential(new_rs) >= potential(rs):
                        continue
                    rs = new_rs
                    replaced = True
                    break
                if replaced:
                    break
            if replaced:
                break
        lemmas._require(replaced, "an exchange step exists", "no valid rewiring found")
    raise AssertionError("exchange loop failed to terminate")


def assert_exchange_contract(graph, s, t, out):
    assert len(out) == 2 * t
    seen = set()
    for i, w in enumerate(out):
        w.validate(graph)
        assert w.is_path() and w.edges
        assert w.start in s and w.end in s
        assert all(v not in s for v in w.vertices[1:-1])
        assert not groups.is_zero(coordinate_values(graph, w)[0 if i < t else 1])
        assert not (set(w.vertices) & seen)
        seen |= set(w.vertices)


def test_exchange_reroute_rewires_and_matches_the_reference():
    rng = random.Random(1)
    for _ in range(600):
        t = rng.randint(1, 3)
        graph, s, qs, rs = threaded_reroute_instance(rng, t)
        r_vertices = {v for r in rs for v in r.vertices}
        assert sum(not r_vertices.isdisjoint(q.vertices) for q in qs) > 2 * t
        for r in rs:
            assert 3 <= sum(not set(r.vertices[1:-1]).isdisjoint(q.vertices) for q in qs) <= 5
        out = exchange_reroute(graph, s, qs, rs)
        assert out[t:] != rs  # at least one exchange step was taken
        assert_exchange_contract(graph, s, t, out)
        assert out == reference_exchange_reroute(graph, s, qs, rs)


def test_exchange_reroute_rejects_wrong_counts():
    rng = random.Random(3)
    graph, s, qs, rs = reroute_instance(rng, 1)
    with pytest.raises(HypothesisError, match="3t paths"):
        exchange_reroute(graph, s, qs[:2], rs)


# ---------------------------------------------------------------------------
# odd clique-models


def k4_model(labels):
    """K4 on single-vertex trees 0..3; labels maps (u, v) -> payload pair."""
    edges = []
    connectors = {}
    eid = 0
    for u in range(4):
        for v in range(u + 1, 4):
            edges.append(Edge(eid, u, v, pair(Z2Z2, *labels[(u, v)])))
            connectors[(u, v)] = (eid,)
            eid += 1
    graph = LabeledGraph(Z2Z2, [0, 1, 2, 3], edges)
    trees = {v: (frozenset([v]), frozenset()) for v in range(4)}
    return graph, KtModel(trees, connectors)


def test_verify_odd_kt_model_accepts_all_odd_triangles():
    labels = {key: (1, 1) for key in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}
    graph, model = k4_model(labels)
    ok, witness = verify_odd_kt_model(graph, model, 4)
    assert ok and witness is None


def test_verify_odd_kt_model_reports_failing_triple():
    labels = {key: (1, 1) for key in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}
    labels[(0, 1)] = (0, 1)  # triangle 0,1,2 sums to zero in coordinate 0
    graph, model = k4_model(labels)
    ok, witness = verify_odd_kt_model(graph, model, 4)
    assert not ok
    assert witness == {"triple": (0, 1, 2), "coordinate": 0}


def test_verify_odd_kt_model_uses_second_connector_edge():
    labels = {key: (1, 1) for key in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}
    labels[(0, 1)] = (0, 1)
    graph, model = k4_model(labels)
    # a second, coordinate-0 odd edge between trees 0 and 1 repairs the triple
    extra = Edge(99, 0, 1, pair(Z2Z2, 1, 1))
    edges = list(graph.edges.values()) + [extra]
    graph2 = LabeledGraph(Z2Z2, [0, 1, 2, 3], edges)
    connectors = dict(model.connectors)
    connectors[(0, 1)] = connectors[(0, 1)] + (99,)
    ok, witness = verify_odd_kt_model(graph2, KtModel(model.trees, connectors), 4)
    assert ok


def test_verify_odd_kt_model_with_real_trees():
    desc = Z2Z2
    # trees: {0,1} joined by edge 0, {2}, {3}; connectors chosen all-odd
    edges = [
        Edge(0, 0, 1, pair(desc, 0, 0)),
        Edge(1, 0, 2, pair(desc, 1, 1)),
        Edge(2, 1, 3, pair(desc, 1, 1)),
        Edge(3, 2, 3, pair(desc, 1, 1)),
    ]
    graph = LabeledGraph(desc, [0, 1, 2, 3], edges)
    trees = {
        0: (frozenset([0, 1]), frozenset([0])),
        1: (frozenset([2]), frozenset()),
        2: (frozenset([3]), frozenset()),
    }
    connectors = {(0, 1): (1,), (0, 2): (2,), (1, 2): (3,)}
    ok, witness = verify_odd_kt_model(graph, KtModel(trees, connectors), 3)
    assert ok


def path_tree_model(t, size, seed):
    """A K_t model on path trees of `size` vertices over Z2 + Z2, with two
    connectors per pair of trees between random tree vertices; every edge
    gets a random label."""
    rng = random.Random(seed)
    edges, trees, connectors = [], {}, {}

    def add(a, b):
        label = pair(Z2Z2, rng.randint(0, 1), rng.randint(0, 1))
        edges.append(Edge(len(edges), a, b, label))
        return len(edges) - 1

    for node in range(t):
        vs = range(node * size, (node + 1) * size)
        trees[node] = (frozenset(vs), frozenset(add(a, a + 1) for a in vs[:-1]))
    for u in range(t):
        for v in range(u + 1, t):
            connectors[(u, v)] = tuple(
                add(rng.choice(sorted(trees[u][0])), rng.choice(sorted(trees[v][0]))) for _ in range(2)
            )
    graph = LabeledGraph(Z2Z2, range(t * size), edges)
    return graph, KtModel(trees, connectors)


def _reference_verify_odd_kt_model(graph, model, t):
    """`verify_odd_kt_model` through the public `triangle_cycle`."""
    import itertools

    for triple in itertools.combinations(range(t), 3):
        x, y, z = triple
        options = [model.connectors[(x, y)], model.connectors[(x, z)], model.connectors[(y, z)]]
        for coordinate in (0, 1):
            if not any(
                not groups.is_zero(coordinate_values(graph, triangle_cycle(graph, model, triple, sel))[coordinate])
                for sel in itertools.product(*options)
            ):
                return False, {"triple": triple, "coordinate": coordinate}
    return True, None


@pytest.mark.parametrize("seed", range(6))
def test_verify_odd_kt_model_builds_each_tree_forest_once(seed, monkeypatch):
    t = 5 + seed % 3
    graph, model = path_tree_model(t, 4, seed)
    expected = _reference_verify_odd_kt_model(graph, model, t)
    calls = []

    def counted(g):
        calls.append(g)
        return real(g)

    real = lemmas._bfs_forest
    monkeypatch.setattr(lemmas, "_bfs_forest", counted)
    assert verify_odd_kt_model(graph, model, t) == expected
    assert len(calls) == t
    calls.clear()
    cycle = triangle_cycle(graph, model, (0, 1, 2), (model.connectors[(0, 1)][0],
                                                     model.connectors[(0, 2)][1],
                                                     model.connectors[(1, 2)][0]))
    assert len(calls) == 3
    cycle.validate(graph)  # a `Cycle` is simple by construction


def test_model_format_errors():
    labels = {key: (1, 1) for key in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}
    graph, model = k4_model(labels)
    overlapping = dict(model.trees)
    overlapping[1] = (frozenset([0]), frozenset())
    with pytest.raises(ModelFormatError, match="meets another"):
        verify_odd_kt_model(graph, KtModel(overlapping, model.connectors), 4)
    missing = dict(model.connectors)
    del missing[(2, 3)]
    with pytest.raises(ModelFormatError, match="missing connector"):
        verify_odd_kt_model(graph, KtModel(model.trees, missing), 4)


def test_model_tree_with_a_cycle_is_rejected():
    # tree 0 lists |V| - 1 edges on its four vertices, but they close a
    # triangle on 0, 1, 3 and leave vertex 2 out
    zero = pair(Z2Z2, 0, 0)
    arcs = [(0, 1), (1, 3), (0, 3), (2, 10), (0, 10), (2, 11), (0, 11), (10, 11)]
    graph = LabeledGraph(Z2Z2, [0, 1, 2, 3, 10, 11], [Edge(i, t, h, zero) for i, (t, h) in enumerate(arcs)])
    trees = {
        0: (frozenset([0, 1, 2, 3]), frozenset([0, 1, 2])),
        1: (frozenset([10]), frozenset()),
        2: (frozenset([11]), frozenset()),
    }
    model = KtModel(trees, {(0, 1): (4,), (0, 2): (6,), (1, 2): (7,)})
    with pytest.raises(ModelFormatError, match="tree 0 is not connected"):
        verify_odd_kt_model(graph, model, 3)


def test_triangle_color():
    desc = Z2
    edges = [
        Edge(0, 0, 1, groups.element(desc, 1)),
        Edge(1, 0, 2, groups.element(desc, 1)),
        Edge(2, 1, 2, groups.element(desc, 1)),
        Edge(3, 1, 3, groups.element(desc, 1)),
        Edge(4, 2, 3, groups.element(desc, 1)),
        Edge(5, 0, 3, groups.element(desc, 0)),
    ]
    graph = LabeledGraph(desc, [0, 1, 2, 3], edges)
    trees = {v: (frozenset([v]), frozenset()) for v in range(4)}
    connectors = {(0, 1): (0,), (0, 2): (1,), (1, 2): (2,), (1, 3): (3,), (2, 3): (4,), (0, 3): (5,)}
    model = KtModel(trees, connectors)
    assert triangle_color(graph, model, (0, 1, 2)) == "red"  # 1+1+1 is odd
    assert triangle_color(graph, model, (1, 2, 3)) == "red"
    assert triangle_color(graph, model, (0, 1, 3)) == "blue"  # 1+1+0 is even


@pytest.mark.parametrize("desc, seed", [(Z5Z7, 20240), (FZ, 20241)], ids=["z5+z7", "free2+z"])
def test_combine_two_cycles_reads_the_paths_in_either_direction(desc, seed):
    # p1 and p2 given from c2 to c1 are turned round, so the cycle is the one
    # they give from c1 to c2
    rng = random.Random(seed)
    for trial in range(300):
        graph, c1, c2, p1, p2 = two_cycle_instance(desc, rng, force_combination=trial % 2 == 0)
        out = combine_two_cycles(graph, c1, c2, p1, p2)
        back = combine_two_cycles(graph, c1, c2, p1.reversed(), p2.reversed())
        assert (back.vertices, back.edges) == (out.vertices, out.edges)
