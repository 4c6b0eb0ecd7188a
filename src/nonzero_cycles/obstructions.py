"""Escher walls and doubly-labeled wall obstructions.

Both constructions attach labeled two-edge paths to the top (and, for
Escher walls, bottom) row of a null-labeled wall.  The exact ν and τ of
such instances are computed structurally: every nonzero cycle must
traverse whole attachment paths, the wall itself contributes nothing to
cycle values, and the attachment endpoints all lie on the outer face of
the wall, so the wall paths of disjoint cycles join endpoints by chords that
do not cross, and `_route_chords` decides exactly whether a family of
non-crossing chords routes.  With nothing removed, every family of up to
three pairwise disjoint shapes whose chords do not cross does route: tested
for the six type pairs and the Escher walls at h = 1, 2 and 3, where no
family of three exists.  ν½ is only a witnessed lower bound, reported
with `nu_half_exact` false: it packs the routed cycles collected until there
are 32 (4 on the h=3 Escher wall, where `packing.pack_and_cover` finds 5).

That makes `_find_cycles` an oracle: it finds k vertex-disjoint doubly
nonzero cycles avoiding a given vertex set, or proves that none exist; ν
is the largest k whose family of shapes routes.  τ comes from the implicit
hitting-set loop `packing.implicit_transversal`, with the k = 1 case,
`_find_cycle`, read as vertex sets (`_witness`) for its oracle.

Each `WallInstance` builds its table of cycle shapes once
(`WallInstance.shapes`) by a DFS that drops a branch at its first crossing
chord, and `_find_cycles` and `_half_integral_family` read it; the walls
under the instances are the shared, read-only walls that `walls` memoises.

The two linkages are placed by `linkage.pure_linkage` on the slot lists of
`_slot_pattern` over the top-row nails (`_row_slots`); chords cross by
`linkage.crosses`.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import groups, packing
from .graphs import Cycle, Edge, LabeledGraph, Walk, walk_value, walk_zeros
from .linkage import LINKAGE_TYPES, SERIES, crosses, pure_linkage
from .walls import Wall, _elementary, elementary_wall


class ObstructionFormatError(ValueError):
    """The requested instance violates a construction precondition."""


class VerificationUndecidedError(RuntimeError):
    """A routed witness failed its check: an assembled cycle lost its value,
    or the routed witnesses of one family intersect."""


# ---------------------------------------------------------------------------
# instances: a wall plus labeled attachment paths


@dataclass(frozen=True)
class Attachment:
    """A two-edge path glued to the wall, ordered along the boundary."""

    name: str
    kind: str  # "P" (first coordinate) or "Q" (second)
    walk: Walk  # from the boundary-earlier end to the later one
    value: groups.GroupElement  # walk value of `walk`
    left_pos: int  # boundary positions of the two wall ends
    right_pos: int

    @property
    def left(self) -> int:
        return self.walk.start

    @property
    def right(self) -> int:
        return self.walk.end

    @property
    def interior(self) -> Tuple[int, ...]:
        return self.walk.vertices[1:-1]


@dataclass(frozen=True)
class WallInstance:
    graph: LabeledGraph
    wall: Wall
    attachments: Tuple[Attachment, ...]

    @functools.cached_property
    def shapes(self) -> Tuple["_Shape", ...]:
        """Every doubly nonzero shape whose chords do not cross, in the
        order `_shapes` gives them."""
        return tuple(_shapes(self.attachments, self.graph.descriptor))


def _boundary_positions(wall: Wall) -> Dict[int, int]:
    return {v: i for i, v in enumerate(wall.boundary.vertices[:-1])}


def _row_slots(wall: Wall, row: int) -> List[int]:
    """The nails on the given outer row (0 for the top, `wall.r` for the
    bottom), left to right: one per brick along that row."""
    on_row = set(wall.horizontal[row].vertices)
    return sorted((v for v in wall.nails if v in on_row), key=lambda v: wall.coords[v][0])


def _attach(
    wall: Wall,
    ends: Sequence[Tuple[str, int, int, groups.GroupElement]],
) -> WallInstance:
    """Glue a two-edge path (a, m, b) with the given value for each
    (name, a, b, value) request; the value sits on the first edge."""
    desc = wall.graph.descriptor
    ident = groups.identity(desc)
    edges = list(wall.graph.edges.values())
    next_eid = max(wall.graph.edge_ids(), default=-1) + 1
    next_vid = max(wall.graph.vertices) + 1
    verts = set(wall.graph.vertices)
    walks = []
    for name, a, b, value in ends:
        m = next_vid
        next_vid += 1
        verts.add(m)
        edges.append(Edge(next_eid, a, m, value))
        edges.append(Edge(next_eid + 1, m, b, ident))
        walks.append((name, Walk((a, m, b), (next_eid, next_eid + 1))))
        next_eid += 2
    return _instance(LabeledGraph(desc, verts, edges), wall, walks)


def _instance(graph: LabeledGraph, wall: Wall, walks: Sequence[Tuple[str, Walk]]) -> WallInstance:
    """The instance whose attachments are the named two-edge walks, each
    oriented from its boundary-earlier end and sorted by that end; its kind
    is "P" when the first coordinate of its value is nonzero, else "Q".
    The chord router needs the 2k wall ends of k walks pairwise distinct."""
    ends = [v for _, walk in walks for v in (walk.start, walk.end)]
    if len(set(ends)) < len(ends):
        raise ObstructionFormatError("attachments must have pairwise distinct wall ends")
    pos = _boundary_positions(wall)
    atts = []
    for name, walk in walks:
        if pos[walk.start] > pos[walk.end]:
            walk = walk.reversed()
        value = walk_value(graph, walk)
        atts.append(
            Attachment(
                name=name,
                kind="Q" if groups.zero_flags(value)[0] else "P",
                walk=walk,
                value=value,
                left_pos=pos[walk.start],
                right_pos=pos[walk.end],
            )
        )
    atts.sort(key=lambda a: a.left_pos)
    return WallInstance(graph=graph, wall=wall, attachments=tuple(atts))


# ---------------------------------------------------------------------------
# Escher walls


def escher_instance(h: int) -> WallInstance:
    """A bipartite h-wall plus h disjoint parity-breaking paths, the i-th
    joining the i-th top brick to the (h−i+1)-th bottom brick."""
    if h < 1:
        raise ObstructionFormatError("height must be at least 1")
    desc = groups.cyclic(2)
    wall = _elementary(h, desc)
    top = _row_slots(wall, 0)
    bottom = _row_slots(wall, wall.r)
    one = groups.element(desc, 1)
    ends = [
        (f"P{i + 1}", top[i], bottom[h - 1 - i], one) for i in range(h)
    ]
    return _attach(wall, ends)


def escher_wall(h: int) -> LabeledGraph:
    """The Escher wall of height h over the two-element group."""
    return escher_instance(h).graph


# ---------------------------------------------------------------------------
# the doubly-labeled obstruction family


@dataclass(frozen=True)
class ObstructionSpec:
    """Height, the interval types of the two linkages, the two label
    groups, and the per-path values (first-coordinate values for the one
    linkage, second-coordinate for the other)."""

    h: int
    p_type: str
    q_type: str
    gamma1: groups.GroupDescriptor
    gamma2: groups.GroupDescriptor
    p_values: Tuple[groups.GroupElement, ...]
    q_values: Tuple[groups.GroupElement, ...]


def _validate_spec(spec: ObstructionSpec) -> None:
    if spec.h < 1:
        raise ObstructionFormatError("height must be at least 1")
    for t in (spec.p_type, spec.q_type):
        if t not in LINKAGE_TYPES:
            raise ObstructionFormatError(f"unknown linkage type {t!r}")
    if spec.p_type == spec.q_type:
        raise ObstructionFormatError("the two linkages must be of different type")
    for label, values, desc, t in (
        ("first", spec.p_values, spec.gamma1, spec.p_type),
        ("second", spec.q_values, spec.gamma2, spec.q_type),
    ):
        if len(values) != spec.h:
            raise ObstructionFormatError(f"{label}-linkage needs {spec.h} values")
        for v in values:
            if v.descriptor is not desc:
                raise ObstructionFormatError(f"{label}-linkage value in wrong group")
            if groups.is_zero(v):
                raise ObstructionFormatError(f"{label}-linkage values must be nonzero")
        if t != SERIES and len(set(values)) > 1:
            raise ObstructionFormatError(
                f"a {t} linkage must carry one common value"
            )


def _slot_pattern(h: int, p_type: str, q_type: str) -> Tuple[Sequence[int], Sequence[int]]:
    """The 0-based top-row slots of the first and of the second linkage,
    2h each and ascending; `linkage.pure_linkage` joins them by type.

    When either linkage is in series the two families sit on disjoint slot
    ranges, [0, 2h) and [2h, 4h), the first strictly left of the second.
    Otherwise they interleave on [0, h) ∪ [2h, 3h) and [h, 2h) ∪ [3h, 4h):
    all first-linkage left ends, then all second-linkage left ends, then
    the right ends in the same order (`linkage.satisfies_interval_clause`).
    """
    if SERIES in (p_type, q_type):
        return range(2 * h), range(2 * h, 4 * h)
    return [*range(h), *range(2 * h, 3 * h)], [*range(h, 2 * h), *range(3 * h, 4 * h)]


def build_obstruction_instance(spec: ObstructionSpec) -> WallInstance:
    """A null-labeled 4h-wall with two h-linkages attached on the top row:
    one nonzero exactly in the first coordinate, one exactly in the
    second, with endpoint intervals placed by linkage type."""
    _validate_spec(spec)
    desc = groups.direct_sum(spec.gamma1, spec.gamma2)
    wall = elementary_wall(4 * spec.h, desc)
    slots = _row_slots(wall, 0)
    p_slots, q_slots = _slot_pattern(spec.h, spec.p_type, spec.q_type)
    ident1 = groups.identity(spec.gamma1)
    ident2 = groups.identity(spec.gamma2)
    ends = []
    for i, path in enumerate(pure_linkage(spec.p_type, p_slots)):
        value = groups.element(desc, (spec.p_values[i], ident2))
        ends.append((f"P{i + 1}", slots[path.left], slots[path.right], value))
    for i, path in enumerate(pure_linkage(spec.q_type, q_slots)):
        value = groups.element(desc, (ident1, spec.q_values[i]))
        ends.append((f"Q{i + 1}", slots[path.left], slots[path.right], value))
    return _attach(wall, ends)


def build_obstruction(spec: ObstructionSpec) -> LabeledGraph:
    return build_obstruction_instance(spec).graph


# ---------------------------------------------------------------------------
# cycle shapes: which attachment subsets can carry a nonzero cycle


@dataclass(frozen=True)
class _Shape:
    """A cyclic visiting order of attachments with orientations, inducing
    one wall chord between consecutive attachment endpoints."""

    sequence: Tuple[Attachment, ...]
    orients: Tuple[int, ...]  # 0 = left-to-right
    chords: Tuple[Tuple[int, int], ...]  # (exit vertex, entry vertex)
    chord_pos: Tuple[Tuple[int, int], ...]  # boundary positions of the same
    members: int  # bit i set when the shape uses attachment i


def _shapes(attachments: Sequence[Attachment], desc: groups.GroupDescriptor):
    """The doubly nonzero cycle shapes over nonempty attachment subsets
    whose chords do not cross, up to rotation and reflection: each starts
    at its lowest-index attachment, walked left to right.  A DFS extends a
    sequence by an unused later-index attachment in either orientation and
    drops a branch at its first chord crossing an earlier one, as no later
    chord can uncross them; a node is a shape when its closing chord
    crosses none and its value, folded over raw payloads (see
    `groups.Table`), is doubly nonzero.  Shapes come out by size, subset,
    visiting order, then orientations."""
    t, zeros = groups.table(desc), groups.zero_reader(desc)
    # per attachment and orientation (0 = left to right): raw value, and the
    # entry and exit ends as (vertex, boundary position)
    steps = []
    for a in attachments:
        raw, left, right = a.value.payload, (a.left, a.left_pos), (a.right, a.right_pos)
        steps.append(((raw, left, right), (t.neg(raw), right, left)))
    found = []
    stack = [((i,), (0,), steps[i][0][0], (), ()) for i in range(len(steps))]
    while stack:
        seq, orients, total, chords, chord_pos = stack.pop()
        exit_v, exit_p = steps[seq[-1]][orients[-1]][2]
        entry_v, entry_p = steps[seq[0]][0][1]
        closing = (exit_p, entry_p)
        if not any(crosses(closing, c) for c in chord_pos):
            if True not in zeros(total):
                shape = _Shape(
                    tuple(attachments[i] for i in seq),
                    orients,
                    chords + ((exit_v, entry_v),),
                    chord_pos + (closing,),
                    sum(1 << i for i in seq),
                )
                found.append(((len(seq), sorted(seq), seq, orients), shape))
        for j in range(seq[0] + 1, len(steps)):
            if j in seq:
                continue
            for o, (raw, (v, p), _) in enumerate(steps[j]):
                pos = (exit_p, p)
                if not any(crosses(pos, c) for c in chord_pos):
                    stack.append(
                        (seq + (j,), orients + (o,), t.add(total, raw),
                         chords + ((exit_v, v),), chord_pos + (pos,))
                    )
    found.sort(key=lambda item: item[0])
    for _, shape in found:
        yield shape


# ---------------------------------------------------------------------------
# routing chords as disjoint wall paths


def _bfs_walk(graph: LabeledGraph, s: int, t: int, blocked) -> Optional[Walk]:
    """A shortest s–t walk of `graph` through no vertex of `blocked`, or None:
    breadth-first from s, FIFO, each vertex's neighbours in `adjacency()`
    order.  The search ends when it discovers t, not when it pops t: t's
    parent link is set once, at discovery, so the walk read back then is the
    walk read back at the pop.  `parent` starts with the blocked vertices in
    it, so one membership test skips both seen and blocked neighbours."""
    if s in blocked or t in blocked or s == t:
        return None
    parent: Dict[int, Optional[Tuple[int, int]]] = dict.fromkeys(blocked)
    parent[s] = (-1, -1)
    adjacency = graph.adjacency()
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for eid, w in adjacency[v]:
            if w in parent:
                continue
            parent[w] = (v, eid)
            if w == t:
                verts, eids = [t], []
                while verts[-1] != s:
                    pv, pe = parent[verts[-1]]
                    eids.append(pe)
                    verts.append(pv)
                return Walk(tuple(reversed(verts)), tuple(reversed(eids)))
            queue.append(w)
    return None


def _route_chords(
    wall: Wall,
    chords: Sequence[Tuple[int, int]],
    forbidden: Iterable[int] = (),
) -> Optional[List[Walk]]:
    """Vertex-disjoint paths of the wall joining the ends of each chord
    (each walk runs from the chord's first end to its second), avoiding
    `forbidden`, or None when no such paths exist.  The chords' ends must be
    pairwise distinct vertices of the wall's boundary, and the chords must
    not cross.

    The chords are routed greedily in the given order, each by `_bfs_walk`
    around `forbidden`, the walks routed so far and the other chords' ends.
    Breadth-first routes are short, which keeps the τ loop's witnesses
    short; a routing found this way certifies itself.  If the first chord
    fails, None is a proof: its search blocked only vertices that every
    routing must avoid.  If a later chord fails, the greedy choice of the
    earlier walks may be to blame, and `_outer_face_route` decides."""
    terminals = {v for c in chords for v in c}
    used = set(forbidden)
    walks: List[Walk] = []
    for s, t in chords:
        walk = _bfs_walk(wall.graph, s, t, used | (terminals - {s, t}))
        if walk is None:
            return _outer_face_route(wall, chords, forbidden) if walks else None
        walks.append(walk)
        used.update(walk.vertices)
    return walks


def _outer_face_route(
    wall: Wall,
    chords: Sequence[Tuple[int, int]],
    forbidden: Iterable[int] = (),
) -> Optional[List[Walk]]:
    """`_route_chords` decided exactly, with its preconditions: vertex-disjoint
    paths for non-crossing chords whose ends are pairwise distinct boundary
    vertices of the plane wall, or None, which is then a proof.

    For terminal pairs on the outer face of a plane graph, routing the
    pairs innermost first, each along the path nearest the boundary segment
    it spans, is exact (Robertson and Seymour, Graph Minors VI; Ripphausen-
    Lipa, Wagner and Weihe, "Efficient algorithms for disjoint paths in
    planar graphs", 1995): any routing can trade the innermost pair's path
    for the nearest one.  Deleting vertices keeps every remaining boundary
    vertex on the outer face, so `forbidden` and the walks already routed
    are simply deleted.

    Each chord is oriented so that the boundary position grows from s to t,
    and the chords go by increasing span: the spans of non-crossing chords
    are nested or disjoint, so a chord's span holds only ends of chords
    already routed.  The nearest path is found by a left-first DFS: at each
    vertex it tries the edges in clockwise order (`Wall.rotations`),
    starting just after the edge it came in by; s counts as entered by the
    boundary edge from its predecessor, and the boundary runs clockwise."""
    pos = _boundary_positions(wall)
    terminals = {v for c in chords for v in c}
    used = set(forbidden)
    walks: List[Optional[Walk]] = [None] * len(chords)
    for i in sorted(range(len(chords)), key=lambda i: abs(pos[chords[i][1]] - pos[chords[i][0]])):
        s, t = sorted(chords[i], key=pos.__getitem__)
        if s in used or t in used:
            return None
        seen = used | (terminals - {t})
        verts, eids = [s], [wall.boundary.edges[pos[s] - 1]]
        turns = [_turns_after(wall, s, eids[0])]
        while turns and verts[-1] != t:
            step = next(turns[-1], None)
            if step is None:
                turns.pop()
                verts.pop()
                eids.pop()
            elif step[1] not in seen:
                seen.add(step[1])
                eids.append(step[0])
                verts.append(step[1])
                turns.append(_turns_after(wall, step[1], step[0]))
        if not turns:
            return None
        walk = Walk(tuple(verts), tuple(eids[1:]))
        walks[i] = walk if chords[i][0] == s else walk.reversed()
        used.update(verts)
    return walks


def _turns_after(wall: Wall, v: int, entry: int):
    """(edge id, neighbour) at v in clockwise order, starting just after the
    edge `entry` and ending with it."""
    turns = wall.rotations[v]
    k = next(i for i, (eid, _) in enumerate(turns) if eid == entry) + 1
    return iter(turns[k:] + turns[:k])


def _assemble_cycle(graph: LabeledGraph, shape: _Shape, routes: Iterable[Walk]) -> Cycle:
    """The shape's cycle, taking the next of `routes` after each attachment."""
    walk = None
    for att, o, route in zip(shape.sequence, shape.orients, routes):
        part = att.walk if o == 0 else att.walk.reversed()
        walk = part if walk is None else walk.concat(part)
        walk = walk.concat(route)
    cycle = Cycle(walk.vertices, walk.edges)
    if True in walk_zeros(graph, cycle):
        raise VerificationUndecidedError("assembled witness lost its value")
    return cycle


# ---------------------------------------------------------------------------
# exact packing and covering on wall instances


def _families(shapes, k: int, start: int, taken: int, chord_pos):
    """Each family of k shapes from `shapes[start:]`, in table order, with
    members pairwise disjoint and off the bitmask `taken`, and with chords
    crossing neither each other nor `chord_pos` (a shape's own never do)."""
    for i in range(start, len(shapes)):
        s = shapes[i]
        if s.members & taken or chord_pos and any(
            crosses(a, b) for a in s.chord_pos for b in chord_pos
        ):
            continue
        if k == 1:
            yield (s,)
            continue
        for rest in _families(shapes, k - 1, i + 1, taken | s.members, chord_pos + s.chord_pos):
            yield (s,) + rest


def _find_cycles(
    inst: WallInstance, k: int, removed: FrozenSet[int] = frozenset()
) -> Optional[Tuple[Cycle, ...]]:
    """k vertex-disjoint doubly nonzero cycles avoiding `removed`, from the
    first family of live shapes whose chords route jointly, or None, which
    proves that none exist.

    Every such cycle runs through whole attachments and joins them by
    vertex-disjoint wall paths, one per chord of its shape, and k disjoint
    cycles give a family of k shapes whose chords do not cross: the chord
    ends are distinct vertices of the wall's outer face.  So the k cycles
    exist exactly when some such family routes, and `_route_chords` answers
    that exactly for non-crossing chords with distinct ends on the outer
    face, which `_families` and `_instance` guarantee."""
    dead = sum(
        1 << i for i, a in enumerate(inst.attachments) if not removed.isdisjoint(a.walk.vertices)
    )
    for family in _families(inst.shapes, k, 0, dead, ()):
        routes = _route_chords(inst.wall, [c for s in family for c in s.chords], removed)
        if routes is None:
            continue
        routes = iter(routes)  # each shape takes its own chords' routes
        cycles = tuple(_assemble_cycle(inst.graph, s, routes) for s in family)
        sets = [c.vertex_set() for c in cycles]
        if len(frozenset().union(*sets)) < sum(map(len, sets)):
            raise VerificationUndecidedError("routed witnesses intersect")
        return cycles
    return None


def _find_cycle(inst: WallInstance, removed: FrozenSet[int] = frozenset()) -> Optional[Cycle]:
    found = _find_cycles(inst, 1, removed)
    return None if found is None else found[0]


def _half_integral_family(inst: WallInstance) -> List[Cycle]:
    """A maximum family of distinct witness cycles using each vertex at
    most twice among the routed cycles of the individually routable shapes,
    collected until there are 32, so only a lower bound on ν½."""
    cycles: List[Cycle] = []
    seen = set()
    for shape in inst.shapes:
        if len(cycles) >= 32:
            break
        routes = _route_chords(inst.wall, shape.chords)
        if routes is None:
            continue
        variants = [routes]
        # a second routing avoiding the first one's interior doubles the
        # usable candidates for half-integral packing
        interior = frozenset(
            v for w in routes for v in w.vertices[1:-1]
        )
        alt = _route_chords(inst.wall, shape.chords, interior)
        if alt is not None:
            variants.append(alt)
        for variant in variants:
            cycle = _assemble_cycle(inst.graph, shape, variant)
            if cycle.edge_set() in seen:
                continue
            seen.add(cycle.edge_set())
            cycles.append(cycle)
    chosen = packing.max_packing(inst.graph.vertices, [c.vertex_set() for c in cycles], max_use=2)
    return [cycles[i] for i in chosen]


def _witness(inst: WallInstance, removed: FrozenSet[int] = frozenset()) -> Optional[FrozenSet[int]]:
    """The vertex set of `_find_cycle(inst, removed)`, or None: τ's oracle."""
    cycle = _find_cycle(inst, removed)
    return None if cycle is None else cycle.vertex_set()


def _report(nu: int, nu_half: int, tau: int, h: int, method: str) -> dict:
    """The verify report, checked against the obstruction requirements
    ν = 1 and τ > h; ν½ is exact only when every cycle was enumerated."""
    return {
        "nu": nu,
        "nu_half": nu_half,
        "nu_half_exact": method == "enumeration",
        "tau": tau,
        "nu_ok": nu == 1,
        "tau_ok": tau > h,
        "method": method,
    }


def verify_instance(inst: WallInstance, h: int) -> dict:
    """Exact ν and τ for a wall instance, and a lower bound on ν½ (the
    size of the family `_half_integral_family` witnesses), checked against
    the obstruction requirements ν = 1 and τ > h.  ν is the largest k for
    which `_find_cycles` routes a family of k shapes, and τ is the size of
    the minimum transversal `packing.implicit_transversal` certifies."""
    # the wall's steps hold None for every zero payload
    if any(fwd is not None for _, _, fwd, _ in inst.wall.graph.steps().values()):
        raise ObstructionFormatError("the wall part must be null-labeled")
    first = _witness(inst)
    nu = 0 if first is None else 1
    while nu and _find_cycles(inst, nu + 1) is not None:
        nu += 1
    nu_half = max(len(_half_integral_family(inst)), nu)
    tau = len(packing.implicit_transversal(inst.graph.vertices, functools.partial(_witness, inst), first))
    return _report(nu, nu_half, tau, h, "chords")


# ---------------------------------------------------------------------------
# verifying a bare labeled graph


def _reconstruct(graph: LabeledGraph) -> Optional[WallInstance]:
    """Recognize a 4h-wall, for some h ≥ 1, with two-edge attachments on it
    whose wall ends are pairwise distinct; None if the graph is not of that
    shape.  h is read from the graph: the wall is built only when the core
    has the 2(4h+1)² − 2 vertices of a 4h-wall.

    The core (the graph without the attachment middles) is compared with
    the wall in place, and no core graph is built: it equals the wall
    exactly when each edge touching no middle equals the wall's edge of the
    same id and there are as many such edges as the wall has.  Its vertex
    set is then the wall's too: every wall vertex ends a wall edge, so it is
    in the core, and the core has as many vertices as the wall.

    The middles are the degree-2 vertices with a non-zero incident edge,
    found among the ends of the non-zero steps of `graph.steps()` (a zero
    payload is None there), not by a scan of every vertex.  A middle needs
    two distinct incident edges: a vertex whose only edge is a loop has
    degree 2 too, and makes the graph no wall instance.  A decoded zero
    label is `groups.identity`, as the wall's labels are, so comparing a
    core edge with the wall's settles its label by identity."""
    steps = graph.steps()
    ends = {v for tail, head, fwd, _ in steps.values() if fwd is not None for v in (tail, head)}
    middles = sorted(v for v in ends if graph.degree(v) == 2)
    core = len(graph.vertices) - len(middles)
    side = math.isqrt((core + 2) // 2)
    if core != 2 * side * side - 2 or side < 5 or (side - 1) % 4:
        return None
    ref = elementary_wall(side - 1, graph.descriptor)
    gone = frozenset(middles)
    wall_edges = ref.graph.edges
    kept = 0
    for e in graph.edges.values():
        if e.tail in gone or e.head in gone:
            continue
        if wall_edges.get(e.id) != e:
            return None
        kept += 1
    if kept != len(wall_edges):
        return None
    pos = _boundary_positions(ref)
    walks = []
    for i, m in enumerate(middles):
        incident = graph.incident(m)
        if len(incident) != 2:
            return None
        e1, e2 = incident
        a, b = graph.other_end(e1, m), graph.other_end(e2, m)
        if a not in pos or b not in pos:
            return None
        walks.append((f"A{i + 1}", Walk((a, m, b), (e1, e2))))
    try:
        return _instance(graph, ref, walks)
    except ObstructionFormatError:
        return None


def verify_obstruction(graph: LabeledGraph, h: int, limit: Optional[int] = None) -> dict:
    """{ν, ν½, τ} report for a desk-scale instance, with pass/fail against
    ν = 1 and τ > h.  Recognized wall-plus-attachment instances of height h
    are solved structurally, with ν½ a lower bound; anything else falls back
    to full cycle enumeration (subject to the enumeration limit), all three
    exact.  A 4h'-wall with every attachment end on its top row, the shape of
    the two-linkage obstructions, is not enumerated when h' ≠ h: that raises
    `ObstructionFormatError` naming both heights."""
    inst = _reconstruct(graph)
    if inst is not None:
        height = inst.wall.r // 4
        if height == h:
            return verify_instance(inst, h)
        top = set(inst.wall.horizontal[0].vertices)
        if all(a.left in top and a.right in top for a in inst.attachments):
            raise ObstructionFormatError(
                f"certificate height {h} does not match the instance's height {height} "
                f"(a {4 * height}-wall with its attachments on the top row)"
            )
    report = packing.pack_and_cover(graph, limit=limit)
    return _report(report.nu, report.nu_half, report.tau, h, "enumeration")
