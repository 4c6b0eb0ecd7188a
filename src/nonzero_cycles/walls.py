"""Wall construction and anatomy: elementary walls, subwalls, nails,
bricks, and local rerouting of a vertical segment through an external
path.

Bricks are the faces of the straight-line drawing: `rotation_system` sorts
the darts at each vertex by angle, the package's one angle sort, and
`trace_faces` traces that rotation system with
`reductions.trace_embedded_faces`, the package's one face tracer.  A `Wall`
keeps each vertex's neighbours in that order (`Wall.rotations`) for the
chord router.  An elementary wall's column snakes are read off the grid
as zigzags.

A `Wall` is read-only (its `coords` is a `MappingProxyType`), so elementary
walls are memoised on `(r, descriptor)`: every caller asking for the same
wall shares one validated wall, its graph and the graph's lazily built
tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import groups
from .graphs import Cycle, Edge, GraphFormatError, LabeledGraph, Walk, decode_graph, encode_graph
from .reductions import EmbeddedGraph, trace_embedded_faces


class WallFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Wall:
    """A wall with its anatomy.

    `coords` maps the original grid vertices to (x, y) positions (y grows
    downward); `branch` is the set of vertices corresponding to the
    unsubdivided wall.  Horizontal paths run left to right, vertical paths
    top to bottom; corners are listed clockwise starting at the top left.
    A wall is read-only: `coords` is stored as a `MappingProxyType` over a
    copy of the mapping it is given.
    """

    graph: LabeledGraph
    r: int
    coords: Mapping[int, Tuple[int, int]]
    branch: FrozenSet[int]
    corners: Tuple[int, int, int, int]
    nails: Tuple[int, ...]
    horizontal: Tuple[Walk, ...]
    vertical: Tuple[Walk, ...]
    bricks: Tuple[Cycle, ...]
    boundary: Cycle
    # unstripped generators: full rows and column snakes whose union is the
    # wall; the anatomy paths above are their stripped versions
    rows: Tuple[Walk, ...]
    snakes: Tuple[Walk, ...]

    def __post_init__(self):
        if not isinstance(self.coords, MappingProxyType):
            object.__setattr__(self, "coords", MappingProxyType(dict(self.coords)))

    @functools.cached_property
    def rotations(self) -> Dict[int, Tuple[Tuple[int, int], ...]]:
        """(edge id, neighbour) at each vertex, in the clockwise order of the
        drawing's `rotation_system`, sorted once per wall."""
        return {
            v: tuple((eid, self.graph.other_end(eid, v)) for eid, _ in darts)
            for v, darts in rotation_system(self.graph, self.coords).items()
        }


# ---------------------------------------------------------------------------
# planar faces from coordinates


def rotation_system(graph: LabeledGraph, coords: Mapping[int, Tuple[int, int]]) -> Dict[int, Tuple[Tuple[int, int], ...]]:
    """The darts (edge id, 0 leaving the tail or 1 leaving the head) at each
    vertex of the straight-line drawing, sorted by angle: clockwise as
    drawn, since y grows downward."""
    rotations = {}
    for v in graph.vertices:
        x, y = coords[v]
        darts = []
        for eid in graph.incident(v):
            e = graph.edge(eid)
            d, w = (0, e.head) if e.tail == v else (1, e.tail)
            darts.append((math.atan2(coords[w][1] - y, coords[w][0] - x), (eid, d)))
        darts.sort()
        rotations[v] = tuple(dart for _, dart in darts)
    return rotations


def trace_faces(graph: LabeledGraph, coords: Mapping[int, Tuple[int, int]]) -> List[List[Tuple[int, int]]]:
    """Faces of the straight-line embedding, each as a list of directed
    edges (edge id, source vertex): the `rotation_system` of the drawing,
    traced by `trace_embedded_faces`."""
    return [
        [(eid, graph.edge(eid).head if d else graph.edge(eid).tail) for eid, d in face]
        for face in trace_embedded_faces(EmbeddedGraph(graph, rotation_system(graph, coords)))
    ]


# ---------------------------------------------------------------------------
# anatomy assembly


def _cut(walk: Walk, first_in: Iterable[int], last_in: Iterable[int]) -> Walk:
    first_in, last_in = set(first_in), set(last_in)
    i = next(k for k, v in enumerate(walk.vertices) if v in first_in)
    j = max(k for k, v in enumerate(walk.vertices) if v in last_in)
    if j < i:
        raise WallFormatError("path segment is empty")
    return Walk(walk.vertices[i : j + 1], walk.edges[i:j])


def _strip(walk: Walk, head_set: Iterable[int], tail_set: Iterable[int]) -> Walk:
    head_set, tail_set = set(head_set), set(tail_set)
    vs, es = list(walk.vertices), list(walk.edges)
    while es and vs[0] in head_set and vs[1] in head_set:
        vs.pop(0)
        es.pop(0)
    while es and vs[-1] in tail_set and vs[-2] in tail_set:
        vs.pop()
        es.pop()
    return Walk(tuple(vs), tuple(es))


def _assemble(
    graph: LabeledGraph,
    coords: Mapping[int, Tuple[int, int]],
    rows: Sequence[Walk],
    snakes: Sequence[Walk],
) -> Wall:
    """Build the full wall anatomy from the (cut but unstripped) horizontal
    rows and vertical snakes whose union is the wall."""
    if len(rows) != len(snakes):
        raise WallFormatError("a wall needs as many horizontal as vertical paths")
    r = len(rows) - 1
    branch = frozenset(v for w in rows for v in w.vertices) & frozenset(
        v for w in snakes for v in w.vertices
    )
    top, bottom = set(rows[0].vertices), set(rows[-1].vertices)
    verticals = []
    for s in snakes:
        s = _strip(s, top, bottom)
        if s.start not in top:
            s = s.reversed()
        verticals.append(s)
    left, right = set(verticals[0].vertices), set(verticals[-1].vertices)
    horizontals = []
    for w in rows:
        w = _strip(w, left, right)
        if w.start not in left:
            w = w.reversed()
        horizontals.append(w)
    corners = (verticals[0].start, verticals[-1].start, verticals[-1].end, verticals[0].end)
    boundary_walk = (
        horizontals[0]
        .concat(verticals[-1])
        .concat(horizontals[-1].reversed())
        .concat(verticals[0].reversed())
    )
    boundary = Cycle(boundary_walk.vertices, boundary_walk.edges)
    faces = trace_faces(graph, coords)
    boundary_edges = boundary.edge_set()
    bricks = []
    outer_skipped = False
    for face in faces:
        edge_ids = frozenset(eid for eid, _ in face)
        if edge_ids == boundary_edges and not outer_skipped:
            # for r = 1 both traced faces equal the boundary; drop just one
            outer_skipped = True
            continue
        vs = tuple(src for _, src in face)
        first = min(range(len(vs)), key=lambda k: vs[k])
        vs = vs[first:] + vs[:first]
        es = tuple(eid for eid, _ in face)
        es = es[first:] + es[:first]
        bricks.append(Cycle(vs + (vs[0],), es))
    if len(bricks) != r * r:
        raise WallFormatError(f"expected {r * r} bricks, found {len(bricks)}")
    bricks.sort(
        key=lambda b: (
            min(coords[v][1] for v in b.vertex_set()),
            min(coords[v][0] for v in b.vertex_set()),
        )
    )
    wall = Wall(
        graph=graph,
        r=r,
        coords=coords,
        branch=branch,
        corners=corners,
        nails=_canonical_nails(graph, branch, boundary, corners),
        horizontal=tuple(horizontals),
        vertical=tuple(verticals),
        bricks=tuple(bricks),
        boundary=boundary,
        rows=tuple(rows),
        snakes=tuple(snakes),
    )
    validate_wall(wall)
    return wall


def _canonical_nails(graph, branch, boundary, corners) -> Tuple[int, ...]:
    return tuple(
        sorted(
            v
            for v in boundary.vertex_set()
            if v in branch and graph.degree(v) == 2 and v not in corners
        )
    )


# ---------------------------------------------------------------------------
# elementary walls


def elementary_wall(r: int, descriptor: Optional[groups.GroupDescriptor] = None) -> Wall:
    """The elementary r-wall: the 2(r+1) x (r+1) grid with alternating
    vertical edges, minus the two resulting degree-1 vertices; all labels
    identity."""
    if r < 2:
        raise WallFormatError("wall size must be at least 2")
    return _elementary(r, descriptor)


def _elementary(r: int, descriptor: Optional[groups.GroupDescriptor] = None) -> Wall:
    """elementary_wall without the size guard: r = 1 (a single hexagon)
    is allowed here and used for height-1 attachment constructions."""
    if r < 1:
        raise WallFormatError("wall size must be at least 1")
    return _build_elementary(r, descriptor if descriptor is not None else groups.integers())


@functools.lru_cache(maxsize=16)
def _build_elementary(r: int, desc: groups.GroupDescriptor) -> Wall:
    """The validated elementary r-wall over `desc`, built once per
    `(r, desc)` while it stays among the 16 most recently used."""
    width, height = 2 * (r + 1), r + 1

    def vid(x, y):
        return y * width + x

    arcs = []
    for y in range(height):
        for x in range(width - 1):
            arcs.append(((x, y), (x + 1, y)))
    for y in range(height - 1):
        for x in range(width):
            if (x + y) % 2 == 1:
                arcs.append(((x, y), (x, y + 1)))
    degree: Dict[Tuple[int, int], int] = {}
    for a, b in arcs:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    dropped = {p for p, d in degree.items() if d == 1}
    if len(dropped) != 2:
        raise WallFormatError("grid pruning must leave exactly two degree-1 vertices")
    ident = groups.identity(desc)
    edges = []
    for a, b in arcs:
        if a in dropped or b in dropped:
            continue
        edges.append(Edge(len(edges), vid(*a), vid(*b), ident))
    verts = sorted({v for e in edges for v in (e.tail, e.head)})
    graph = LabeledGraph(desc, verts, edges)
    coords = {vid(x, y): (x, y) for y in range(height) for x in range(width) if (x, y) not in dropped}

    by_ends = {frozenset((e.tail, e.head)): e.id for e in edges}

    def walk_of(vs: List[int]) -> Walk:
        return Walk(tuple(vs), tuple(by_ends[frozenset((vs[i], vs[i + 1]))] for i in range(len(vs) - 1)))

    rows = []
    for y in range(height):
        vs = [vid(x, y) for x in range(width) if (x, y) not in dropped]
        rows.append(walk_of(vs))
    # snake i zigzags down grid columns 2i and 2i + 1: even rows left to right,
    # odd rows right to left, each row's last vertex above the next row's first
    snakes = []
    for i in range(r + 1):
        pair = (2 * i, 2 * i + 1)
        vs = [vid(x, y) for y in range(height) for x in (pair[::-1] if y % 2 else pair) if (x, y) not in dropped]
        snakes.append(walk_of(vs))
    return _assemble(graph, coords, rows, snakes)


# ---------------------------------------------------------------------------
# validation


def _on_graph(graph: LabeledGraph, walk: Walk) -> None:
    """WallFormatError unless each step of the walk follows its edge."""
    try:
        walk.validate(graph)
    except GraphFormatError as exc:
        raise WallFormatError(f"anatomy walk off the graph: {exc}") from None


def validate_wall(wall: Wall) -> None:
    g, r = wall.graph, wall.r
    if len(wall.horizontal) != r + 1 or len(wall.vertical) != r + 1:
        raise WallFormatError("anatomy must hold r+1 horizontal and vertical paths")
    if len(wall.rows) != r + 1 or len(wall.snakes) != r + 1:
        raise WallFormatError("anatomy must hold r+1 rows and snakes")
    for v in g.vertices:
        if g.degree(v) > 3:
            raise WallFormatError(f"vertex {v} has degree above 3")
    for w in wall.rows + wall.snakes + wall.horizontal + wall.vertical:
        _on_graph(g, w)
        if not w.is_path():
            raise WallFormatError("anatomy paths must be simple")
    for fam in (wall.horizontal, wall.vertical):
        used = set()
        for w in fam:
            if used & set(w.vertices):
                raise WallFormatError("anatomy paths of one family must be disjoint")
            used |= set(w.vertices)
    top, bottom = set(wall.horizontal[0].vertices), set(wall.horizontal[-1].vertices)
    for w in wall.vertical:
        if w.start not in top or w.end not in bottom:
            raise WallFormatError("vertical paths must run from the top row to the bottom row")
        if any(v in top or v in bottom for v in w.vertices[1:-1]):
            raise WallFormatError("vertical paths meet the outer rows only at their ends")
    left, right = set(wall.vertical[0].vertices), set(wall.vertical[-1].vertices)
    for w in wall.horizontal[1:-1]:
        if w.start not in left or w.end not in right:
            raise WallFormatError("horizontal paths must run between the outer vertical paths")
        if any(v in left or v in right or v in top or v in bottom for v in w.vertices[1:-1]):
            raise WallFormatError("horizontal paths meet the outer paths only at their ends")
    covered = set()
    for w in list(wall.horizontal) + list(wall.vertical):
        covered |= set(w.edges)
    if covered != set(g.edge_ids()):
        raise WallFormatError("wall edges must decompose into horizontal and vertical paths")
    if not wall.branch <= g.vertices:
        raise WallFormatError("branch vertices must be vertices of the graph")
    if len(set(wall.corners)) != 4:
        raise WallFormatError("a wall has four corners")
    boundary_vs = wall.boundary.vertex_set()
    for c in wall.corners:
        if c not in boundary_vs or g.degree(c) != 2:
            raise WallFormatError("corners must be degree-2 boundary vertices")
    _on_graph(g, wall.boundary)
    if len(wall.bricks) != r * r:
        raise WallFormatError(f"a {r}-wall has {r * r} bricks")
    for b in wall.bricks:
        _on_graph(g, b)
        if sum(1 for v in b.vertex_set() if v in wall.branch) != 6:
            raise WallFormatError("every brick passes through exactly six branch vertices")
    for n in wall.nails:
        if n not in boundary_vs or g.degree(n) != 2 or n in wall.corners or n not in wall.branch:
            raise WallFormatError("nails must be degree-2 non-corner branch boundary vertices")


# ---------------------------------------------------------------------------
# subwalls


def subwall(wall: Wall, index_h: Iterable[int], index_v: Iterable[int]) -> Wall:
    ih, iv = sorted(set(index_h)), sorted(set(index_v))
    if len(ih) != len(iv):
        raise WallFormatError("index sets must have equal size")
    if len(ih) < 3:
        raise WallFormatError("a subwall has size at least 2")
    for idx in ih + iv:
        if not 0 <= idx <= wall.r:
            raise WallFormatError(f"index {idx} out of range")
    top_set = set(wall.rows[ih[0]].vertices)
    bottom_set = set(wall.rows[ih[-1]].vertices)
    pre = []
    for i in iv:
        s = _strip(_cut(wall.snakes[i], top_set, bottom_set), top_set, bottom_set)
        if s.start not in top_set:
            s = s.reversed()
        pre.append(s)
    left, right = set(pre[0].vertices), set(pre[-1].vertices)
    rows = [_cut(wall.rows[j], left, right) for j in ih]
    # re-cut the verticals maximally within the final row spans so the
    # rungs on the outer rows (the future nails) stay on the snakes
    row_top, row_bottom = set(rows[0].vertices), set(rows[-1].vertices)
    snakes = [_cut(wall.snakes[i], row_top, row_bottom) for i in iv]
    edge_ids = {eid for w in rows + snakes for eid in w.edges}
    graph = wall.graph.subgraph(edge_ids)
    coords = {v: wall.coords[v] for v in graph.vertices}
    return _assemble(graph, coords, rows, snakes)


def containment_indices(sub: Wall, wall: Wall) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The parent indices of the horizontal and vertical paths hosting the
    subwall's paths (by edge containment)."""

    def host(paths, parents, kind):
        out = []
        for w in paths:
            es = set(w.edges)
            match = [j for j, p in enumerate(parents) if es <= set(p.edges)]
            if len(match) != 1:
                raise WallFormatError(f"not a subwall: {kind} path has no unique host")
            out.append(match[0])
        return tuple(out)

    return (
        host(sub.horizontal, wall.rows, "horizontal"),
        host(sub.vertical, wall.snakes, "vertical"),
    )


def is_k_contained(sub: Wall, wall: Wall, k: int) -> bool:
    ih, iv = containment_indices(sub, wall)
    lo = min(min(ih), min(iv))
    hi = max(max(ih), max(iv))
    return lo >= k and hi <= wall.r - k


def top_nails(sub: Wall, wall: Wall) -> Tuple[int, ...]:
    """Nails of the subwall with respect to the parent that lie on the
    subwall's top horizontal path, ordered along the parent's path."""
    ih, _ = containment_indices(sub, wall)
    j = min(ih)
    parent_top = wall.horizontal[j]
    top = sub.horizontal[list(ih).index(j)]
    eligible = {
        v
        for v in sub.boundary.vertex_set()
        if sub.graph.degree(v) == 2 and wall.graph.degree(v) == 3 and v not in sub.corners
    }
    order = {v: k for k, v in enumerate(parent_top.vertices)}
    return tuple(sorted((v for v in top.vertices if v in eligible), key=order.__getitem__))


# ---------------------------------------------------------------------------
# local rerouting


def _splice_walk(walk: Walk, old: Walk, new: Walk) -> Walk:
    """Replace the contiguous edge run `old` inside `walk` by `new` (if
    present, matching either orientation)."""
    m = len(old.edges)
    if m == 0 or m > len(walk.edges):
        return walk
    for i in range(len(walk.edges) - m + 1):
        seg = walk.edges[i : i + m]
        if seg == old.edges or seg == tuple(reversed(old.edges)):
            head = Walk(walk.vertices[: i + 1], walk.edges[:i])
            tail = Walk(walk.vertices[i + m :], walk.edges[i + m :])
            mid = new if new.start == head.end else new.reversed()
            return head.concat(mid).concat(tail)
    return walk


def _splice_cycle(cycle: Cycle, old: Walk, new: Walk) -> Cycle:
    if not (set(old.edges) <= set(cycle.edges)):
        return cycle
    # rotate so the replaced run does not wrap around the root
    n = len(cycle.edges)
    for shift_by in range(n):
        vs = cycle.vertices[shift_by:-1] + cycle.vertices[: shift_by + 1]
        es = cycle.edges[shift_by:] + cycle.edges[:shift_by]
        as_walk = Walk(vs, es)
        spliced = _splice_walk(as_walk, old, new)
        if spliced is not as_walk:
            return Cycle(spliced.vertices, spliced.edges)
    raise WallFormatError("cycle does not contain the replaced segment contiguously")


def local_reroute(wall: Wall, pprime: Walk, q: Walk, host: Optional[LabeledGraph] = None) -> Wall:
    """Replace the vertical segment `pprime` (a subdivided wall edge with
    branch-vertex ends, off the boundary cycle) by the wall-path `q` taken
    from `host`; the result is revalidated as a wall."""
    g = wall.graph
    host = host if host is not None else g
    pprime.validate(g)
    if not pprime.is_path() or not pprime.edges:
        raise WallFormatError("the replaced segment must be a nonempty path")
    x, y = pprime.start, pprime.end
    if x not in wall.branch or y not in wall.branch:
        raise WallFormatError("the replaced segment must join two branch vertices")
    if any(v in wall.branch for v in pprime.vertices[1:-1]):
        raise WallFormatError("the replaced segment may not pass through a branch vertex")
    p_edges = set(pprime.edges)
    if not any(p_edges <= set(w.edges) for w in wall.vertical):
        raise WallFormatError("the replaced segment must lie on a vertical path")
    if not any({x, y} <= b.vertex_set() for b in wall.bricks):
        raise WallFormatError("the segment ends must share a brick")
    if p_edges <= wall.boundary.edge_set():
        raise WallFormatError("boundary segments may not be rerouted")
    q.validate(host)
    if not q.is_path() or not q.edges:
        raise WallFormatError("the replacement must be a nonempty path")
    if {q.start, q.end} != {x, y}:
        raise WallFormatError("the replacement must join the same two vertices")
    if q.edge_set() == pprime.edge_set():
        return wall
    if any(v in g.vertices for v in q.vertices[1:-1]):
        raise WallFormatError("the replacement must be internally disjoint from the wall")
    keep = [e for e in g.edges.values() if e.id not in p_edges]
    added = [host.edge(eid) for eid in q.edges]
    if {e.id for e in added} & {e.id for e in keep}:
        raise WallFormatError("replacement edges collide with wall edge ids")
    new_edges = keep + added
    verts = sorted({v for e in new_edges for v in (e.tail, e.head)})
    new_graph = LabeledGraph(g.descriptor, verts, new_edges)
    rerouted = Wall(
        graph=new_graph,
        r=wall.r,
        coords=wall.coords,
        branch=wall.branch,
        corners=wall.corners,
        nails=wall.nails,
        horizontal=tuple(_splice_walk(w, pprime, q) for w in wall.horizontal),
        vertical=tuple(_splice_walk(w, pprime, q) for w in wall.vertical),
        bricks=tuple(_splice_cycle(b, pprime, q) for b in wall.bricks),
        boundary=wall.boundary,
        rows=tuple(_splice_walk(w, pprime, q) for w in wall.rows),
        snakes=tuple(_splice_walk(w, pprime, q) for w in wall.snakes),
    )
    validate_wall(rerouted)
    return rerouted


# ---------------------------------------------------------------------------
# serialization


def encode_wall(wall: Wall) -> dict:
    def enc_walk(w: Walk) -> dict:
        return {"vertices": list(w.vertices), "edges": list(w.edges)}

    return {
        "graph": encode_graph(wall.graph),
        "anatomy": {
            "r": wall.r,
            "coords": {str(v): list(xy) for v, xy in wall.coords.items()},
            "branch": sorted(wall.branch),
            "corners": list(wall.corners),
            "nails": list(wall.nails),
            "horizontal": [enc_walk(w) for w in wall.horizontal],
            "vertical": [enc_walk(w) for w in wall.vertical],
            "bricks": [enc_walk(b) for b in wall.bricks],
            "boundary": enc_walk(wall.boundary),
            "rows": [enc_walk(w) for w in wall.rows],
            "snakes": [enc_walk(w) for w in wall.snakes],
        },
    }


def decode_wall(data: dict) -> Wall:
    """Parse an `encode_wall` payload.  The size, the coordinate keys and
    the (x, y) coordinates, the branch vertices, corners and nails, and the
    vertices and edges of every anatomy walk are integers by
    `groups.as_integer`; a payload that is no mapping, a missing graph or
    anatomy key or a value of the wrong kind raises WallFormatError, as a
    bad `decode_graph` payload raises GraphFormatError."""
    try:
        graph_data, a = data["graph"], data["anatomy"]
    except (KeyError, TypeError) as exc:
        raise WallFormatError(f"malformed wall payload: {exc}") from exc
    graph = decode_graph(graph_data)
    as_int = groups.as_integer

    def ints(xs) -> Tuple[int, ...]:
        return tuple(map(as_int, xs))

    def dec_walk(d: dict) -> Walk:
        return Walk(ints(d["vertices"]), ints(d["edges"]))

    def dec_cycle(d: dict) -> Cycle:
        return Cycle(ints(d["vertices"]), ints(d["edges"]))

    try:
        wall = Wall(
            graph=graph,
            r=as_int(a["r"]),
            coords={as_int(v): (as_int(x), as_int(y)) for v, (x, y) in a["coords"].items()},
            branch=frozenset(ints(a["branch"])),
            corners=ints(a["corners"]),
            nails=ints(a["nails"]),
            horizontal=tuple(dec_walk(d) for d in a["horizontal"]),
            vertical=tuple(dec_walk(d) for d in a["vertical"]),
            bricks=tuple(dec_cycle(d) for d in a["bricks"]),
            boundary=dec_cycle(a["boundary"]),
            rows=tuple(dec_walk(d) for d in a["rows"]),
            snakes=tuple(dec_walk(d) for d in a["snakes"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise WallFormatError(f"malformed wall payload: {exc}") from exc
    validate_wall(wall)
    return wall
