"""Directed road networks embedded in the plane, and their grid refinement.

A road graph is loaded from a plain-text file (see `load_graph`), then
`overlay_grid` cuts every edge at the boundaries of a square grid so that each
refined edge lies inside exactly one cell. Detection-driven belief updates and
cell selection operate on the refined graph / overlay pair.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

# Refined-edge pieces shorter than this are merged into a neighboring piece
# to avoid carrying degenerate slivers of probability mass.
MIN_PIECE_LENGTH = 1e-3

# Interior cut parameters closer than this to an endpoint are ignored; keeps
# re-splitting an already split graph from producing spurious zero cuts.
_PARAM_EPS = 1e-9


class GraphFormatError(ValueError):
    """Raised for malformed or inconsistent graph files."""


@dataclass(frozen=True)
class Vertex:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Edge:
    id: int
    tail: int
    head: int
    length: float


class RoadGraph:
    """Directed road network. Immutable after construction.

    `entries` are the edges where targets may appear; `goals` is an ordered
    tuple of goal sets (edge-id frozensets). Goal sets may overlap each other
    but never the entry set.
    """

    def __init__(
        self,
        vertices: dict[int, Vertex],
        edges: dict[int, Edge],
        entries: frozenset[int] = frozenset(),
        goals: tuple[frozenset[int], ...] = (),
    ):
        self.vertices = vertices
        self.edges = edges
        self.entries = frozenset(entries)
        self.goals = tuple(frozenset(g) for g in goals)
        self.goal_union: frozenset[int] = frozenset().union(*self.goals) if self.goals else frozenset()
        self._out: dict[int, list[int]] = {v: [] for v in vertices}
        self._in: dict[int, list[int]] = {v: [] for v in vertices}
        for eid in sorted(edges):
            e = edges[eid]
            self._out[e.tail].append(eid)
            self._in[e.head].append(eid)
        self._goal_dist_cache: dict[frozenset[int], dict[int, float]] = {}
        # (strategy, entry, goal index) -> truncated route; see strategies.
        self._route_cache: dict[tuple, tuple[int, ...]] = {}

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def out_of_vertex(self, v: int) -> list[int]:
        return self._out[v]

    def in_of_vertex(self, v: int) -> list[int]:
        return self._in[v]

    def outgoing(self, edge_id: int) -> list[int]:
        """Edges that can follow `edge_id` on a directed walk."""
        return self._out[self.edges[edge_id].head]

    def incoming(self, edge_id: int) -> list[int]:
        """Edges e' with head(e') == tail(e): the possible predecessors of e."""
        return self._in[self.edges[edge_id].tail]


class RefinedGraph(RoadGraph):
    """A road graph whose edges were cut at grid-cell boundaries.

    Vertex and edge ids are reindexed to 0..V-1 / 0..E-1. Every refined edge
    remembers its parent edge and the offset interval it covers along it;
    entry / goal membership is inherited from the parent.
    """

    def __init__(
        self,
        vertices: dict[int, Vertex],
        edges: dict[int, Edge],
        entries: frozenset[int],
        goals: tuple[frozenset[int], ...],
        parent_edge: dict[int, int],
        parent_span: dict[int, tuple[float, float]],
    ):
        super().__init__(vertices, edges, entries, goals)
        self.parent_edge = parent_edge
        self.parent_span = parent_span


@dataclass
class GridOverlay:
    """Axis-aligned square grid paired with a refined graph.

    `cell_side` is sqrt(2) * r for team-minimum detection radius r: the side
    of the largest square inscribed in the detection circle. Cell ids are
    row * n_cols + col, rows growing with y.
    """

    origin: tuple[float, float]
    cell_side: float
    n_rows: int
    n_cols: int
    cell_of_edge: np.ndarray  # refined edge id -> cell id

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols

    def cell_center(self, cell_id: int) -> tuple[float, float]:
        row, col = divmod(cell_id, self.n_cols)
        return (
            self.origin[0] + (col + 0.5) * self.cell_side,
            self.origin[1] + (row + 0.5) * self.cell_side,
        )

    def cell_of_point(self, x: float, y: float) -> int:
        col = int(math.floor((x - self.origin[0]) / self.cell_side))
        row = int(math.floor((y - self.origin[1]) / self.cell_side))
        if not (0 <= row < self.n_rows and 0 <= col < self.n_cols):
            raise ValueError(f"point ({x}, {y}) lies outside the grid")
        return row * self.n_cols + col

    def edge_mask(self, cells: Iterable[int]) -> np.ndarray:
        """Boolean mask over refined edges: True where the edge's cell is in `cells`."""
        in_cells = np.zeros(self.n_cells, dtype=bool)
        in_cells[np.fromiter(cells, dtype=np.intp)] = True
        return in_cells[self.cell_of_edge]

    def covered_cells(self, x: float, y: float, radius: float) -> list[int]:
        """Cells whose full square lies inside the disk around (x, y).

        A cell counts as searchable from (x, y) only when every point of it is
        within `radius`, i.e. the center is within radius - circumradius.
        """
        reach = radius - self.cell_side * math.sqrt(2.0) / 2.0 + 1e-9
        if reach < 0:
            return []
        cs = self.cell_side
        lo_col = max(0, int(math.floor((x - reach - self.origin[0]) / cs - 0.5)))
        hi_col = min(self.n_cols - 1, int(math.ceil((x + reach - self.origin[0]) / cs - 0.5)))
        lo_row = max(0, int(math.floor((y - reach - self.origin[1]) / cs - 0.5)))
        hi_row = min(self.n_rows - 1, int(math.ceil((y + reach - self.origin[1]) / cs - 0.5)))
        out = []
        for row in range(lo_row, hi_row + 1):
            for col in range(lo_col, hi_col + 1):
                cx = self.origin[0] + (col + 0.5) * cs
                cy = self.origin[1] + (row + 0.5) * cs
                if math.hypot(cx - x, cy - y) <= reach:
                    out.append(row * self.n_cols + col)
        return out


# ---------------------------------------------------------------------------
# File format


def _tokens(path: str) -> list[tuple[int, list[str]]]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(";"):
                continue
            out.append((lineno, line.split()))
    return out


def load_graph(path: str) -> RoadGraph:
    """Parse a road graph file.

    Sections are introduced by `#vertices`, `#edges`, `#entries`, `#goals`;
    `;` starts a comment line. Vertices are `id x y` (meters), edges
    `id tail head` (length is the Euclidean distance between endpoints),
    entries `edge_id`, goals `goal_index edge_id` with contiguous indices.
    """
    vertices: dict[int, Vertex] = {}
    edges_raw: list[tuple[int, int, int, int]] = []
    entry_lines: list[tuple[int, int]] = []
    goal_lines: list[tuple[int, int, int]] = []
    section = None
    known = {"#vertices", "#edges", "#entries", "#goals"}

    for lineno, toks in _tokens(path):
        if toks[0].startswith("#"):
            if toks[0] not in known or len(toks) != 1:
                raise GraphFormatError(f"{path}:{lineno}: unknown section header {toks[0]!r}")
            section = toks[0]
            continue
        if section is None:
            raise GraphFormatError(f"{path}:{lineno}: data before any section header")
        try:
            if section == "#vertices":
                if len(toks) != 3:
                    raise ValueError
                vid, x, y = int(toks[0]), float(toks[1]), float(toks[2])
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError
                if vid in vertices:
                    raise GraphFormatError(f"{path}:{lineno}: duplicate vertex id {vid}")
                vertices[vid] = Vertex(vid, x, y)
            elif section == "#edges":
                if len(toks) != 3:
                    raise ValueError
                edges_raw.append((lineno, int(toks[0]), int(toks[1]), int(toks[2])))
            elif section == "#entries":
                if len(toks) != 1:
                    raise ValueError
                entry_lines.append((lineno, int(toks[0])))
            else:
                if len(toks) != 2:
                    raise ValueError
                goal_lines.append((lineno, int(toks[0]), int(toks[1])))
        except GraphFormatError:
            raise
        except ValueError:
            raise GraphFormatError(f"{path}:{lineno}: malformed {section[1:]} line: {' '.join(toks)!r}") from None

    edges: dict[int, Edge] = {}
    for lineno, eid, tail, head in edges_raw:
        if eid in edges:
            raise GraphFormatError(f"{path}:{lineno}: duplicate edge id {eid}")
        if tail not in vertices or head not in vertices:
            raise GraphFormatError(f"{path}:{lineno}: edge {eid} references unknown vertex")
        if tail == head:
            raise GraphFormatError(f"{path}:{lineno}: edge {eid} is a self loop")
        length = math.hypot(vertices[head].x - vertices[tail].x, vertices[head].y - vertices[tail].y)
        if length <= 0.0:
            raise GraphFormatError(f"{path}:{lineno}: edge {eid} has zero length")
        edges[eid] = Edge(eid, tail, head, length)

    entries = set()
    for lineno, eid in entry_lines:
        if eid not in edges:
            raise GraphFormatError(f"{path}:{lineno}: unknown edge id {eid} in #entries")
        entries.add(eid)

    by_index: dict[int, set[int]] = {}
    for lineno, gidx, eid in goal_lines:
        if eid not in edges:
            raise GraphFormatError(f"{path}:{lineno}: unknown edge id {eid} in #goals")
        if eid in entries:
            raise GraphFormatError(f"{path}:{lineno}: edge {eid} is both an entry and a goal")
        by_index.setdefault(gidx, set()).add(eid)
    if by_index and sorted(by_index) != list(range(len(by_index))):
        raise GraphFormatError(f"{path}: goal indices must be contiguous from 0, got {sorted(by_index)}")
    goals = tuple(frozenset(by_index[i]) for i in range(len(by_index)))

    return RoadGraph(vertices, edges, frozenset(entries), goals)


def write_graph(g: RoadGraph, path: str, comment: str | None = None) -> None:
    lines = []
    if comment:
        lines.extend(f"; {c}" for c in comment.splitlines())
    lines.append("#vertices")
    lines.extend(f"{v.id} {v.x!r} {v.y!r}" for v in (g.vertices[i] for i in sorted(g.vertices)))
    lines.append("#edges")
    lines.extend(f"{e.id} {e.tail} {e.head}" for e in (g.edges[i] for i in sorted(g.edges)))
    lines.append("#entries")
    lines.extend(str(eid) for eid in sorted(g.entries))
    lines.append("#goals")
    for gidx, members in enumerate(g.goals):
        lines.extend(f"{gidx} {eid}" for eid in sorted(members))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Grid overlay


def _cut_params(p0: float, p1: float, origin: float, side: float) -> list[float]:
    # Parameters in (0, 1) where the segment coordinate crosses a grid line.
    if p0 == p1:
        return []
    lo, hi = min(p0, p1), max(p0, p1)
    k_lo = math.ceil((lo - origin) / side)
    k_hi = math.floor((hi - origin) / side)
    cuts = []
    for k in range(k_lo, k_hi + 1):
        coord = origin + k * side
        t = (coord - p0) / (p1 - p0)
        if _PARAM_EPS < t < 1.0 - _PARAM_EPS:
            cuts.append(t)
    return cuts


def overlay_grid(g: RoadGraph, r: float) -> tuple[RefinedGraph, GridOverlay]:
    """Refine `g` against a square grid of side sqrt(2) * r.

    Every original edge is cut where it crosses a cell boundary, so each
    refined edge lies inside a single cell (pieces shorter than 1 mm are
    merged into a neighbor). The grid origin sits one full cell below/left of
    the bounding box of the vertices, leaving a hover margin on all sides.
    """
    if r <= 0:
        raise ValueError("detection radius must be positive")
    if not g.vertices:
        raise ValueError("cannot overlay an empty graph")
    cell_side = math.sqrt(2.0) * r

    xs = [v.x for v in g.vertices.values()]
    ys = [v.y for v in g.vertices.values()]
    origin = (min(xs) - cell_side, min(ys) - cell_side)
    n_cols = max(1, math.ceil((max(xs) + cell_side - origin[0]) / cell_side))
    n_rows = max(1, math.ceil((max(ys) + cell_side - origin[1]) / cell_side))

    new_vertices: dict[int, Vertex] = {}
    vertex_of_old: dict[int, int] = {}
    for old_id in sorted(g.vertices):
        v = g.vertices[old_id]
        nid = len(new_vertices)
        new_vertices[nid] = Vertex(nid, v.x, v.y)
        vertex_of_old[old_id] = nid

    new_edges: dict[int, Edge] = {}
    parent_edge: dict[int, int] = {}
    parent_span: dict[int, tuple[float, float]] = {}
    pieces_of_parent: dict[int, list[int]] = {}

    for old_id in sorted(g.edges):
        e = g.edges[old_id]
        t0, h0 = g.vertices[e.tail], g.vertices[e.head]
        cuts = sorted(
            _cut_params(t0.x, h0.x, origin[0], cell_side)
            + _cut_params(t0.y, h0.y, origin[1], cell_side)
        )
        # Merge cuts that would leave a piece shorter than MIN_PIECE_LENGTH.
        kept: list[float] = []
        min_t = MIN_PIECE_LENGTH / e.length
        for t in cuts:
            if (t - (kept[-1] if kept else 0.0)) >= min_t:
                kept.append(t)
        while kept and (1.0 - kept[-1]) < min_t:
            kept.pop()

        chain = [vertex_of_old[e.tail]]
        for t in kept:
            nid = len(new_vertices)
            new_vertices[nid] = Vertex(nid, t0.x + t * (h0.x - t0.x), t0.y + t * (h0.y - t0.y))
            chain.append(nid)
        chain.append(vertex_of_old[e.head])

        offsets = [0.0] + [t * e.length for t in kept] + [e.length]
        pieces_of_parent[old_id] = []
        for i in range(len(chain) - 1):
            a, b = new_vertices[chain[i]], new_vertices[chain[i + 1]]
            eid = len(new_edges)
            new_edges[eid] = Edge(eid, a.id, b.id, math.hypot(b.x - a.x, b.y - a.y))
            parent_edge[eid] = old_id
            parent_span[eid] = (offsets[i], offsets[i + 1])
            pieces_of_parent[old_id].append(eid)

    entries = frozenset(eid for eid, p in parent_edge.items() if p in g.entries)
    goals = tuple(
        frozenset(eid for eid, p in parent_edge.items() if p in goal_set) for goal_set in g.goals
    )
    refined = RefinedGraph(new_vertices, new_edges, entries, goals, parent_edge, parent_span)

    cell_of_edge = np.empty(len(new_edges), dtype=np.int64)
    for eid in range(len(new_edges)):
        e = new_edges[eid]
        a, b = new_vertices[e.tail], new_vertices[e.head]
        mx, my = (a.x + b.x) / 2.0, (a.y + b.y) / 2.0
        col = int(math.floor((mx - origin[0]) / cell_side))
        row = int(math.floor((my - origin[1]) / cell_side))
        cell_of_edge[eid] = row * n_cols + col

    overlay = GridOverlay(origin, cell_side, n_rows, n_cols, cell_of_edge)
    return refined, overlay


def entry_start_edges(g: RefinedGraph) -> list[int]:
    """One refined edge per original entry: the piece where targets appear.

    Returns the offset-zero piece of each parent entry edge, ordered by
    parent id.
    """
    starts: dict[int, int] = {}
    for eid in sorted(g.entries):
        parent = g.parent_edge[eid]
        if g.parent_span[eid][0] == 0.0:
            starts[parent] = eid
    return [starts[p] for p in sorted(starts)]


# ---------------------------------------------------------------------------
# Shortest paths


def shortest_path(
    g: RoadGraph,
    from_edge: int,
    goal_set: frozenset[int] | set[int],
    weight=None,
) -> list[int] | None:
    """Minimal-travel directed edge path from `from_edge` into `goal_set`.

    Travel is measured from the head of `from_edge`; entering a goal edge
    costs nothing (a target wins at the goal edge's tail). The returned path
    includes `from_edge` first and the goal edge last. Returns None when no
    goal edge is reachable. `weight` replaces the edge-length metric for
    non-goal hops (used by detour-seeking strategies).
    """
    if from_edge not in g.edges:
        raise KeyError(f"unknown edge id {from_edge}")
    if from_edge in goal_set:
        return [from_edge]
    if weight is None:
        weight = lambda eid: g.edges[eid].length  # noqa: E731
    dist: dict[int, float] = {from_edge: 0.0}
    parent: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(0.0, from_edge)]
    done: set[int] = set()
    while heap:
        d, e = heapq.heappop(heap)
        if e in done:
            continue
        done.add(e)
        if e in goal_set:
            path = [e]
            while path[-1] != from_edge:
                path.append(parent[path[-1]])
            return path[::-1]
        for nxt in g.outgoing(e):
            w = 0.0 if nxt in goal_set else weight(nxt)
            nd = d + w
            if nd < dist.get(nxt, math.inf):
                dist[nxt] = nd
                parent[nxt] = e
                heapq.heappush(heap, (nd, nxt))
    return None


def goal_distance_map(g: RoadGraph, goal_set: frozenset[int]) -> dict[int, float]:
    """Remaining travel from each edge's head until some goal edge is entered.

    D[e] = 0 when a goal edge starts at head(e) (or e itself is a goal);
    unreachable edges are absent. Cached per goal set on the graph.
    """
    goal_set = frozenset(goal_set)
    cached = g._goal_dist_cache.get(goal_set)
    if cached is not None:
        return cached
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    for eid in goal_set:
        dist[eid] = 0.0
        heapq.heappush(heap, (0.0, eid))
    done: set[int] = set()
    while heap:
        d, e = heapq.heappop(heap)
        if e in done:
            continue
        done.add(e)
        w = 0.0 if e in goal_set else g.edges[e].length
        for prev in g.incoming(e):
            nd = d + w
            if nd < dist.get(prev, math.inf):
                dist[prev] = nd
                heapq.heappush(heap, (nd, prev))
    g._goal_dist_cache[goal_set] = dist
    return dist


def travel_to_go(g: RoadGraph, edge_id: int, goal_set: frozenset[int], dist_map: dict[int, float]) -> float:
    """Travel left if the walk takes `edge_id` next (0 when it is a goal edge)."""
    if edge_id in goal_set:
        return 0.0
    d = dist_map.get(edge_id)
    return math.inf if d is None else g.edges[edge_id].length + d
