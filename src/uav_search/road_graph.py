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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Refined-edge pieces shorter than this are merged into a neighboring piece
# to avoid carrying degenerate slivers of probability mass.
MIN_PIECE_LENGTH = 1e-3

# Interior cut parameters closer than this to an endpoint are ignored; keeps
# re-splitting an already split graph from producing spurious zero cuts.
_PARAM_EPS = 1e-9


class GraphFormatError(ValueError):
    """Raised for malformed or inconsistent graph files."""


class RoadGraph:
    """Directed road network over vertices 0..V-1 and edges 0..E-1.

    The position of vertex v is `xy[v]` (meters); edge e runs from `tail[e]`
    to `head[e]` and is `length[e]` long, the Euclidean distance between its
    endpoints. `entries` are the edges where targets may appear; `goals` is an
    ordered tuple of goal sets (edge-id frozensets). Goal sets may overlap
    each other but never the entry set. Immutable after construction.
    """

    def __init__(
        self,
        xy,
        tail,
        head,
        entries: frozenset[int] = frozenset(),
        goals: tuple[frozenset[int], ...] = (),
    ):
        self.xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
        self.tail = np.asarray(tail, dtype=np.intp)
        self.head = np.asarray(head, dtype=np.intp)
        coords = self.xy.tolist()
        tails, heads = self.tail.tolist(), self.head.tolist()
        self.length = np.array(
            [math.hypot(coords[h][0] - coords[t][0], coords[h][1] - coords[t][1]) for t, h in zip(tails, heads)],
            dtype=np.float64,
        )
        self.entries = frozenset(entries)
        self.goals = tuple(frozenset(g) for g in goals)
        self.goal_union: frozenset[int] = frozenset().union(*self.goals)
        self.n_edges = len(tails)
        out: list[list[int]] = [[] for _ in coords]
        into: list[list[int]] = [[] for _ in coords]
        for eid, (t, h) in enumerate(zip(tails, heads)):
            out[t].append(eid)
            into[h].append(eid)
        self._next = [out[h] for h in heads]
        self._prev = [into[t] for t in tails]
        self._goal_dist_cache: dict[frozenset[int], dict[int, float]] = {}
        # (strategy, entry, goal index) -> truncated route; see strategies.
        self._route_cache: dict[tuple, tuple[int, ...]] = {}

    @cached_property
    def _walk_steps(self) -> dict[tuple, tuple[list[int], list[float]]]:
        """(walk strategy, goal index, edge) -> (candidates, cdf); see strategies."""
        return {}

    def outgoing(self, edge_id: int) -> list[int]:
        """Edges that can follow `edge_id` on a directed walk."""
        if not 0 <= edge_id < self.n_edges:
            raise KeyError(f"unknown edge id {edge_id}")
        return self._next[edge_id]

    def incoming(self, edge_id: int) -> list[int]:
        """Edges e' with head(e') == tail(e): the possible predecessors of e."""
        if not 0 <= edge_id < self.n_edges:
            raise KeyError(f"unknown edge id {edge_id}")
        return self._prev[edge_id]


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
    centers: list[tuple[float, float]] = field(init=False, repr=False, compare=False)  # cell id -> center

    def __post_init__(self):
        (x0, y0), side = self.origin, self.cell_side
        rows, cols = range(self.n_rows), range(self.n_cols)
        self.centers = [(x0 + (c + 0.5) * side, y0 + (r + 0.5) * side) for r in rows for c in cols]

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols

    def edge_mask(self, cells: Iterable[int]) -> np.ndarray:
        """Boolean mask over refined edges: True where the edge's cell is in `cells`."""
        in_cells = np.zeros(self.n_cells, dtype=bool)
        in_cells[np.fromiter(cells, dtype=np.intp)] = True
        return in_cells[self.cell_of_edge]

    def covered_cells(self, x: float, y: float, radius: float) -> list[int]:
        """Cells whose center lies within radius - circumradius of (x, y).

        The rule is conservative: every returned cell lies entirely inside the
        disk (up to a 1e-9 m slack), but a cell whose four corners are all
        inside the disk is left out when its center is farther than that.
        With 500 m cells and (x, y) on a grid corner, for example, the cell
        spanning x+500..x+1000 and y..y+500 has all four corners within
        1118 m, yet is returned only from a radius of 1144 m.
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
            for cid in range(row * self.n_cols + lo_col, row * self.n_cols + hi_col + 1):
                cx, cy = self.centers[cid]
                if math.hypot(cx - x, cy - y) <= reach:
                    out.append(cid)
        return out


# ---------------------------------------------------------------------------
# File format


def read_lines(path: str, error: type[ValueError]) -> list[str]:
    """The lines of a UTF-8 text file; a byte that is not UTF-8 raises
    `error` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})") from None


def _tokens(path: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(read_lines(path, GraphFormatError), start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        out.append((lineno, line.split()))
    return out


def _check_dense(path: str, kind: str, ids) -> None:
    missing = set(range(len(ids))) - set(ids)
    if missing:
        raise GraphFormatError(f"{path}: {kind} ids must be 0..{len(ids) - 1}; {kind} id {min(missing)} is missing")


def load_graph(path: str) -> RoadGraph:
    """Parse a road graph file.

    Sections are introduced by `#vertices`, `#edges`, `#entries`, `#goals`;
    `;` starts a comment line. Vertices are `id x y` (meters), edges
    `id tail head` (length is the Euclidean distance between endpoints),
    entries `edge_id`, goals `goal_index edge_id` with contiguous indices.
    The vertex ids and the edge ids must each be exactly 0..n-1, in any
    line order.
    """
    vertices: dict[int, tuple[float, float]] = {}
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
                vertices[vid] = (x, y)
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
    _check_dense(path, "vertex", vertices)

    edges: dict[int, tuple[int, int]] = {}
    for lineno, eid, tail, head in edges_raw:
        if eid in edges:
            raise GraphFormatError(f"{path}:{lineno}: duplicate edge id {eid}")
        if tail not in vertices or head not in vertices:
            raise GraphFormatError(f"{path}:{lineno}: edge {eid} references unknown vertex")
        if tail == head:
            raise GraphFormatError(f"{path}:{lineno}: edge {eid} is a self loop")
        if vertices[tail] == vertices[head]:
            raise GraphFormatError(f"{path}:{lineno}: edge {eid} has zero length")
        edges[eid] = (tail, head)
    _check_dense(path, "edge", edges)

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

    ends = [edges[e] for e in range(len(edges))]
    xy = [vertices[v] for v in range(len(vertices))]
    return RoadGraph(xy, [t for t, _ in ends], [h for _, h in ends], frozenset(entries), goals)


def write_graph(g: RoadGraph, path: str, comment: str | None = None) -> None:
    lines = []
    if comment:
        lines.extend(f"; {c}" for c in comment.splitlines())
    lines.append("#vertices")
    lines.extend(f"{v} {x!r} {y!r}" for v, (x, y) in enumerate(g.xy.tolist()))
    lines.append("#edges")
    lines.extend(f"{e} {t} {h}" for e, (t, h) in enumerate(zip(g.tail.tolist(), g.head.tolist())))
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


def overlay_grid(g: RoadGraph, r: float) -> tuple[RoadGraph, GridOverlay]:
    """Refine `g` against a square grid of side sqrt(2) * r.

    Every original edge is cut where it crosses a cell boundary, so each
    refined edge lies inside a single cell (pieces shorter than 1 mm are
    merged into a neighbor). The grid origin sits one full cell below/left of
    the bounding box of the vertices, leaving a hover margin on all sides.

    Original vertices keep their ids; cut points follow them. The pieces of
    each original edge get consecutive ids, in original edge order, and chain
    from its tail to its head. A refined entry is the first piece of each
    original entry edge (where targets appear); a refined goal set holds every
    piece of its original goal edges.
    """
    if r <= 0:
        raise ValueError("detection radius must be positive")
    if not len(g.xy):
        raise ValueError("cannot overlay an empty graph")
    cell_side = math.sqrt(2.0) * r

    xs, ys = g.xy[:, 0], g.xy[:, 1]
    origin = (float(xs.min()) - cell_side, float(ys.min()) - cell_side)
    n_cols = max(1, math.ceil((float(xs.max()) + cell_side - origin[0]) / cell_side))
    n_rows = max(1, math.ceil((float(ys.max()) + cell_side - origin[1]) / cell_side))

    xy = g.xy.tolist()
    tails: list[int] = []
    heads: list[int] = []
    pieces: list[range] = []
    for t, h, length in zip(g.tail.tolist(), g.head.tolist(), g.length.tolist()):
        (tx, ty), (hx, hy) = xy[t], xy[h]
        cuts = sorted(
            _cut_params(tx, hx, origin[0], cell_side)
            + _cut_params(ty, hy, origin[1], cell_side)
        )
        # Merge cuts that would leave a piece shorter than MIN_PIECE_LENGTH.
        kept: list[float] = []
        min_t = MIN_PIECE_LENGTH / length
        for c in cuts:
            if (c - (kept[-1] if kept else 0.0)) >= min_t:
                kept.append(c)
        while kept and (1.0 - kept[-1]) < min_t:
            kept.pop()

        chain = [t]
        for c in kept:
            chain.append(len(xy))
            xy.append([tx + c * (hx - tx), ty + c * (hy - ty)])
        chain.append(h)
        pieces.append(range(len(tails), len(tails) + len(chain) - 1))
        tails.extend(chain[:-1])
        heads.extend(chain[1:])

    entries = frozenset(pieces[e][0] for e in g.entries)
    goals = tuple(frozenset(p for e in goal_set for p in pieces[e]) for goal_set in g.goals)
    refined = RoadGraph(xy, tails, heads, entries, goals)

    mid = (refined.xy[refined.tail] + refined.xy[refined.head]) / 2.0
    col = np.floor((mid[:, 0] - origin[0]) / cell_side).astype(np.int64)
    row = np.floor((mid[:, 1] - origin[1]) / cell_side).astype(np.int64)
    overlay = GridOverlay(origin, cell_side, n_rows, n_cols, row * n_cols + col)
    return refined, overlay


# ---------------------------------------------------------------------------
# Shortest paths


def shortest_path(
    g: RoadGraph,
    from_edge: int,
    goal_set: frozenset[int] | set[int],
    weight: np.ndarray | None = None,
) -> list[int] | None:
    """Minimal-travel directed edge path from `from_edge` into `goal_set`.

    Travel is measured from the head of `from_edge`; entering a goal edge
    costs nothing (a target wins at the goal edge's tail). The returned path
    includes `from_edge` first and the goal edge last. Returns None when no
    goal edge is reachable. `weight`, an array over edge ids, replaces the
    edge-length metric for non-goal hops (used by detour-seeking strategies).
    """
    if not 0 <= from_edge < g.n_edges:
        raise KeyError(f"unknown edge id {from_edge}")
    if from_edge in goal_set:
        return [from_edge]
    hop = (g.length if weight is None else weight).tolist()
    nexts = g._next
    dist = [math.inf] * g.n_edges
    dist[from_edge] = 0.0
    parent = [-1] * g.n_edges
    done = [False] * g.n_edges
    heap: list[tuple[float, int]] = [(0.0, from_edge)]
    while heap:
        d, e = heapq.heappop(heap)
        if done[e]:
            continue
        done[e] = True
        if e in goal_set:
            path = [e]
            while path[-1] != from_edge:
                path.append(parent[path[-1]])
            return path[::-1]
        for nxt in nexts[e]:
            nd = d + (0.0 if nxt in goal_set else hop[nxt])
            if nd < dist[nxt]:
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
    length = g.length.tolist()
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
        w = 0.0 if e in goal_set else length[e]
        for prev in g.incoming(e):
            nd = d + w
            if nd < dist.get(prev, math.inf):
                dist[prev] = nd
                heapq.heappush(heap, (nd, prev))
    g._goal_dist_cache[goal_set] = dist
    return dist


def travel_to_go(length, edge_id: int, goal_set: frozenset[int], dist_map: dict[int, float]) -> float:
    """Travel left if the walk takes `edge_id` next (0 when it is a goal edge).

    `length` is the graph's edge lengths, as an array or a list."""
    if edge_id in goal_set:
        return 0.0
    d = dist_map.get(edge_id)
    return math.inf if d is None else length[edge_id] + d
