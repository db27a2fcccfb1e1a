"""Directed road networks embedded in the plane, and their grid refinement.

A road graph is loaded from a plain-text file (see `load_graph`), then
`overlay_grid` cuts every edge at the boundaries of a square grid so that each
refined edge lies inside exactly one cell. Detection-driven belief updates and
cell selection operate on the refined graph / overlay pair.

`ConfigError`, the one class of bad input, lives here because every module
imports this one: each rule on a file, flag or scenario value raises it or a
subclass, and the command line exits 1 on it alone. `from_source` is the one
home of its `<source>: <message>` prefix.
"""

from __future__ import annotations

import heapq
import math
import os
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

# Refined-edge pieces shorter than this are merged into a neighboring piece
# to avoid carrying degenerate slivers of probability mass.
MIN_PIECE_LENGTH = 1e-3

# The most cells a grid may have: each keeps a ~100-byte centre tuple. The
# bundled map has 266 at its 500 m radius and 481,650 at 10 m.
MAX_GRID_CELLS = 10**6


class ConfigError(ValueError):
    """Bad input: its message names the file, flag or config path at fault."""


def from_source(source: str, build, *args, **kwargs):
    """`build(*args, **kwargs)`, with `source: ` before any ConfigError it
    raises: the file, flag or config path that the input came from."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


class GraphFormatError(ConfigError):
    """Raised for malformed or inconsistent graph files."""


class RoadGraph:
    """Directed road network over vertices 0..V-1 and edges 0..E-1.

    The position of vertex v is `xy[v]` (meters); edge e runs from `tail[e]`
    to `head[e]` and is `length[e]` long, the Euclidean distance between its
    endpoints. `entries` are the edges where targets may appear; `goals` is an
    ordered tuple of goal sets (edge-id frozensets). Goal sets may overlap
    each other but never the entry set. Strategies fill its `_route_cache`
    and `_walk_steps` on first use; nothing else changes after construction.

    For Python loops the graph keeps lists beside its arrays: `_length`
    holds the edge lengths `length` is made from, and `_next` and `_prev`
    each edge's successors and predecessors, read off `tail` and `head`.
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
        self._length = [
            math.hypot(coords[h][0] - coords[t][0], coords[h][1] - coords[t][1]) for t, h in zip(tails, heads)
        ]
        self.length = np.array(self._length, dtype=np.float64)
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
        # (strategy, entry) -> truncated route per goal index, and (walk
        # strategy, goal index) -> the walk's step table; see strategies.
        self._route_cache: dict[tuple, tuple[tuple[int, ...] | None, ...]] = {}
        self._walk_steps: dict[tuple, tuple] = {}


@dataclass(eq=False)
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
    centers: list[tuple[float, float]] = field(init=False, repr=False)  # cell id -> center

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
        (x0, y0), cs = self.origin, self.cell_side
        # Centre (col, row) lies at origin + (col + 0.5, row + 0.5) * cs: only columns
        # and rows whose centre is within reach along that axis can pass the test.
        # The bounds widen by 1e-6 of a side, so rounding never drops a candidate.
        lo_col = max(0, math.ceil((x - reach - x0) / cs - 0.5 - 1e-6))
        hi_col = min(self.n_cols - 1, math.floor((x + reach - x0) / cs - 0.5 + 1e-6))
        lo_row = max(0, math.ceil((y - reach - y0) / cs - 0.5 - 1e-6))
        hi_row = min(self.n_rows - 1, math.floor((y + reach - y0) / cs - 0.5 + 1e-6))
        out = []
        for row in range(lo_row, hi_row + 1):
            for cid in range(row * self.n_cols + lo_col, row * self.n_cols + hi_col + 1):
                cx, cy = self.centers[cid]
                if math.hypot(cx - x, cy - y) <= reach:
                    out.append(cid)
        return out


# ---------------------------------------------------------------------------
# File format


def read_lines(path: str, error: type[ConfigError]) -> list[str]:
    """The lines of a UTF-8 text file; a file that cannot be read, or a byte
    that is not UTF-8, raises `error` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().split("\n")
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})") from None


def write_lines(path: str, lines: list[str]) -> None:
    """Write `lines` to `path` as UTF-8 text, each ended by one newline
    character on every platform, creating the file's parent directories."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def plain_number(text: str) -> bool:
    """False for text that int() and float() read but the file formats
    refuse: `_` digit separators (`1_0`) and non-ASCII digits (`١٢`, `１２`).
    One check covers a whole line of numbers."""
    return text.isascii() and "_" not in text


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
    Numbers are ASCII, without Python's `_` digit separators. The vertex ids
    and the edge ids must each be exactly 0..n-1, in any line order.
    """
    kinds = {"#vertices": (int, float, float), "#edges": (int, int, int), "#entries": (int,), "#goals": (int, int)}
    rows: dict[str, list[tuple]] = {name: [] for name in kinds}  # section -> (lineno, *numbers) per line
    vertices: dict[int, tuple[float, float]] = {}
    section = None

    for lineno, raw in enumerate(read_lines(path, GraphFormatError), start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        toks = line.split()
        if toks[0].startswith("#"):
            if toks[0] not in kinds or len(toks) != 1:
                raise GraphFormatError(f"{path}:{lineno}: unknown section header {toks[0]!r}")
            section = toks[0]
            continue
        if section is None:
            raise GraphFormatError(f"{path}:{lineno}: data before any section header")
        try:
            if not plain_number(line) or len(toks) != len(kinds[section]):
                raise ValueError
            numbers = [kind(tok) for kind, tok in zip(kinds[section], toks)]
            if not all(-math.inf < x < math.inf for x in numbers):
                raise ValueError
        except ValueError:
            raise GraphFormatError(f"{path}:{lineno}: malformed {section[1:]} line: {' '.join(toks)!r}") from None
        if section == "#vertices":
            vid, x, y = numbers
            if vid in vertices:
                raise GraphFormatError(f"{path}:{lineno}: duplicate vertex id {vid}")
            vertices[vid] = (x, y)
        rows[section].append((lineno, *numbers))
    _check_dense(path, "vertex", vertices)

    edges: dict[int, tuple[int, int]] = {}
    for lineno, eid, tail, head in rows["#edges"]:
        if eid in edges:
            raise GraphFormatError(f"{path}:{lineno}: duplicate edge id {eid}")
        if tail not in vertices or head not in vertices:
            raise GraphFormatError(f"{path}:{lineno}: edge {eid} references unknown vertex")
        if tail == head:
            raise GraphFormatError(f"{path}:{lineno}: edge {eid} is a self loop")
        (tx, ty), (hx, hy) = vertices[tail], vertices[head]
        if (tx, ty) == (hx, hy):
            raise GraphFormatError(f"{path}:{lineno}: edge {eid} has zero length")
        if math.hypot(hx - tx, hy - ty) == math.inf:
            raise GraphFormatError(f"{path}:{lineno}: edge {eid} is too long: its length overflows a float")
        edges[eid] = (tail, head)
    _check_dense(path, "edge", edges)

    entries = set()
    for lineno, eid in rows["#entries"]:
        if eid not in edges:
            raise GraphFormatError(f"{path}:{lineno}: unknown edge id {eid} in #entries")
        entries.add(eid)

    by_index: dict[int, set[int]] = {}
    for lineno, gidx, eid in rows["#goals"]:
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
    write_lines(path, lines)


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
        if 0.0 < t < 1.0:
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
    piece of its original goal edges. A grid of more than MAX_GRID_CELLS
    cells raises ConfigError before anything is built.
    """
    if not 0 < r < math.inf:
        raise ValueError("detection radius must be positive and finite")
    if not len(g.xy):
        raise ValueError("cannot overlay an empty graph")
    cell_side = math.sqrt(2.0) * r

    xs, ys = g.xy[:, 0], g.xy[:, 1]
    origin = (float(xs.min()) - cell_side, float(ys.min()) - cell_side)
    cols = (float(xs.max()) + cell_side - origin[0]) / cell_side
    rows = (float(ys.max()) + cell_side - origin[1]) / cell_side
    # Clamped first, since a tiny radius can overflow the cell count to inf.
    n_cols, n_rows = (max(1, math.ceil(min(n, MAX_GRID_CELLS + 1))) for n in (cols, rows))
    if n_cols * n_rows > MAX_GRID_CELLS:
        raise ConfigError(
            f"detection radius {r:g} m asks for a grid of about {cols * rows:.4g} cells over the map's "
            f"{float(np.ptp(xs)):g} x {float(np.ptp(ys)):g} m; the limit is {MAX_GRID_CELLS:,}"
        )

    xy = g.xy.tolist()
    tails: list[int] = []
    heads: list[int] = []
    pieces: list[range] = []
    for t, h, length in zip(g.tail.tolist(), g.head.tolist(), g._length):
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


def shortest_path(g: RoadGraph, from_edge: int, weight: np.ndarray | None = None) -> list[list[int] | None]:
    """Minimal-travel directed edge paths from `from_edge` into every goal set.

    Returns a list indexed by goal index: the path into `g.goals[gi]`, or
    None when no edge of that set is reachable. Travel is measured from the
    head of `from_edge`; entering a goal edge costs nothing (a target wins at
    the goal edge's tail). A path includes `from_edge` first and the goal
    edge last, and is `[from_edge]` for a set that holds `from_edge`.
    `weight`, an array over edge ids, replaces the edge-length metric for the
    hops before the goal edge (used by detour-seeking strategies).

    One search answers every set. Its heap holds `(d, e, kind)`. A real entry
    (kind 1) is edge `e` travelled to its head: it relaxes every successor by
    its hop, goal edges included, as a search into one set G treats every
    edge outside G. Entering a goal edge also pushes an arrival entry
    (kind 0) at no cost, and popping it answers every open set that holds
    the edge. An arrival sorts before its edge's real entry, since
    `(d, e, 0) < (d + hop, e, 1)`, so no edge of G is expanded before G is
    answered. Each route is therefore the one a search into G alone, popping
    `(d, e)` in the same order, returns: equal-length ties resolve alike.
    """
    if not 0 <= from_edge < g.n_edges:
        raise KeyError(f"unknown edge id {from_edge}")
    routes: list[list[int] | None] = [[from_edge] if from_edge in gs else None for gs in g.goals]
    n_open = routes.count(None)
    sets_of: dict[int, list[int]] = {}  # goal edge -> the open sets holding it
    for gi, goal_set in enumerate(g.goals):
        if routes[gi] is None:
            for eid in goal_set:
                sets_of.setdefault(eid, []).append(gi)
    hop = g._length if weight is None else weight.tolist()
    nexts = g._next
    dist = [math.inf] * g.n_edges
    dist[from_edge] = 0.0
    parent = [-1] * g.n_edges
    done = [False] * g.n_edges
    arrival: dict[int, float] = {}
    arrival_parent: dict[int, int] = {}
    heap: list[tuple[float, int, int]] = [(0.0, from_edge, 1)]
    while heap and n_open:
        d, e, real = heapq.heappop(heap)
        if not real:
            answered = [gi for gi in sets_of[e] if routes[gi] is None]
            if answered:
                path = [e, arrival_parent[e]]
                while path[-1] != from_edge:
                    path.append(parent[path[-1]])
                for gi in answered:
                    routes[gi] = path[::-1]
                n_open -= len(answered)
            continue
        if done[e]:
            continue
        done[e] = True
        for nxt in nexts[e]:
            nd = d + hop[nxt]
            if nd < dist[nxt]:
                dist[nxt] = nd
                parent[nxt] = e
                heapq.heappush(heap, (nd, nxt, 1))
            if nxt in sets_of and d < arrival.get(nxt, math.inf):
                arrival[nxt] = d
                arrival_parent[nxt] = e
                heapq.heappush(heap, (d, nxt, 0))
    return routes


def edge_dtype(n_edges: int) -> np.dtype:
    """The narrowest signed integer dtype that holds every id below `n_edges`:
    int8 up to 128 edges, int16 up to 32,768, int32 up to 2^31."""
    return np.min_scalar_type(-max(n_edges, 1))


def travel_to_goal(g: RoadGraph, goal_set: frozenset[int]) -> list[float]:
    """Travel left once each edge is taken until some goal edge is entered:
    0.0 on a goal edge, inf where no goal edge can be reached, else the
    edge's length plus the least travel left after it. One backward search
    from the goal edges: reaching a predecessor costs its length."""
    length, prevs = g._length, g._prev
    togo = [0.0 if e in goal_set else math.inf for e in range(g.n_edges)]
    done = [False] * g.n_edges
    heap = [(0.0, e) for e in sorted(goal_set)]  # sorted, so already a heap
    while heap:
        d, e = heapq.heappop(heap)
        if done[e]:
            continue
        done[e] = True
        for prev in prevs[e]:
            nd = d + length[prev]
            if nd < togo[prev]:
                togo[prev] = nd
                heapq.heappush(heap, (nd, prev))
    return togo


def dead_entries(g: RoadGraph) -> frozenset[int]:
    """The entry edges from which no goal edge can be reached, by one backward
    `travel_to_goal` over every goal set. Refining a graph onto a grid keeps
    what reaches what, so the graph file's own ids serve every grid."""
    togo = travel_to_goal(g, g.goal_union)
    return frozenset(e for e in g.entries if togo[e] == math.inf)
