"""Generate the bundled synthetic border map.

A southern border strip feeds 10 one-way entry roads into a jittered ladder
of avenues and columns; 7 goal spurs leave the top avenue. Interior roads are
bidirectional, some avenue segments are dropped and a few diagonal shortcuts
added so routes differ per entry/goal pair.

Junction coordinates are snapped at least CLEARANCE metres away from the
boundaries of the 500 m detection grid, so no refined road piece is shorter
than a slow target travels in one 20 s tick. Otherwise a target could cross a
whole piece between occupancy samples, which a one-hop transition model
cannot represent. verify() checks entry/goal counts, full entry-to-goal
reachability and the minimum refined piece length before the map is written.
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from uav_search.road_graph import RoadGraph, load_graph, overlay_grid, shortest_path, write_graph

N_COLUMNS = 10
N_GOALS = 7
GOAL_COLUMNS = (0, 1, 3, 4, 6, 8, 9)
COLUMN_SPACING = 900.0
ENTRY_LENGTH = 600.0
AVENUE_Y = (600.0, 2350.0, 4150.0, 6000.0, 7850.0, 9650.0, 11400.0)
GOAL_Y = 12000.0
JITTER = 110.0
DROP_SEGMENT_PROB = 0.28
N_DIAGONALS = 6
DIAGONAL_POOL = ((1, 1), (3, 2), (5, 1), (6, 4), (2, 4), (7, 3),
                 (0, 2), (4, 3), (8, 1), (5, 5), (2, 2), (6, 1), (3, 4), (8, 4))
SEED = 42

GRID_RADIUS = 500.0  # detection radius the bundled scenarios use
CELL_SIDE = float(np.sqrt(2.0) * GRID_RADIUS)
CLEARANCE = 100.0
MIN_PIECE_M = 80.0  # one 20 s tick at 12 km/h is 66.7 m

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "maps", "border.graph")


def snap_clear(values: list[float], anchor: float) -> list[float]:
    """Shift each value the minimal amount so it sits at least CLEARANCE from
    any grid boundary of the overlay anchored at the axis minimum."""
    lo, hi = CLEARANCE, CELL_SIDE - CLEARANCE
    out = []
    for v in values:
        phase = (v - anchor) % CELL_SIDE
        if 0.0 < phase < lo:
            v += lo - phase
        elif phase > hi:
            v -= phase - hi
        out.append(round(v, 3))
    return out


def build() -> RoadGraph:
    rng = np.random.default_rng(SEED)
    xs = [450.0 + k * COLUMN_SPACING + rng.uniform(-JITTER, JITTER) for k in range(N_COLUMNS)]
    ys = [
        y + (rng.uniform(-JITTER, JITTER) if 0 < i < len(AVENUE_Y) - 1 else 0.0)
        for i, y in enumerate(AVENUE_Y)
    ]
    xs = snap_clear(xs, anchor=min(xs))
    ys = snap_clear(ys, anchor=0.0)  # the border strip at y=0 pins the grid
    goal_y = snap_clear([GOAL_Y], anchor=0.0)[0]

    xy: list[tuple[float, float]] = []
    tails: list[int] = []
    heads: list[int] = []

    def add_vertex(x: float, y: float) -> int:
        xy.append((round(x, 3), round(y, 3)))
        return len(xy) - 1

    def add_edge(tail: int, head: int) -> int:
        tails.append(tail)
        heads.append(head)
        return len(tails) - 1

    border = [add_vertex(x, 0.0) for x in xs]
    grid = [[add_vertex(xs[k], ys[i]) for i in range(len(ys))] for k in range(N_COLUMNS)]

    entries = [add_edge(border[k], grid[k][0]) for k in range(N_COLUMNS)]

    for k in range(N_COLUMNS):  # columns: bidirectional vertical roads
        for i in range(len(ys) - 1):
            add_edge(grid[k][i], grid[k][i + 1])
            add_edge(grid[k][i + 1], grid[k][i])

    for i in range(len(ys)):  # avenues, sparsified in the middle rows
        for k in range(N_COLUMNS - 1):
            interior = 0 < i < len(ys) - 1
            if interior and rng.random() < DROP_SEGMENT_PROB:
                continue
            add_edge(grid[k][i], grid[k + 1][i])
            add_edge(grid[k + 1][i], grid[k][i])

    goal_sets = []
    for k in GOAL_COLUMNS:  # vertical spurs keep goal vertices grid-aligned with their column
        top = add_vertex(xs[k], goal_y)
        goal_sets.append(frozenset({add_edge(grid[k][-1], top)}))

    def min_piece(graph: RoadGraph) -> float:
        refined, _ = overlay_grid(graph, GRID_RADIUS)
        return float(refined.length.min())

    # Shortcut diagonals cross grid boundaries at arbitrary angles, so a
    # candidate is kept only if none of its refined pieces falls below the
    # one-tick travel bound the rest of the layout is snapped to satisfy.
    kept = 0
    for k, i in DIAGONAL_POOL:
        if kept == N_DIAGONALS:
            break
        add_edge(grid[k][i], grid[k + 1][i + 1])
        add_edge(grid[k + 1][i + 1], grid[k][i])
        trial = RoadGraph(xy, tails, heads, frozenset(entries), tuple(goal_sets))
        if min_piece(trial) >= MIN_PIECE_M:
            kept += 1
        else:
            del tails[-2:], heads[-2:]

    return RoadGraph(xy, tails, heads, frozenset(entries), tuple(goal_sets))


def verify(g: RoadGraph) -> None:
    assert len(g.entries) == N_COLUMNS, f"expected {N_COLUMNS} entries, got {len(g.entries)}"
    assert len(g.goals) == N_GOALS, f"expected {N_GOALS} goal sets, got {len(g.goals)}"
    lengths = []
    for entry in sorted(g.entries):
        for gi, goal_set in enumerate(g.goals):
            path = shortest_path(g, entry, goal_set)
            assert path is not None, f"goal {gi} unreachable from entry {entry}"
            lengths.append(g.length[path[1:-1]].sum())
    refined, _ = overlay_grid(g, GRID_RADIUS)
    min_piece = refined.length.min()
    assert min_piece >= MIN_PIECE_M, f"refined piece of {min_piece:.1f} m; a target could skip it in one tick"
    print(f"vertices={len(g.xy)} edges={g.n_edges} "
          f"refined={refined.n_edges} min_piece={min_piece:.1f} m")
    print(f"entry-goal route length: mean={np.mean(lengths) / 1000:.2f} km "
          f"min={np.min(lengths) / 1000:.2f} max={np.max(lengths) / 1000:.2f}")


def main(out_path: str = OUT_PATH) -> None:
    g = build()
    verify(g)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    write_graph(g, out_path, comment="synthetic border map: 10 entries, 7 goals")
    reloaded = load_graph(out_path)
    assert reloaded.n_edges == g.n_edges
    assert reloaded.entries == g.entries and reloaded.goals == g.goals
    print(f"wrote {os.path.normpath(out_path)}")


if __name__ == "__main__":
    main()
