"""Road graph parsing, grid refinement, and shortest-path routing."""

import importlib.util
import math
import os
import pathlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from uav_search.road_graph import (
    GraphFormatError,
    GridOverlay,
    RoadGraph,
    load_graph,
    overlay_grid,
    shortest_path,
    travel_to_goal,
    write_graph,
)
from uav_search.movement import ModelFormatError, load_model
from uav_search.strategies import RouteStrategy, _reachable_goals

from oracles import dict_shortest_path, distance_map_reachable_goals, goal_distance_map, travel_to_go

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CELL_30 = 30.0 / math.sqrt(2.0)  # radius whose inscribed-square side is 30 m


def _graph(coords, edge_pairs, entries=(), goals=()):
    tail = [t for t, _ in edge_pairs]
    head = [h for _, h in edge_pairs]
    return RoadGraph(coords, tail, head, frozenset(entries), tuple(frozenset(g) for g in goals))


class TestFileFormat:
    GOOD = "\n".join([
        "; demo",
        "#vertices",
        "0 0.0 0.0",
        "1 100.0 0.0",
        "2 150.0 0.0",
        "#edges",
        "0 0 1",
        "1 1 2",
        "#entries",
        "0",
        "#goals",
        "0 1",
        "",
    ])

    def test_single_edge_graph(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("#vertices\n0 0 0\n1 100 0\n#edges\n0 0 1\n")
        g = load_graph(str(p))
        assert len(g.xy) == 2 and g.n_edges == 1
        assert g.length[0] == pytest.approx(100.0)
        assert g.entries == frozenset() and g.goals == ()

    def test_round_trip_and_stable_bytes(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text(self.GOOD)
        g = load_graph(str(p))
        out = tmp_path / "copy.graph"
        write_graph(g, str(out), comment="demo")
        g2 = load_graph(str(out))
        assert g2.entries == g.entries and g2.goals == g.goals
        assert g2.tail.tolist() == g.tail.tolist() and g2.head.tolist() == g.head.tolist()
        first = out.read_bytes()
        write_graph(g2, str(out), comment="demo")
        assert out.read_bytes() == first

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (("; demo", "0 0 0"), "data before any section header"),
            (("#vertices", "#stuff"), "unknown section header"),
            (("0 0.0 0.0", "0 0.0"), "malformed vertices line"),
            (("1 100.0 0.0", "0 100.0 0.0"), "duplicate vertex id 0"),
            (("0 0 1", "0 0"), "malformed edges line"),
            (("1 1 2", "0 1 2"), "duplicate edge id 0"),
            (("1 1 2", "1 1 9"), "unknown vertex"),
            (("1 1 2", "1 1 1"), "self loop"),
            (("#goals\n0 1", "#goals\n0 99"), "unknown edge id 99 in #goals"),
            (("#entries\n0", "#entries\n99"), "unknown edge id 99 in #entries"),
            (("#goals\n0 1", "#goals\n0 0"), "both an entry and a goal"),
            (("#goals\n0 1", "#goals\n2 1"), "goal indices must be contiguous"),
            (("2 150.0 0.0", "3 150.0 0.0"), "vertex id 2 is missing"),
            (("1 1 2", "2 1 2"), "edge id 1 is missing"),
        ],
    )
    def test_errors(self, tmp_path, mutate, needle):
        old, new = mutate
        p = tmp_path / "bad.graph"
        p.write_text(self.GOOD.replace(old, new, 1))
        with pytest.raises(GraphFormatError) as err:
            load_graph(str(p))
        assert needle in str(err.value)

    def test_zero_length_edge(self, tmp_path):
        p = tmp_path / "bad.graph"
        p.write_text("#vertices\n0 5 5\n1 5 5\n#edges\n0 0 1\n")
        with pytest.raises(GraphFormatError, match="zero length"):
            load_graph(str(p))

    def test_overflowing_edge_length(self, tmp_path):
        """Finite coordinates whose distance overflows to inf are refused at
        load, before a grid over them is sized."""
        p = tmp_path / "bad.graph"
        p.write_text("#vertices\n0 -1e308 0\n1 1e308 0\n#edges\n0 0 1\n")
        with pytest.raises(GraphFormatError, match=r"bad\.graph:5: edge 0 is too long"):
            load_graph(str(p))

    def test_error_names_line_number(self, tmp_path):
        p = tmp_path / "bad.graph"
        p.write_text("#vertices\n0 0 0\nbroken\n")
        with pytest.raises(GraphFormatError, match=r"bad\.graph:3:"):
            load_graph(str(p))

    def test_errors_come_in_line_order(self, tmp_path):
        """A duplicate vertex id on line 4 is named before a malformed edge line further down."""
        p = tmp_path / "bad.graph"
        p.write_text(self.GOOD.replace("1 100.0 0.0", "0 100.0 0.0", 1).replace("0 0 1", "0 0", 1))
        with pytest.raises(GraphFormatError, match=r"bad\.graph:4: duplicate vertex id 0$"):
            load_graph(str(p))

    def test_bundled_fixture_counts(self, border_graph):
        assert len(border_graph.entries) == 10
        assert len(border_graph.goals) == 7
        g = border_graph
        for e in range(g.n_edges):
            (ax, ay), (bx, by) = g.xy[g.tail[e]], g.xy[g.head[e]]
            assert g.length[e] == math.hypot(bx - ax, by - ay)


# A valid graph with every section, on the fork of two roads to two goal
# sets; the fuzz mutates its tokens.
FUZZ_GRAPH = [
    ["#vertices"], ["0", "0.0", "0.0"], ["1", "100.0", "0.0"], ["2", "200.0", "0.0"], ["3", "100.0", "100.0"],
    ["4", "250.0", "0.0"],
    ["#edges"], ["0", "0", "1"], ["1", "1", "2"], ["2", "1", "3"], ["3", "2", "4"],
    ["#entries"], ["0"],
    ["#goals"], ["0", "3"], ["1", "2"],
]
FUZZ_TOKENS = ["x", "", "nan", "inf", "-inf", "1e400", "1e308", "-1e308", "0x1", "1.5", "-0", "#", ";", "1_0",
               "1_00", "١٢", "１２"]
FUZZ_HUGE = ["9223372036854775807", "99999999999999999999"]
# Spellings int() and float() read but the loader refuses: the first digit
# run split by `_`, or every digit as an Arabic-Indic or fullwidth one.
FUZZ_RESPELL = [
    lambda tok: re.sub(r"(\d)(\d)", r"\1_\2", tok, count=1),
    lambda tok: tok.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    lambda tok: tok.translate(str.maketrans("0123456789", "０１２３４５６７８９")),
]
FUZZ_HEADERS = ["#vertices", "#edges", "#entries", "#goals", "#model", "# stray", "#edges 3"]


@st.composite
def _mutated_graph_text(draw):
    """The base graph after 1-4 token-level edits: drop, duplicate or negate a
    token, replace it with a non-numeric one or an id beyond any array index,
    respell it in Python-only numeric syntax, or drop, duplicate or insert a
    (stray header) line."""
    lines = [list(line) for line in FUZZ_GRAPH]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(
            ["drop", "dup", "negate", "replace", "huge", "respell", "drop_line", "dup_line", "header"]))
        i = draw(st.integers(0, len(lines)))
        if kind == "header":
            lines.insert(i, [draw(st.sampled_from(FUZZ_HEADERS))])
            continue
        if not lines:
            continue
        i %= len(lines)
        if kind == "drop_line":
            del lines[i]
        elif kind == "dup_line":
            lines.insert(i, list(lines[i]))
        elif lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            if kind == "drop":
                del lines[i][j]
            elif kind == "dup":
                lines[i].insert(j, lines[i][j])
            elif kind == "negate":
                lines[i][j] = "-" + lines[i][j]
            elif kind == "huge":
                lines[i][j] = draw(st.sampled_from(FUZZ_HUGE))
            elif kind == "respell":
                lines[i][j] = draw(st.sampled_from(FUZZ_RESPELL))(lines[i][j])
            else:
                lines[i][j] = draw(st.sampled_from(FUZZ_TOKENS))
    return "\n".join(" ".join(line) for line in lines) + "\n"


class TestLoadGraphFuzz:
    @settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_mutated_graph_text())
    def test_mutated_file_loads_or_names_itself(self, tmp_path, text):
        """Every mutated file either loads a consistent graph, which writes
        and reloads to the same bytes, or raises a GraphFormatError that
        names the file. A file that loads holds no `_` and no non-ASCII
        character outside its comments."""
        path = tmp_path / "fuzz.graph"
        path.write_text(text)
        try:
            g = load_graph(str(path))
        except GraphFormatError as exc:
            assert str(path) in str(exc)
            return
        data = [line for line in text.splitlines() if not line.strip().startswith(";")]
        assert all(line.isascii() and "_" not in line for line in data)
        ids = set(range(g.n_edges))
        assert g.entries <= ids and g.goal_union <= ids and not g.entries & g.goal_union
        assert set(g.tail.tolist()) | set(g.head.tolist()) <= set(range(len(g.xy)))
        first, second = tmp_path / "first.graph", tmp_path / "second.graph"
        write_graph(g, str(first))
        write_graph(load_graph(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()


# The bundled files the byte fuzz mutates, with their loader and its error.
BYTE_FUZZ_FILES = {
    "graph": (os.path.join(REPO_ROOT, "maps", "border.graph"), load_graph, GraphFormatError),
    "model": (os.path.join(REPO_ROOT, "models", "border_shortest.model"), load_model, ModelFormatError),
}


@st.composite
def _mutated_bytes(draw, data: bytes) -> bytes:
    """`data` after 1-4 byte-level edits: flip one bit, insert a byte, delete
    a run of up to 8 bytes, or truncate."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        i = draw(st.integers(0, len(data)))
        if kind == "insert":
            data.insert(i, draw(st.integers(0, 255)))
        elif kind == "truncate":
            del data[i:]
        elif i < len(data):
            if kind == "flip":
                data[i] ^= 1 << draw(st.integers(0, 7))
            else:
                del data[i : i + draw(st.integers(1, 8))]
    return bytes(data)


class TestLoaderByteFuzz:
    @pytest.mark.parametrize("kind", sorted(BYTE_FUZZ_FILES))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_bytes_load_or_name_the_file(self, tmp_path, kind, data):
        """A bundled graph or model file with bytes flipped, inserted, deleted
        or cut off either loads or raises its loader's own error naming the
        file: no other exception escapes."""
        original, load, error = BYTE_FUZZ_FILES[kind]
        with open(original, "rb") as fh:
            mutated = data.draw(_mutated_bytes(fh.read()))
        path = tmp_path / f"fuzz.{kind}"
        path.write_bytes(mutated)
        try:
            load(str(path))
        except error as exc:
            assert str(exc).startswith(f"{path}:"), exc


class TestOverlay:
    def test_100m_edge_into_four_cells(self):
        """One 100 m edge against 30 m cells cuts into 30/30/30/10 pieces."""
        g = _graph([(0, 0), (100, 0)], [(0, 1)])
        refined, overlay = overlay_grid(g, CELL_30)
        assert overlay.cell_side == pytest.approx(30.0)
        assert refined.n_edges == 4
        lengths = refined.length.tolist()
        assert lengths == pytest.approx([30.0, 30.0, 30.0, 10.0])
        assert len(set(overlay.cell_of_edge.tolist())) == 4

    def test_edge_within_one_cell_unchanged(self):
        g = _graph([(5, 5), (15, 5)], [(0, 1)])
        refined, _ = overlay_grid(g, CELL_30)
        assert refined.n_edges == 1
        assert refined.length[0] == pytest.approx(10.0)

    def test_vertex_on_boundary_makes_no_zero_piece(self):
        """A junction exactly on a grid line must not split anything."""
        side = math.sqrt(2.0) * CELL_30
        g = _graph([(0, 0), (side, 0), (side + 10, 0)], [(0, 1), (1, 2)])
        refined, _ = overlay_grid(g, CELL_30)
        assert refined.n_edges == 2
        assert refined.length.min() > 1e-3

    def test_parent_reconstruction(self, border_graph, border_refined):
        """The pieces of each parent are consecutive ids, in parent order,
        that chain from its tail to its head and sum to its length."""
        refined, _ = border_refined
        pieces = _pieces_of_parents(border_graph, refined)
        assert [p for run in pieces for p in run] == list(range(refined.n_edges))
        for parent, run in enumerate(pieces):
            assert refined.length[run].sum() == pytest.approx(border_graph.length[parent], rel=1e-9)

    def test_midpoint_inside_assigned_cell(self, border_refined):
        refined, overlay = border_refined
        for eid in range(refined.n_edges):
            mx, my = (refined.xy[refined.tail[eid]] + refined.xy[refined.head[eid]]) / 2.0
            col = math.floor((mx - overlay.origin[0]) / overlay.cell_side)
            row = math.floor((my - overlay.origin[1]) / overlay.cell_side)
            assert 0 <= row < overlay.n_rows and 0 <= col < overlay.n_cols
            assert row * overlay.n_cols + col == overlay.cell_of_edge[eid]

    def test_resplitting_is_idempotent(self, border_refined):
        refined, _ = border_refined
        again, _ = overlay_grid(refined, 500.0)
        assert again.n_edges == refined.n_edges
        assert again.length.tolist() == pytest.approx(refined.length.tolist())

    def test_entry_and_goal_membership_inherited(self, border_graph, border_refined):
        """Every piece of a goal parent is a goal piece, and no other piece
        is; the entries are pieces of entry parents only."""
        refined, _ = border_refined
        pieces = _pieces_of_parents(border_graph, refined)
        assert len(refined.goals) == len(border_graph.goals)
        for ref_set, orig_set in zip(refined.goals, border_graph.goals):
            assert ref_set == {p for parent in orig_set for p in pieces[parent]}
        assert refined.entries <= {p for parent in border_graph.entries for p in pieces[parent]}

    def test_entries_are_first_pieces(self, border_graph, border_refined):
        """The sorted refined entries are the first pieces of the entry
        parents, in parent order: where targets appear."""
        refined, _ = border_refined
        pieces = _pieces_of_parents(border_graph, refined)
        assert sorted(refined.entries) == [pieces[p][0] for p in sorted(border_graph.entries)]

    def test_degenerate_inputs(self):
        g = _graph([(0, 0), (10, 0)], [(0, 1)])
        with pytest.raises(ValueError):
            overlay_grid(g, 0.0)
        with pytest.raises(ValueError):
            overlay_grid(RoadGraph(np.empty((0, 2)), [], []), 10.0)

    def test_distinct_overlays_compare_by_identity(self, border_graph):
        """An overlay holds arrays, so it compares by identity: two overlays
        of one graph are unequal, and comparing them raises nothing."""
        (_, first), (_, second) = overlay_grid(border_graph, 500.0), overlay_grid(border_graph, 500.0)
        assert first != second
        assert first == first


def _pieces_of_parents(graph, refined):
    """Refined edge ids per parent edge, found by walking each parent's chain
    from the next unused id. Original vertices keep their ids, and cut points
    are new vertices, so a chain ends at the first piece whose head is the
    parent's head."""
    n_orig = len(graph.xy)
    assert refined.xy[:n_orig].tolist() == graph.xy.tolist()
    pieces, nxt = [], 0
    for parent in range(graph.n_edges):
        run = [nxt]
        assert refined.tail[nxt] == graph.tail[parent]
        while refined.head[run[-1]] != graph.head[parent]:
            assert refined.head[run[-1]] >= n_orig
            run.append(run[-1] + 1)
            assert refined.tail[run[-1]] == refined.head[run[-2]]
        pieces.append(run)
        nxt = run[-1] + 1
    return pieces


class TestGridGeometry:
    def test_covered_cells_exact_radius_is_own_cell(self, border_refined):
        """At r_i == r only the cell the UAV hovers over is fully covered."""
        _, overlay = border_refined
        center = overlay.centers[overlay.n_cols * 3 + 4]
        assert overlay.covered_cells(center[0], center[1], 500.0) == [overlay.n_cols * 3 + 4]

    def test_covered_cells_matches_bruteforce(self, border_refined):
        """A cell is covered iff its center is within radius - circumradius."""
        _, overlay = border_refined
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(overlay.origin[0], overlay.origin[0] + overlay.n_cols * overlay.cell_side)
            y = rng.uniform(overlay.origin[1], overlay.origin[1] + overlay.n_rows * overlay.cell_side)
            radius = rng.uniform(400.0, 2500.0)
            reach = radius - overlay.cell_side * math.sqrt(2.0) / 2.0 + 1e-9
            expect = [
                c for c in range(overlay.n_cells)
                if math.dist(overlay.centers[c], (x, y)) <= reach
            ]
            assert overlay.covered_cells(x, y, radius) == expect


@st.composite
def _disk_queries(draw):
    """A grid, a UAV position on a cell center, off-center inside the grid or
    outside it, and a radius from below the cell circumradius to several
    cells: often within half a side of the circumradius, where at most one
    center is in reach, or exactly the radius whose inscribed square is the
    cell."""
    side = draw(st.floats(1.0, 1000.0))
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    origin = (draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4)))
    overlay = GridOverlay(origin, side, n_rows, n_cols, np.zeros(0, dtype=np.int64))
    where = draw(st.sampled_from(["center", "inside", "outside"]))
    if where == "center":
        x, y = overlay.centers[draw(st.integers(0, overlay.n_cells - 1))]
    else:
        lo, hi = (0.0, 1.0) if where == "inside" else (-1.5, 2.5)
        x = origin[0] + draw(st.floats(lo, hi)) * n_cols * side
        y = origin[1] + draw(st.floats(lo, hi)) * n_rows * side
    radius = draw(st.floats(0.0, 5.0) | st.floats(0.5, 1.5) | st.just(1.0 / math.sqrt(2.0))) * side
    return overlay, x, y, radius


def _query(origin, side, x, y, reach):
    """A 4 x 4 grid and a query whose reach, radius - circumradius, is `reach`."""
    overlay = GridOverlay(origin, side, 4, 4, np.zeros(0, dtype=np.int64))
    return overlay, x, y, side * math.sqrt(2.0) / 2.0 + reach


class TestCoveredCellsProperty:
    @settings(max_examples=100, deadline=None)
    @given(_disk_queries())
    def test_cell_center_table_matches_formula(self, query):
        """The precomputed centres are exactly origin + (col + 0.5) * side."""
        overlay = query[0]
        for c in range(overlay.n_cells):
            row, col = divmod(c, overlay.n_cols)
            expect = (
                overlay.origin[0] + (col + 0.5) * overlay.cell_side,
                overlay.origin[1] + (row + 0.5) * overlay.cell_side,
            )
            assert overlay.centers[c] == expect, c

    @settings(max_examples=400, deadline=None)
    @given(_disk_queries())
    # Reach just below and above a quarter side, from a quarter side off a centre.
    @example(_query((0.0, 0.0), 1000.0, 1250.0, 1500.0, 250.0 - 1e-6))
    @example(_query((0.0, 0.0), 1000.0, 1250.0, 1500.0, 250.0 + 1e-6))
    # Equidistant from two centres, reach just below, at and above half a side.
    @example(_query((0.0, 0.0), 1000.0, 1000.0, 1500.0, 500.0 - 1e-6))
    @example(_query((0.0, 0.0), 1000.0, 1000.0, 1500.0, 500.0 - 1e-9))
    @example(_query((0.0, 0.0), 1000.0, 1000.0, 1500.0, 500.0 + 1e-6))
    # Exactly on a centre, at the grid's own radius (reach 1e-9 m).
    @example(_query((0.0, 0.0), 1000.0, 1500.0, 1500.0, 0.0))
    # The bundled side, sqrt(2) * 500 m, at half a side between two centres: rounding puts
    # the centre in reach just outside a window that is not widened.
    @example((GridOverlay((0.0, 0.0), 707.1067811865476, 4, 4, np.zeros(0, dtype=np.int64)),
              707.1067811865476, 1060.6601717798212, 853.5533905922738))
    # Side 1 at origin +-1e4: on a centre, and between two at half a side.
    @example(_query((1e4, -1e4), 1.0, 1e4 + 2.5, -1e4 + 1.5, 0.0))
    @example(_query((-1e4, 1e4), 1.0, -1e4 + 2.0, 1e4 + 2.5, 0.5 - 1e-9))
    @example(_query((-1e4, 1e4), 1.0, -1e4 + 2.0, 1e4 + 2.5, 0.5 + 1e-6))
    def test_matches_bruteforce(self, query):
        """Exactly the cells, in id order, whose center is within radius -
        circumradius (+ 1e-9 m) of the query, by the same `math.hypot`."""
        overlay, x, y, radius = query
        reach = radius - overlay.cell_side * math.sqrt(2.0) / 2.0 + 1e-9
        expect = [
            c for c, (cx, cy) in enumerate(overlay.centers) if math.hypot(cx - x, cy - y) <= reach
        ]
        assert overlay.covered_cells(x, y, radius) == expect

    @settings(max_examples=300, deadline=None)
    @given(_disk_queries())
    def test_every_returned_cell_lies_inside_the_disk(self, query):
        overlay, x, y, radius = query
        cells = overlay.covered_cells(x, y, radius)
        assert cells == sorted(set(cells))
        side = overlay.cell_side
        if radius + 1e-9 < side * math.sqrt(2.0) / 2.0:
            assert cells == []
        for c in cells:
            assert 0 <= c < overlay.n_cells
            row, col = divmod(c, overlay.n_cols)
            x0, y0 = overlay.origin[0] + col * side, overlay.origin[1] + row * side
            for cx, cy in ((x0, y0), (x0 + side, y0), (x0, y0 + side), (x0 + side, y0 + side)):
                assert math.hypot(cx - x, cy - y) <= radius + 1e-9, (c, cx, cy)


class TestIncomingSet:
    def test_chain_and_entry(self):
        g = _graph([(0, 0), (10, 0), (20, 0)], [(0, 1), (1, 2)])
        assert set(g._prev[1]) == {0}
        assert set(g._prev[0]) == set()

    def test_three_converging(self):
        g = _graph(
            [(0, 0), (0, 10), (0, -10), (10, 0), (20, 0)],
            [(0, 3), (1, 3), (2, 3), (3, 4)],
        )
        assert set(g._prev[3]) == {0, 1, 2}


def _oracle_best(g, from_edge, goal_set):
    """Exhaustive DFS over simple edge paths; travel counts non-goal hops
    after the first edge."""
    best = [math.inf]

    def rec(edge, cost, seen):
        if edge in goal_set:
            best[0] = min(best[0], cost)
            return
        for nxt in g._next[edge]:
            if nxt in seen:
                continue
            step = 0.0 if nxt in goal_set else g.length[nxt]
            rec(nxt, cost + step, seen | {nxt})

    rec(from_edge, 0.0, {from_edge})
    return best[0]


class TestShortestPath:
    def test_from_edge_already_goal(self, line_graph):
        assert shortest_path(line_graph, 1) == [[1]]

    def test_prefers_shorter_parallel_route(self):
        g = _graph(
            [(0, 0), (100, 0), (200, 0), (100, 150), (300, 0)],
            [(0, 1), (1, 2), (1, 3), (3, 2), (2, 4)],
            goals=[{4}],
        )
        assert shortest_path(g, 0) == [[0, 1, 4]]

    def test_unreachable_returns_none(self):
        # two disconnected components; one goal set on each
        g = _graph([(0, 0), (10, 0), (50, 50), (60, 50)], [(0, 1), (2, 3)], goals=[{1}, {0}])
        assert shortest_path(g, 0) == [None, [0]]
        assert shortest_path(g, 1) == [[1], None]

    def test_goal_edge_answers_its_set_before_it_is_expanded(self):
        """With a zero-weight goal edge 1 leading into goal edge 0 of the same
        set, the set is answered by edge 1: the arrival at an edge pops before
        the edge itself, even at equal distance."""
        g = _graph([(0, 0), (10, 0), (20, 0), (30, 0)], [(2, 3), (1, 2), (0, 1)], goals=[{0, 1}, {0}])
        weight = np.zeros(3)
        assert shortest_path(g, 2, weight) == [[2, 1], [2, 1, 0]]
        assert shortest_path(g, 2, weight) == [dict_shortest_path(g, 2, goal_set, weight) for goal_set in g.goals]

    def test_unknown_from_edge(self, line_graph):
        with pytest.raises(KeyError, match="unknown edge id 9"):
            shortest_path(line_graph, 9)

    def test_negative_from_edge(self, line_graph):
        with pytest.raises(KeyError, match="unknown edge id -1"):
            shortest_path(line_graph, -1)

    def test_matches_exhaustive_oracle_on_random_graphs(self):
        """Dijkstra agrees with brute-force path enumeration, including
        reachability, on 100 random graphs of up to 12 edges."""
        rng = np.random.default_rng(31)
        for _ in range(100):
            n_v = int(rng.integers(4, 8))
            coords = rng.uniform(0, 1000, size=(n_v, 2))
            n_e = int(rng.integers(4, 13))
            pairs = []
            while len(pairs) < n_e:
                t, h = int(rng.integers(n_v)), int(rng.integers(n_v))
                if t != h and not np.allclose(coords[t], coords[h]):
                    pairs.append((t, h))
            from_edge = int(rng.integers(n_e))
            goal_pool = [e for e in range(n_e) if e != from_edge]
            goal_set = frozenset(rng.choice(goal_pool, size=2, replace=False).tolist())
            g = _graph(coords.tolist(), pairs, goals=[goal_set])
            expect = _oracle_best(g, from_edge, goal_set)
            [path] = shortest_path(g, from_edge)
            if path is None:
                assert expect == math.inf
                continue
            assert path[0] == from_edge and path[-1] in goal_set
            cost = sum(g.length[e] for e in path[1:] if e not in goal_set)
            assert cost == pytest.approx(expect, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_flat_lists_equal_dict_oracle_with_ties(self, data):
        """On grid-point graphs, where many routes tie in length, the route
        into every goal set from every edge equals the dict-based Dijkstra's
        search into that set alone. Goal sets overlap, goal edges have
        successors, edge ids follow no coordinate order, and weights are the
        lengths or small integers, half of them zeros. The goal sets
        reached are the ones the reverse distance maps reach, and every
        edge's travel to each goal set is the one read off its map, exactly."""
        points = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=7, unique=True))
        n_v = len(points)
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, n_v - 1), st.integers(0, n_v - 1)).filter(lambda p: p[0] != p[1]),
            min_size=1, max_size=16))
        n_e = len(pairs)
        goals = data.draw(st.lists(st.sets(st.integers(0, n_e - 1), min_size=1, max_size=3), min_size=1, max_size=4))
        g = _graph(points, pairs, goals=goals)
        weight = data.draw(st.one_of(
            st.none(),
            st.lists(st.sampled_from([0, 0, 1, 3]), min_size=n_e, max_size=n_e).map(lambda w: np.array(w, dtype=np.float64)),
        ))
        for from_edge in range(n_e):
            routes = shortest_path(g, from_edge, weight)
            assert routes == [dict_shortest_path(g, from_edge, goal_set, weight) for goal_set in g.goals]
            assert _reachable_goals(g, from_edge) == distance_map_reachable_goals(g, from_edge)
        for goal_set in g.goals:
            dmap = goal_distance_map(g, goal_set)
            assert travel_to_goal(g, goal_set) == [travel_to_go(g.length, e, goal_set, dmap) for e in range(n_e)]

    def test_bundled_routes_equal_dict_oracle(self, border_refined):
        """All 70 (entry, goal set) routes of the bundled refined map, under
        lengths and under the `side_roads:penalty=1.5` weights."""
        g, _ = border_refined
        for weight in (None, RouteStrategy(1.5)._weight(g)):
            n_pairs = 0
            for entry in sorted(g.entries):
                routes = shortest_path(g, entry, weight)
                assert routes == [dict_shortest_path(g, entry, goal_set, weight) for goal_set in g.goals]
                n_pairs += len(routes)
            assert n_pairs == 70
        for entry in sorted(g.entries):
            assert _reachable_goals(g, entry) == distance_map_reachable_goals(g, entry)

    def test_travel_to_goal_consistent(self, border_graph):
        """Travel to goal from an entry is the entry's length plus the
        shortest-path travel after it."""
        goal_set = border_graph.goals[0]
        togo = travel_to_goal(border_graph, goal_set)
        for entry in sorted(border_graph.entries):
            path = shortest_path(border_graph, entry)[0]
            if path is None:
                assert togo[entry] == math.inf
                continue
            cost = sum(border_graph.length[e] for e in path[1:] if e not in goal_set)
            assert togo[entry] == pytest.approx(border_graph.length[entry] + cost, abs=1e-6)


class TestBorderMapScript:
    def test_rebuilds_bundled_map_byte_for_byte(self, tmp_path, border_graph_path):
        script = os.path.join(REPO_ROOT, "scripts", "make_border_map.py")
        spec = importlib.util.spec_from_file_location("make_border_map", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        out = tmp_path / "border.graph"
        module.main(str(out))
        assert out.read_bytes() == pathlib.Path(border_graph_path).read_bytes()
