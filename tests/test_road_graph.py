"""Road graph parsing, grid refinement, and shortest-path routing."""

import math

import numpy as np
import pytest

from uav_search.road_graph import (
    Edge,
    GraphFormatError,
    RoadGraph,
    Vertex,
    entry_start_edges,
    goal_distance_map,
    load_graph,
    overlay_grid,
    shortest_path,
    write_graph,
)

CELL_30 = 30.0 / math.sqrt(2.0)  # radius whose inscribed-square side is 30 m


def _graph(coords, edge_pairs, entries=(), goals=()):
    vs = {i: Vertex(i, float(x), float(y)) for i, (x, y) in enumerate(coords)}
    es = {}
    for eid, (t, h) in enumerate(edge_pairs):
        a, b = vs[t], vs[h]
        es[eid] = Edge(eid, t, h, math.hypot(b.x - a.x, b.y - a.y))
    return RoadGraph(vs, es, frozenset(entries), tuple(frozenset(g) for g in goals))


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
        assert len(g.vertices) == 2 and len(g.edges) == 1
        assert g.edges[0].length == pytest.approx(100.0)
        assert g.entries == frozenset() and g.goals == ()

    def test_round_trip_and_stable_bytes(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text(self.GOOD)
        g = load_graph(str(p))
        out = tmp_path / "copy.graph"
        write_graph(g, str(out), comment="demo")
        g2 = load_graph(str(out))
        assert g2.entries == g.entries and g2.goals == g.goals
        assert set(g2.edges) == set(g.edges)
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

    def test_error_names_line_number(self, tmp_path):
        p = tmp_path / "bad.graph"
        p.write_text("#vertices\n0 0 0\nbroken\n")
        with pytest.raises(GraphFormatError, match=r"bad\.graph:3:"):
            load_graph(str(p))

    def test_bundled_fixture_counts(self, border_graph):
        assert len(border_graph.entries) == 10
        assert len(border_graph.goals) == 7
        for e in border_graph.edges.values():
            a = border_graph.vertices[e.tail]
            b = border_graph.vertices[e.head]
            assert e.length == pytest.approx(math.hypot(b.x - a.x, b.y - a.y), rel=1e-6)


class TestOverlay:
    def test_100m_edge_into_four_cells(self):
        """One 100 m edge against 30 m cells cuts into 30/30/30/10 pieces."""
        g = _graph([(0, 0), (100, 0)], [(0, 1)])
        refined, overlay = overlay_grid(g, CELL_30)
        assert overlay.cell_side == pytest.approx(30.0)
        assert refined.n_edges == 4
        lengths = [refined.edges[e].length for e in range(4)]
        assert lengths == pytest.approx([30.0, 30.0, 30.0, 10.0])
        assert len(set(overlay.cell_of_edge.tolist())) == 4

    def test_edge_within_one_cell_unchanged(self):
        g = _graph([(5, 5), (15, 5)], [(0, 1)])
        refined, _ = overlay_grid(g, CELL_30)
        assert refined.n_edges == 1
        assert refined.edges[0].length == pytest.approx(10.0)

    def test_vertex_on_boundary_makes_no_zero_piece(self):
        """A junction exactly on a grid line must not split anything."""
        side = math.sqrt(2.0) * CELL_30
        g = _graph([(0, 0), (side, 0), (side + 10, 0)], [(0, 1), (1, 2)])
        refined, _ = overlay_grid(g, CELL_30)
        assert refined.n_edges == 2
        assert min(e.length for e in refined.edges.values()) > 1e-3

    def test_parent_reconstruction(self, border_graph, border_refined):
        """Pieces of each parent chain span [0, length] and sum to it."""
        refined, _ = border_refined
        spans = {}
        for eid, parent in refined.parent_edge.items():
            spans.setdefault(parent, []).append(refined.parent_span[eid])
        assert set(spans) == set(border_graph.edges)
        for parent, intervals in spans.items():
            intervals.sort()
            assert intervals[0][0] == 0.0
            assert intervals[-1][1] == pytest.approx(border_graph.edges[parent].length, rel=1e-6)
            for (_, stop), (start, _) in zip(intervals, intervals[1:]):
                assert start == stop
            total = sum(stop - start for start, stop in intervals)
            assert total == pytest.approx(border_graph.edges[parent].length, rel=1e-6)

    def test_midpoint_inside_assigned_cell(self, border_refined):
        refined, overlay = border_refined
        for eid in range(refined.n_edges):
            e = refined.edges[eid]
            a, b = refined.vertices[e.tail], refined.vertices[e.head]
            mid = ((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
            assert overlay.cell_of_point(*mid) == overlay.cell_of_edge[eid]

    def test_resplitting_is_idempotent(self, border_refined):
        refined, _ = border_refined
        again, _ = overlay_grid(refined, 500.0)
        assert again.n_edges == refined.n_edges
        assert [again.edges[e].length for e in range(again.n_edges)] == pytest.approx(
            [refined.edges[e].length for e in range(refined.n_edges)]
        )

    def test_entry_and_goal_membership_inherited(self, border_graph, border_refined):
        refined, _ = border_refined
        assert {refined.parent_edge[e] for e in refined.entries} == set(border_graph.entries)
        assert len(refined.goals) == len(border_graph.goals)
        for ref_set, orig_set in zip(refined.goals, border_graph.goals):
            assert {refined.parent_edge[e] for e in ref_set} == set(orig_set)

    def test_entry_start_edges(self, border_graph, border_refined):
        refined, _ = border_refined
        starts = entry_start_edges(refined)
        assert len(starts) == len(border_graph.entries)
        parents = [refined.parent_edge[e] for e in starts]
        assert parents == sorted(border_graph.entries)
        assert all(refined.parent_span[e][0] == 0.0 for e in starts)

    def test_degenerate_inputs(self):
        g = _graph([(0, 0), (10, 0)], [(0, 1)])
        with pytest.raises(ValueError):
            overlay_grid(g, 0.0)
        with pytest.raises(ValueError):
            overlay_grid(RoadGraph({}, {}), 10.0)


class TestGridGeometry:
    def test_cell_of_point_outside_raises(self, border_refined):
        _, overlay = border_refined
        with pytest.raises(ValueError, match="outside the grid"):
            overlay.cell_of_point(-1e9, 0.0)

    def test_covered_cells_exact_radius_is_own_cell(self, border_refined):
        """At r_i == r only the cell the UAV hovers over is fully covered."""
        _, overlay = border_refined
        center = overlay.cell_center(overlay.n_cols * 3 + 4)
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
                if math.dist(overlay.cell_center(c), (x, y)) <= reach
            ]
            assert overlay.covered_cells(x, y, radius) == expect


class TestIncomingSet:
    def test_chain_and_entry(self):
        g = _graph([(0, 0), (10, 0), (20, 0)], [(0, 1), (1, 2)])
        assert set(g.incoming(1)) == {0}
        assert set(g.incoming(0)) == set()

    def test_three_converging(self):
        g = _graph(
            [(0, 0), (0, 10), (0, -10), (10, 0), (20, 0)],
            [(0, 3), (1, 3), (2, 3), (3, 4)],
        )
        assert set(g.incoming(3)) == {0, 1, 2}

    def test_unknown_edge(self):
        g = _graph([(0, 0), (10, 0)], [(0, 1)])
        with pytest.raises(KeyError):
            g.incoming(7)


def _oracle_best(g, from_edge, goal_set):
    """Exhaustive DFS over simple edge paths; travel counts non-goal hops
    after the first edge."""
    best = [math.inf]

    def rec(edge, cost, seen):
        if edge in goal_set:
            best[0] = min(best[0], cost)
            return
        for nxt in g.outgoing(edge):
            if nxt in seen:
                continue
            step = 0.0 if nxt in goal_set else g.edges[nxt].length
            rec(nxt, cost + step, seen | {nxt})

    rec(from_edge, 0.0, {from_edge})
    return best[0]


class TestShortestPath:
    def test_from_edge_already_goal(self, line_graph):
        assert shortest_path(line_graph, 1, line_graph.goals[0]) == [1]

    def test_prefers_shorter_parallel_route(self):
        g = _graph(
            [(0, 0), (100, 0), (200, 0), (100, 150), (300, 0)],
            [(0, 1), (1, 2), (1, 3), (3, 2), (2, 4)],
            goals=[{4}],
        )
        assert shortest_path(g, 0, g.goals[0]) == [0, 1, 4]

    def test_unreachable_returns_none(self):
        # two disconnected components
        g = _graph([(0, 0), (10, 0), (50, 50), (60, 50)], [(0, 1), (2, 3)])
        assert shortest_path(g, 0, frozenset({1})) is None
        assert shortest_path(g, 1, frozenset({0})) is None

    def test_unknown_from_edge(self, line_graph):
        with pytest.raises(KeyError, match="unknown edge id 9"):
            shortest_path(line_graph, 9, line_graph.goals[0])

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
            g = _graph(coords.tolist(), pairs)
            from_edge = int(rng.integers(n_e))
            goal_pool = [e for e in range(n_e) if e != from_edge]
            goal_set = frozenset(rng.choice(goal_pool, size=2, replace=False).tolist())
            expect = _oracle_best(g, from_edge, goal_set)
            path = shortest_path(g, from_edge, goal_set)
            if path is None:
                assert expect == math.inf
                continue
            assert path[0] == from_edge and path[-1] in goal_set
            cost = sum(g.edges[e].length for e in path[1:] if e not in goal_set)
            assert cost == pytest.approx(expect, abs=1e-9)

    def test_goal_distance_map_consistent(self, border_graph):
        """travel-to-go from an entry equals the shortest-path travel."""
        goal_set = border_graph.goals[0]
        dist = goal_distance_map(border_graph, goal_set)
        for entry in sorted(border_graph.entries):
            path = shortest_path(border_graph, entry, goal_set)
            if path is None:
                assert entry not in dist
                continue
            cost = sum(border_graph.edges[e].length for e in path[1:] if e not in goal_set)
            assert dist[entry] == pytest.approx(cost, abs=1e-6)
