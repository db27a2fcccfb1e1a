"""Route strategies, path validation, and strategy pool management."""

import bisect
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uav_search import strategies as strategies_module
from uav_search.rng import Rng, spawn
from uav_search.road_graph import ConfigError, RoadGraph, overlay_grid, shortest_path, travel_to_goal
from uav_search.simulator import run_batch
from uav_search.strategies import RandomWalkStrategy, RouteStrategy, UnreachableGoalError, WanderingError, make_strategy

from oracles import (
    InvalidPathError,
    choice_cdf,
    choice_walk,
    default_pool,
    goal_distance_map,
    split_pool,
    travel_to_go,
    validate_path,
    walk_step,
)


def _graph(coords, edge_pairs, entries=(), goals=()):
    tail = [t for t, _ in edge_pairs]
    head = [h for _, h in edge_pairs]
    return RoadGraph(coords, tail, head, frozenset(entries), tuple(frozenset(g) for g in goals))


@pytest.fixture
def detour_graph():
    """Two routes to one goal: direct 100 m or 150 + 180 m around."""
    return _graph(
        [(0, 0), (100, 0), (200, 0), (100, 150), (300, 0)],
        [(0, 1), (1, 2), (1, 3), (3, 2), (2, 4)],
        entries={0},
        goals=[{4}],
    )


# The direct route through the hub, and the detour a high penalty takes.
HUB_DIRECT, HUB_AROUND = [0, 1, 2, 9], [0, 3, 4, 5, 9]


@pytest.fixture
def hub_graph():
    """Entry e0 to goal e9 through a four-way hub (v2) or around it."""
    coords = [
        (0, 0), (100, 0), (200, 0), (300, 0),  # v0 v1(start) v2(hub) v3
        (100, 60), (200, 60),                  # detour vertices
        (200, -80), (280, 60), (120, -70),     # hub spurs
    ]
    pairs = [
        (0, 1),                  # e0 entry
        (1, 2), (2, 3),          # e1 e2: direct route through the hub
        (1, 4), (4, 5), (5, 3),  # e3 e4 e5: detour
        (2, 6), (2, 7), (2, 8),  # e6 e7 e8: spurs making v2 a hub
        (3, 6),                  # e9: goal edge leaving v3
    ]
    return _graph(coords, pairs, entries={0}, goals=[{9}])


class TestShortestPath:
    def test_fixed_goal_routes(self, fork_graph):
        rng = np.random.default_rng(0)
        s = RouteStrategy()
        assert s.path(fork_graph, 0, rng, goal_index=0) == [0, 1, 3]
        assert s.path(fork_graph, 0, rng, goal_index=1) == [0, 2, 4]

    def test_goal_drawn_uniformly(self, fork_graph):
        s = RouteStrategy()
        ends = [s.path(fork_graph, 0, np.random.default_rng(seed))[-1] for seed in range(1000)]
        count_first = sum(1 for e in ends if e == 3)
        assert 450 <= count_first <= 550

    def test_truncates_at_first_goal_edge(self):
        # the route to goal set 1 crosses goal set 0 first and stops there
        g = _graph(
            [(0, 0), (100, 0), (200, 0), (300, 0)],
            [(0, 1), (1, 2), (2, 3)],
            entries={0},
            goals=[{1}, {2}],
        )
        path = RouteStrategy().path(g, 0, np.random.default_rng(0), goal_index=1)
        assert path == [0, 1]

    def test_unreachable_goal_index(self):
        # goal set 1 lives on a disconnected component
        g = _graph(
            [(0, 0), (100, 0), (200, 0), (500, 500), (600, 500)],
            [(0, 1), (1, 2), (3, 4)],
            entries={0},
            goals=[{1}, {2}],
        )
        with pytest.raises(UnreachableGoalError, match="goal set 1 unreachable"):
            RouteStrategy().path(g, 0, np.random.default_rng(0), goal_index=1)
        # without a pinned goal only reachable sets are drawn
        for seed in range(10):
            assert RouteStrategy().path(g, 0, np.random.default_rng(seed)) == [0, 1]

    def test_no_goal_reachable(self):
        # the only goal edge sits on a disconnected component
        g = _graph(
            [(0, 0), (100, 0), (500, 500), (600, 500)],
            [(0, 1), (2, 3)],
            entries={0},
            goals=[{1}],
        )
        with pytest.raises(UnreachableGoalError, match="no goal reachable"):
            RouteStrategy().path(g, 0, np.random.default_rng(0))


class TestRandomWalk:
    def test_uniform_walk_reaches_its_drawn_goal(self, fork_graph):
        """At the junction one branch reaches goal set 0 and the other only
        goal set 1: a beta = 0 walk to goal set 0 never takes the other."""
        s = RandomWalkStrategy(beta=0.0)
        for seed in range(1000):
            assert s.path(fork_graph, 0, np.random.default_rng(seed), goal_index=0) == [0, 1, 3]

    def test_uniform_split_over_branches_reaching_the_goal(self):
        # e1 (short) and e2 (long) both reach goal e4; e3 reaches only the other goal set, e6
        g = _graph(
            [(0, 0), (100, 0), (200, 0), (100, 100), (100, -100), (300, 0), (100, -200)],
            [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 2), (4, 6)],
            entries={0},
            goals=[{4}, {6}],
        )
        s = RandomWalkStrategy(beta=0.0)
        paths = [s.path(g, 0, np.random.default_rng(seed), goal_index=0) for seed in range(1000)]
        assert all(path[-1] == 4 for path in paths)
        assert 450 <= sum(1 for path in paths if path[1] == 1) <= 550

    def test_high_beta_recovers_shortest(self, detour_graph):
        s = RandomWalkStrategy(beta=1e6)
        for seed in range(50):
            assert s.path(detour_graph, 0, np.random.default_rng(seed)) == [0, 1, 4]

    def test_walks_end_on_goal(self, detour_graph):
        s = RandomWalkStrategy(beta=0.01)
        for seed in range(100):
            path = s.path(detour_graph, 0, np.random.default_rng(seed))
            assert path[-1] == 4
            validate_path(detour_graph, path, 0)

    def test_uniform_walk_never_dead_ends(self):
        # candidate edge 1 leads nowhere, so no walk takes it
        g = _graph(
            [(0, 0), (100, 0), (100, 100), (200, 0), (300, 0)],
            [(0, 1), (1, 2), (1, 3), (3, 4)],
            entries={0},
            goals=[{3}],
        )
        s = RandomWalkStrategy(beta=0.0)
        for seed in range(200):
            assert s.path(g, 0, np.random.default_rng(seed)) == [0, 2, 3]

    def test_cycle_reaching_the_goal_raises_only_the_cap(self, monkeypatch):
        """From junction v1 a walk leaves for goal e1 or loops e2-e3-e4 back
        to v1; spur e5 dead-ends. With the cap at one route, a walk that
        loops is declared lost, and none takes the spur."""
        g = _graph(
            [(0, 0), (100, 0), (200, 0), (100, 100), (0, 100), (100, -100)],
            [(0, 1), (1, 2), (1, 3), (3, 4), (4, 1), (1, 5)],
            entries={0},
            goals=[{1}],
        )
        monkeypatch.setattr(strategies_module, "MAX_LENGTH_FACTOR", 1.0)
        s = RandomWalkStrategy(beta=0.0)
        outcomes = {"ok": 0, "lost": 0}
        for seed in range(40):
            try:
                path = s.path(g, 0, np.random.default_rng(seed))
                assert path == [0, 1]
                outcomes["ok"] += 1
            except WanderingError as err:
                assert str(err) == "walk from entry 0 exceeded 1x the shortest route"
                outcomes["lost"] += 1
        assert outcomes["ok"] > 0 and outcomes["lost"] > 0

    @pytest.mark.parametrize("entry", [-1, 5])
    def test_entry_outside_the_graph_is_unreachable(self, fork_graph, entry):
        """An edge id outside 0..n-1 reaches no goal set; -1 never wraps to the last edge."""
        with pytest.raises(UnreachableGoalError, match=f"^goal set 1 unreachable from entry edge {entry}$"):
            RandomWalkStrategy(beta=0.01).path(fork_graph, entry, np.random.default_rng(0), goal_index=1)

    def test_negative_beta_rejected(self, fork_graph):
        with pytest.raises(ValueError, match="beta"):
            RandomWalkStrategy(beta=-1.0).path(fork_graph, 0, np.random.default_rng(0))


def _walk_outcome(walk, rng):
    """(path or error type, generator state after the walk)."""
    try:
        result = walk(rng)
    except WanderingError:
        result = WanderingError
    return result, rng.bit_generator.state


class TestCachedWalkSteps:
    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.lists(st.floats(0.0, 1e3) | st.sampled_from([0.0, 1.0, 1e-12]), min_size=1, max_size=8)
        .filter(lambda w: sum(w) > 0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cdf_draw_equals_choice(self, weights, seed):
        """`bisect_right(choice_cdf(p), rng.random())` is the index
        `rng.choice(len(p), p=p)` returns, and both generators end in the
        same state."""
        w = np.array(weights)
        p = w / w.sum()
        cdf = choice_cdf(p)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert bisect.bisect_right(cdf, ours.random()) == int(theirs.choice(len(p), p=p))
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_nan_probabilities_raise_like_choice(self, beta):
        p = np.array([0.5, np.nan])
        with pytest.raises(ValueError) as theirs:
            np.random.default_rng(0).choice(2, p=p)
        with pytest.raises(ValueError, match=f"^{theirs.value}$"):
            choice_cdf(p)
        with pytest.raises(ValueError, match=f"^beta must be finite and >= 0, got {beta}$"):
            RandomWalkStrategy(beta)  # refused when built, before a walk could draw from NaN

    @settings(max_examples=60, deadline=None)
    @given(
        beta=st.sampled_from([0.0, 3e-4, 0.01, 0.03, 1.0]) | st.floats(0.0, 0.1),
        pair=st.integers(0, 69),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_walk_equals_choice_walk(self, border_refined, beta, pair, seed):
        """A walk through the step cache equals one that recomputes each step
        and draws it with `rng.choice`, path and generator state; the bundled
        graph's cache carries over from earlier examples."""
        g, _ = border_refined
        entry, gi = sorted(g.entries)[pair // 7], pair % 7
        cached = _walk_outcome(lambda rng: RandomWalkStrategy(beta).path(g, entry, rng, goal_index=gi),
                               np.random.default_rng(seed))
        assert cached == _walk_outcome(lambda rng: choice_walk(beta, g, entry, gi, rng), np.random.default_rng(seed))

    def test_steps_cached_per_strategy_and_goal_set(self, fork_graph):
        """One flat table per (strategy, goal set): every edge's candidates,
        their CDF, each edge's first position and each edge's travel left.
        At beta = 0 the entry's candidate that cannot reach goal set 1 weighs
        0, and that candidate's own row, with no route left, stays 0. The
        CDF and the first positions are packed arrays of doubles and 64-bit
        ints, equal to the lists element by element."""
        s = RandomWalkStrategy(beta=0.0)
        s.path(fork_graph, 0, np.random.default_rng(0), goal_index=1)
        assert list(fork_graph._walk_steps) == [(s, 1)]
        cands, cdf, starts, togo = fork_graph._walk_steps[s, 1]
        assert cands == [1, 2, 3, 4]
        assert (cdf.typecode, starts.typecode) == ("d", "q")
        assert list(cdf) == [0.0, 1.0, 0.0, 1.0]
        assert list(starts) == [0, 2, 3, 4, 4, 4]
        assert togo.tolist() == [100.0 + 100.0, float("inf"), 100.0, float("inf"), 0.0]


TABLE_BETAS = (0.0, 3e-4, 0.01, 1.0, 40.0)  # at 40 a 20 m detour's weight underflows to 0.0


@st.composite
def _walk_graphs(draw):
    """A small road graph on a 100 m lattice, so travel-to-go ties, with
    parallel edges, dead ends, entries, up to two goal sets and a last goal
    set no walk reaches."""
    n = draw(st.integers(2, 6))
    spots = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=n, max_size=n, unique=True))
    xy = [(100.0 * x, 100.0 * y) for x, y in spots] + [(1000.0, 1000.0), (1100.0, 1000.0)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=30))
    roles = draw(st.lists(st.sampled_from(["entry", "goal", "other goal", "road"]),
                          min_size=len(pairs), max_size=len(pairs)))
    goals = [{e for e, r in enumerate(roles) if r == role} for role in ("goal", "other goal")]
    goals = [gs for gs in goals if gs] + [{len(pairs)}]
    pairs.append((n, n + 1))
    entries = {e for e, r in enumerate(roles) if r == "entry"}
    return _graph(xy, pairs, entries, goals)


def _walk_result(walk, seed):
    """(path, or the WanderingError's message, generator state after the walk)."""
    rng = np.random.default_rng(seed)
    try:
        result = walk(rng)
    except WanderingError as err:
        result = str(err)
    return result, rng.bit_generator.state


class TestWalkTables:
    @staticmethod
    def _check(g, beta, seeds):
        """Building a table raises nothing and warns nothing. Each row equals
        the oracle's step, candidates and CDF bit for bit, and a row the
        oracle weighs all 0 is all 0. A walk equals the oracle's walk, and
        one from an entry that reaches its goal set visits no edge with
        infinite travel-to-goal."""
        s = RandomWalkStrategy(beta)
        for gi, goal_set in enumerate(g.goals):
            cands, cdf, starts, togo = s._table(g, goal_set)
            assert (cdf.typecode, starts.typecode) == ("d", "q")
            assert list(starts) == np.concatenate(([0], np.cumsum([len(row) for row in g._next]))).tolist()
            dmap = goal_distance_map(g, goal_set)
            want = [travel_to_go(g.length, e, goal_set, dmap) for e in range(g.n_edges)]
            assert togo.tobytes() == np.array(want, dtype=np.float64).tobytes()
            for e in range(g.n_edges):
                row = slice(starts[e], starts[e + 1])
                want_cands, p = walk_step(beta, g, gi, e)
                assert cands[row] == want_cands
                want_cdf = choice_cdf(p) if p.any() else p.tolist()
                assert len(cdf[row]) == len(want_cdf)
                for ours, want in zip(cdf[row], want_cdf):
                    assert np.float64(ours).tobytes() == np.float64(want).tobytes()
            for entry in sorted(g.entries):
                for seed in seeds:
                    try:
                        ours = _walk_result(lambda rng: s.path(g, entry, rng, goal_index=gi), seed)
                    except UnreachableGoalError:
                        with pytest.raises(UnreachableGoalError):
                            choice_walk(beta, g, entry, gi, np.random.default_rng(seed))
                        continue
                    assert ours == _walk_result(lambda rng: choice_walk(beta, g, entry, gi, rng), seed)
                    if isinstance(ours[0], list):
                        assert all(togo[e] < math.inf for e in ours[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(g=_walk_graphs(), beta=st.sampled_from(TABLE_BETAS), seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_the_per_edge_oracle(self, g, beta, seed):
        self._check(g, beta, [seed, seed + 1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("beta", TABLE_BETAS)
    def test_bundled_rows_equal_the_per_edge_oracle(self, border_refined, beta):
        g, _ = border_refined
        self._check(g, beta, [0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_beta_weighs_as_a_large_one(self, border_refined):
        """At beta = 1e308 a weight's exponent overflows to -inf, and weighs 0
        without a warning, as it underflows to 0 at beta = 1e300: on the
        bundled map every goal set's table is the same at both."""
        g, _ = border_refined
        for goal_set in g.goals:
            huge, large = RandomWalkStrategy(1e308)._table(g, goal_set), RandomWalkStrategy(1e300)._table(g, goal_set)
            assert huge[0] == large[0] and huge[1:3] == large[1:3] and huge[3].tobytes() == large[3].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(g=_walk_graphs(), beta=st.sampled_from(TABLE_BETAS), seed=st.integers(0, 2**32 - 1))
    @example(g=_graph([(0, 0), (100, 0), (100, 100), (200, 0), (300, 0)], [(0, 1), (1, 2), (1, 3), (3, 4)],
                      entries={0}, goals=[{3}]), beta=0.0, seed=0)  # edge 1 is a dead end beside the route
    def test_live_walks_raise_only_the_cap(self, g, beta, seed):
        """At every beta a walk from an entry that reaches its goal set is a
        valid path or, past the cap, WanderingError: never a dead end."""
        rng = np.random.default_rng(seed)
        for gi, goal_set in enumerate(g.goals):
            togo = travel_to_goal(g, goal_set)
            for entry in sorted(e for e in g.entries if togo[e] < math.inf):
                for _ in range(10):
                    try:
                        path = RandomWalkStrategy(beta).path(g, entry, rng, goal_index=gi)
                    except WanderingError as err:
                        assert "exceeded" in str(err)
                    else:
                        validate_path(g, path, entry)


def _streams(g, runs):
    """Training's stream keys and (entry, goal index) starts on `g`, `runs` per pair."""
    pairs = [(ei, entry, gi) for ei, entry in enumerate(sorted(g.entries)) for gi in range(len(g.goals))]
    return ([(ei, gi, run) for ei, _, gi in pairs for run in range(runs)],
            [(entry, gi) for _, entry, gi in pairs for _ in range(runs)])


def _scalar_walks(strategy, g, starts, rngs):
    """What `strategy.path` gives on each stream in order: a path, or None where
    the goal set is unreachable, up to the first WanderingError; and that error's
    message and stream index (None, None when no walk is lost)."""
    out = []
    for i, ((entry, gi), rng) in enumerate(zip(starts, rngs)):
        try:
            out.append(strategy.path(g, entry, rng, goal_index=gi))
        except UnreachableGoalError:
            out.append(None)
        except WanderingError as err:
            return out, str(err), i
    return out, None, None


def _lane_walks(strategy, g, starts, lanes):
    """`_scalar_walks` for `strategy.paths` over `lanes`, each path as a list."""
    out = []
    try:
        for path in strategy.paths(g, starts, lanes):
            out.append(None if path is None else [int(e) for e in path])
    except WanderingError as err:
        return out, str(err), len(out)
    return out, None, None


class _Counting:
    """A stream that counts its draws."""

    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    def random(self):
        self.draws += 1
        return self.rng.random()


class TestLaneWalks:
    @pytest.mark.parametrize("beta,runs", [(0.01, 6), (0.0, 2), (1e308, 6)])
    def test_lane_walks_equal_scalar_walks(self, border_refined, beta, runs):
        """Stream for stream, the walks `paths` steps in lanes equal the walks
        `path` steps on one `Rng`, after each stream's velocity draw: at beta
        = 0.01 and 1e308 the last walks finish one by one as lanes thin out,
        and at beta = 0 most outrun the lanes' 64 edges. Walks done in lanes
        come as rows of the id matrix, the rest as lists."""
        g, _ = border_refined
        keys, starts = _streams(g, runs)
        strategy = RandomWalkStrategy(beta)
        lanes = spawn(11, keys)
        lanes.random()
        rngs = [Rng(11, key) for key in keys]
        for rng in rngs:
            rng.random()
        got = list(strategy.paths(g, starts, lanes))
        assert {type(path) for path in got} == {np.ndarray, list}
        assert ([[int(e) for e in path] for path in got], None, None) == _scalar_walks(strategy, g, starts, rngs)

    @settings(max_examples=60, deadline=None)
    @given(g=_walk_graphs(), beta=st.sampled_from(TABLE_BETAS), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_lane_walks_equal_scalar_walks_on_small_graphs(self, g, beta, seed, data):
        """On small graphs with dead ends, cycles, goal sets no walk reaches
        and entries outside the graph, enough streams to step in lanes walk
        as they walk one by one: the same paths, None where unreachable, and
        the same first WanderingError in stream order."""
        starts = data.draw(st.lists(st.tuples(st.integers(-1, g.n_edges), st.integers(0, len(g.goals) - 1)),
                                    min_size=strategies_module.LANE_MIN, max_size=strategies_module.LANE_MIN + 30))
        keys = [(i,) for i in range(len(starts))]
        strategy = RandomWalkStrategy(beta)
        assert (_lane_walks(strategy, g, starts, spawn(seed, keys))
                == _scalar_walks(strategy, g, starts, [Rng(seed, key) for key in keys]))

    def test_a_draw_on_a_cdf_entry_takes_the_next_candidate(self):
        """Parallel edges e1 and e2 share a junction and reach the goal alike,
        so at beta = 0 their row's CDF is [0.5, 1.0]. A draw of exactly 0.5
        counts the entry 0.5 and takes e2, as `bisect_right` does, in lanes
        and on one walk."""
        g = _graph([(0, 0), (100, 0), (200, 0), (300, 0)], [(0, 1), (1, 2), (1, 2), (2, 3)], entries={0}, goals=[{3}])
        n = strategies_module.LANE_MIN

        class Half:
            """Lanes, or with `lanes` None one stream, whose every draw is 0.5."""

            def __init__(self, lanes):
                self.lanes = lanes

            def random(self):
                return 0.5 if self.lanes is None else np.full(self.lanes, 0.5)

            def __getitem__(self, i):
                return self if isinstance(i, slice) else Half(None)

        strategy = RandomWalkStrategy(0.0)
        assert [list(map(int, path)) for path in strategy.paths(g, [(0, 0)] * n, Half(n))] == [[0, 2, 3]] * n
        assert strategy.path(g, 0, Half(None), goal_index=0) == [0, 2, 3]

    def test_first_lost_walk_in_stream_order_raises(self, border_refined, monkeypatch):
        """With the cap at 1.5 times a route, beta = 0 walks are lost within
        the lanes' 64 edges. The streams that stay short come first, so the
        first lost stream in order follows walks that finish, and a later
        stream passes the cap in fewer steps: the lanes yield the walks before
        it and raise the WanderingError the scalar walker raises for it."""
        monkeypatch.setattr(strategies_module, "MAX_LENGTH_FACTOR", 1.5)
        g, _ = border_refined
        keys, starts = _streams(g, 2)
        strategy = RandomWalkStrategy(0.0)
        counted = [_Counting(Rng(0, key)) for key in keys]
        lost = [i for i, rng in enumerate(counted) if _scalar_walks(strategy, g, starts[i:i + 1], [rng])[1]]
        order = [i for i in range(len(keys)) if i not in lost] + lost
        keys, starts, draws = [keys[i] for i in order], [starts[i] for i in order], [counted[i].draws for i in order]
        first = len(keys) - len(lost)
        assert 0 < first and min(draws[first + 1:]) < draws[first] < strategies_module.LANE_CELLS // strategies_module.LANE_BATCH
        in_lanes = []

        def lane_phase(*args, _lanes=strategies_module._lanes):
            in_lanes.append(_lanes(*args))
            return in_lanes[-1]
        monkeypatch.setattr(strategies_module, "_lanes", lane_phase)
        expected = _scalar_walks(strategy, g, starts, [Rng(0, key) for key in keys])
        assert expected[1:] == ("walk from entry %d exceeded 1.5x the shortest route" % starts[first][0], first)
        assert _lane_walks(strategy, g, starts, spawn(0, keys)) == expected
        assert any(in_lanes[0][3][first + 1:])  # a later lane was lost in the lane phase


class TestSideRoads:
    @staticmethod
    def _check_zero_penalty(g):
        """At penalty 0 every edge weighs its length, bit for bit, so the
        route search from every entry is the search under lengths."""
        weight = RouteStrategy()._weight(g)
        assert weight.tobytes() == g.length.tobytes()
        for entry in sorted(g.entries):
            assert shortest_path(g, entry, weight) == shortest_path(g, entry, None)

    @settings(max_examples=150, deadline=None)
    @given(g=_walk_graphs())
    def test_zero_penalty_weight_is_length(self, g):
        self._check_zero_penalty(g)

    def test_bundled_zero_penalty_weight_is_length(self, border_refined):
        self._check_zero_penalty(border_refined[0])

    def test_penalty_diverts_around_hub(self, hub_graph):
        """A high enough penalty flips the route, exactly where the inflated
        weights say it should."""
        g = hub_graph
        degree = {v: 0 for v in range(len(g.xy))}
        for v in [*g.tail.tolist(), *g.head.tolist()]:
            degree[v] += 1
        max_deg = max(degree.values())

        def route_cost(route, penalty):
            return sum(
                g.length[e] * (1.0 + penalty * degree[int(g.head[e])] / max_deg)
                for e in route[1:-1]  # entry not traveled, goal hop costs 0
            )

        direct, around = HUB_DIRECT, HUB_AROUND
        assert route_cost(direct, 0.0) < route_cost(around, 0.0)
        assert route_cost(direct, 6.0) > route_cost(around, 6.0)
        rng = np.random.default_rng(0)
        assert RouteStrategy(penalty=0.0).path(g, 0, rng, goal_index=0) == direct
        assert RouteStrategy(penalty=6.0).path(g, 0, rng, goal_index=0) == around

    def test_single_route_immune_to_penalty(self, line_graph):
        rng = np.random.default_rng(0)
        for penalty in (0.0, 10.0):
            assert RouteStrategy(penalty=penalty).path(line_graph, 0, rng, goal_index=0) == [0, 1]

    def test_negative_penalty_rejected(self, fork_graph):
        with pytest.raises(ValueError, match="penalty"):
            RouteStrategy(penalty=-0.5).path(fork_graph, 0, np.random.default_rng(0))


class TestRouteCache:
    """Deterministic routes are computed once per (strategy, entry): one
    search answers every goal set."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        real = strategies_module.shortest_path

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(strategies_module, "shortest_path", counting)
        return calls

    @pytest.mark.parametrize("strategy", [RouteStrategy(), RouteStrategy(penalty=6.0)])
    def test_hit_matches_miss(self, fork_graph, hub_graph, counted, strategy):
        for g in (fork_graph, hub_graph):
            for gi in range(len(g.goals)):
                rng = np.random.default_rng(0)
                miss = strategy.path(g, 0, rng, goal_index=gi)
                n_calls = len(counted)
                hit = strategy.path(g, 0, rng, goal_index=gi)
                assert len(counted) == n_calls  # served from the cache
                assert hit == miss
                validate_path(g, hit, 0)

    @pytest.mark.parametrize("strategy", [RouteStrategy(), RouteStrategy(penalty=1.5)])
    def test_one_search_per_entry(self, border_graph, counted, strategy):
        g, _ = overlay_grid(border_graph, 500.0)
        entry = min(g.entries)
        rng = np.random.default_rng(0)
        routes = [strategy.path(g, entry, rng, goal_index=gi) for gi in range(len(g.goals))]
        assert counted == [entry]
        for route in routes:
            validate_path(g, route, entry)

    def test_border_batch_searches_once_per_entry(self, border_scenario, counted):
        """40 `border` trials spawn 120 shortest-route targets from 10
        entries in a fresh world: at most one search per entry."""
        [(stats, _)] = run_batch([(border_scenario, 0)], 40)
        assert stats.n_trials == 40
        assert 1 <= len(counted) <= 10
        assert len(set(counted)) == len(counted)

    @pytest.mark.parametrize("strategy", [RouteStrategy(), RouteStrategy(penalty=1.0)])
    def test_hit_consumes_the_same_randomness(self, border_graph, strategy):
        cold, _ = overlay_grid(border_graph, 500.0)
        warm, _ = overlay_grid(border_graph, 500.0)
        entry = min(warm.entries)
        strategy.path(warm, entry, np.random.default_rng(42))
        rng_miss = np.random.default_rng(42)
        rng_hit = np.random.default_rng(42)
        assert strategy.path(cold, entry, rng_miss) == strategy.path(warm, entry, rng_hit)
        assert rng_miss.random() == rng_hit.random()

    def test_returned_path_is_a_fresh_list(self, fork_graph):
        rng = np.random.default_rng(0)
        first = RouteStrategy().path(fork_graph, 0, rng, goal_index=0)
        expected = list(first)
        first.append(999)
        first[0] = -1
        second = RouteStrategy().path(fork_graph, 0, rng, goal_index=0)
        assert second == expected
        assert second is not first

    @pytest.mark.parametrize("order", [(0.0, 6.0), (6.0, 0.0)])
    def test_penalties_never_share_an_entry(self, hub_graph, counted, order):
        rng = np.random.default_rng(0)
        expected = {0.0: HUB_DIRECT, 6.0: HUB_AROUND}
        for penalty in order + order:
            assert RouteStrategy(penalty=penalty).path(hub_graph, 0, rng, goal_index=0) \
                == expected[penalty]
        assert len(counted) == 2  # one miss per penalty, then hits


class TestValidatePath:
    def test_accepts_good_path(self, fork_graph):
        validate_path(fork_graph, [0, 1, 3], 0)

    @pytest.mark.parametrize(
        "path,needle",
        [
            ([], "empty path"),
            ([1, 3], "expected entry 0"),
            ([0, 3], "disconnected hop 0 -> 3"),
            ([0, 1], "ends on non-goal edge 1"),
        ],
    )
    def test_rejects_bad_paths(self, fork_graph, path, needle):
        with pytest.raises(InvalidPathError) as err:
            validate_path(fork_graph, path, 0)
        assert needle in str(err.value)

    def test_rejects_goal_crossed_mid_path(self):
        # chain where goal set 0 sits between the entry and goal set 1
        g = _graph(
            [(0, 0), (100, 0), (200, 0), (300, 0)],
            [(0, 1), (1, 2), (2, 3)],
            entries={0},
            goals=[{1}, {2}],
        )
        with pytest.raises(InvalidPathError, match="goal edge 1 appears before the end"):
            validate_path(g, [0, 1, 2], 0)


class TestRegistry:
    def test_names(self):
        with pytest.raises(KeyError, match=re.escape("known: ['random_walk', 'shortest', 'side_roads']")):
            make_strategy("teleport")

    def test_build_each(self):
        assert make_strategy("shortest") == RouteStrategy() == make_strategy("side_roads", {"penalty": 0})
        assert make_strategy("random_walk", {"beta": "0.5"}) == RandomWalkStrategy(beta=0.5)
        assert make_strategy("side_roads", {"penalty": 2}) == RouteStrategy(penalty=2.0)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown strategy"):
            make_strategy("teleport")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            make_strategy("shortest", {"beta": 1.0})

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="missing parameters"):
            make_strategy("random_walk")

    @pytest.mark.parametrize(
        "name,params",
        [
            ("random_walk", {"beta": -1}), ("random_walk", {"beta": "nan"}), ("random_walk", {"beta": "inf"}),
            ("side_roads", {"penalty": -2}), ("side_roads", {"penalty": "nan"}), ("side_roads", {"penalty": "-inf"}),
        ],
    )
    def test_bad_weight_refused_when_built(self, name, params):
        """A weight that is negative or not finite fails when the strategy is
        built, not when its first path is drawn."""
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            make_strategy(name, params)

    @pytest.mark.parametrize("build", [
        lambda: RandomWalkStrategy(beta=float("nan")), lambda: RouteStrategy(penalty=-1.0),
        lambda: make_strategy("shortest", {"beta": 1}), lambda: make_strategy("random_walk"),
    ], ids=["nan_beta", "negative_penalty", "unknown_parameter", "missing_parameter"])
    def test_refusals_are_config_errors(self, build):
        """A direct caller gets the input-error class the CLI exits 1 on, as
        `config.parse_strategy`'s callers do."""
        with pytest.raises(ConfigError):
            build()


class TestPool:
    def test_default_composition(self):
        pool = default_pool(40)
        assert len(pool) == 40
        penalties = [s.penalty for s in pool if isinstance(s, RouteStrategy)]
        betas = [s.beta for s in pool if isinstance(s, RandomWalkStrategy)]
        assert penalties.count(0.0) == 1  # the shortest route
        assert len(betas) == 23 and len(penalties) == 17
        assert betas[0] == pytest.approx(3e-4) and betas[-1] == pytest.approx(3e-2)
        side = [p for p in penalties if p > 0.0]
        assert side[0] == pytest.approx(0.25) and side[-1] == pytest.approx(4.0)

    def test_deterministic(self):
        assert default_pool(40) == default_pool(40)
        assert len(set(map(repr, default_pool(40)))) == 40  # all distinct

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="at least 3"):
            default_pool(2)
        assert len(default_pool(3)) == 3

    def test_split_disjoint_and_seeded(self):
        pool = default_pool(40)
        split = split_pool(pool, 30, 10, seed=7)
        assert len(split.train) == 30 and len(split.test) == 10
        assert not set(map(repr, split.train)) & set(map(repr, split.test))
        again = split_pool(pool, 30, 10, seed=7)
        assert split == again
        other = split_pool(pool, 30, 10, seed=8)
        assert split != other

    def test_split_overflow(self):
        with pytest.raises(ValueError, match="cannot draw"):
            split_pool(default_pool(10), 8, 3, seed=0)

    def test_empty_test_split_warns(self):
        with pytest.warns(UserWarning, match="empty test split"):
            split_pool(default_pool(5), 3, 0, seed=0)

    def test_every_pool_strategy_routes_the_bundled_map(self, border_refined):
        refined, _ = border_refined
        entry = sorted(refined.entries)[0]
        for i, s in enumerate(default_pool(12)):
            path = s.path(refined, entry, np.random.default_rng(100 + i))
            validate_path(refined, path, entry)
