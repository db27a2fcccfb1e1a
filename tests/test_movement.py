"""Trace sampling, model compilation, and model file round trips."""

import ast
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uav_search import movement
from uav_search.belief import propagate
from uav_search.movement import (
    KMH_TO_MS,
    ModelFormatError,
    compile_model,
    load_model,
    sample_traces,
    save_model,
    traces_for_strategies,
    validate_stochastic,
)
from uav_search.road_graph import ConfigError, RoadGraph, overlay_grid
from uav_search.strategies import RandomWalkStrategy, RouteStrategy, WanderingError, make_strategy

from oracles import count_compile, model_from_rows, model_rows, trace_loop, validate_path


def _edge_lists(traces):
    return [trace.tolist() for trace in traces]


def sample_trace(g, path, velocity_ms, tick):
    """One path's trace from the batch sampler."""
    [trace] = sample_traces(g, [(path, velocity_ms)], tick)
    return trace


def _refined(g):
    # radius big enough that no edge crosses a cell boundary
    refined, _ = overlay_grid(g, 1e5)
    return refined


class TestSampleTrace:
    def test_tick_by_tick_occupancy(self, line_graph):
        """10 km/h over a 100 m edge sampled every 9 s advances 25 m per
        tick: four samples on the entry, the fifth on the goal."""
        trace = sample_trace(line_graph, [0, 1], 10.0 * KMH_TO_MS, 9.0)
        assert trace.tolist() == [0, 0, 0, 0, 1]
        assert trace.dtype == movement.edge_dtype(line_graph.n_edges) == np.int8
        assert not trace.flags.writeable

    @pytest.mark.parametrize("n_edges,dtype", [
        (1, np.int8), (128, np.int8), (129, np.int16), (739, np.int16),
        (32_768, np.int16), (32_769, np.int32), (2**31, np.int32), (2**31 + 1, np.int64),
    ])
    def test_edge_dtype_is_the_narrowest_that_holds_every_id(self, n_edges, dtype):
        assert movement.edge_dtype(n_edges) == dtype
        assert np.iinfo(dtype).max >= n_edges - 1

    def test_bundled_traces_are_int16(self, border_refined):
        """The bundled map's 739 refined edges fit int16, so its training
        traces hold two bytes a tick."""
        g, _ = border_refined
        assert g.n_edges == 739
        traces = traces_for_strategies(g, [RouteStrategy(), RandomWalkStrategy(0.01)], 20.0, (8.0, 12.0), 1, seed=3)
        assert {t.dtype for t in traces} == {np.dtype(np.int16)}

    def test_traces_past_32768_edges_are_int32(self):
        """On a straight road of 32,770 one-metre edges, ids pass int16's
        32,767: the traces are int32, hold every id, and compile to the model
        int64 copies of them compile to."""
        n = 32_770
        g = RoadGraph([(float(x), 0.0) for x in range(n + 1)], range(n), range(1, n + 1),
                      frozenset({0}), (frozenset({n - 1}),))
        [trace] = traces_for_strategies(g, [RouteStrategy()], 1.0, (3.6, 3.6), 1, seed=0)
        assert trace.dtype == np.int32
        assert trace.tolist() == list(range(n))
        assert _compiled(compile_model, [trace], g, 0.01) == _compiled(compile_model, [trace.astype(np.int64)], g, 0.01)

    def test_vertex_hit_lands_on_next_edge(self, line_graph):
        # distance exactly 100 m at t=2 means the walk is on edge 1
        trace = sample_trace(line_graph, [0, 1], 50.0, 1.0)
        assert trace.tolist() == [0, 0, 1]

    def test_stops_at_first_goal_sample(self, line_graph):
        trace = sample_trace(line_graph, [0, 1], 5.0, 1.0)
        goal_samples = [e for e in trace.tolist() if e in line_graph.goal_union]
        assert goal_samples == [trace[-1]]

    def test_ticks_consecutive_from_zero(self, fork_graph):
        """Entry t is the edge 24 m * t along the 100 m + 100 m + 50 m path:
        ticks 0-4 on edge 0, 5-8 on edge 1 and tick 9, at 216 m, on goal 3."""
        trace = sample_trace(fork_graph, [0, 1, 3], 12.0, 2.0)
        assert trace.tolist() == [0] * 5 + [1] * 4 + [3]

    def test_path_off_the_goals_raises(self, line_graph):
        """No sample of the path [0] lands on goal edge 1: raise, never loop."""
        with pytest.raises(ValueError, match="never reaches a goal edge: it ends on edge 0"):
            sample_trace(line_graph, [0], 5.0, 1.0)

    @pytest.mark.parametrize("step,end,ticks", [
        (57.02228162441893, 2394.9358282255953, 42),  # end / step rounds to 42.00000000000001, 42 * step to end
        (25.366766171280382, 507.33532342560767, 21),  # end / step rounds to 20.0, 20 * step one ulp below end
    ])
    def test_edge_ticks_follow_the_products_not_the_quotient(self, step, end, ticks):
        """At 1 s ticks, the entry edge of `end` meters holds the ticks k
        with `step * k < end`, one fewer or one more than `ceil(end / step)`."""
        g = RoadGraph([(0.0, 0.0), (end, 0.0), (end + 100.0, 0.0)], [0, 1], [1, 2], frozenset({0}), (frozenset({1}),))
        assert g.length[0] == end and math.ceil(end / step) != ticks
        trace = sample_trace(g, [0, 1], step, 1.0).tolist()
        assert trace == trace_loop(g, [0, 1], step, 1.0) == [0] * ticks + [1]

    @pytest.mark.parametrize("velocities,message", [
        ([5.0, 5.0, -1.0], "never reaches a goal edge: it ends on edge 0"),
        ([5.0, -1.0, 5.0], "velocity and tick must be positive and finite"),
        ([5.0, 1e308, 5.0], "velocity and tick must be positive and finite"),
    ])
    def test_first_bad_path_in_order_is_named(self, line_graph, velocities, message):
        """Of the paths [0, 1], [0] (no goal) and [0, 1], the first in order
        that cannot be sampled raises: a speed that is negative, or whose
        step overflows, before a later path off the goals."""
        with pytest.raises(ValueError, match=message):
            sample_traces(line_graph, zip([[0, 1], [0], [0, 1]], velocities), 2.0)

    def test_reads_walks_a_run_at_a_time(self, line_graph):
        """Walks are read as runs are taken: at a budget of 2 cells, the
        first run, [0] alone, is sampled and refused before the walk after
        the second is drawn."""
        def walks():
            yield [0], 5.0
            yield [0, 1], 5.0
            raise AssertionError("read past the second walk")

        with mock.patch.object(movement, "SAMPLE_CELLS", 2):
            with pytest.raises(ValueError, match="never reaches a goal edge: it ends on edge 0"):
                sample_traces(line_graph, walks(), 1.0)

    @pytest.mark.parametrize("velocity", [float("nan"), float("inf")])
    def test_rejects_nonfinite_rates(self, line_graph, velocity):
        with pytest.raises(ValueError, match="must be positive and finite"):
            sample_trace(line_graph, [0, 1], velocity, 1.0)

    def test_sample_floats_pinned_on_bundled_route(self, border_refined):
        """At 30/11 m/s and 20 s ticks, `velocity_ms * tick * t` puts sample 11
        at 599.9999999999999 m, one ulp short of the end of the route's
        600 m first edge, so it stays on edge 0. An ulp-level change to that
        expression moves it on to edge 10. Pinned: the tick at which the trace
        first occupies each edge; the trace ends on the goal at tick 210."""
        g, _ = border_refined
        path = RouteStrategy().path(g, min(g.entries), np.random.default_rng(0), goal_index=0)
        trace = sample_trace(g, path, 30.0 / 11.0, 20.0)
        first: dict[int, int] = {}
        for t, eid in enumerate(trace.tolist()):
            first.setdefault(eid, t)
        assert list(first.items()) == [
            (0, 0), (10, 12), (11, 13), (12, 26), (13, 39), (18, 43), (19, 52), (20, 65),
            (21, 78), (26, 80), (27, 91), (28, 104), (32, 111), (33, 117), (34, 130),
            (35, 143), (40, 146), (41, 156), (42, 169), (46, 177), (47, 182), (48, 195),
            (49, 208), (672, 210),
        ]
        assert trace[11] == 0

    @pytest.mark.parametrize("velocity,tick", [(0.0, 1.0), (-3.0, 1.0), (5.0, 0.0)])
    def test_rejects_nonpositive_rates(self, line_graph, velocity, tick):
        with pytest.raises(ValueError, match="must be positive"):
            sample_trace(line_graph, [0, 1], velocity, tick)


class TestTraceGeneration:
    def test_one_trace_per_pair_and_run(self, fork_graph):
        g = _refined(fork_graph)
        traces = traces_for_strategies(g, [RouteStrategy()], 5.0, (8.0, 12.0), 3, seed=1)
        # 1 entry x 2 goal sets x 3 runs
        assert len(traces) == 6
        for trace in traces:
            assert trace[0] == 0
            assert trace[-1] in g.goal_union

    def test_border_fixture_pair_coverage(self, border_refined):
        refined, _ = border_refined
        traces = traces_for_strategies(refined, [RouteStrategy()], 20.0, (8.0, 12.0), 3, seed=1)
        assert len(traces) == 10 * 7 * 3
        starts = {int(trace[0]) for trace in traces}
        assert starts <= refined.entries

    def test_uniform_walk_traces_every_pair(self, border_refined):
        """At beta = 0, 6 runs per pair and seed 0, every (entry, goal) pair
        gives its 6 walks, each short of the 1,000 times its route the cap
        allows and each ending in its pair's goal set, though a uniform walk
        now runs a median of about 34 times its route."""
        refined, _ = border_refined
        traces = traces_for_strategies(refined, [RandomWalkStrategy(0.0)], 20.0, (8.0, 12.0), 6, seed=0)
        assert len(traces) == 10 * 7 * 6 == 420
        assert all(int(trace[-1]) in refined.goals[k // 6 % 7] for k, trace in enumerate(traces))

    def test_training_paths_keep_the_path_contract(self, border_refined, monkeypatch):
        """Training samples a strategy's paths as `paths` returns them, lane
        walks among them. Every path that the `compile` benchmark's three
        strategies and a beta = 0 walk return on the bundled refined map, 2
        runs per pair, passes the oracle `validate_path`."""
        refined, _ = border_refined
        checked = []
        for cls in (RouteStrategy, RandomWalkStrategy):
            def checking(self, g, starts, lanes, _paths=cls.paths):
                for (entry, gi), path in zip(starts, _paths(self, g, starts, lanes)):
                    validate_path(g, [int(e) for e in path], entry)
                    checked.append(int(path[-1]) in g.goals[gi])
                    yield path
            monkeypatch.setattr(cls, "paths", checking)
        specs = [("shortest", {}), ("random_walk", {"beta": 0.01}), ("side_roads", {"penalty": 1.5}),
                 ("random_walk", {"beta": 0.0})]
        strategies = [make_strategy(name, params) for name, params in specs]
        traces = traces_for_strategies(refined, strategies, 20.0, (8.0, 12.0), 2, seed=3)
        assert len(traces) == len(checked) == 4 * 10 * 7 * 2
        assert all(checked)

    def test_same_seed_same_traces(self, fork_graph):
        g = _refined(fork_graph)
        a = traces_for_strategies(g, [RouteStrategy()], 5.0, (8.0, 12.0), 2, seed=9)
        b = traces_for_strategies(g, [RouteStrategy()], 5.0, (8.0, 12.0), 2, seed=9)
        assert _edge_lists(a) == _edge_lists(b)

    def test_bad_velocity_range(self, fork_graph):
        g = _refined(fork_graph)
        with pytest.raises(ConfigError, match=r"velocity_range_kmh: need 0 < low <= high < inf, got \[12.0, 8.0\]"):
            traces_for_strategies(g, [RouteStrategy()], 5.0, (12.0, 8.0), 1, seed=0)

    def test_pooling_concatenates_per_strategy(self, fork_graph):
        """Strategy i draws from sub-seed i alone: the pool starts with the
        first strategy's own traces, and each strategy adds one trace per
        (entry, goal) pair and run."""
        g = _refined(fork_graph)
        first = traces_for_strategies(g, [RouteStrategy()], 5.0, (8.0, 12.0), 2, seed=4)
        pooled = traces_for_strategies(g, [RouteStrategy(), RouteStrategy()], 5.0, (8.0, 12.0), 2, seed=4)
        assert len(pooled) == 2 * len(first) == 8
        assert _edge_lists(pooled[:4]) == _edge_lists(first) != _edge_lists(pooled[4:])

    def test_pooling_rejects_empty(self, fork_graph):
        with pytest.raises(ValueError, match="at least one strategy"):
            traces_for_strategies(_refined(fork_graph), [], 5.0, (8.0, 12.0), 1, seed=0)


class TestCompileModel:
    def test_observed_frequencies_without_smoothing(self, line_graph):
        """Three stays and one hop out of edge 0 give 0.75 / 0.25 exactly."""
        g = _refined(line_graph)
        traces = [np.array([0, 0])] * 3 + [np.array([0, 1])]
        model = compile_model(traces, g, smoothing=0.0)
        assert model_rows(model)[0] == ((0, 0.75), (1, 0.25))

    def test_laplace_smoothing(self, line_graph):
        g = _refined(line_graph)
        traces = [np.array([0, 0])] * 3 + [np.array([0, 1])]
        model = compile_model(traces, g, smoothing=0.01)
        row = dict(model_rows(model)[0])
        assert row[0] == pytest.approx(3.01 / 4.02)
        assert row[1] == pytest.approx(1.01 / 4.02)

    def test_unvisited_source_is_uniform(self, fork_graph):
        g = _refined(fork_graph)
        model = compile_model([], g, smoothing=0.01)
        rows = model_rows(model)
        assert rows[1] == ((1, 0.5), (3, 0.5))
        assert rows[2] == ((2, 0.5), (4, 0.5))

    def test_goal_edges_absorb(self, fork_graph):
        g = _refined(fork_graph)
        traces = [np.array([0, 1, 3])]
        model = compile_model(traces, g, smoothing=0.01)
        rows = model_rows(model)
        for goal_set in g.goals:
            for eid in goal_set:
                assert rows[eid] == ((eid, 1.0),)

    def test_rows_are_stochastic(self, fork_graph):
        g = _refined(fork_graph)
        traces = traces_for_strategies(g, [RouteStrategy()], 5.0, (8.0, 12.0), 3, seed=2)
        model = compile_model(traces, g, smoothing=0.01)
        assert validate_stochastic(model, g) == []

    def test_skip_hop_rejected(self, fork_graph):
        g = _refined(fork_graph)
        bad = [np.array([0, 3])]
        with pytest.raises(ValueError, match="trace hop 0 -> 3 skips road edges"):
            compile_model(bad, g)

    def test_skip_hop_named_in_trace_order(self, fork_graph):
        """Hop 1 -> 4 comes first in trace order, though 0 -> 3 sorts first."""
        g = _refined(fork_graph)
        bad = [np.array([0, 1, 1]), np.array([0, 1, 4]), np.array([0, 3])]
        with pytest.raises(ValueError, match="trace hop 1 -> 4 skips road edges"):
            compile_model(bad, g)

    @pytest.mark.parametrize("edges", [[0, 5], [5, 5], [0, -1]])
    def test_edge_outside_graph_rejected(self, fork_graph, edges):
        with pytest.raises(ValueError, match=f"trace edge {max(edges, key=abs)} is not in the graph"):
            compile_model([np.array(edges)], _refined(fork_graph))

    @pytest.mark.parametrize("edge", [99, -5])
    def test_one_tick_trace_outside_graph_rejected(self, fork_graph, edge):
        with pytest.raises(ValueError, match=f"trace edge {edge} is not in the graph"):
            compile_model([np.array([0, 1]), np.array([edge])], _refined(fork_graph))

    def test_negative_smoothing_rejected(self, fork_graph):
        with pytest.raises(ValueError, match="non-negative"):
            compile_model([], _refined(fork_graph), smoothing=-0.1)

    @pytest.mark.parametrize("smoothing", [math.nan, math.inf, -math.inf])
    def test_non_finite_smoothing_rejected(self, fork_graph, smoothing):
        """nan and inf would make every row's sum nan; the flag's rule holds here too."""
        with pytest.raises(ValueError, match=f"non-negative and finite, got {smoothing}"):
            compile_model([], _refined(fork_graph), smoothing=smoothing)

    def test_metadata_passthrough(self, fork_graph):
        model = compile_model([], _refined(fork_graph), tick=20.0, target_class="runner")
        assert model.tick == 20.0
        assert model.target_class == "runner"
        assert model.n_edges == 5

    def test_matrix_moves_mass(self, line_graph):
        g = _refined(line_graph)
        traces = [np.array([0, 0])] * 3 + [np.array([0, 1])]
        model = compile_model(traces, g, smoothing=0.0)
        vec = np.zeros(g.n_edges)
        vec[0] = 1.0
        assert propagate(vec, model).tolist() == [0.75, 0.25]


@st.composite
def _straight_road(draw):
    """(graph, velocity m/s, tick s): a straight road of 1-8 edges whose last
    edge is a goal, as may be some earlier ones. In half the draws every edge
    is a whole number of steps long (velocity * tick), so samples fall
    exactly on edge ends."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        velocity, tick = draw(st.sampled_from([0.5, 1.25, 2.5])), draw(st.sampled_from([1.0, 2.0, 4.0]))
        lengths = [velocity * tick * draw(st.integers(1, 12)) for _ in range(n)]
    else:
        velocity, tick = draw(st.floats(0.5, 20.0)), draw(st.floats(0.5, 30.0))
        lengths = [draw(st.floats(1.0, 500.0)) for _ in range(n)]
    xs = np.concatenate([[0.0], np.cumsum(lengths)])
    goals = frozenset({n - 1} | draw(st.sets(st.integers(0, n - 1))))
    g = RoadGraph([(x, 0.0) for x in xs], range(n), range(1, n + 1), frozenset({0}), (goals,))
    return g, velocity, tick


@st.composite
def _graph_and_traces(draw, max_traces=5, hops=st.integers(0, 10)):
    """A random graph on grid points and up to `max_traces` traces, each of
    `hops` hops, that stay on an edge or move to a successor at each tick;
    about one hop in ten jumps to any edge, which may skip road edges."""
    points = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=6, unique=True))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, len(points) - 1), st.integers(0, len(points) - 1)).filter(lambda p: p[0] != p[1]),
        min_size=1, max_size=12))
    n_e = len(pairs)
    goals = draw(st.sets(st.integers(0, n_e - 1), max_size=3))
    g = RoadGraph(points, [t for t, _ in pairs], [h for _, h in pairs], frozenset(), (frozenset(goals),) if goals else ())
    traces = []
    for _ in range(draw(st.integers(0, max_traces))):
        edges = [draw(st.integers(0, n_e - 1))]
        for _ in range(draw(hops)):
            if draw(st.integers(0, 9)):
                edges.append(draw(st.sampled_from([edges[-1], *g._next[edges[-1]]])))
            else:
                edges.append(draw(st.integers(0, n_e - 1)))
        traces.append(np.array(edges))
    return g, traces


@st.composite
def _sliced_case(draw):
    """A hop budget of 1-4 hops and up to 10 traces of up to twice the budget
    hops each, many of them one tick long or exactly one budget long, so
    slices often end on the budget."""
    budget = draw(st.integers(1, 4))
    g, traces = draw(_graph_and_traces(10, st.sampled_from([0, budget]) | st.integers(0, 2 * budget)))
    return budget, g, traces


@st.composite
def _ragged_batch(draw):
    """(graph, paths, velocities m/s, tick s, cell budget): 1-8 paths, each a
    run of consecutive edges of a straight road of 1-30 edges, so one-edge
    paths and long paths beside short ones, sampled in runs of a budget of
    1-40 padded cells. A path ends on a goal edge, as may some earlier edges,
    or about one in six holds no goal edge at all. In half the draws every
    edge is a whole number of steps long at every velocity, so samples fall
    exactly on edge ends."""
    n = draw(st.integers(1, 30))
    if draw(st.booleans()):
        tick, speeds = draw(st.sampled_from([1.0, 2.0, 4.0])), st.sampled_from([0.5, 1.25, 2.5])
        lengths = [2.5 * tick * draw(st.integers(1, 6)) for _ in range(n)]
    else:
        tick, speeds = draw(st.floats(0.5, 30.0)), st.floats(0.5, 20.0)
        lengths = [draw(st.floats(1.0, 500.0)) for _ in range(n)]
    goals = draw(st.sets(st.integers(0, n - 1), min_size=1))
    xs = np.concatenate([[0.0], np.cumsum(lengths)])
    g = RoadGraph([(x, 0.0) for x in xs], range(n), range(1, n + 1), frozenset({0}), (frozenset(goals),))
    others = sorted(set(range(n)) - goals)
    paths = []
    for _ in range(draw(st.integers(1, 8))):
        if others and not draw(st.integers(0, 5)):
            stop = draw(st.sampled_from(others))
            low = max([e + 1 for e in goals if e < stop], default=0)
        else:
            stop, low = draw(st.sampled_from(sorted(goals))), 0
        start = draw(st.sampled_from([stop, low]) | st.integers(low, stop))
        paths.append(list(range(start, stop + 1)))
    return g, paths, [draw(speeds) for _ in paths], tick, draw(st.integers(1, 40))


def _peak_above_start(fn, *args):
    """`fn(*args)`, and the tracemalloc peak it reached above the memory
    traced when it started."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def _compiled(compile_fn, traces, g, smoothing):
    """The model's `(src, dst, prob)` lists, or the skip-hop error's first words."""
    try:
        model = compile_fn(traces, g, smoothing)
    except ValueError as exc:
        return str(exc).split(" skips")[0]
    return model.src.tolist(), model.dst.tolist(), model.prob.tolist()


class TestArraysEqualLoopOracles:
    @settings(max_examples=300, deadline=None)
    @given(road=_straight_road())
    def test_sample_trace_equals_tick_loop(self, road):
        g, velocity, tick = road
        path = list(range(g.n_edges))
        assert sample_trace(g, path, velocity, tick).tolist() == trace_loop(g, path, velocity, tick)

    @settings(max_examples=100, deadline=None)
    @given(
        pair=st.integers(0, 69),
        beta=st.sampled_from([None, 0.003, 0.03]),
        velocity_kmh=st.floats(8.0, 12.0),
        tick=st.sampled_from([1.0, 7.5, 20.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sample_trace_equals_tick_loop_on_bundled_routes(self, border_refined, pair, beta, velocity_kmh, tick, seed):
        g, _ = border_refined
        entry, gi = sorted(g.entries)[pair // 7], pair % 7
        strategy = RouteStrategy() if beta is None else RandomWalkStrategy(beta)
        try:
            path = strategy.path(g, entry, np.random.default_rng(seed), goal_index=gi)
        except WanderingError:
            return
        v_ms = velocity_kmh * KMH_TO_MS
        assert sample_trace(g, path, v_ms, tick).tolist() == trace_loop(g, path, v_ms, tick)

    @settings(max_examples=300, deadline=None)
    @given(batch=_ragged_batch())
    def test_batch_sampling_equals_tick_loop(self, batch):
        """Sampled together, in runs of a few padded cells, each path's trace
        equals its own tick loop, in path order; or the error names the first
        path in order that holds no goal edge."""
        g, paths, velocities, tick, cells = batch
        want = []
        for path, velocity in zip(paths, velocities):
            if g.goal_union.isdisjoint(path):
                with mock.patch.object(movement, "SAMPLE_CELLS", cells), pytest.raises(ValueError) as err:
                    sample_traces(g, zip(paths, velocities), tick)
                assert str(err.value) == f"path never reaches a goal edge: it ends on edge {path[-1]}"
                return
            want.append(trace_loop(g, path, velocity, tick))
        with mock.patch.object(movement, "SAMPLE_CELLS", cells):
            traces = sample_traces(g, zip(paths, velocities), tick)
        assert _edge_lists(traces) == want
        assert all(t.dtype == np.int8 and not t.flags.writeable for t in traces)

    @settings(max_examples=300, deadline=None)
    @given(case=_graph_and_traces(), smoothing=st.sampled_from([0.0, 0.01, 0.5]) | st.floats(0.0, 2.0))
    def test_compile_equals_dict_counting(self, case, smoothing):
        """Same arrays to the bit, or the same first skipped hop."""
        g, traces = case
        assert _compiled(compile_model, traces, g, smoothing) == _compiled(count_compile, traces, g, smoothing)

    @settings(max_examples=300, deadline=None)
    @given(case=_sliced_case(), smoothing=st.sampled_from([0.0, 0.01, 0.5]))
    def test_compile_in_slices_equals_dict_counting(self, case, smoothing):
        """The same with `HOP_SLICE` cut to a few hops, so that traces fall
        in many slices: summed slice counts are the whole list's counts."""
        budget, g, traces = case
        with mock.patch.object(movement, "HOP_SLICE", budget):
            sliced = _compiled(compile_model, traces, g, smoothing)
        assert sliced == _compiled(count_compile, traces, g, smoothing)

    def test_hop_codes_past_int32_equal_dict_counting(self):
        """On a straight road of 46,342 edges the hop code src * n + dst of
        the top hops passes 2**31 - 1, which int32 traces must not wrap."""
        n = 46_342
        g = RoadGraph([(float(x), 0.0) for x in range(n + 1)], range(n), range(1, n + 1),
                      frozenset({0}), (frozenset({n - 1}),))
        traces = [np.array([n - 3, n - 3, n - 2, n - 1], dtype=np.int32), np.array([0, 1], dtype=np.int32)]
        assert (n - 3) * n + n - 2 > np.iinfo(np.int32).max
        assert _compiled(compile_model, traces, g, 0.01) == _compiled(count_compile, traces, g, 0.01)

    def test_bundled_compile_equals_dict_counting(self, border_refined):
        g, _ = border_refined
        strategies = [RouteStrategy(), RandomWalkStrategy(0.01)]
        traces = traces_for_strategies(g, strategies, 20.0, (8.0, 12.0), 1, seed=3)
        assert _compiled(compile_model, traces, g, 0.01) == _compiled(count_compile, traces, g, 0.01)


class TestHopSlices:
    """`compile_model` counts hops in runs of traces of at most `HOP_SLICE`
    hops; here the budget is cut to a few hops."""

    def test_runs_close_on_the_budget(self, fork_graph):
        """Runs of 2 + 2 + 0 hops end exactly on a budget of 4, and a trace of
        5 hops is a run alone; `compile_model` drops an empty trace before it
        slices. Padded, a run closes where its count times its longest would
        pass the budget: 2 x 2 fits 4, and a 5 is a run alone."""
        assert list(movement._runs([2, 2, 0, 5, 1, 3], int, 4)) == [[2, 2, 0], [5], [1, 3]]
        assert list(movement._runs([1, 2, 1, 5, 1, 1, 1, 1, 1], int, 4, padded=True)) == [
            [1, 2], [1], [5], [1, 1, 1, 1], [1]]
        g = _refined(fork_graph)
        traces = [np.array(t, dtype=np.int32) for t in ([0, 0, 1], [0, 1, 1], [0], [], [1, 1, 3, 3, 3, 3], [0, 1])]
        with mock.patch.object(movement, "HOP_SLICE", 4):
            assert _compiled(compile_model, traces, g, 0.01) == _compiled(count_compile, traces, g, 0.01)

    @pytest.mark.parametrize("budget", [1, 2, 1 << 15])
    @pytest.mark.parametrize("traces,edge", [
        ([[0, 3], [0, 1], [1, 9]], 9),
        ([[0, 1], [0, 1, 8], [6], [7, 0]], 8),
        ([[0, 3], [0, 0], [1, 1, 1, 1], [0, -2], [5]], -2),
    ])
    def test_first_outside_edge_named_in_any_slice(self, fork_graph, budget, traces, edge):
        """The first outside edge in trace order is named before any skipped
        hop: at a budget of 1, hop 0 -> 3 is in slice 1 and edge 9 in slice
        3. Edge 7 in the second list starts the first outside hop."""
        with mock.patch.object(movement, "HOP_SLICE", budget):
            with pytest.raises(ValueError, match=f"trace edge {edge} is not in the graph"):
                compile_model([np.array(t) for t in traces], _refined(fork_graph))

    def test_benchmark_trace_set_peaks_under_1_5_mb(self, border_refined):
        """The perfbench `compile` traces (shortest, random_walk:beta=0.01 and
        side_roads:penalty=1.5, 6 runs per pair, seed 3; about 321,000 hops):
        holding every hop as int64 peaked at 7.1 MB under tracemalloc."""
        g, _ = border_refined
        strategies = [make_strategy("shortest"), make_strategy("random_walk", {"beta": 0.01}),
                      make_strategy("side_roads", {"penalty": 1.5})]
        traces = traces_for_strategies(g, strategies, 20.0, (8.0, 12.0), 6, seed=3)
        _, peak = _peak_above_start(compile_model, traces, g, 0.01, 20.0, "runner")
        assert peak < 1.5e6

    @pytest.mark.parametrize("name,params,seed,bound", [
        ("shortest", {}, 3, 0.3e6),
        ("random_walk", {"beta": 0.01}, 3, 0.3e6),
        ("side_roads", {"penalty": 1.5}, 3, 0.3e6),
        ("random_walk", {"beta": 0.0}, 0, 1e6),
    ], ids=["shortest", "walk_beta_0.01", "side_roads", "walk_beta_0"])
    def test_training_peaks_near_its_traces(self, border_refined, name, params, seed, bound):
        """One strategy's training traces, 6 runs per pair, peak within
        `bound` of the traces returned, as walks are drawn and sampled a
        run of at most `SAMPLE_CELLS` cells at a time: 0.25 MB on each of
        the perfbench `compile` strategies and 0.30 MB on beta = 0 walks (up
        to 8,163 edges a path). Holding a strategy's paths until all are
        drawn peaked at 0.37 and 5.1 MB, and padding them all at once at 1.2
        and 194 MB."""
        g, _ = border_refined
        strategy = make_strategy(name, params)
        traces_for_strategies(g, [strategy], 20.0, (8.0, 12.0), 6, seed)  # the strategy's own tables
        traces, peak = _peak_above_start(traces_for_strategies, g, [strategy], 20.0, (8.0, 12.0), 6, seed)
        assert peak - sum(t.nbytes for t in traces) < bound


class TestValidateStochastic:
    def test_flags_bad_row_sum(self):
        model = model_from_rows({0: ((0, 0.5), (1, 0.3)), 1: ((1, 1.0),)}, 2)
        problems = validate_stochastic(model)
        assert len(problems) == 1 and "row sums to" in problems[0]

    def test_flags_negative_probability(self):
        model = model_from_rows({0: ((0, 1.5), (1, -0.5)), 1: ((1, 1.0),)}, 2)
        assert any("negative probability" in p for p in validate_stochastic(model))

    def test_flags_unsupported_destination(self, fork_graph):
        g = _refined(fork_graph)
        model = model_from_rows({0: ((0, 0.5), (3, 0.5))}, 5)
        assert any("not a road successor" in p for p in validate_stochastic(model, g))

    def test_row_sum_adds_one_term_at_a_time(self):
        """Nine 0.1 terms summed in row order give 0.8999999999999999; a
        pairwise sum such as `np.add.reduceat` gives 0.9."""
        rows = {0: tuple((dst, 0.1) for dst in range(9)), **{e: ((e, 1.0),) for e in range(1, 9)}}
        assert validate_stochastic(model_from_rows(rows, 9)) == ["edge 0: row sums to 0.8999999999999999"]

    def test_rowless_edges_come_first(self):
        model = model_from_rows({2: ((2, 0.5),), 0: ((0, 1.0),)}, 4)
        assert validate_stochastic(model) == [
            "edge 1: no transition row", "edge 3: no transition row", "edge 2: row sums to 0.5",
        ]

    def test_flags_nan_probability(self):
        model = model_from_rows({0: ((0, float("nan")), (1, 1.0)), 1: ((1, 1.0),)}, 2)
        assert validate_stochastic(model) == ["edge 0: row sums to nan"]

    def test_bundled_model_is_valid(self, border_model, border_refined):
        refined, _ = border_refined
        assert validate_stochastic(border_model, refined) == []
        assert border_model.tick == 20.0
        assert border_model.target_class == "runner"
        assert border_model.n_edges == refined.n_edges


class TestModelFile:
    def test_round_trip_bytes(self, tmp_path, border_model, border_model_path):
        out = tmp_path / "copy.model"
        save_model(border_model, str(out))
        with open(border_model_path, "rb") as fh:
            assert out.read_bytes() == fh.read()
        again = load_model(str(out))
        assert again.tick == border_model.tick
        assert again.target_class == border_model.target_class
        assert again.n_edges == border_model.n_edges
        assert model_rows(again) == model_rows(border_model)

    def test_save_orders_sources_and_keeps_row_order(self, tmp_path):
        """Rows of edges 0 and 1 interleave in the file; the saved file lists
        sources in ascending order, each row's destinations in file order."""
        p = tmp_path / "m.model"
        p.write_text("#model tick=1.0 class=a\n1 2 0.5\n0 1 0.75\n1 1 0.5\n2 2 1.0\n0 0 0.25\n")
        save_model(load_model(str(p)), str(tmp_path / "out.model"))
        assert (tmp_path / "out.model").read_bytes() == (
            b"#model tick=1.0 class=a\n0 1 0.75\n0 0 0.25\n1 2 0.5\n1 1 0.5\n2 2 1.0\n"
        )

    def test_arrays_are_read_only(self, border_model):
        for values in (border_model.src, border_model.dst, border_model.prob):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0

    def test_compile_save_load_identity(self, tmp_path, fork_graph):
        g = _refined(fork_graph)
        traces = traces_for_strategies(g, [RouteStrategy()], 5.0, (8.0, 12.0), 2, seed=3)
        model = compile_model(traces, g, smoothing=0.01, tick=5.0, target_class="demo")
        p = tmp_path / "m.model"
        save_model(model, str(p))
        loaded = load_model(str(p))
        assert model_rows(loaded) == model_rows(model)
        assert loaded.tick == model.tick and loaded.target_class == model.target_class

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("0 0 1.0\n", "data before #model header"),
            ("#model tick=1.0 class=a\n#model tick=1.0 class=a\n", "unexpected header"),
            ("#weird tick=1.0\n", "unexpected header"),
            ("#model tick=1.0 class=a\n0 0\n", "malformed transition line"),
            ("#model tick=1.0 class=a\n0 0 x\n", "malformed transition line"),
            ("#model tick=1.0\n0 0 1.0\n", "header missing class="),
            ("#model class=a\n0 0 1.0\n", "header missing tick="),
            ("#model tick=1.0 class=a nokey\n", "bad header token"),
            ("#model tick=1.0 class=a edges=x\n0 0 1.0\n", "edges=x is not a non-negative integer"),
            ("#model tick=1.0 class=a edges=-2\n", "edges=-2 is not a non-negative integer"),
            ("#model tick=1.0 class=a edges=2.0\n0 0 1.0\n", "edges=2.0 is not a non-negative integer"),
            ("#model tick=1.0 class=a edges=2\n0 0 1.0\n2 2 1.0\n", "edge id 2 is out of range for edges=2"),
            ("#model tick=1.0 class=a edges=2\n0 2 1.0\n", "edge id 2 is out of range for edges=2"),
            ("", "missing #model header"),
            ("#model tick=abc class=a\n0 0 1.0\n", "bad.model: header tick=abc is not a number"),
            ("#model tick=1.0 class=a\n0 0 1.0\n-1 -1 1.0\n", "bad.model:3: negative edge id"),
            ("#model tick=1.0 class=a\n0 -2 1.0\n", "bad.model:2: negative edge id"),
            ("#model tick=1.0 class=a\n0 0 0.5\n0 1 0.5\n0 0 0.5\n", "bad.model:4: repeated transition 0 -> 0"),
            ("#model tick=1.0 class=a\n0 99999999999999999999 1.0\n", "edge id 99999999999999999999 is too large"),
        ],
    )
    def test_format_errors(self, tmp_path, text, needle):
        p = tmp_path / "bad.model"
        p.write_text(text)
        with pytest.raises(ModelFormatError) as err:
            load_model(str(p))
        assert needle in str(err.value)

    @pytest.mark.parametrize(
        "header,needle",
        [
            ("#modelzzz tick=2.0 class=a", "bad.model:1: unexpected header '#modelzzz tick=2.0 class=a'"),
            ("#model tick=2.0 class=a tick=3.0", "bad.model:1: repeated header key 'tick'"),
            ("#model tick=2.0 class=a class=b", "bad.model:1: repeated header key 'class'"),
            ("#model tick=2.0 class=a edges=2 edges=2", "bad.model:1: repeated header key 'edges'"),
            ("#model tick=2.0 class=a colour=red", "bad.model:1: unknown header key 'colour'"),
            ("#model tick=2.0 class=a =1", "bad.model:1: unknown header key ''"),
        ],
    )
    def test_header_is_read_strictly(self, tmp_path, header, needle):
        """The first token is exactly `#model`; the keys are tick, class and
        edges, each at most once."""
        p = tmp_path / "bad.model"
        p.write_text(header + "\n0 0 1.0\n")
        with pytest.raises(ModelFormatError) as err:
            load_model(str(p))
        assert needle in str(err.value)

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "m.model"
        p.write_text("; note\n\n#model tick=2.0 class=a\n; more\n0 0 1.0\n")
        model = load_model(str(p))
        assert model_rows(model) == {0: ((0, 1.0),)}
        assert model.tick == 2.0

    def test_edges_header_sets_edge_count(self, tmp_path):
        p = tmp_path / "m.model"
        p.write_text("#model tick=2.0 class=a edges=4\n0 1 1.0\n1 1 1.0\n")
        model = load_model(str(p))
        assert model.n_edges == 4
        assert model.rowless.tolist() == [2, 3]
        save_model(model, str(tmp_path / "out.model"))  # the token is read, never written
        assert (tmp_path / "out.model").read_text() == "#model tick=2.0 class=a\n0 1 1.0\n1 1 1.0\n"


# A valid model on the fork graph's five edges, after a header with or
# without `edges=5`; the fuzz mutates its tokens.
FUZZ_ROWS = [
    ["0", "0", "0.5"], ["0", "1", "0.5"],
    ["1", "1", "0.5"], ["1", "3", "0.5"],
    ["2", "2", "0.5"], ["2", "4", "0.5"],
    ["3", "3", "1.0"], ["4", "4", "1.0"],
]
FUZZ_TOKENS = ["x", "", "nan", "inf", "-inf", "1e400", "0x1", "1.5", "-0", "tick=", "=", ";",
               "1_00", "١٢", "１２", "tick=5_0", "edges=５"]
FUZZ_HUGE = ["9223372036854775807", "99999999999999999999"]
# Spellings int() and float() read but the loader refuses: the first digit
# run split by `_`, or every digit as an Arabic-Indic or fullwidth one.
FUZZ_RESPELL = [
    lambda tok: re.sub(r"(\d)(\d)", r"\1_\2", tok, count=1),
    lambda tok: tok.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    lambda tok: tok.translate(str.maketrans("0123456789", "０１２３４５６７８９")),
]
FUZZ_HEADERS = ["#model tick=5.0 class=demo", "#model", "#edges", "# stray", "#model tick=1 class=a edges=x"]


@st.composite
def _mutated_model_text(draw):
    """The base model after 1-4 token-level edits: drop, duplicate or negate a
    token, replace it with a non-numeric one or an id beyond any array index,
    respell it in Python-only numeric syntax, or drop, duplicate or insert a
    (stray header) line."""
    header = ["#model", "tick=5.0", "class=demo"] + draw(st.sampled_from([["edges=5"], []]))
    lines = [header] + [list(line) for line in FUZZ_ROWS]
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


class TestLoadModelFuzz:
    @settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_mutated_model_text())
    def test_mutated_file_loads_or_names_itself(self, tmp_path, text):
        """Every mutated file either loads, and then saves and reloads to the
        same bytes, or raises a ModelFormatError that names the file. A file
        that loads holds no `_` and no non-ASCII character outside its
        comments."""
        path = tmp_path / "fuzz.model"
        path.write_text(text)
        try:
            model = load_model(str(path))
        except ModelFormatError as exc:
            assert str(path) in str(exc)
            return
        data = [line for line in text.splitlines() if not line.strip().startswith(";")]
        assert all(line.isascii() and "_" not in line for line in data)
        assert model.src.size == model.dst.size == model.prob.size
        assert model.src.size == 0 or max(model.src.max(), model.dst.max()) < model.n_edges
        first, second = tmp_path / "first.model", tmp_path / "second.model"
        save_model(model, str(first))
        save_model(load_model(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()


# Training, every step of it, in a fresh interpreter; prints the package's
# modules that the run loaded.
_TRAINING = """
import sys
from uav_search.movement import compile_model, load_model, save_model, traces_for_strategies, validate_stochastic
from uav_search.road_graph import load_graph, overlay_grid
from uav_search.strategies import make_strategy

graph_path, model_path = sys.argv[1:]
refined, _ = overlay_grid(load_graph(graph_path), 500.0)
traces = traces_for_strategies(refined, [make_strategy("shortest")], 20.0, (8.0, 12.0), 1, 7)
save_model(compile_model(traces, refined, tick=20.0, target_class="runner"), model_path)
assert validate_stochastic(load_model(model_path), refined) == []
print(" ".join(sorted(name for name in sys.modules if name.partition(".")[0] == "uav_search")))
"""


class TestLayering:
    def test_training_loads_only_the_training_stack(self, border_graph_path, tmp_path):
        """Traces, compile, save, load and validate on the bundled map load
        `road_graph`, `strategies`, `movement` and the leaf `rng`, and nothing
        of the search stack above them (`belief`, `planner`, `config`,
        `simulator`, `cli`)."""
        src = os.path.dirname(os.path.dirname(movement.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _TRAINING, border_graph_path, str(tmp_path / "runner.model")],
                              capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.split() == [
            "uav_search", "uav_search.movement", "uav_search.rng", "uav_search.road_graph", "uav_search.strategies"]

    def test_no_module_imports_the_package_inside_a_function(self):
        """Every import of one package module by another sits at module
        level, so the import graph is the one the module headers show."""
        package = pathlib.Path(movement.__file__).parent
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            nested = [node.lineno for top in tree.body for node in ast.walk(top)
                      if top is not node and isinstance(node, ast.ImportFrom) and node.level > 0]
            assert nested == [], f"{path.name}: package import inside a body at lines {nested}"
