"""Trace sampling, model compilation, and model file round trips."""

import numpy as np
import pytest

from uav_search.belief import propagate
from uav_search.movement import (
    ModelFormatError,
    PathTrace,
    TransitionModel,
    compile_model,
    generate_training_traces,
    load_model,
    sample_trace,
    save_model,
    traces_for_strategies,
    validate_stochastic,
)
from uav_search.road_graph import overlay_grid
from uav_search.strategies import ShortestPathStrategy

KMH = 1000.0 / 3600.0


def _refined(g):
    # radius big enough that no edge crosses a cell boundary
    refined, _ = overlay_grid(g, 1e5)
    return refined


class TestSampleTrace:
    def test_tick_by_tick_occupancy(self, line_graph):
        """10 km/h over a 100 m edge sampled every 9 s advances 25 m per
        tick: four samples on the entry, the fifth on the goal."""
        trace = sample_trace(line_graph, [0, 1], 10.0 * KMH, 9.0)
        assert trace.samples == ((0, 0), (1, 0), (2, 0), (3, 0), (4, 1))

    def test_vertex_hit_lands_on_next_edge(self, line_graph):
        # distance exactly 100 m at t=2 means the walk is on edge 1
        trace = sample_trace(line_graph, [0, 1], 50.0, 1.0)
        assert trace.samples == ((0, 0), (1, 0), (2, 1))

    def test_stops_at_first_goal_sample(self, line_graph):
        trace = sample_trace(line_graph, [0, 1], 5.0, 1.0)
        goal_samples = [s for s in trace.samples if s[1] in line_graph.goal_union]
        assert len(goal_samples) == 1
        assert trace.samples[-1] == goal_samples[0]

    def test_ticks_consecutive_from_zero(self, fork_graph):
        trace = sample_trace(fork_graph, [0, 1, 3], 12.0, 2.0)
        ticks = [t for t, _ in trace.samples]
        assert ticks == list(range(len(ticks)))

    def test_sample_floats_pinned_on_bundled_route(self, border_refined):
        """At 30/11 m/s and 20 s ticks, `velocity_ms * tick * t` puts sample 11
        at 599.9999999999999 m, one ulp short of the end of the route's
        600 m first edge, so it stays on edge 0. An ulp-level change to that
        expression moves it on to edge 10. Pinned: the tick at which the trace
        first occupies each edge; the trace ends on the goal at tick 210."""
        g, _ = border_refined
        path = ShortestPathStrategy().path(g, min(g.entries), np.random.default_rng(0), goal_index=0)
        trace = sample_trace(g, path, 30.0 / 11.0, 20.0)
        first: dict[int, int] = {}
        for t, eid in trace.samples:
            first.setdefault(eid, t)
        assert list(first.items()) == [
            (0, 0), (10, 12), (11, 13), (12, 26), (13, 39), (18, 43), (19, 52), (20, 65),
            (21, 78), (26, 80), (27, 91), (28, 104), (32, 111), (33, 117), (34, 130),
            (35, 143), (40, 146), (41, 156), (42, 169), (46, 177), (47, 182), (48, 195),
            (49, 208), (672, 210),
        ]
        assert trace.samples[11] == (11, 0)

    @pytest.mark.parametrize("velocity,tick", [(0.0, 1.0), (-3.0, 1.0), (5.0, 0.0)])
    def test_rejects_nonpositive_rates(self, line_graph, velocity, tick):
        with pytest.raises(ValueError, match="must be positive"):
            sample_trace(line_graph, [0, 1], velocity, tick)


class TestTraceGeneration:
    def test_one_trace_per_pair_and_run(self, fork_graph):
        g = _refined(fork_graph)
        traces = generate_training_traces(g, ShortestPathStrategy(), 5.0, (8.0, 12.0), 3, seed=1)
        # 1 entry x 2 goal sets x 3 runs
        assert len(traces) == 6
        for trace in traces:
            assert trace.samples[0] == (0, 0)
            assert trace.samples[-1][1] in g.goal_union

    def test_border_fixture_pair_coverage(self, border_refined):
        refined, _ = border_refined
        traces = generate_training_traces(refined, ShortestPathStrategy(), 20.0, (8.0, 12.0), 3, seed=1)
        assert len(traces) == 10 * 7 * 3
        starts = {trace.samples[0][1] for trace in traces}
        assert starts <= refined.entries

    def test_same_seed_same_traces(self, fork_graph):
        g = _refined(fork_graph)
        a = generate_training_traces(g, ShortestPathStrategy(), 5.0, (8.0, 12.0), 2, seed=9)
        b = generate_training_traces(g, ShortestPathStrategy(), 5.0, (8.0, 12.0), 2, seed=9)
        assert a == b

    def test_bad_velocity_range(self, fork_graph):
        g = _refined(fork_graph)
        with pytest.raises(ValueError, match="bad velocity range"):
            generate_training_traces(g, ShortestPathStrategy(), 5.0, (12.0, 8.0), 1, seed=0)

    def test_pooling_concatenates_per_strategy(self, fork_graph):
        g = _refined(fork_graph)
        strategies = [ShortestPathStrategy(), ShortestPathStrategy()]
        pooled = traces_for_strategies(g, strategies, 5.0, (8.0, 12.0), 2, seed=4)
        subs = [
            int(np.random.SeedSequence(4, spawn_key=(si,)).generate_state(1, np.uint64)[0])
            for si in range(2)
        ]
        expect = []
        for sub in subs:
            expect.extend(generate_training_traces(g, ShortestPathStrategy(), 5.0, (8.0, 12.0), 2, sub))
        assert pooled == expect

    def test_pooling_rejects_empty(self, fork_graph):
        with pytest.raises(ValueError, match="at least one strategy"):
            traces_for_strategies(_refined(fork_graph), [], 5.0, (8.0, 12.0), 1, seed=0)


class TestCompileModel:
    def test_observed_frequencies_without_smoothing(self, line_graph):
        """Three stays and one hop out of edge 0 give 0.75 / 0.25 exactly."""
        g = _refined(line_graph)
        traces = [PathTrace(((0, 0), (1, 0)))] * 3 + [PathTrace(((0, 0), (1, 1)))]
        model = compile_model(traces, g, smoothing=0.0)
        assert model.transitions[0] == ((0, 0.75), (1, 0.25))

    def test_laplace_smoothing(self, line_graph):
        g = _refined(line_graph)
        traces = [PathTrace(((0, 0), (1, 0)))] * 3 + [PathTrace(((0, 0), (1, 1)))]
        model = compile_model(traces, g, smoothing=0.01)
        row = dict(model.transitions[0])
        assert row[0] == pytest.approx(3.01 / 4.02)
        assert row[1] == pytest.approx(1.01 / 4.02)

    def test_unvisited_source_is_uniform(self, fork_graph):
        g = _refined(fork_graph)
        model = compile_model([], g, smoothing=0.01)
        assert model.transitions[1] == ((1, 0.5), (3, 0.5))
        assert model.transitions[2] == ((2, 0.5), (4, 0.5))

    def test_goal_edges_absorb(self, fork_graph):
        g = _refined(fork_graph)
        traces = [PathTrace(((0, 0), (1, 1), (2, 3)))]
        model = compile_model(traces, g, smoothing=0.01)
        for goal_set in g.goals:
            for eid in goal_set:
                assert model.transitions[eid] == ((eid, 1.0),)

    def test_rows_are_stochastic(self, fork_graph):
        g = _refined(fork_graph)
        traces = generate_training_traces(g, ShortestPathStrategy(), 5.0, (8.0, 12.0), 3, seed=2)
        model = compile_model(traces, g, smoothing=0.01)
        assert validate_stochastic(model, g) == []

    def test_skip_hop_rejected(self, fork_graph):
        g = _refined(fork_graph)
        bad = [PathTrace(((0, 0), (1, 3)))]
        with pytest.raises(ValueError, match="skips road edges"):
            compile_model(bad, g)

    def test_nonconsecutive_ticks_rejected(self, fork_graph):
        g = _refined(fork_graph)
        bad = [PathTrace(((0, 0), (2, 0)))]
        with pytest.raises(ValueError, match="not consecutive"):
            compile_model(bad, g)

    def test_negative_smoothing_rejected(self, fork_graph):
        with pytest.raises(ValueError, match="non-negative"):
            compile_model([], _refined(fork_graph), smoothing=-0.1)

    def test_metadata_passthrough(self, fork_graph):
        model = compile_model([], _refined(fork_graph), tick=20.0, target_class="runner")
        assert model.tick == 20.0
        assert model.target_class == "runner"
        assert model.n_edges == 5

    def test_matrix_moves_mass(self, line_graph):
        g = _refined(line_graph)
        traces = [PathTrace(((0, 0), (1, 0)))] * 3 + [PathTrace(((0, 0), (1, 1)))]
        model = compile_model(traces, g, smoothing=0.0)
        vec = np.zeros(g.n_edges)
        vec[0] = 1.0
        assert propagate(vec, model).tolist() == [0.75, 0.25]


class TestValidateStochastic:
    def test_flags_bad_row_sum(self):
        model = TransitionModel("t", 1.0, 2, {0: ((0, 0.5), (1, 0.3)), 1: ((1, 1.0),)})
        problems = validate_stochastic(model)
        assert len(problems) == 1 and "row sums to" in problems[0]

    def test_flags_negative_probability(self):
        model = TransitionModel("t", 1.0, 2, {0: ((0, 1.5), (1, -0.5)), 1: ((1, 1.0),)})
        assert any("negative probability" in p for p in validate_stochastic(model))

    def test_flags_unsupported_destination(self, fork_graph):
        g = _refined(fork_graph)
        model = TransitionModel("t", 1.0, 5, {0: ((0, 0.5), (3, 0.5))})
        assert any("not a road successor" in p for p in validate_stochastic(model, g))

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
        assert again.transitions == border_model.transitions

    def test_compile_save_load_identity(self, tmp_path, fork_graph):
        g = _refined(fork_graph)
        traces = generate_training_traces(g, ShortestPathStrategy(), 5.0, (8.0, 12.0), 2, seed=3)
        model = compile_model(traces, g, smoothing=0.01, tick=5.0, target_class="demo")
        p = tmp_path / "m.model"
        save_model(model, str(p))
        loaded = load_model(str(p))
        assert loaded.transitions == model.transitions
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
        ],
    )
    def test_format_errors(self, tmp_path, text, needle):
        p = tmp_path / "bad.model"
        p.write_text(text)
        with pytest.raises(ModelFormatError) as err:
            load_model(str(p))
        assert needle in str(err.value)

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "m.model"
        p.write_text("; note\n\n#model tick=2.0 class=a\n; more\n0 0 1.0\n")
        model = load_model(str(p))
        assert model.transitions == {0: ((0, 1.0),)}
        assert model.tick == 2.0

    def test_edges_header_sets_edge_count(self, tmp_path):
        p = tmp_path / "m.model"
        p.write_text("#model tick=2.0 class=a edges=4\n0 1 1.0\n1 1 1.0\n")
        model = load_model(str(p))
        assert model.n_edges == 4
        assert model.has_row.tolist() == [True, True, False, False]
        save_model(model, str(tmp_path / "out.model"))  # the token is read, never written
        assert (tmp_path / "out.model").read_text() == "#model tick=2.0 class=a\n0 1 1.0\n1 1 1.0\n"
