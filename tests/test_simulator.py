"""Trial mechanics, batch statistics, and deterministic reproduction."""

import dataclasses
import math
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

import uav_search.simulator as simulator
import uav_search.strategies as strategies
from uav_search.belief import cell_marginal, init_belief, propagate
from uav_search.config import ConfigError, TargetSpec, UavSpec, apply_axis, load_scenario, scenario_from_dict
from uav_search.planner import POLICIES
from uav_search.simulator import (
    BLOCK_TICKS,
    BatchStats,
    TrialResult,
    _motion,
    _spawn_targets,
    _UavState,
    _uniform_off_cells,
    build_world,
    run_batch,
    run_trial,
    trial_seed,
    wilson_interval,
)
from uav_search.movement import save_model
from uav_search.road_graph import RoadGraph
from uav_search.strategies import RandomWalkStrategy, WanderingError

from oracles import Walker, model_from_rows, model_rows, motion_loop, reference_trial, validate_path

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def border_world(border_scenario):
    return build_world(border_scenario)


class TestWilson:
    @pytest.mark.parametrize("wins,n", [(0, 1), (1, 1), (0, 7), (5, 10), (8, 10), (199, 200)])
    def test_matches_reference_implementation(self, wins, n):
        lo, hi = wilson_interval(wins, n)
        ref = sstats.binomtest(wins, n).proportion_ci(confidence_level=0.95, method="wilson")
        assert lo == pytest.approx(ref.low, abs=1e-12)
        assert hi == pytest.approx(ref.high, abs=1e-12)

    def test_bounds_and_coverage(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 500))
            wins = int(rng.integers(0, n + 1))
            lo, hi = wilson_interval(wins, n)
            assert 0.0 <= lo <= wins / n <= hi <= 1.0

    def test_extremes_touch_the_boundary(self):
        assert wilson_interval(0, 20)[0] == 0.0
        assert wilson_interval(20, 20)[1] == 1.0

    def test_symmetric_at_half(self):
        lo, hi = wilson_interval(10, 20)
        assert lo + hi == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one trial"):
            wilson_interval(0, 0)


class TestTrialSeed:
    def test_deterministic_and_distinct(self):
        seeds = [trial_seed(42, i) for i in range(1000)]
        assert seeds == [trial_seed(42, i) for i in range(1000)]
        assert len(set(seeds)) == 1000
        assert all(0 <= s < 2**64 for s in seeds)

    def test_independent_of_batch_size(self):
        # trial i keeps its seed no matter how many trials surround it
        assert trial_seed(7, 3) == trial_seed(7, 3)
        assert trial_seed(7, 3) != trial_seed(8, 3)
        assert trial_seed(7, 3) != trial_seed(7, 4)


class TestSpawn:
    def test_deterministic(self, border_scenario, border_world):
        a = _spawn_targets(border_scenario, border_world, 123)
        b = _spawn_targets(border_scenario, border_world, 123)
        assert [t.path for t in a] == [t.path for t in b]
        assert [t.velocity_ms for t in a] == [t.velocity_ms for t in b]

    def test_uniform_entry_covers_all_starts(self, border_scenario, border_world):
        seen = set()
        for seed in range(300):
            for tg in _spawn_targets(border_scenario, border_world, seed):
                seen.add(tg.path[0])
        assert seen == set(border_world.start_of_parent.values())

    def test_velocity_within_class_range(self, border_scenario, border_world):
        lo, hi = border_scenario.classes[0].velocity_kmh
        for seed in range(50):
            for tg in _spawn_targets(border_scenario, border_world, seed):
                assert lo * (1000 / 3600) <= tg.velocity_ms <= hi * (1000 / 3600)

    def test_fixed_entry_respected(self, border_scenario, border_world):
        entry = sorted(border_world.start_of_parent)[2]
        sc = dataclasses.replace(
            border_scenario,
            targets=(TargetSpec(border_scenario.targets[0].class_name, entry),),
        )
        world = build_world(sc)
        for seed in range(20):
            [tg] = _spawn_targets(sc, world, seed)
            assert tg.path[0] == world.start_of_parent[entry]

    def test_uniform_walk_spawns_past_fifty_routes(self, border_scenario, border_world):
        """Trial 11 of master seed 0 spawns a beta = 0 walk longer than 50
        times its entry's shortest route: a cap of 50 refuses it, and the
        measured cap spawns it as a walk to a goal edge."""
        runner = dataclasses.replace(border_scenario.classes[0], strategies=(RandomWalkStrategy(0.0),))
        sc = dataclasses.replace(border_scenario, classes=(runner,))
        seed = trial_seed(0, 11)
        with mock.patch.object(strategies, "MAX_LENGTH_FACTOR", 50.0):
            with pytest.raises(WanderingError, match="exceeded 50x the shortest route"):
                _spawn_targets(sc, border_world, seed)
        targets = _spawn_targets(sc, border_world, seed)
        assert len(targets) == len(sc.targets)
        for tg in targets:
            validate_path(border_world.refined, tg.path, tg.path[0])


# 36 km/h, 10 m/s: 200 m in a 20 s tick.
_SPEC = UavSpec((0.0, 0.0), 36.0, 500.0, 0.8)


class TestUavFlight:
    def test_step_is_velocity_limited(self, border_world):
        overlay = border_world.overlay
        uav = _UavState(_SPEC, (0.0, 0.0), assigned_cell=overlay.n_cells - 1)
        before = uav.pos
        uav.fly(overlay, 20.0)
        moved = math.hypot(uav.pos[0] - before[0], uav.pos[1] - before[1])
        assert moved == pytest.approx(200.0, abs=1e-9)

    def test_lands_exactly_on_center(self, border_world):
        overlay = border_world.overlay
        cx, cy = overlay.centers[12]
        uav = _UavState(_SPEC, (cx - 50.0, cy), assigned_cell=12)
        uav.fly(overlay, 20.0)
        assert uav.pos == (cx, cy)

    def test_unassigned_stays_put(self, border_world):
        uav = _UavState(_SPEC, (123.0, 456.0), assigned_cell=None)
        uav.fly(border_world.overlay, 20.0)
        assert uav.pos == (123.0, 456.0)


class TestRunTrial:
    def test_deterministic(self, border_scenario, border_world):
        seed = trial_seed(0, 5)
        a = run_trial(border_scenario, seed, border_world)
        b = run_trial(border_scenario, seed, border_world)
        assert a == b

    def test_outcome_invariants(self, border_scenario, border_world):
        n_targets = len(border_scenario.targets)
        outcomes = set()
        for i in range(30):
            r = run_trial(border_scenario, trial_seed(1, i), border_world)
            outcomes.add(r.outcome)
            assert 1 <= r.ticks <= border_scenario.max_ticks
            assert all(1 <= t <= r.ticks for t in r.detection_ticks.values())
            if r.outcome == "win":
                assert set(r.detection_ticks) == set(range(n_targets))
                assert r.losing_target is None and not r.timeout
            else:
                assert (r.losing_target is not None) != r.timeout
                assert len(r.detection_ticks) < n_targets
        assert outcomes == {"win", "lose"}  # the fixture is competitive

    def test_immediate_detection_when_camped(self, border_scenario, border_world):
        """A p = 1 UAV parked over the only entry detects at the first tick."""
        entry = sorted(border_world.start_of_parent)[1]
        start = border_world.start_of_parent[entry]
        cell = int(border_world.overlay.cell_of_edge[start])
        depot = border_world.overlay.centers[cell]
        uav = dataclasses.replace(
            border_scenario.uavs[0], depot=depot, detect_prob=1.0
        )
        sc = dataclasses.replace(
            border_scenario,
            uavs=(uav,),
            targets=(TargetSpec(border_scenario.targets[0].class_name, entry),),
            delay_km=0.0,
        )
        world = build_world(sc)
        for i in range(10):
            r = run_trial(sc, trial_seed(3, i), world)
            assert r.outcome == "win" and r.ticks == 1
            assert r.detection_ticks == {0: 1}

    def test_overwhelming_head_start_always_loses(self, border_scenario, border_world):
        sc = dataclasses.replace(border_scenario, delay_km=1000.0)
        for i in range(5):
            r = run_trial(sc, trial_seed(4, i), border_world)
            assert r.outcome == "lose"
            assert r.losing_target is not None and not r.timeout
            assert r.detection_ticks == {}

    def test_one_tick_budget_times_out(self, border_scenario, border_world):
        sc = dataclasses.replace(border_scenario, max_ticks=1)
        r = run_trial(sc, trial_seed(5, 0), border_world)
        assert r.outcome == "lose" and r.timeout
        assert r.losing_target is None and r.ticks == 1

    def test_zero_uavs_never_win(self, border_scenario):
        sc = dataclasses.replace(border_scenario, uavs=(), grid_radius=500.0)
        world = build_world(sc)
        for i in range(3):
            r = run_trial(sc, trial_seed(6, i), world)
            assert r.outcome == "lose"
            assert r.losing_target is not None
            assert r.detection_ticks == {}


@pytest.fixture(scope="module")
def propagated(border_world):
    """propagated(entry, n): n successive `propagate` calls from the delta on
    `entry`, the reference for the world's frozen beliefs."""
    model = border_world.models["runner"]
    sequences: dict[int, list[np.ndarray]] = {}

    def get(entry: int, n: int) -> np.ndarray:
        seq = sequences.setdefault(entry, [init_belief(border_world.refined, entry)])
        while len(seq) <= n:
            seq.append(propagate(seq[-1], model))
        return seq[n]

    return get


class TestFrozenBelief:
    @settings(max_examples=60, deadline=None)
    @given(requests=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 400)), min_size=1, max_size=12))
    def test_equals_successive_propagation_in_any_request_order(self, border_world, propagated, requests):
        world = dataclasses.replace(border_world)  # same world, empty checkpoint cache
        entries = sorted(world.start_of_parent.values())
        for pick, n in requests:
            entry = entries[pick % len(entries)]
            assert np.array_equal(world.frozen_belief("runner", entry, n), propagated(entry, n))

    def test_checkpoints_are_read_only(self, border_world):
        """Every frozen belief, on a checkpoint or between two, is read-only."""
        world = dataclasses.replace(border_world)
        entry = min(world.refined.entries)
        for n in (0, 5, BLOCK_TICKS, 3 * BLOCK_TICKS, 3 * BLOCK_TICKS + 7, 2):
            mass = world.frozen_belief("runner", entry, n)
            with pytest.raises(ValueError, match="read-only"):
                mass[entry] = 0.5
        assert len(world.checkpoints[("runner", entry)]) == 4
        assert np.array_equal(world.frozen_belief("runner", entry, 0), init_belief(world.refined, entry))

    def test_head_start_loss_does_no_belief_work(self, border_scenario, border_world, monkeypatch):
        calls = []

        def counting(mass, model):
            calls.append(1)
            return propagate(mass, model)

        monkeypatch.setattr(simulator, "propagate", counting)
        sc = dataclasses.replace(border_scenario, delay_km=1000.0)
        world = dataclasses.replace(border_world)
        for i in range(3):
            assert run_trial(sc, trial_seed(4, i), world).outcome == "lose"
        assert calls == [] and world.checkpoints == {}


class TestSharedBeliefs:
    """Until its first fruitless search, a target's belief is the world's,
    shared by every trial on it."""

    @settings(max_examples=60, deadline=None)
    @given(
        requests=st.lists(
            st.tuples(st.booleans(), st.integers(0, 1), st.integers(0, 6 * BLOCK_TICKS)), min_size=1, max_size=30
        )
    )
    def test_shared_rows_equal_frozen_marginals_in_any_order(self, border_world, propagated, requests):
        """Every row, asked for at any tick in any order and between frozen
        belief requests, is the whole cell marginal of the frozen belief, and
        read-only; a cell holding no refined edge has 0.0. Two entries and a
        few checkpoints' worth of ticks make neighbouring requests, which
        start from the last belief reached, common."""
        world = dataclasses.replace(border_world)  # same world, empty stores
        overlay = world.overlay
        off_road = np.setdiff1d(np.arange(overlay.n_cells), overlay.cell_of_edge)
        assert off_road.size
        entries = sorted(world.start_of_parent.values())
        for row_request, pick, n in requests:
            entry = entries[pick]
            if not row_request:
                assert np.array_equal(world.frozen_belief("runner", entry, n), propagated(entry, n))
                continue
            row = world.shared_marginal("runner", entry, n)
            dense = cell_marginal(propagated(entry, n), overlay)
            assert np.array_equal(row, dense) and not row[off_road].any()
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 0.5

    @settings(max_examples=40, deadline=None)
    @given(requests=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 6 * BLOCK_TICKS)), min_size=1, max_size=30))
    @example(requests=[(0, 40), (0, 10)])
    def test_each_row_is_computed_once(self, border_world, requests):
        """`shared_marginal` computes one row per distinct (class, entry,
        tick) asked for, on its first request, and no row it was not asked for."""
        world = dataclasses.replace(border_world)
        entries = sorted(world.start_of_parent.values())
        calls = []

        def counting(mass, overlay):
            calls.append(1)
            return cell_marginal(mass, overlay)

        with mock.patch.object(simulator, "cell_marginal", counting):
            for pick, n in requests:
                world.shared_marginal("runner", entries[pick], n)
        asked = {("runner", entries[pick], n) for pick, n in requests}
        assert len(calls) == len(asked) and set(world.rows) == asked

    @pytest.fixture(scope="class")
    def pursuit_scenario(self):
        return load_scenario(os.path.join(REPO_ROOT, "perfbench", "scenarios", "pursuit.yaml"))

    @settings(max_examples=12, deadline=None)
    @given(
        before=st.lists(st.tuples(st.booleans(), st.integers(0, 2**32)), max_size=4),
        last=st.tuples(st.booleans(), st.integers(0, 2**32)),
    )
    def test_trial_ignores_what_ran_on_its_world_before(
        self, border_scenario, pursuit_scenario, border_world, before, last
    ):
        """A trial on a world that ran any pursuit and border trials before it
        equals the same trial on a fresh world."""
        world = dataclasses.replace(border_world)
        for pursuit, seed in before:
            run_trial(pursuit_scenario if pursuit else border_scenario, seed, world)
        pursuit, seed = last
        scenario = pursuit_scenario if pursuit else border_scenario
        assert run_trial(scenario, seed, world) == run_trial(scenario, seed, dataclasses.replace(border_world))

    def test_zero_uav_trial_does_no_belief_work(self, border_scenario, monkeypatch):
        """Nothing reads the beliefs of a team of none: no search, no replan."""
        calls = []

        def counting(mass, model):
            calls.append(1)
            return propagate(mass, model)

        monkeypatch.setattr(simulator, "propagate", counting)
        sc = dataclasses.replace(border_scenario, uavs=(), grid_radius=500.0, delay_km=0.0)
        world = build_world(sc)
        for i in range(3):
            assert run_trial(sc, trial_seed(6, i), world).ticks > 1
        assert calls == [] and world.rows == {} and world.checkpoints == {}


def _straight_roads(roads):
    """A graph of straight roads 1000 m apart, one per (edge lengths,
    velocity), each entered on its first edge and left on its last, a goal;
    and each road's (path, velocity)."""
    xy, tails, paths = [], [], []
    for j, (lengths, velocity) in enumerate(roads):
        first_vertex, first_edge = len(xy), len(tails)
        xy.extend((x, 1000.0 * j) for x in np.concatenate([[0.0], np.cumsum(lengths)]))
        tails.extend(range(first_vertex, first_vertex + len(lengths)))
        paths.append((list(range(first_edge, first_edge + len(lengths))), velocity))
    heads = [t + 1 for t in tails]
    goals = frozenset(path[-1] for path, _ in paths)
    return RoadGraph(xy, tails, heads, frozenset(path[0] for path, _ in paths), (goals,)), paths


@st.composite
def _head_starts(draw):
    """(graph, [(path, velocity)], tick, head start m, tick budget): 1-4
    targets, each on a straight road of 2-8 edges whose last edge is a goal.
    In half the draws every edge and the head start are whole numbers of a
    target's steps (v * dt), so positions fall exactly on edge ends and on
    the head start."""
    aligned = draw(st.booleans())
    dt = draw(st.sampled_from([1.0, 2.0, 4.0])) if aligned else draw(st.floats(0.5, 30.0))
    roads = []
    for _ in range(draw(st.integers(1, 4))):
        v = draw(st.sampled_from([0.5, 1.25, 2.5])) if aligned else draw(st.floats(0.5, 20.0))
        n = draw(st.integers(2, 8))
        if aligned:
            roads.append(([v * dt * draw(st.integers(1, 12)) for _ in range(n)], v))
        else:
            roads.append(([draw(st.floats(1.0, 500.0)) for _ in range(n)], v))
    g, paths = _straight_roads(roads)
    if aligned:
        delay_m = paths[draw(st.integers(0, len(paths) - 1))][1] * dt * draw(st.integers(0, 40))
    else:
        delay_m = draw(st.floats(0.0, 5000.0))
    return g, paths, dt, delay_m, draw(st.integers(1, 80))


class TestHeadStartFastForward:
    @settings(max_examples=400, deadline=None)
    @given(_head_starts())
    @example((*_straight_roads([([10.0, 10.0], 1.0)]), 1.0, 1000.0, 80))  # ready long after the goal tick 10
    @example((*_straight_roads([([100.0, 100.0], 1.0)]), 1.0, 0.0, 5))  # a budget of 5 ticks, goal tick 100
    @example((*_straight_roads([([10.0, 10.0], 5e-324)]), 1.0, 0.0, 30))  # the least step a target can take
    def test_equals_tick_by_tick_loop(self, case):
        """Each target's motion fixed at spawn equals walking it tick by tick
        with `s += v * dt` and a `bisect` locate: its goal tick, or a tick past
        the budget when it stays short of its goal edge; its ready tick,
        which counts only up to the goal tick and the budget; and every
        position it holds from its ready tick to its goal tick, within the
        budget, where `xs[tick - ready]` is its position at `tick`."""
        g, paths, dt, delay_m, max_ticks = case
        for path, velocity in paths:
            ready, goal, xs, ys = _motion(g, path, velocity * dt, delay_m, max_ticks)
            want_ready, want_goal, want_track = motion_loop(Walker(g, path, velocity), dt, delay_m, max_ticks,
                                                            g.goal_union)
            assert goal == (max_ticks + 1 if want_goal is None else want_goal)
            assert min(ready, goal) == min(want_ready or math.inf, goal)
            assert len(xs) == len(ys) and list(zip(xs, ys)) == want_track[ready - 1:]

    @pytest.mark.parametrize("step", [0.95e308, 1.7e308, math.inf])
    def test_step_past_half_the_float_range(self, step):
        """A step over half the float range overflows the running sum only
        past the goal tick, which is never read: the target enters its goal
        edge at tick 1, and no RuntimeWarning leaks."""
        g, [(path, _)] = _straight_roads([([10.0, 10.0], 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _motion(g, path, step, 7000.0, 900) == (1, 1, [], [])

    def test_head_start_loss_never_flies(self, border_scenario, border_world, monkeypatch):
        """A loss in the head start ends at the losing target's goal tick,
        and no UAV flies in it, however many ticks it lasts."""
        calls = []
        monkeypatch.setattr(_UavState, "fly", lambda uav, overlay, dt: calls.append(uav))
        sc = dataclasses.replace(border_scenario, delay_km=1000.0)
        seed = trial_seed(4, 0)
        result = run_trial(sc, seed, border_world)
        assert result.outcome == "lose" and result.ticks > 100
        assert result.ticks == _spawn_targets(sc, border_world, seed)[result.losing_target].goal_tick
        assert calls == []


class TestTrackBound:
    """A track holds one position per tick from the ready tick, up to the goal
    tick or `max_ticks`."""

    def test_slow_targets_time_out_within_the_budget(self, border_scenario, border_world):
        crawl = dataclasses.replace(border_scenario.classes[0], velocity_kmh=(0.001, 0.001))
        sc = dataclasses.replace(border_scenario, classes=(crawl,), max_ticks=50)
        for i in range(3):
            seed = trial_seed(0, i)
            assert run_trial(sc, seed, border_world) == TrialResult("lose", {}, None, 50, seed, timeout=True)
            for tg in _spawn_targets(sc, border_world, seed):
                assert len(tg.xs) == len(tg.ys) == max(0, tg.goal_tick - tg.ready_tick) <= 50

    def test_huge_budget_stops_at_the_goal_tick(self, border_scenario, border_world):
        sc = dataclasses.replace(border_scenario, max_ticks=10**9)
        for i in range(3):
            seed = trial_seed(0, i)
            assert run_trial(sc, seed, border_world).ticks < 10**9
            for tg in _spawn_targets(sc, border_world, seed):
                assert len(tg.xs) == len(tg.ys) == max(0, tg.goal_tick - tg.ready_tick) < tg.goal_tick


@st.composite
def _trial_variants(draw, base, entries):
    """A variant of scenario `base` on its own world (grid radius 500 m):
    0-4 UAVs and 1-5 targets, each target on one of `entries` or a uniform
    entry, a head start of 0, 3 or 7 km, any policy and threshold, one
    detection probability for the team (1.0 included), one UAV at twice the
    grid radius (so `covered_cells` runs its general branch), and either the
    base's tick budget or one small enough that the trial times out."""
    sc = dataclasses.replace(
        base,
        grid_radius=500.0,
        delay_km=draw(st.sampled_from([0.0, 3.0, 7.0])),
        max_ticks=draw(st.integers(1, 60) | st.just(base.max_ticks)),
    )
    sc = apply_axis(sc, "n_uavs", draw(st.integers(0, 4)))
    sc = apply_axis(sc, "n_targets", draw(st.integers(1, 5)))
    sc = apply_axis(sc, "detect_prob", draw(st.sampled_from([0.5, 0.8, 1.0])))
    policy = dataclasses.replace(
        sc.policy, policy=draw(st.sampled_from(POLICIES)), threshold=draw(st.sampled_from([0.0, 0.05, 0.2, 0.6]))
    )
    targets = tuple(TargetSpec(t.class_name, draw(st.sampled_from([None, *entries]))) for t in sc.targets)
    uavs = sc.uavs
    if uavs and draw(st.booleans()):
        uavs = (dataclasses.replace(uavs[0], detect_radius=1000.0),) + uavs[1:]
    return dataclasses.replace(sc, policy=policy, targets=targets, uavs=uavs)


class TestReferenceTrial:
    """`run_trial` equals `reference_trial`, which propagates every belief
    every tick and reads no world store: the head start that does no belief
    work, targets located only once the team flies, shared rows, frozen
    beliefs and the first search all give the bits of the plainest loop."""

    @pytest.fixture(scope="class")
    def reused_world(self, border_world):
        """One world that every example's trial runs on, so its stores hold
        what earlier examples left."""
        return dataclasses.replace(border_world)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**64 - 1))
    def test_equals_reference_on_fresh_and_reused_worlds(self, border_scenario, border_world, reused_world, data, seed):
        sc = data.draw(_trial_variants(border_scenario, sorted(border_world.start_of_parent)))
        expected = reference_trial(sc, seed, dataclasses.replace(border_world))
        assert run_trial(sc, seed, dataclasses.replace(border_world)) == expected
        assert run_trial(sc, seed, reused_world) == expected


class TestCertainDetectionRecovery:
    def test_uniform_off_searched_cells(self, border_world):
        overlay = border_world.overlay
        cell = int(overlay.cell_of_edge[min(border_world.refined.entries)])
        out = _uniform_off_cells(overlay, {cell})
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        inside = overlay.cell_of_edge == cell
        assert (out[inside] == 0.0).all()
        outside = out[~inside]
        assert (outside > 0.0).all()
        assert outside.max() == pytest.approx(outside.min())


class TestRunBatch:
    def test_stats_consistent_with_results(self, border_scenario):
        [(stats, results)] = run_batch([(border_scenario, 0)], 20)
        assert isinstance(stats, BatchStats)
        assert stats.n_trials == 20 and len(results) == 20
        wins = sum(1 for r in results if r.outcome == "win")
        assert stats.n_wins == wins
        assert stats.success_rate == wins / 20
        assert (stats.ci_low, stats.ci_high) == wilson_interval(wins, 20)
        ticks = [t for r in results for t in r.detection_ticks.values()]
        assert stats.mean_detection_tick == pytest.approx(float(np.mean(ticks)))
        assert all(r.seed == trial_seed(0, i) for i, r in enumerate(results))

    def test_mean_detection_nan_without_detections(self, border_scenario):
        sc = dataclasses.replace(border_scenario, uavs=(), grid_radius=500.0)
        [(stats, _)] = run_batch([(sc, 0)], 3)
        assert stats.success_rate == 0.0
        assert math.isnan(stats.mean_detection_tick)

    def test_parallel_matches_serial(self, border_scenario):
        [(stats1, results1)] = run_batch([(border_scenario, 42)], 6, jobs=1)
        [(stats2, results2)] = run_batch([(border_scenario, 42)], 6, jobs=2)
        assert results1 == results2
        assert stats1 == stats2

    def test_rejects_empty_batch(self, border_scenario):
        with pytest.raises(ConfigError, match="trials: must be >= 1, got 0"):
            run_batch([(border_scenario, 0)], 0)

    @pytest.mark.parametrize(
        "change,needle",
        [
            ({"targets": (TargetSpec("runner", 424242),)}, r"targets\[0\].entry: edge 424242"),
            ({"grid_radius": 400.0}, "different grid"),
            ({"tick_seconds": 10.0}, "does not match scenario tick"),
        ],
    )
    def test_bad_later_point_raises_before_any_trial(self, border_scenario, monkeypatch, change, needle):
        """A later point on the same map, bad in its target entries, its grid
        or its tick, fails when the batch starts: it is checked against the
        shared world, or gets a world of its own."""
        ran = []
        monkeypatch.setattr(simulator, "run_trial", lambda *args: ran.append(args))
        bad = dataclasses.replace(border_scenario, **change)
        with pytest.raises(ConfigError, match=needle):
            run_batch([(border_scenario, 0), (bad, 1)], 2)
        assert ran == []


@pytest.fixture(scope="module")
def candidates(border_scenario, tiny_scenario):
    """Scenarios on two worlds: the border map and the tiny map, each also
    with a different team, target count or head start that keeps its world."""
    return [
        border_scenario,
        dataclasses.replace(border_scenario, delay_km=3.0, uavs=border_scenario.uavs[:2]),
        tiny_scenario,
        dataclasses.replace(tiny_scenario, targets=tiny_scenario.targets[:1], delay_km=0.5),
    ]


class TestMultiPointBatch:
    """One run_batch over many points equals each point run on its own."""

    @settings(max_examples=10, deadline=None)
    @given(
        picks=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**32)), min_size=1, max_size=4),
        n_trials=st.integers(1, 2),
    )
    def test_equals_each_point_alone(self, candidates, picks, n_trials):
        points = [(candidates[i], seed) for i, seed in picks]
        alone = [next(run_batch([point], n_trials)) for point in points]
        assert list(run_batch(points, n_trials)) == alone

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_two_worlds_at_any_jobs(self, candidates, jobs):
        points = [(candidates[i], 10 + i) for i in (0, 2, 1, 3, 2)]
        alone = [next(run_batch([point], 3)) for point in points]
        assert list(run_batch(points, 3, jobs=jobs)) == alone

    def test_points_on_one_world_share_it(self, candidates, monkeypatch):
        built = []
        monkeypatch.setattr(simulator, "build_world", lambda sc: built.append(sc) or build_world(sc))
        batches = run_batch([(sc, 0) for sc in candidates], 1)
        assert built == [candidates[0], candidates[2]]
        assert len(list(batches)) == 4


class TestBuildWorld:
    def test_shares_models_per_class(self, border_world, border_scenario):
        assert set(border_world.models) == {t.class_name for t in border_scenario.targets}
        assert border_world.refined.n_edges == border_world.models["runner"].n_edges

    def test_tick_mismatch(self, border_scenario):
        sc = dataclasses.replace(border_scenario, tick_seconds=10.0)
        with pytest.raises(ConfigError, match="does not match scenario tick"):
            build_world(sc)

    def test_grid_mismatch(self, border_scenario):
        sc = dataclasses.replace(border_scenario, grid_radius=400.0)
        with pytest.raises(ConfigError, match="different grid"):
            build_world(sc)

    def test_unknown_entry(self, border_scenario):
        sc = dataclasses.replace(
            border_scenario,
            targets=(TargetSpec(border_scenario.targets[0].class_name, 424242),),
        )
        with pytest.raises(ConfigError, match=r"targets\[0\].entry"):
            build_world(sc)

    def test_unconfigured_class(self, border_scenario):
        # The scenario checks its targets' classes itself, before any world is built.
        with pytest.raises(ConfigError, match=r"targets\[0\].class: unknown class 'ghost'"):
            dataclasses.replace(border_scenario, targets=(TargetSpec("ghost", None),))

    @pytest.mark.parametrize(
        "breakage,needle",
        [("scale_row", "row sums to 0.9"), ("drop_row", "no transition row")],
    )
    def test_broken_model_rejected(self, tmp_path, border_scenario, border_model, breakage, needle):
        rows = model_rows(border_model)
        src = next(e for e, row in rows.items() if len(row) > 1)
        if breakage == "scale_row":
            rows[src] = tuple((dst, p * 0.9) for dst, p in rows[src])
        else:
            del rows[src]
        path = tmp_path / "broken.model"
        broken = model_from_rows(rows, border_model.n_edges, border_model.target_class, border_model.tick)
        save_model(broken, str(path))
        cls = dataclasses.replace(border_scenario.classes[0], model_path=str(path))
        sc = dataclasses.replace(border_scenario, classes=(cls,))
        with pytest.raises(ConfigError, match=needle):
            build_world(sc)

    @pytest.mark.parametrize("header,needle", [("", "different grid"), (" edges=739", "edge 700: no transition row")])
    def test_truncated_model_file(self, tmp_path, border_scenario, border_model_path, header, needle):
        """A file cut off after edge 699's rows: the edges= header tells a
        missing row from a model compiled for another grid."""
        with open(border_model_path) as fh:
            first, *rows = fh.read().splitlines()
        kept = [row for row in rows if int(row.split()[0]) < 700]
        path = tmp_path / "truncated.model"
        path.write_text("\n".join([first + header, *kept]) + "\n")
        cls = dataclasses.replace(border_scenario.classes[0], model_path=str(path))
        with pytest.raises(ConfigError, match=needle):
            build_world(dataclasses.replace(border_scenario, classes=(cls,)))

    def test_first_listed_bad_model_is_named(self, tmp_path, border_scenario):
        """Models load in the scenario's class order, not by name."""
        base = border_scenario.classes[0]
        classes = []
        for name in ("zulu", "alpha"):
            path = tmp_path / f"{name}.model"
            path.write_text(f"#model tick=20.0 class={name}\n0 0 1.0\n")
            classes.append(dataclasses.replace(base, name=name, model_path=str(path)))
        sc = dataclasses.replace(border_scenario, classes=tuple(classes),
                                 targets=(TargetSpec("alpha", None), TargetSpec("zulu", None)))
        with pytest.raises(ConfigError, match=r"zulu\.model: model covers 1 edges"):
            build_world(sc)

    def test_model_for_another_class_rejected(self, tmp_path, border_scenario, border_model_path):
        """A valid model labelled for class walker cannot move the runners."""
        with open(border_model_path) as fh:
            text = fh.read()
        path = tmp_path / "walker.model"
        path.write_text(text.replace("class=runner", "class=walker", 1))
        cls = dataclasses.replace(border_scenario.classes[0], model_path=str(path))
        with pytest.raises(ConfigError) as err:
            build_world(dataclasses.replace(border_scenario, classes=(cls,)))
        assert str(err.value) == f"{path}: model was compiled for class 'walker', not for scenario class 'runner'"

    def test_graph_without_entries(self, tmp_path, border_scenario):
        p = tmp_path / "plain.graph"
        p.write_text("#vertices\n0 0 0\n1 100 0\n#edges\n0 0 1\n")
        sc = dataclasses.replace(border_scenario, graph_path=str(p))
        with pytest.raises(ConfigError, match="no entry edges"):
            build_world(sc)

    def test_graph_without_goals(self, tmp_path, border_scenario):
        p = tmp_path / "goalless.graph"
        p.write_text("#vertices\n0 0 0\n1 100 0\n#edges\n0 0 1\n#entries\n0\n")
        sc = dataclasses.replace(border_scenario, graph_path=str(p))
        with pytest.raises(ConfigError, match="no goal sets"):
            build_world(sc)


class TestDeadEntries:
    """An entry edge that reaches no goal set is refused when the world is
    built, by the graph file's id: for a uniform target any dead entry, for
    a fixed `entry` only that one. Without the check a trial raised
    UnreachableGoalError on drawing the dead entry, naming its refined id."""

    def test_uniform_target_refuses_any_dead_entry(self, dead_entry_scenario):
        sc = scenario_from_dict(dead_entry_scenario([{"class": "runner", "entry": 0}, {"class": "runner"}]))
        with pytest.raises(ConfigError) as err:
            build_world(sc)
        assert str(err.value) == ("targets[1]: entry edge 2 reaches no goal set, "
                                  "and a target without a fixed entry may enter on any entry edge")

    def test_fixed_dead_entry_refused(self, dead_entry_scenario):
        sc = scenario_from_dict(dead_entry_scenario([{"class": "runner", "entry": 0}, {"class": "runner", "entry": 2}]))
        with pytest.raises(ConfigError) as err:
            build_world(sc)
        assert str(err.value) == "targets[1].entry: edge 2 reaches no goal set"

    def test_fixed_live_entry_runs(self, dead_entry_scenario):
        sc = scenario_from_dict(dead_entry_scenario([{"class": "runner", "entry": 0}]))
        world = build_world(sc)
        assert world.dead_entries == {2}
        [(stats, results)] = run_batch([(sc, 0)], 5)
        assert stats.n_trials == 5 and all(r.ticks >= 1 for r in results)

    def test_point_sharing_a_world_is_checked_before_any_trial(self, dead_entry_scenario, monkeypatch):
        """The second point reuses the first one's world, and its uniform
        target is still refused before any trial runs."""
        live = scenario_from_dict(dead_entry_scenario([{"class": "runner", "entry": 0}]))
        uniform = dataclasses.replace(live, targets=(TargetSpec("runner", None),))
        monkeypatch.setattr(simulator, "run_trial", mock.Mock(side_effect=AssertionError("a trial ran")))
        with pytest.raises(ConfigError, match=r"targets\[0\]: entry edge 2 reaches no goal set"):
            run_batch([(live, 0), (uniform, 1)], 2)

    def test_bundled_map_has_no_dead_entry(self, border_world):
        assert border_world.dead_entries == frozenset()


class TestTeamLargerThanTheGrid:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_cell_searched_and_the_surplus_idles(self, tiny_scenario, policy):
        """Three UAVs more than the grid has cells: every policy picks every
        cell each replan, so the surplus UAVs idle, and trials run to an
        outcome. Before, a policy built on the greedy refused the pick."""
        world = build_world(tiny_scenario)
        n = world.overlay.n_cells + 3
        sc = apply_axis(tiny_scenario, "n_uavs", n)
        sc = dataclasses.replace(sc, policy=dataclasses.replace(sc.policy, policy=policy))
        picks = []
        real = simulator.select_cells

        def spy(*args):
            picks.append(real(*args))
            return picks[-1]

        with mock.patch.object(simulator, "select_cells", spy):
            [(stats, _)] = run_batch([(sc, 3)], 4)
        assert stats.n_trials == 4
        assert picks and all(cells == set(range(world.overlay.n_cells)) for cells in picks)


class TestTrialResultShape:
    def test_equality_semantics(self):
        a = TrialResult("win", {0: 3}, None, 3, 99)
        b = TrialResult("win", {0: 3}, None, 3, 99)
        assert a == b
        assert a != dataclasses.replace(a, ticks=4)
