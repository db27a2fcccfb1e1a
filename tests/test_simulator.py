"""Trial mechanics, batch statistics, and deterministic reproduction."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats as sstats

from uav_search.config import ConfigError, TargetSpec
from uav_search.simulator import (
    BatchStats,
    TrialResult,
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
    def test_deterministic(self, border_world):
        a = _spawn_targets(border_world, 123)
        b = _spawn_targets(border_world, 123)
        assert [t.path for t in a] == [t.path for t in b]
        assert [t.velocity_ms for t in a] == [t.velocity_ms for t in b]

    def test_uniform_entry_covers_all_starts(self, border_world):
        seen = set()
        for seed in range(300):
            for tg in _spawn_targets(border_world, seed):
                seen.add(tg.path[0])
        assert seen == set(border_world.start_of_parent.values())

    def test_velocity_within_class_range(self, border_world):
        lo, hi = border_world.scenario.classes[0].velocity_kmh
        for seed in range(50):
            for tg in _spawn_targets(border_world, seed):
                assert lo * (1000 / 3600) <= tg.velocity_ms <= hi * (1000 / 3600)

    def test_fixed_entry_respected(self, border_scenario, border_world):
        entry = sorted(border_world.start_of_parent)[2]
        sc = dataclasses.replace(
            border_scenario,
            targets=(TargetSpec(border_scenario.targets[0].class_name, entry),),
        )
        world = build_world(sc)
        for seed in range(20):
            [tg] = _spawn_targets(world, seed)
            assert tg.path[0] == world.start_of_parent[entry]


class TestUavFlight:
    def test_step_is_velocity_limited(self, border_world):
        overlay = border_world.overlay
        uav = _UavState(0, (0.0, 0.0), 10.0, 500.0, 0.8, assigned_cell=overlay.n_cells - 1)
        before = uav.pos
        uav.fly(overlay, 20.0)
        moved = math.hypot(uav.pos[0] - before[0], uav.pos[1] - before[1])
        assert moved == pytest.approx(200.0, abs=1e-9)

    def test_lands_exactly_on_center(self, border_world):
        overlay = border_world.overlay
        cx, cy = overlay.cell_center(12)
        uav = _UavState(0, (cx - 50.0, cy), 10.0, 500.0, 0.8, assigned_cell=12)
        uav.fly(overlay, 20.0)
        assert uav.pos == (cx, cy)

    def test_unassigned_stays_put(self, border_world):
        uav = _UavState(0, (123.0, 456.0), 10.0, 500.0, 0.8, assigned_cell=None)
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
        depot = border_world.overlay.cell_center(cell)
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
        stats, results = run_batch(border_scenario, 20, master_seed=0)
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
        stats, _ = run_batch(sc, 3, master_seed=0)
        assert stats.success_rate == 0.0
        assert math.isnan(stats.mean_detection_tick)

    def test_parallel_matches_serial(self, border_scenario):
        stats1, results1 = run_batch(border_scenario, 6, master_seed=42, jobs=1)
        stats2, results2 = run_batch(border_scenario, 6, master_seed=42, jobs=2)
        assert results1 == results2
        assert stats1 == stats2

    def test_rejects_empty_batch(self, border_scenario):
        with pytest.raises(ValueError, match="at least one trial"):
            run_batch(border_scenario, 0, master_seed=0)


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
        sc = dataclasses.replace(border_scenario, targets=(TargetSpec("ghost", None),))
        with pytest.raises(ConfigError, match="'ghost' is not configured"):
            build_world(sc)

    @pytest.mark.parametrize(
        "breakage,needle",
        [("scale_row", "row sums to 0.9"), ("drop_row", "no transition row")],
    )
    def test_broken_model_rejected(self, tmp_path, border_scenario, border_model, breakage, needle):
        rows = dict(border_model.transitions)
        src = next(e for e, row in rows.items() if len(row) > 1)
        if breakage == "scale_row":
            rows[src] = tuple((dst, p * 0.9) for dst, p in rows[src])
        else:
            del rows[src]
        path = tmp_path / "broken.model"
        save_model(dataclasses.replace(border_model, transitions=rows), str(path))
        cls = dataclasses.replace(border_scenario.classes[0], model_path=str(path))
        sc = dataclasses.replace(border_scenario, classes=(cls,))
        with pytest.raises(ConfigError, match=needle):
            build_world(sc)

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


class TestTrialResultShape:
    def test_equality_semantics(self):
        a = TrialResult("win", {0: 3}, None, 3, 99)
        b = TrialResult("win", {0: 3}, None, 3, 99)
        assert a == b
        assert a != dataclasses.replace(a, ticks=4)
