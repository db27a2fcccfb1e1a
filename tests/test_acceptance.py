"""End-to-end acceptance checks for the framework's headline behaviors.

One test per claim; each prints a single [PASS]/[FAIL] line (visible with
pytest -s) and then asserts. The Monte Carlo checks take a few minutes and
use frozen master seeds, so their rates are exactly reproducible.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest
import yaml

from uav_search.belief import (
    cell_marginal,
    entropy,
    init_belief,
    negative_update,
    propagate,
)
from uav_search.cli import main as cli_main
from uav_search.config import StrategyRef, apply_axis
from uav_search.movement import compile_model, save_model, traces_for_strategies
from uav_search.planner import brute_force_select, entropy_gain, greedy_select, team_gain
from uav_search.road_graph import load_graph, overlay_grid
from uav_search.simulator import run_batch
from uav_search.strategies import default_pool, split_pool

pytestmark = pytest.mark.acceptance

TRIALS = 200


def _report(ok: bool, label: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def _rate(scenario, master_seed):
    stats, _ = run_batch(scenario, TRIALS, master_seed=master_seed)
    return stats


def _monotone(points, increasing: bool) -> bool:
    """Adjacent moves against the trend are tolerated only inside
    overlapping Wilson intervals."""
    for a, b in zip(points, points[1:]):
        wrong = (b.success_rate < a.success_rate) if increasing else (b.success_rate > a.success_rate)
        overlap = not (b.ci_high < a.ci_low or a.ci_high < b.ci_low)
        if wrong and not overlap:
            return False
    return True


def _with_policy(scenario, name):
    return dataclasses.replace(
        scenario, policy=dataclasses.replace(scenario.policy, policy=name)
    )


def test_two_cell_entropy_gains():
    cb = np.array([0.9, 0.1])
    g_big = entropy_gain(cb, {0}, 0.9)
    g_small = entropy_gain(cb, {1}, 0.9)
    ok = abs(g_big - 0.28) <= 0.005 and abs(g_small - 0.39) <= 0.005 and g_small > g_big
    _report(
        ok,
        f"two-cell reference gains: searching the 0.9 cell gains {g_big:.4f} (~0.28), "
        f"the 0.1 cell {g_small:.4f} (~0.39); the unlikely cell wins",
    )


def test_perfect_detection_greedy_first_pick_is_most_probable_cell():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    matches = 0
    for _ in range(1000):
        n = int(rng.integers(3, 51))
        mass = rng.dirichlet(np.full(n, rng.uniform(0.3, 3.0)))
        if greedy_select([mass], 1, 1.0)[0] == int(np.argmax(mass)):
            matches += 1
    elapsed = time.perf_counter() - t0
    ok = matches == 1000 and elapsed < 1.0
    _report(
        ok,
        f"perfect detection, one target: greedy first pick equals the "
        f"max-probability cell in {matches}/1000 random instances ({elapsed:.2f} s)",
    )


def test_belief_mass_stays_normalized(border_refined, border_model):
    refined, overlay = border_refined
    rng = np.random.default_rng(7)

    # 10^4 interleaved steps on the bundled model: propagate, then condition
    # on a fruitless search of a random small cell set.
    start = min(refined.entries)
    belief = init_belief(refined, start)
    worst = 0.0
    for step in range(10_000):
        if step % 2 == 0:
            belief = propagate(belief, border_model)
        else:
            cells = set(rng.integers(0, overlay.n_cells, size=rng.integers(1, 6)).tolist())
            p = float(rng.uniform(0.2, 0.95))
            belief = negative_update(belief, cells, p, overlay)
        worst = max(worst, abs(float(belief.sum()) - 1.0))

    # Conditioned distributions sum to 1 for random (belief, cells, p)
    # triples, and the planner's conditional entropy agrees with them.
    from uav_search.planner import temporal_entropy

    worst_triple = 0.0
    worst_entropy = 0.0
    for _ in range(1000):
        b = rng.dirichlet(np.full(refined.n_edges, 0.5))
        cells = set(rng.integers(0, overlay.n_cells, size=rng.integers(1, 41)).tolist())
        p = float(rng.uniform(0.05, 1.0))
        conditioned = negative_update(b, cells, p, overlay)
        worst_triple = max(worst_triple, abs(float(conditioned.sum()) - 1.0))
        planner_side = temporal_entropy(cell_marginal(b, overlay), cells, p)
        belief_side = entropy(cell_marginal(conditioned, overlay))
        worst_entropy = max(worst_entropy, abs(planner_side - belief_side))

    ok = worst <= 1e-9 and worst_triple <= 1e-9 and worst_entropy <= 1e-9
    _report(
        ok,
        f"normalization: mass drift {worst:.2e} over 10^4 interleaved steps; "
        f"conditioned-distribution drift {worst_triple:.2e} and planner/belief "
        f"entropy disagreement {worst_entropy:.2e} over 1000 random triples",
    )


def test_greedy_team_gain_within_constant_factor_of_optimum():
    rng = np.random.default_rng(2026)
    bound = 1.0 - 1.0 / math.e
    t0 = time.perf_counter()
    ratios = []
    for _ in range(100):
        n = int(rng.integers(4, 13))
        n_targets = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        p = float(rng.choice([0.5, 0.7, 0.9, 1.0]))
        cbs = [rng.dirichlet(np.full(n, rng.uniform(0.3, 3.0))) for _ in range(n_targets)]
        g = team_gain(cbs, set(greedy_select(cbs, k, p)), p)
        b = team_gain(cbs, set(brute_force_select(cbs, k, p)), p)
        ratios.append(1.0 if b <= 0.0 else g / b)
    elapsed = time.perf_counter() - t0
    r = np.array(ratios)
    ok = bool((r >= bound - 1e-12).all()) and elapsed < 30.0
    _report(
        ok,
        f"greedy vs exhaustive team gain on 100 instances: min ratio {r.min():.4f}, "
        f"mean {r.mean():.4f}, median {np.median(r):.4f}, "
        f"{(r >= 1 - 1e-12).mean():.0%} exactly optimal; all >= 1-1/e = {bound:.4f} "
        f"({elapsed:.1f} s)",
    )


def test_success_rate_trends_on_bundled_map(border_scenario):
    uav_pts = [
        _rate(apply_axis(border_scenario, "n_uavs", n), 300 + i)
        for i, n in enumerate(range(1, 6))
    ]
    target_pts = [
        _rate(apply_axis(border_scenario, "n_targets", n), 400 + i)
        for i, n in enumerate(range(2, 6))
    ]
    four = apply_axis(border_scenario, "n_targets", 4)
    delay_pts = [
        _rate(apply_axis(four, "delay_km", d), 500 + i)
        for i, d in enumerate([0.0, 3.0, 6.0, 9.0])
    ]
    ok_uav = _monotone(uav_pts, increasing=True)
    ok_target = _monotone(target_pts, increasing=False)
    ok_delay = _monotone(delay_pts, increasing=False)

    def fmt(pts):
        return "->".join(f"{s.success_rate:.2f}" for s in pts)

    _report(
        ok_uav and ok_target and ok_delay,
        f"success-rate trends at {TRIALS} trials/point: "
        f"1-5 UAVs {fmt(uav_pts)} (non-decreasing: {ok_uav}), "
        f"2-5 targets {fmt(target_pts)} (non-increasing: {ok_target}), "
        f"0-9 km delay {fmt(delay_pts)} (non-increasing: {ok_delay})",
    )


def test_adaptive_policy_dominates_baselines(border_scenario):
    adaptive = _rate(_with_policy(border_scenario, "adaptive"), 600)
    results = {}
    ok = True
    for name in ("max_avg_prob", "entropy_only"):
        base = _rate(_with_policy(border_scenario, name), 600)
        half = (base.ci_high - base.ci_low) / 2.0
        results[name] = (base.success_rate, half)
        ok = ok and adaptive.success_rate >= base.success_rate - half
    shown = ", ".join(f"{n} {r:.3f} (hw {h:.3f})" for n, (r, h) in results.items())
    _report(
        ok,
        f"policy comparison at 3v3, {TRIALS} trials: adaptive {adaptive.success_rate:.3f} "
        f"vs {shown}; adaptive within every baseline's half-width",
    )


def test_trained_model_generalizes_to_unseen_strategies(border_scenario, tmp_path):
    split = split_pool(default_pool(40), 30, 10, seed=7)
    refined, _ = overlay_grid(load_graph(border_scenario.graph_path), 500.0)
    traces = traces_for_strategies(
        refined, list(split.train), border_scenario.tick_seconds, (8.0, 12.0), 1, seed=11
    )
    model = compile_model(traces, refined, 0.01, border_scenario.tick_seconds, "runner")
    model_path = str(tmp_path / "train_split.model")
    save_model(model, model_path)

    def ref(strategy):
        params = []
        if hasattr(strategy, "beta"):
            params.append(("beta", float(strategy.beta)))
        if hasattr(strategy, "penalty"):
            params.append(("penalty", float(strategy.penalty)))
        return StrategyRef(strategy.name, tuple(params))

    held_class = dataclasses.replace(
        border_scenario.classes[0],
        strategies=tuple(ref(s) for s in split.test),
        model_path=model_path,
    )
    held = dataclasses.replace(border_scenario, classes=(held_class,))

    adaptive = _rate(_with_policy(held, "adaptive"), 700)
    baseline = _rate(_with_policy(held, "entropy_only"), 700)
    half = (baseline.ci_high - baseline.ci_low) / 2.0
    ok = adaptive.success_rate >= baseline.success_rate - half
    _report(
        ok,
        f"held-out strategies (10 unseen of 40, model trained on 30): adaptive "
        f"{adaptive.success_rate:.3f} vs entropy_only {baseline.success_rate:.3f} "
        f"(hw {half:.3f}) at {TRIALS} trials",
    )


def test_cli_outputs_are_byte_identical(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scenario = os.path.join(repo, "scenarios", "border.yaml")

    runs = [tmp_path / f"run{i}.csv" for i in range(3)]
    for out, jobs in zip(runs, ("1", "1", "8")):
        rc = cli_main(["run", scenario, "--trials", "4", "--seed", "11",
                       "--jobs", jobs, "--out", str(out)])
        assert rc == 0
    run_blobs = [p.read_bytes() for p in runs]

    sweep_yaml = tmp_path / "mini_sweep.yaml"
    sweep_yaml.write_text(yaml.safe_dump(
        {"base": scenario, "trials": 3, "seed": 5, "axes": {"n_uavs": [1, 2]}},
        sort_keys=False,
    ))
    sweeps = [tmp_path / f"sw{i}" for i in range(3)]
    for out, jobs in zip(sweeps, ("1", "1", "8")):
        rc = cli_main(["sweep", str(sweep_yaml), "--jobs", jobs, "--out", str(out)])
        assert rc == 0
    sweep_blobs = [(p / "sweep.csv").read_bytes() for p in sweeps]

    ok = run_blobs[0] == run_blobs[1] == run_blobs[2] and (
        sweep_blobs[0] == sweep_blobs[1] == sweep_blobs[2]
    )
    _report(
        ok,
        "deterministic CLI: trial and sweep CSVs byte-identical across reruns "
        "and --jobs 1 vs 8 at a fixed master seed",
    )
