"""Monte Carlo trials of UAV teams searching road-bound targets.

A trial advances in fixed ticks: targets move along their secret routes,
UAVs fly toward their assigned cell centers (after the configured head-start
delay for targets), detection is a Bernoulli draw per UAV-target pair in
range, beliefs are propagated and conditioned on fruitless searches, and the
policy replans. The UAVs win if every target is detected before any target
enters a goal edge. Trials are deterministic given their seed, and batch
results are identical at any parallelism level.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .belief import CertainDetection, cell_marginal, init_belief, negative_update, propagate
from .config import ConfigError, ScenarioConfig
from .movement import TransitionModel, load_model, validate_stochastic
from .planner import match_uavs_to_cells, select_cells
from .road_graph import GridOverlay, RefinedGraph, entry_start_edges, load_graph, overlay_grid

# 95% normal quantile for Wilson intervals.
WILSON_Z = 1.959963984540054

KMH_TO_MS = 1000.0 / 3600.0


@dataclass(frozen=True)
class TrialResult:
    outcome: str  # "win" | "lose"
    detection_ticks: dict[int, int]  # target id -> tick of detection
    losing_target: int | None  # target that reached a goal, if any
    ticks: int
    seed: int
    timeout: bool = False


@dataclass(frozen=True)
class BatchStats:
    n_trials: int
    n_wins: int
    success_rate: float
    ci_low: float
    ci_high: float
    mean_detection_tick: float  # nan when nothing was ever detected


def wilson_interval(wins: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial success rate."""
    if n <= 0:
        raise ValueError("need at least one trial")
    phat = wins / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(eq=False)
class World:
    """Everything derivable from the scenario alone, shared across trials."""

    scenario: ScenarioConfig
    refined: RefinedGraph
    overlay: GridOverlay
    entry_starts: list[int]  # refined piece per original entry, parent order
    start_of_parent: dict[int, int]
    models: dict[str, TransitionModel]
    strategies: dict[str, list]


def build_world(scenario: ScenarioConfig) -> World:
    graph = load_graph(scenario.graph_path)
    if not graph.entries:
        raise ConfigError(f"{scenario.graph_path}: graph has no entry edges")
    if not graph.goals:
        raise ConfigError(f"{scenario.graph_path}: graph has no goal sets")
    refined, overlay = overlay_grid(graph, scenario.team_min_radius())
    starts = entry_start_edges(refined)
    start_of_parent = dict(zip(sorted(graph.entries), starts))

    models: dict[str, TransitionModel] = {}
    strategies: dict[str, list] = {}
    used = {t.class_name for t in scenario.targets}
    for cls in scenario.classes:
        if cls.name not in used:
            continue
        model = load_model(cls.model_path)
        if model.n_edges != refined.n_edges:
            raise ConfigError(
                f"{cls.model_path}: model covers {model.n_edges} edges but the refined "
                f"graph has {refined.n_edges}; it was compiled for a different grid"
            )
        if abs(model.tick - scenario.tick_seconds) > 1e-9:
            raise ConfigError(
                f"{cls.model_path}: model tick {model.tick} s does not match "
                f"scenario tick {scenario.tick_seconds} s"
            )
        problems = [f"edge {e}: no transition row" for e in np.flatnonzero(~model.has_row)]
        problems += validate_stochastic(model, refined)
        if problems:
            shown = "; ".join(problems[:3])
            more = f" (and {len(problems) - 3} more)" if len(problems) > 3 else ""
            raise ConfigError(f"{cls.model_path}: not a valid movement model: {shown}{more}")
        models[cls.name] = model
        strategies[cls.name] = [ref.build() for ref in cls.strategies]

    for i, t in enumerate(scenario.targets):
        if t.class_name not in models:
            raise ConfigError(f"targets[{i}].class: class {t.class_name!r} is not configured")
        if t.entry is not None and t.entry not in start_of_parent:
            raise ConfigError(f"targets[{i}].entry: edge {t.entry} is not an entry edge")
    return World(scenario, refined, overlay, starts, start_of_parent, models, strategies)


@dataclass(eq=False)
class _TargetState:
    tid: int
    path: list[int]
    ends: np.ndarray  # cumulative edge lengths along the path
    velocity_ms: float
    belief: np.ndarray  # float64 over refined edge ids
    s: float = 0.0
    edge: int = -1
    pos: tuple[float, float] = (0.0, 0.0)
    active: bool = True

    def advance(self, g: RefinedGraph, dt: float) -> None:
        self.s += self.velocity_ms * dt
        self.locate(g)

    def locate(self, g: RefinedGraph) -> None:
        idx = min(int(np.searchsorted(self.ends, self.s, side="right")), len(self.path) - 1)
        self.edge = self.path[idx]
        e = g.edges[self.edge]
        start = float(self.ends[idx - 1]) if idx > 0 else 0.0
        frac = min(max((self.s - start) / e.length, 0.0), 1.0)
        a, b = g.vertices[e.tail], g.vertices[e.head]
        self.pos = (a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y))


@dataclass(eq=False)
class _UavState:
    uid: int
    pos: tuple[float, float]
    velocity_ms: float
    detect_radius: float
    detect_prob: float
    assigned_cell: int | None = None

    def fly(self, overlay: GridOverlay, dt: float) -> None:
        if self.assigned_cell is None:
            return
        cx, cy = overlay.cell_center(self.assigned_cell)
        dx, dy = cx - self.pos[0], cy - self.pos[1]
        d = math.hypot(dx, dy)
        step = self.velocity_ms * dt
        if d <= step:
            self.pos = (cx, cy)
        else:
            self.pos = (self.pos[0] + dx / d * step, self.pos[1] + dy / d * step)


def _spawn_targets(world: World, seed: int) -> list[_TargetState]:
    sc = world.scenario
    g = world.refined
    out = []
    for j, tspec in enumerate(sc.targets):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, j)))
        entry = (
            world.entry_starts[int(rng.integers(len(world.entry_starts)))]
            if tspec.entry is None
            else world.start_of_parent[tspec.entry]
        )
        cls = sc.class_named(tspec.class_name)
        velocity = rng.uniform(*cls.velocity_kmh) * KMH_TO_MS
        pool = world.strategies[tspec.class_name]
        strategy = pool[int(rng.integers(len(pool)))] if len(pool) > 1 else pool[0]
        path = strategy.path(g, entry, rng)
        ends = np.cumsum([g.edges[eid].length for eid in path])
        st = _TargetState(j, path, ends, velocity, init_belief(g, entry))
        st.locate(g)
        out.append(st)
    return out


def _uniform_off_cells(overlay: GridOverlay, cells: set[int]) -> np.ndarray:
    # Defensive recovery: the belief contradicted a certain detection, so all
    # information is discarded except "not in the searched cells".
    mass = np.where(overlay.edge_mask(cells), 0.0, 1.0)
    return mass / mass.sum()


def run_trial(scenario: ScenarioConfig, seed: int, world: World | None = None) -> TrialResult:
    """One seeded trial. Phases per tick: targets move (goal check), UAVs fly
    (after the delay head start), detection draws, belief updates, replan."""
    if world is None:
        world = build_world(scenario)
    g, overlay = world.refined, world.overlay
    dt = scenario.tick_seconds
    delay_m = scenario.delay_km * 1000.0
    team_p = scenario.team_min_detect_prob() if scenario.uavs else 1.0

    targets = _spawn_targets(world, seed)
    uavs = [
        _UavState(i, u.depot, u.velocity_kmh * KMH_TO_MS, u.detect_radius, u.detect_prob)
        for i, u in enumerate(scenario.uavs)
    ]
    det_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    detections: dict[int, int] = {}

    for tick in range(1, scenario.max_ticks + 1):
        # 1. Targets move; entering any goal edge loses immediately.
        for tg in targets:
            if not tg.active:
                continue
            tg.advance(g, dt)
            if tg.edge in g.goal_union:
                return TrialResult("lose", detections, tg.tid, tick, seed)

        frozen = any(tg.s < delay_m for tg in targets if tg.active)

        # 2. UAVs fly toward their assigned cell centers.
        if not frozen:
            for uav in uavs:
                uav.fly(overlay, dt)

        # 3. One Bernoulli detection attempt per (UAV, active target in range).
        if not frozen:
            for uav in uavs:
                for tg in targets:
                    if not tg.active:
                        continue
                    if math.hypot(tg.pos[0] - uav.pos[0], tg.pos[1] - uav.pos[1]) <= uav.detect_radius:
                        if det_rng.random() < uav.detect_prob:
                            tg.active = False
                            detections[tg.tid] = tick
            if not any(tg.active for tg in targets):
                return TrialResult("win", detections, None, tick, seed)

        # 4. Propagate beliefs, then condition on every fruitless search.
        for tg in targets:
            if tg.active:
                tg.belief = propagate(tg.belief, world.models[scenario.targets[tg.tid].class_name])
        if not frozen:
            for uav in uavs:
                searched = set(overlay.covered_cells(uav.pos[0], uav.pos[1], uav.detect_radius))
                if not searched:
                    continue
                for tg in targets:
                    if not tg.active:
                        continue
                    try:
                        tg.belief = negative_update(tg.belief, searched, uav.detect_prob, overlay)
                    except CertainDetection:
                        tg.belief = _uniform_off_cells(overlay, searched)

        # 5. Replan: planning holds no value while the team is frozen.
        if uavs and not frozen:
            cbs = [cell_marginal(tg.belief, overlay) for tg in targets if tg.active]
            cells = select_cells(scenario.policy, cbs, len(uavs), team_p)
            assignment = match_uavs_to_cells({u.uid: u.pos for u in uavs}, cells, overlay)
            for uav in uavs:
                uav.assigned_cell = assignment.get(uav.uid)

    return TrialResult("lose", detections, None, scenario.max_ticks, seed, timeout=True)


def trial_seed(master_seed: int, index: int) -> int:
    """Independent per-trial seed; stable in `index`, so any execution order
    or worker count reproduces the same trials."""
    state = np.random.SeedSequence(master_seed, spawn_key=(index,)).generate_state(1, np.uint64)
    return int(state[0])


_WORKER_WORLD: World | None = None


def _init_worker(world: World) -> None:
    global _WORKER_WORLD
    _WORKER_WORLD = world


def _worker_trial(args: tuple[int, int]) -> tuple[int, TrialResult]:
    index, seed = args
    assert _WORKER_WORLD is not None
    return index, run_trial(_WORKER_WORLD.scenario, seed, _WORKER_WORLD)


def run_batch(
    scenario: ScenarioConfig,
    n_trials: int,
    master_seed: int,
    jobs: int = 1,
) -> tuple[BatchStats, list[TrialResult]]:
    """Run seeded trials and aggregate. Results depend only on the scenario,
    trial count, and master seed - never on `jobs`."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    seeds = [(i, trial_seed(master_seed, i)) for i in range(n_trials)]
    # Built here, not in the workers: a bad scenario raises ConfigError in the
    # caller, and forked workers inherit the world without pickling it.
    world = build_world(scenario)
    if jobs <= 1:
        results = [run_trial(scenario, s, world) for _, s in seeds]
    else:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker, initargs=(world,)) as pool:
            chunk = max(1, n_trials // (jobs * 4))
            indexed = list(pool.map(_worker_trial, seeds, chunksize=chunk))
        indexed.sort(key=lambda pair: pair[0])
        results = [r for _, r in indexed]

    wins = sum(1 for r in results if r.outcome == "win")
    lo, hi = wilson_interval(wins, n_trials)
    ticks = [t for r in results for t in r.detection_ticks.values()]
    mean_det = float(np.mean(ticks)) if ticks else math.nan
    stats = BatchStats(n_trials, wins, wins / n_trials, lo, hi, mean_det)
    return stats, results
