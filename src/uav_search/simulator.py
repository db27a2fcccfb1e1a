"""Monte Carlo trials of UAV teams searching road-bound targets.

A trial advances in fixed ticks: targets move along their secret routes, UAVs
fly toward their assigned cell centers (after the targets' head start),
detection is a Bernoulli draw per UAV-target pair in range, beliefs are
propagated and conditioned on fruitless searches, and the policy replans. A
detected target leaves the trial, and the UAVs win once none is left, if no
target entered a goal edge first. Trials are deterministic given their seed,
and batch results are identical at any parallelism level. A target's motion
is fixed at spawn: the tick it is `delay_km` along, the tick it enters its
goal edge (its route's last) and its position at the end of each tick
before. So a trial skips the head start, in which only targets move.

A `World` holds what trials on one graph, grid, tick and set of class models
share: the refined graph and its route cache, the grid overlay, the models and
the frozen beliefs. Until its first fruitless search, a target's belief depends
only on its class, entry edge and tick, so it and its cell marginals are the
world's. `run_batch` runs every point of a command, a `(scenario, master seed)`
pair, in one call: points that agree on what `build_world` reads share one
World, every World is built, and so checked, before the first trial, and at
`jobs > 1` one process pool runs the trials of every point in order.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .belief import CertainDetection, cell_marginal, init_belief, negative_update, propagate
from .config import ConfigError, ScenarioConfig, UavSpec, check_trials
from .movement import KMH_TO_MS, TransitionModel, load_model, validate_stochastic
from .planner import match_uavs_to_cells, select_cells
from .rng import Rng, trial_seed
from .road_graph import GridOverlay, RoadGraph, dead_entries, load_graph, overlay_grid
from .strategies import check_route_weights

# 95% normal quantile for Wilson intervals.
WILSON_Z = 1.959963984540054

# World keeps each frozen belief sequence at every multiple of this many ticks
# (5.9 KB a belief on the bundled border map).
BLOCK_TICKS = 16


@dataclass(frozen=True)
class TrialResult:
    """One seeded trial: its outcome, each detected target's detection tick and who reached a goal."""

    outcome: str  # "win" | "lose"
    detection_ticks: dict[int, int]  # target id -> tick of detection
    losing_target: int | None  # target that reached a goal, if any
    ticks: int
    seed: int
    timeout: bool = False


@dataclass(frozen=True)
class BatchStats:
    """A batch of trials: its win rate with a Wilson 95% interval, and its mean detection tick."""

    n_trials: int
    n_wins: int
    success_rate: float
    ci_low: float
    ci_high: float
    mean_detection_tick: float  # nan when nothing was ever detected


def wilson_interval(wins: int, n: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial success rate."""
    if n <= 0:
        raise ValueError("need at least one trial")
    z = WILSON_Z
    phat = wins / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(eq=False)
class World:
    """What the trials of every point with one `_world_key` share, frozen
    beliefs included: `frozen_belief` gives a target's belief at its first
    fruitless search, and `shared_marginal` its cell marginals until then."""

    refined: RoadGraph
    overlay: GridOverlay
    start_of_parent: dict[int, int]  # original entry edge -> its first refined piece, in id order
    dead_entries: frozenset[int]  # original entry edges from which no goal edge can be reached
    models: dict[str, TransitionModel]
    # (class name, entry edge) -> read-only beliefs at ticks 0, BLOCK_TICKS, ...
    checkpoints: dict[tuple[str, int], list[np.ndarray]] = field(default_factory=dict, init=False, repr=False)
    # (class name, entry edge) -> (tick, read-only belief) of the last belief reached
    latest: dict[tuple[str, int], tuple[int, np.ndarray]] = field(default_factory=dict, init=False, repr=False)
    # (class name, entry edge, tick) -> read-only cell marginal of that frozen belief
    rows: dict[tuple[str, int, int], np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def frozen_belief(self, class_name: str, entry_edge: int, tick: int) -> np.ndarray:
        """The belief `tick` ticks after a target of `class_name` entered on
        `entry_edge`, with no observation in between, read-only: `tick`
        successive `propagate` calls from the delta on the entry edge, made
        from the nearest checkpoint or last belief at or below `tick`. Every
        checkpoint passed is kept, and the result as the last belief."""
        key = (class_name, entry_edge)
        saved = self.checkpoints.setdefault(key, [])
        if not saved:
            saved.append(init_belief(self.refined, entry_edge))
            saved[0].flags.writeable = False
        k = min(tick // BLOCK_TICKS, len(saved) - 1)
        at, mass = self.latest.get(key, (0, saved[0]))
        if not k * BLOCK_TICKS <= at <= tick:
            at, mass = k * BLOCK_TICKS, saved[k]
        for at in range(at + 1, tick + 1):
            mass = propagate(mass, self.models[class_name])
            mass.flags.writeable = False
            if at == len(saved) * BLOCK_TICKS:
                saved.append(mass)
        self.latest[key] = (tick, mass)
        return mass

    def shared_marginal(self, class_name: str, entry_edge: int, tick: int) -> np.ndarray:
        """`cell_marginal(frozen_belief(...))`, read-only, computed on its
        first request."""
        key = (class_name, entry_edge, tick)
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = cell_marginal(self.frozen_belief(*key), self.overlay)
            row.flags.writeable = False
        return row


def _world_key(scenario: ScenarioConfig) -> tuple:
    """All that `build_world` reads of a scenario, besides what `_check_scenario`
    checks: the graph, the grid radius, the tick and the (name, model path) of
    each class the targets use, in file order, the order models load in."""
    used = {t.class_name for t in scenario.targets}
    models = tuple((c.name, c.model_path) for c in scenario.classes if c.name in used)
    return scenario.graph_path, scenario.team_min_radius(), scenario.tick_seconds, models


def _check_scenario(scenario: ScenarioConfig, world: World) -> None:
    """Refuse a target that may enter on an edge outside the graph's entries
    or on one that reaches no goal set: its fixed `entry`, or else any entry;
    and class strategies that break `check_route_weights` on the world's graph."""
    for c in scenario.classes:
        check_route_weights(world.refined, c.strategies, f"classes.{c.name}.strategies")
    for i, t in enumerate(scenario.targets):
        if t.entry is None:
            if world.dead_entries:
                raise ConfigError(f"targets[{i}]: entry edge {min(world.dead_entries)} reaches no goal set, "
                                  "and a target without a fixed entry may enter on any entry edge")
        elif t.entry not in world.start_of_parent:
            raise ConfigError(f"targets[{i}].entry: edge {t.entry} is not an entry edge")
        elif t.entry in world.dead_entries:
            raise ConfigError(f"targets[{i}].entry: edge {t.entry} reaches no goal set")


def build_world(scenario: ScenarioConfig) -> World:
    graph_path, radius, tick, used = _world_key(scenario)
    graph = load_graph(graph_path)
    if not graph.entries:
        raise ConfigError(f"{graph_path}: graph has no entry edges")
    if not graph.goals:
        raise ConfigError(f"{graph_path}: graph has no goal sets")
    refined, overlay = overlay_grid(graph, radius)
    start_of_parent = dict(zip(sorted(graph.entries), sorted(refined.entries)))

    models: dict[str, TransitionModel] = {}
    for name, model_path in used:
        model = load_model(model_path)
        if model.n_edges != refined.n_edges:
            raise ConfigError(
                f"{model_path}: model covers {model.n_edges} edges but the refined "
                f"graph has {refined.n_edges}; it was compiled for a different grid"
            )
        if not abs(model.tick - tick) <= 1e-9:
            raise ConfigError(f"{model_path}: model tick {model.tick} s does not match scenario tick {tick} s")
        problems = validate_stochastic(model, refined)
        if problems:
            shown = "; ".join(problems[:3])
            more = f" (and {len(problems) - 3} more)" if len(problems) > 3 else ""
            raise ConfigError(f"{model_path}: not a valid movement model: {shown}{more}")
        if model.target_class != name:
            raise ConfigError(f"{model_path}: model was compiled for class {model.target_class!r}, "
                              f"not for scenario class {name!r}")
        models[name] = model

    world = World(refined, overlay, start_of_parent, dead_entries(graph), models)
    _check_scenario(scenario, world)
    return world


@dataclass(eq=False)
class _TargetState:
    """One target in a trial: its route, speed and belief, and its motion,
    fixed at spawn by `_motion`. A tick past `max_ticks`, or a ready tick past
    the goal tick, stands for any later tick."""

    tid: int
    path: list[int]  # from the refined entry edge
    velocity_ms: float
    class_name: str
    ready_tick: int
    goal_tick: int
    xs: list[float]  # (xs[t - ready_tick], ys[t - ready_tick]) is its position at the end of tick t
    ys: list[float]
    belief: np.ndarray | None = None  # float64 over refined edge ids; None while it is the world's


@dataclass(eq=False)
class _UavState:
    """One UAV in a trial: its spec, position and assigned cell."""

    spec: UavSpec  # its speed, detection radius and probability; a UAV's id is its index in the team
    pos: tuple[float, float]
    assigned_cell: int | None = None

    def fly(self, overlay: GridOverlay, dt: float) -> None:
        if self.assigned_cell is None:
            return
        cx, cy = overlay.centers[self.assigned_cell]
        dx, dy = cx - self.pos[0], cy - self.pos[1]
        d = math.hypot(dx, dy)
        step = self.spec.velocity_kmh * KMH_TO_MS * dt
        if d <= step:
            self.pos = (cx, cy)
        else:
            self.pos = (self.pos[0] + dx / d * step, self.pos[1] + dy / d * step)


def _motion(g: RoadGraph, path: list[int], step: float, delay_m: float, max_ticks: int) -> tuple[int, int, list, list]:
    """A target moving `step` a tick along `path`: the first tick that ends
    `delay_m` along, the first on its goal edge, and its x and y at the end of each
    tick from the first of these to the one before the second, the floats of
    `s += step` a tick interpolated on the edge at `s`. A trial reads a position
    only once every target is ready, and never on or past a goal tick."""
    lengths = g.length[path]
    starts = np.cumsum(np.concatenate(([0.0], lengths)))  # where each path edge starts, and the path's end
    goal_m = starts[-2].item()  # a path's only goal edge is its last
    n = min(max_ticks, int(min(goal_m / step, max_ticks)) + 2)
    with np.errstate(over="ignore"):  # a sum that overflows lies past the goal tick, and is never read
        s = np.cumsum(np.full(n, step))  # to one tick past the goal edge's start, or to max_ticks
    ready, goal = (np.searchsorted(s, [delay_m, goal_m]) + 1).tolist()
    s = s[ready - 1: goal - 1]
    idx = np.minimum(np.searchsorted(starts[1:], s, "right"), len(path) - 1)
    tail, head = g.xy[g.tail[path]][idx], g.xy[g.head[path]][idx]
    frac = np.minimum(np.maximum((s - starts[idx]) / lengths[idx], 0.0), 1.0)
    return ready, goal, *(tail + frac[:, None] * (head - tail)).T.tolist()


def _spawn_targets(sc: ScenarioConfig, world: World, seed: int) -> list[_TargetState]:
    g = world.refined
    starts = list(world.start_of_parent.values())
    out = []
    for j, tspec in enumerate(sc.targets):
        rng = Rng(seed, (0, j))
        entry = starts[rng.integers(len(starts))] if tspec.entry is None else world.start_of_parent[tspec.entry]
        cls = sc.class_named(tspec.class_name)
        velocity = rng.uniform(*cls.velocity_kmh) * KMH_TO_MS
        strategy = cls.strategies[rng.integers(len(cls.strategies))]
        path = strategy.path(g, entry, rng)
        motion = _motion(g, path, velocity * sc.tick_seconds, sc.delay_km * 1000.0, sc.max_ticks)
        out.append(_TargetState(j, path, velocity, tspec.class_name, *motion))
    return out


def _uniform_off_cells(overlay: GridOverlay, cells: list[int]) -> np.ndarray:
    # Defensive recovery: the belief contradicted a certain detection, so all
    # information is discarded except "not in the searched cells".
    mass = np.where(overlay.edge_mask(cells), 0.0, 1.0)
    return mass / mass.sum()


def run_trial(scenario: ScenarioConfig, seed: int, world: World) -> TrialResult:
    """One seeded trial. Phases per tick: targets move (goal check), UAVs fly,
    detection draws, belief updates, replan. Until every target is past the
    `delay_km` head start only targets move, so the trial starts at the
    first tick the team flies, or at an earlier goal tick."""
    overlay, dt = world.overlay, scenario.tick_seconds
    team_p = scenario.team_min_detect_prob() if scenario.uavs else 1.0

    targets = _spawn_targets(scenario, world, seed)
    uavs = [_UavState(u, u.depot) for u in scenario.uavs]
    det_rng = Rng(seed, (1,))
    detections: dict[int, int] = {}

    start = min(max(tg.ready_tick for tg in targets), min(tg.goal_tick for tg in targets))
    for tick in range(start, scenario.max_ticks + 1):
        # 1. Targets move; entering any goal edge loses at once, the first target in order on a tie.
        first = min(targets, key=lambda tg: tg.goal_tick)
        if first.goal_tick == tick:
            return TrialResult("lose", detections, first.tid, tick, seed)

        # 2. UAVs fly toward their assigned cell centers.
        for uav in uavs:
            uav.fly(overlay, dt)

        # 3. One Bernoulli detection attempt per (UAV, target in range); a detected target leaves the trial.
        for uav in uavs:
            for tg in targets[:]:
                x, y = tg.xs[tick - tg.ready_tick], tg.ys[tick - tg.ready_tick]
                if math.hypot(x - uav.pos[0], y - uav.pos[1]) <= uav.spec.detect_radius:
                    if det_rng.random() < uav.spec.detect_prob:
                        targets.remove(tg)
                        detections[tg.tid] = tick
        if not targets:
            return TrialResult("win", detections, None, tick, seed)

        # 4. Propagate beliefs, then condition on every fruitless search. A belief
        # is the world's frozen belief until the target's first search gives it
        # a belief of its own: the same bits as propagating it every tick.
        for tg in targets:
            if tg.belief is not None:
                tg.belief = propagate(tg.belief, world.models[tg.class_name])
        for uav in uavs:
            searched = overlay.covered_cells(uav.pos[0], uav.pos[1], uav.spec.detect_radius)
            if not searched:
                continue
            for tg in targets:
                if tg.belief is None:
                    tg.belief = world.frozen_belief(tg.class_name, tg.path[0], tick)
                try:
                    tg.belief = negative_update(tg.belief, searched, uav.spec.detect_prob, overlay)
                except CertainDetection:
                    tg.belief = _uniform_off_cells(overlay, searched)

        # 5. Replan on the targets' cell marginals, the world's rows while beliefs are shared.
        if uavs:
            cbs = np.array([
                world.shared_marginal(tg.class_name, tg.path[0], tick) if tg.belief is None
                else cell_marginal(tg.belief, overlay)
                for tg in targets
            ])
            cells = select_cells(scenario.policy, cbs, len(uavs), team_p)
            for uav, cell in zip(uavs, match_uavs_to_cells([u.pos for u in uavs], cells, overlay)):
                uav.assigned_cell = cell

    return TrialResult("lose", detections, None, scenario.max_ticks, seed, timeout=True)


# Per point, the (scenario, world) that a forked pool worker runs its trials on.
_WORKER_POINTS: list[tuple[ScenarioConfig, World]] = []


def _init_worker(points: list[tuple[ScenarioConfig, World]]) -> None:
    global _WORKER_POINTS
    _WORKER_POINTS = points


def _worker_trial(task: tuple[int, int]) -> TrialResult:
    index, seed = task
    scenario, world = _WORKER_POINTS[index]
    return run_trial(scenario, seed, world)


def _batch_stats(results: list[TrialResult]) -> tuple[BatchStats, list[TrialResult]]:
    n = len(results)
    wins = sum(1 for r in results if r.outcome == "win")
    lo, hi = wilson_interval(wins, n)
    ticks = [t for r in results for t in r.detection_ticks.values()]
    mean_det = float(np.mean(ticks)) if ticks else math.nan
    return BatchStats(n, wins, wins / n, lo, hi, mean_det), results


def _batches(
    points: list[tuple[ScenarioConfig, World]], seeds: list[list[int]], n_trials: int, jobs: int
) -> Iterator[tuple[BatchStats, list[TrialResult]]]:
    jobs = min(jobs, len(points) * n_trials)  # no idle worker: a forking pool starts all of them at once
    if jobs <= 1:
        for (scenario, world), point_seeds in zip(points, seeds):
            yield _batch_stats([run_trial(scenario, s, world) for s in point_seeds])
        return
    # Imported here: the pool's modules (multiprocessing, logging, socket)
    # would cost every `--jobs 1` command milliseconds of start-up.
    from concurrent.futures import ProcessPoolExecutor

    tasks = [(index, s) for index, point_seeds in enumerate(seeds) for s in point_seeds]
    # Forked workers inherit the worlds without pickling them, and keep their
    # checkpoints and route caches from one point to the next.
    with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker, initargs=(points,)) as pool:
        # Executor.map yields results in input order, whatever the workers' order.
        results = pool.map(_worker_trial, tasks, chunksize=max(1, n_trials // (jobs * 4)))
        for _ in points:
            yield _batch_stats([next(results) for _ in range(n_trials)])


def run_batch(
    points: Sequence[tuple[ScenarioConfig, int]],
    n_trials: int,
    jobs: int = 1,
) -> Iterator[tuple[BatchStats, list[TrialResult]]]:
    """Run `n_trials` seeded trials of every (scenario, master seed) point.

    Yields each point's (stats, results) in point order, as its last trial
    finishes. Every point's world is built and its targets checked before
    this returns, so a bad point raises ConfigError before any trial runs.
    Results depend only on the points and the trial count - never on `jobs`.
    """
    check_trials(n_trials)
    worlds: dict[tuple, World] = {}
    bound = []
    for scenario, _ in points:
        key = _world_key(scenario)
        if key in worlds:
            _check_scenario(scenario, worlds[key])
        else:
            worlds[key] = build_world(scenario)
        bound.append((scenario, worlds[key]))
    seeds = [[trial_seed(master, i) for i in range(n_trials)] for _, master in points]
    return _batches(bound, seeds, n_trials, jobs)
