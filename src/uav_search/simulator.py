"""Monte Carlo trials of UAV teams searching road-bound targets.

A trial advances in fixed ticks: targets move along their secret routes,
UAVs fly toward their assigned cell centers (after the configured head-start
delay for targets), detection is a Bernoulli draw per UAV-target pair in
range, beliefs are propagated and conditioned on fruitless searches, and the
policy replans. The UAVs win if every target is detected before any target
enters a goal edge. Trials are deterministic given their seed, and batch
results are identical at any parallelism level. In the head start only
targets move: each target's distance along its route grows by one step a
tick, and is turned into a position only once the team flies. A route's only
goal edge is its last, so entering it is a distance test.

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

import bisect
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
        check_route_weights(world.refined, c.strategies, f"classes.{c.name}.strategies", ConfigError)
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
    """One target in a trial: its route, speed, distance along the route and belief."""

    tid: int
    path: list[int]  # from the refined entry edge
    ends: list[float]  # cumulative edge lengths along the path
    segments: list[list[float]]  # per path edge: tail x, tail y, head x, head y, length
    velocity_ms: float
    class_name: str
    belief: np.ndarray | None = None  # float64 over refined edge ids; None while it is the world's
    s: float = 0.0
    pos: tuple[float, float] = (0.0, 0.0)  # set by `locate`, once the team flies
    active: bool = True

    def locate(self) -> None:
        idx = min(bisect.bisect_right(self.ends, self.s), len(self.path) - 1)
        ax, ay, bx, by, length = self.segments[idx]
        start = self.ends[idx - 1] if idx > 0 else 0.0
        frac = min(max((self.s - start) / length, 0.0), 1.0)
        self.pos = (ax + frac * (bx - ax), ay + frac * (by - ay))


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
        lengths = g.length[path]
        segments = np.column_stack([g.xy[g.tail[path]], g.xy[g.head[path]], lengths]).tolist()
        out.append(_TargetState(j, path, np.cumsum(lengths).tolist(), segments, velocity, tspec.class_name))
    return out


def _uniform_off_cells(overlay: GridOverlay, cells: list[int]) -> np.ndarray:
    # Defensive recovery: the belief contradicted a certain detection, so all
    # information is discarded except "not in the searched cells".
    mass = np.where(overlay.edge_mask(cells), 0.0, 1.0)
    return mass / mass.sum()


def _move_targets(
    targets: list[_TargetState], dt: float, delay_m: float, flying: bool
) -> tuple[_TargetState | None, bool]:
    """Advance every active target one tick. Returns the first that enters
    its goal edge, leaving the targets after it unmoved, and whether the team
    flies in this tick: from the first tick that ends with every target
    `delay_m` along (`s + v * dt` is the `s` the move gives). Targets are
    located only in those ticks. A path's only goal edge is its last, so
    entering it is `s >= ends[-2]`."""
    flying = flying or all(tg.s + tg.velocity_ms * dt >= delay_m for tg in targets)
    for tg in targets:
        if tg.active:
            tg.s += tg.velocity_ms * dt
            if tg.s >= tg.ends[-2]:
                return tg, flying
            if flying:
                tg.locate()
    return None, flying


def run_trial(scenario: ScenarioConfig, seed: int, world: World) -> TrialResult:
    """One seeded trial. Phases per tick: targets move (goal check), UAVs fly
    (after the delay head start), detection draws, belief updates, replan.
    A tick at whose end some target is still short of the `delay_km` head
    start ends once the targets move."""
    overlay = world.overlay
    dt, delay_m = scenario.tick_seconds, scenario.delay_km * 1000.0
    team_p = scenario.team_min_detect_prob() if scenario.uavs else 1.0

    targets = _spawn_targets(scenario, world, seed)
    uavs = [_UavState(u, u.depot) for u in scenario.uavs]
    det_rng = Rng(seed, (1,))
    detections: dict[int, int] = {}

    flying = False
    for tick in range(1, scenario.max_ticks + 1):
        # 1. Targets move; entering any goal edge loses immediately. Until
        # every target is past the head start, that is all a tick does.
        loser, flying = _move_targets(targets, dt, delay_m, flying)
        if loser is not None:
            return TrialResult("lose", detections, loser.tid, tick, seed)
        if not flying:
            continue

        # 2. UAVs fly toward their assigned cell centers.
        for uav in uavs:
            uav.fly(overlay, dt)

        # 3. One Bernoulli detection attempt per (UAV, active target in range).
        for uav in uavs:
            for tg in targets:
                if not tg.active:
                    continue
                if math.hypot(tg.pos[0] - uav.pos[0], tg.pos[1] - uav.pos[1]) <= uav.spec.detect_radius:
                    if det_rng.random() < uav.spec.detect_prob:
                        tg.active = False
                        detections[tg.tid] = tick
        if not any(tg.active for tg in targets):
            return TrialResult("win", detections, None, tick, seed)

        # 4. Propagate beliefs, then condition on every fruitless search. A belief
        # is the world's frozen belief until the target's first search gives it
        # a belief of its own: the same bits as propagating it every tick.
        for tg in targets:
            if tg.active and tg.belief is not None:
                tg.belief = propagate(tg.belief, world.models[tg.class_name])
        for uav in uavs:
            searched = overlay.covered_cells(uav.pos[0], uav.pos[1], uav.spec.detect_radius)
            if not searched:
                continue
            for tg in targets:
                if not tg.active:
                    continue
                if tg.belief is None:
                    tg.belief = world.frozen_belief(tg.class_name, tg.path[0], tick)
                try:
                    tg.belief = negative_update(tg.belief, searched, uav.spec.detect_prob, overlay)
                except CertainDetection:
                    tg.belief = _uniform_off_cells(overlay, searched)

        # 5. Replan on the active targets' cell marginals, the world's rows while beliefs are shared.
        if uavs:
            cbs = np.array([
                world.shared_marginal(tg.class_name, tg.path[0], tick) if tg.belief is None
                else cell_marginal(tg.belief, overlay)
                for tg in targets if tg.active
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
