"""Reference oracles the tests check the library against.

`team_gain` and `brute_force_select` are the exhaustive planner: the exact
team entropy gain of a cell set and its argmax over every k-subset.
`assign_single_entry` is the single-entry pick on one shared belief, its
seed the largest cell at or above the threshold; the `single_entry` policy
must equal it on the targets' mean belief.
`default_pool` and `split_pool` build the strategy pool and its disjoint
train / test halves that the unknown-behavior experiments draw from.
`model_from_rows` and `model_rows` convert a movement model to and from the
`{src: ((dst, prob), ...)}` form the model tests write out by hand.
`validate_path` is the strategy path contract: a path starts at its entry,
takes only road successors and ends on the first goal edge it touches, else
it raises `InvalidPathError` naming the fault. Training and trials use a
strategy's path unchecked, so the strategy tests hold every strategy to it.
`trace_loop`, `count_compile`, `dict_shortest_path` and `choice_walk` are
the tick-by-tick trace sampler, the dict-counting model compiler, the
dict-based Dijkstra into one goal set and the random walk drawing each step
with `rng.choice`; the library's array, all-goal and cached versions must
equal them exactly. `goal_distance_map` is the dict-based reverse search
from one goal set, and `travel_to_go` one edge's travel left read off it;
`travel_to_goal` must equal them bit for bit. `walk_step` is one random-walk
step computed alone, its candidates and their probabilities, and
`choice_cdf` the cumulative distribution `rng.choice` draws from; every row
of a walk's step table must equal them bit for bit.
`distance_map_reachable_goals` is the reachability rule read off reverse
distance maps. `Walker` is a target moved tick by tick, `s += v * dt` and
then located on its path with `bisect`, its own code and none of the
simulator's. `motion_loop` walks one target to its goal edge, read off the
located edge, and the motion fixed at spawn must equal it. `reference_trial`
is a whole trial as the plainest loop, every target walked and every belief
propagated every tick and no `World` store read, which `run_trial` must equal.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from uav_search.belief import (
    CertainDetection,
    cell_marginal,
    check_detect_prob,
    init_belief,
    negative_update,
    propagate,
)
from uav_search.movement import TransitionModel
from uav_search.planner import DEFAULT_THRESHOLD, entropy_gain, greedy_select, match_uavs_to_cells, select_cells
from uav_search.road_graph import RoadGraph
from uav_search.strategies import (
    MAX_LENGTH_FACTOR,
    RandomWalkStrategy,
    RouteStrategy,
    Strategy,
    UnreachableGoalError,
    WanderingError,
)
from uav_search.simulator import TrialResult, _spawn_targets, _uniform_off_cells, _UavState

BRUTE_FORCE_MAX_CELLS = 15
BRUTE_FORCE_MAX_K = 4


def team_gain(cell_beliefs: Sequence[np.ndarray], cells: set[int] | frozenset[int], p: float) -> float:
    """Sum of per-target entropy gains for one shared cell set."""
    return sum(entropy_gain(cb, cells, p) for cb in cell_beliefs)


def brute_force_select(cell_beliefs: Sequence[np.ndarray], k: int, p: float) -> list[int]:
    """Exhaustive argmax of the team gain over all k-subsets of cells.

    Only for oracle-sized instances: at most 15 cells and k <= 4. Returns the
    lexicographically smallest maximizer, sorted.
    """
    check_detect_prob(p)
    n_cells = cell_beliefs[0].size
    if n_cells > BRUTE_FORCE_MAX_CELLS or k > BRUTE_FORCE_MAX_K:
        raise ValueError(
            f"instance too large for brute force ({n_cells} cells, k={k}); "
            f"limits are {BRUTE_FORCE_MAX_CELLS} cells, k={BRUTE_FORCE_MAX_K}"
        )
    best: tuple[int, ...] | None = None
    best_value = -math.inf
    for subset in itertools.combinations(range(n_cells), k):
        value = team_gain(cell_beliefs, set(subset), p)
        if value > best_value:
            best, best_value = subset, value
    assert best is not None
    return list(best)


def assign_single_entry(cb: np.ndarray, m: int, p: float, threshold: float = DEFAULT_THRESHOLD) -> set[int]:
    """Single shared belief: seed its peak cell once it clears `threshold`.

    If some cell holds at least `threshold` probability, the largest such
    cell is taken and the remaining m - 1 picks are greedy conditioned on it;
    below the threshold the whole selection is greedy.
    """
    if m == 0:
        return set()
    check_detect_prob(p)
    qualifying = cb >= threshold
    seeds = {int(np.argmax(np.where(qualifying, cb, -np.inf)))} if qualifying.any() else set()
    return seeds | set(greedy_select([cb], m - len(seeds), p, excluded=seeds))


@dataclass(frozen=True)
class StrategyPool:
    """Disjoint train / test strategy subsets of a larger pool."""

    train: tuple[Strategy, ...]
    test: tuple[Strategy, ...]


def default_pool(size: int = 40) -> list[Strategy]:
    """A deterministic pool of behaviorally distinct strategies.

    One shortest-path agent, goal-biased random walkers over a log-spaced
    beta grid, and side-road preferrers over a linear penalty grid.
    """
    if size < 3:
        raise ValueError("pool needs at least 3 strategies")
    n_walk = (size - 1) * 3 // 5
    n_side = size - 1 - n_walk
    pool: list[Strategy] = [RouteStrategy()]
    pool.extend(RandomWalkStrategy(beta=float(b)) for b in np.geomspace(3e-4, 3e-2, n_walk))
    pool.extend(RouteStrategy(penalty=float(p)) for p in np.linspace(0.25, 4.0, n_side))
    return pool


def split_pool(pool: list[Strategy], train_count: int, test_count: int, seed: int) -> StrategyPool:
    """Draw disjoint train / test subsets uniformly at random."""
    if train_count + test_count > len(pool):
        raise ValueError(
            f"cannot draw {train_count}+{test_count} strategies from a pool of {len(pool)}"
        )
    if test_count == 0:
        warnings.warn("empty test split: every pool strategy is in training", stacklevel=2)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pool))
    train = tuple(pool[i] for i in order[:train_count])
    test = tuple(pool[i] for i in order[train_count : train_count + test_count])
    return StrategyPool(train=train, test=test)


def model_from_rows(
    rows: dict[int, Sequence[tuple[int, float]]], n_edges: int, target_class: str = "t", tick: float = 1.0
) -> TransitionModel:
    """A model from `{src: ((dst, prob), ...)}`; the model puts the rows in row order."""
    triples = [(src, dst, p) for src, row in rows.items() for dst, p in row]
    src, dst, prob = zip(*triples) if triples else ((), (), ())
    return TransitionModel(target_class, tick, n_edges, src, dst, prob)


def model_rows(model: TransitionModel) -> dict[int, tuple[tuple[int, float], ...]]:
    """`{src: ((dst, prob), ...)}`, sources ascending, each row in its order."""
    rows: dict[int, list[tuple[int, float]]] = {}
    for src, dst, p in zip(model.src.tolist(), model.dst.tolist(), model.prob.tolist()):
        rows.setdefault(src, []).append((dst, p))
    return {src: tuple(row) for src, row in rows.items()}


class InvalidPathError(ValueError):
    """A produced path is not a connected walk ending on a goal edge."""


def validate_path(g: RoadGraph, path: list[int], entry: int) -> None:
    """Check a strategy path: connected, starts at `entry`, ends on the first
    goal edge it touches. Raises InvalidPathError naming the offending hop."""
    if not path:
        raise InvalidPathError("empty path")
    if path[0] != entry:
        raise InvalidPathError(f"path starts at edge {path[0]}, expected entry {entry}")
    for a, b in zip(path, path[1:]):
        if b not in g._next[a]:
            raise InvalidPathError(f"disconnected hop {a} -> {b}")
    if path[-1] not in g.goal_union:
        raise InvalidPathError(f"path ends on non-goal edge {path[-1]}")
    for eid in path[:-1]:
        if eid in g.goal_union:
            raise InvalidPathError(f"goal edge {eid} appears before the end of the path")


def trace_loop(g: RoadGraph, path: list[int], velocity_ms: float, tick: float) -> list[int]:
    """The occupied edge at each tick, one tick at a time, up to the first goal
    edge. Never returns when no sample lands on a goal edge."""
    ends = np.cumsum(g.length[path]).tolist()
    edges: list[int] = []
    t = 0
    while True:
        s = velocity_ms * tick * t
        eid = path[min(bisect.bisect_right(ends, s), len(path) - 1)]
        edges.append(eid)
        if eid in g.goal_union:
            return edges
        t += 1


@dataclass(eq=False)
class Walker:
    """A target on `path` moving `velocity_ms`: each `move` adds `v * dt` to
    `s` and locates `s` on the path edge it falls in (the last, past the end),
    at the fraction of that edge it has covered, clamped to the edge."""

    g: RoadGraph
    path: list[int]
    velocity_ms: float
    s: float = 0.0
    pos: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        self.ends = list(itertools.accumulate(self.g._length[e] for e in self.path))

    def move(self, dt: float) -> int:
        """Move one tick; returns the path edge the target is on."""
        self.s += self.velocity_ms * dt
        idx = min(bisect.bisect_right(self.ends, self.s), len(self.path) - 1)
        eid = self.path[idx]
        (ax, ay), (bx, by) = self.g.xy[self.g.tail[eid]].tolist(), self.g.xy[self.g.head[eid]].tolist()
        start = self.ends[idx - 1] if idx > 0 else 0.0
        frac = min(max((self.s - start) / self.g._length[eid], 0.0), 1.0)
        self.pos = (ax + frac * (bx - ax), ay + frac * (by - ay))
        return eid


def motion_loop(walker: Walker, dt: float, delay_m: float, max_ticks: int, goal_union):
    """A target's motion in a trial of `max_ticks` ticks, one tick at a time:
    (the first tick that ends with it `delay_m` along, the tick it enters a
    goal edge, its position at the end of each tick before that one), a tick
    None when it does not come within the budget."""
    ready = goal = None
    track = []
    for tick in range(1, max_ticks + 1):
        on_goal = walker.move(dt) in goal_union
        if ready is None and walker.s >= delay_m:
            ready = tick
        if on_goal:
            goal = tick
            break
        track.append(walker.pos)
    return ready, goal, track


def reference_trial(scenario, seed: int, world) -> TrialResult:
    """`run_trial` as the plainest loop. Every tick, every undetected target
    is walked, and entering a goal edge loses at once; its belief, from
    `init_belief` on its entry edge, is propagated every tick, the head start
    included. The team flies from the first tick that ends with every target
    `delay_km` along. Targets take only their path and speed from
    `_spawn_targets`. The world gives only its graph, grid and models, never
    a stored belief or row: marginals are `cell_marginal` of each target's own
    belief. This does belief work in head-start ticks, so never compare call
    counts with it."""
    overlay, goal_union = world.overlay, world.refined.goal_union
    dt, delay_m = scenario.tick_seconds, scenario.delay_km * 1000.0
    team_p = scenario.team_min_detect_prob() if scenario.uavs else 1.0
    targets = _spawn_targets(scenario, world, seed)
    walkers = [Walker(world.refined, tg.path, tg.velocity_ms) for tg in targets]
    uavs = [_UavState(u, u.depot) for u in scenario.uavs]
    beliefs = [init_belief(world.refined, tg.path[0]) for tg in targets]
    det_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    detections: dict[int, int] = {}
    active = [True] * len(targets)  # False once detected
    flying = False
    for tick in range(1, scenario.max_ticks + 1):
        for j, tg in enumerate(targets):
            if active[j] and walkers[j].move(dt) in goal_union:
                return TrialResult("lose", detections, tg.tid, tick, seed)
        for j, tg in enumerate(targets):
            if active[j]:
                beliefs[j] = propagate(beliefs[j], world.models[tg.class_name])
        flying = flying or all(w.s >= delay_m for w in walkers)
        if not flying:
            continue
        for uav in uavs:
            uav.fly(overlay, dt)
        for uav in uavs:
            for j, tg in enumerate(targets):
                x, y = walkers[j].pos
                in_range = math.hypot(x - uav.pos[0], y - uav.pos[1]) <= uav.spec.detect_radius
                if active[j] and in_range and det_rng.random() < uav.spec.detect_prob:
                    active[j] = False
                    detections[tg.tid] = tick
        if not any(active):
            return TrialResult("win", detections, None, tick, seed)
        for uav in uavs:
            searched = set(overlay.covered_cells(uav.pos[0], uav.pos[1], uav.spec.detect_radius))
            for j in range(len(targets)):
                if active[j]:
                    try:
                        beliefs[j] = negative_update(beliefs[j], searched, uav.spec.detect_prob, overlay)
                    except CertainDetection:
                        beliefs[j] = _uniform_off_cells(overlay, searched)
        if uavs:
            cbs = [cell_marginal(beliefs[j], overlay) for j in range(len(targets)) if active[j]]
            cells = select_cells(scenario.policy, cbs, len(uavs), team_p)
            for uav, cell in zip(uavs, match_uavs_to_cells([u.pos for u in uavs], cells, overlay)):
                uav.assigned_cell = cell
    return TrialResult("lose", detections, None, scenario.max_ticks, seed, timeout=True)


def count_compile(
    traces: Sequence[np.ndarray], g: RoadGraph, smoothing: float, tick: float = 1.0, target_class: str = "default"
) -> TransitionModel:
    """`compile_model` by counting each hop in nested dicts, row by row."""
    counts: dict[int, dict[int, int]] = {}
    for trace in traces:
        edges = trace.tolist()
        for e0, e1 in zip(edges, edges[1:]):
            if e1 != e0 and e1 not in g._next[e0]:
                raise ValueError(f"trace hop {e0} -> {e1} skips road edges")
            row = counts.setdefault(e0, {})
            row[e1] = row.get(e1, 0) + 1
    triples: list[tuple[int, int, float]] = []
    for src in range(g.n_edges):
        if src in g.goal_union:
            triples.append((src, src, 1.0))
            continue
        support = sorted({src, *g._next[src]})
        seen = counts.get(src, {})
        total = sum(seen.values())
        if total == 0:
            triples.extend((src, dst, 1.0 / len(support)) for dst in support)
        else:
            denom = total + smoothing * len(support)
            triples.extend(
                (src, dst, (seen.get(dst, 0) + smoothing) / denom)
                for dst in support
                if seen.get(dst, 0) > 0 or smoothing > 0
            )
    src, dst, prob = zip(*triples) if triples else ((), (), ())
    return TransitionModel(target_class, tick, g.n_edges, src, dst, prob)


def dict_shortest_path(
    g: RoadGraph, from_edge: int, goal_set: frozenset[int], weight: np.ndarray | None = None
) -> list[int] | None:
    """The route into one goal set alone, searched with dict distances, a
    done set and `(d, e)` heap order; None when no edge of `goal_set` is
    reachable. `shortest_path` must return it for every goal set."""
    if from_edge in goal_set:
        return [from_edge]
    hop = (g.length if weight is None else weight).tolist()
    dist: dict[int, float] = {from_edge: 0.0}
    parent: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(0.0, from_edge)]
    done: set[int] = set()
    while heap:
        d, e = heapq.heappop(heap)
        if e in done:
            continue
        done.add(e)
        if e in goal_set:
            path = [e]
            while path[-1] != from_edge:
                path.append(parent[path[-1]])
            return path[::-1]
        for nxt in g._next[e]:
            nd = d + (0.0 if nxt in goal_set else hop[nxt])
            if nd < dist.get(nxt, math.inf):
                dist[nxt] = nd
                parent[nxt] = e
                heapq.heappush(heap, (nd, nxt))
    return None


def goal_distance_map(g: RoadGraph, goal_set: frozenset[int]) -> dict[int, float]:
    """Remaining travel from each edge's head until some goal edge is entered.

    D[e] = 0 when a goal edge starts at head(e) (or e itself is a goal);
    unreachable edges are absent. `travel_to_goal` must equal what
    `travel_to_go` reads off it, bit for bit.
    """
    length = g._length
    dist: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    for eid in goal_set:
        dist[eid] = 0.0
        heapq.heappush(heap, (0.0, eid))
    done: set[int] = set()
    while heap:
        d, e = heapq.heappop(heap)
        if e in done:
            continue
        done.add(e)
        w = 0.0 if e in goal_set else length[e]
        for prev in g._prev[e]:
            nd = d + w
            if nd < dist.get(prev, math.inf):
                dist[prev] = nd
                heapq.heappush(heap, (nd, prev))
    return dist


# One reverse distance map per (graph, goal set): a walk's oracle asks for it
# at every step, and graphs do not change once built. Callers only read it.
_distance_map = functools.lru_cache(maxsize=256)(goal_distance_map)


def travel_to_go(length, edge_id: int, goal_set: frozenset[int], dist_map: dict[int, float]) -> float:
    """Travel left if the walk takes `edge_id` next (0 when it is a goal edge),
    read off the goal set's reverse distance map. `length` is the graph's
    edge lengths, as an array or a list."""
    if edge_id in goal_set:
        return 0.0
    d = dist_map.get(edge_id)
    return math.inf if d is None else length[edge_id] + d


def distance_map_reachable_goals(g: RoadGraph, entry: int) -> list[int]:
    """The goal indices `entry` reaches, read off each goal set's reverse
    distance map (`goal_distance_map`, `travel_to_go`).
    `strategies._reachable_goals` must return the same list."""
    out = []
    for gi, goal_set in enumerate(g.goals):
        dmap = _distance_map(g, goal_set)
        if travel_to_go(g.length, entry, goal_set, dmap) < math.inf:
            out.append(gi)
    return out


def choice_cdf(p: np.ndarray) -> list[float]:
    """The cumulative distribution `rng.choice(len(p), p=p)` draws from.

    `bisect_right(cdf, rng.random())` is the index that call returns, and it
    takes the same one uniform draw from the generator.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    if np.isnan(cdf).any():
        raise ValueError("Probabilities contain NaN")
    return cdf.tolist()


def walk_step(beta: float, g: RoadGraph, gi: int, cur: int) -> tuple[list[int], np.ndarray]:
    """The candidates after edge `cur` on a walk to goal set `gi`, and the
    probabilities `rng.choice` draws them with: exp(-beta * (travel left -
    its least finite value)) for a candidate with a finite route left, 0 for
    one without. A row with no finite candidate is all 0."""
    cands = g._next[cur]
    goal_set = g.goals[gi]
    dmap = _distance_map(g, goal_set)
    togo = np.array([travel_to_go(g.length, e, goal_set, dmap) for e in cands])
    weights = np.zeros(len(cands))
    finite = np.isfinite(togo)
    if finite.any():
        weights[finite] = np.exp(-beta * (togo[finite] - togo[finite].min()))
        weights /= weights.sum()
    return list(cands), weights


def choice_walk(beta: float, g: RoadGraph, entry: int, gi: int, rng: np.random.Generator) -> list[int]:
    """`RandomWalkStrategy(beta).path(g, entry, rng, goal_index=gi)`, each step
    recomputed by `walk_step` and drawn with `rng.choice`."""
    goal_set = g.goals[gi]
    length = g.length.tolist()
    base = travel_to_go(length, entry, goal_set, _distance_map(g, goal_set))
    if base == math.inf:
        raise UnreachableGoalError(f"goal set {gi} unreachable from entry edge {entry}")
    path, traveled, cur = [entry], 0.0, entry
    while cur not in g.goal_union:
        if traveled > MAX_LENGTH_FACTOR * base:
            raise WanderingError(f"walk from entry {entry} exceeded {MAX_LENGTH_FACTOR:g}x the shortest route")
        cands, p = walk_step(beta, g, gi, cur)
        cur = cands[int(rng.choice(len(cands), p=p))]
        path.append(cur)
        traveled += length[cur]
    return path
