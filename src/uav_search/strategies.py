"""Target movement strategies: how a road-bound target picks its route.

Each strategy turns (graph, entry edge, rng) into a full edge path that ends
on a goal edge. Strategies are the ground truth behind both simulated targets
and the offline traces that transition models are compiled from. A registry
maps config names to constructors.

The deterministic strategies (shortest, side roads) route with one
`shortest_path` search per (strategy, entry), which answers every goal set
at once; the row of routes is kept on the graph. Which goal sets an entry
reaches is read off the shortest strategy's row.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .road_graph import RoadGraph, goal_distance_map, shortest_path, travel_to_go

# A walk that has traveled more than this multiple of the shortest route is
# declared lost rather than sampled forever.
MAX_LENGTH_FACTOR = 50.0


class UnreachableGoalError(ValueError):
    """No goal edge can be reached from the requested entry."""


class WanderingError(RuntimeError):
    """A stochastic walk exceeded the maximum path length (or dead-ended)."""


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
        if b not in g.outgoing(a):
            raise InvalidPathError(f"disconnected hop {a} -> {b}")
    if path[-1] not in g.goal_union:
        raise InvalidPathError(f"path ends on non-goal edge {path[-1]}")
    for eid in path[:-1]:
        if eid in g.goal_union:
            raise InvalidPathError(f"goal edge {eid} appears before the end of the path")


def _truncate_at_goal(g: RoadGraph, path: list[int]) -> list[int]:
    # A target wins on entering any goal edge, so the path ends at the first one.
    for i, eid in enumerate(path):
        if eid in g.goal_union:
            return path[: i + 1]
    return path


def _reachable_goals(g: RoadGraph, entry: int) -> list[int]:
    """The goal indices some walk from `entry` reaches, ascending: those whose
    route under edge lengths exists. Finite weights never change whether a
    route exists, so this is the shortest strategy's cached row."""
    return [gi for gi, route in enumerate(_cached_routes(g, ShortestPathStrategy(), entry)) if route is not None]


def _draw_goal(g: RoadGraph, entry: int, rng: np.random.Generator) -> int:
    reachable = _reachable_goals(g, entry)
    if not reachable:
        raise UnreachableGoalError(f"no goal reachable from entry edge {entry}")
    return reachable[int(rng.integers(len(reachable)))]


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


def _cached_routes(g: RoadGraph, strategy, entry: int, make_weight=None) -> tuple[tuple[int, ...] | None, ...]:
    """The deterministic routes of `strategy` from `entry`, one per goal index
    (None where unreachable), each truncated at the first goal edge. One
    `shortest_path` search per (strategy, entry) answers every goal set, and
    the row is kept on the graph. `make_weight(g)` builds the per-edge hop
    weights for the search on a miss."""
    key = (strategy, entry)
    routes = g._route_cache.get(key)
    if routes is None:
        weight = make_weight(g) if make_weight is not None else None
        routes = g._route_cache[key] = tuple(
            None if full is None else tuple(_truncate_at_goal(g, full))
            for full in shortest_path(g, entry, weight=weight)
        )
    return routes


def _cached_route(g: RoadGraph, strategy, entry: int, gi: int, make_weight=None) -> list[int]:
    """The route of `strategy` from `entry` to goal set `gi` as a fresh list;
    see `_cached_routes`. Raises UnreachableGoalError when there is none."""
    route = _cached_routes(g, strategy, entry, make_weight)[gi]
    if route is None:
        raise UnreachableGoalError(f"goal set {gi} unreachable from entry edge {entry}")
    return list(route)


@dataclass(frozen=True)
class ShortestPathStrategy:
    """Pick a goal uniformly, then follow the minimal-travel route to it."""

    name: str = "shortest"

    def path(
        self, g: RoadGraph, entry: int, rng: np.random.Generator, goal_index: int | None = None
    ) -> list[int]:
        gi = _draw_goal(g, entry, rng) if goal_index is None else goal_index
        return _cached_route(g, self, entry, gi)


@dataclass(frozen=True)
class RandomWalkStrategy:
    """Goal-biased random walk.

    At each junction the next edge is drawn with probability proportional to
    exp(-beta * delta), delta being the change in shortest travel-to-goal the
    hop causes. beta = 0 is a uniform walk; beta -> inf recovers the shortest
    path. Walks exceeding MAX_LENGTH_FACTOR times the shortest route (or
    hitting a dead end) raise WanderingError. Each step's candidates and
    their cumulative distribution are kept on the graph per (strategy, goal
    set, edge), so a step is one uniform draw.
    """

    beta: float
    name: str = "random_walk"

    def __post_init__(self):
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")

    def path(
        self, g: RoadGraph, entry: int, rng: np.random.Generator, goal_index: int | None = None
    ) -> list[int]:
        gi = _draw_goal(g, entry, rng) if goal_index is None else goal_index
        goal_set = g.goals[gi]
        dmap = goal_distance_map(g, goal_set)
        length = g.length.tolist()
        base = travel_to_go(length, entry, goal_set, dmap)
        if base == math.inf:
            raise UnreachableGoalError(f"goal set {gi} unreachable from entry edge {entry}")
        max_travel = MAX_LENGTH_FACTOR * base

        path = [entry]
        traveled = 0.0
        cur = entry
        steps = g._walk_steps
        while cur not in g.goal_union:
            if traveled > max_travel:
                raise WanderingError(
                    f"walk from entry {entry} exceeded {MAX_LENGTH_FACTOR:g}x the shortest route"
                )
            step = steps.get((self, gi, cur))
            if step is None:
                step = steps[self, gi, cur] = self._step(g, gi, cur, entry)
            cands, cdf = step
            # The index `rng.choice(len(cands), p=p)` draws; see choice_cdf.
            cur = cands[bisect.bisect_right(cdf, rng.random())]
            path.append(cur)
            traveled += length[cur]
        return path

    def _step(self, g: RoadGraph, gi: int, cur: int, entry: int) -> tuple[list[int], list[float]]:
        """The candidates after edge `cur` on a walk to goal set `gi`, with
        the cumulative distribution `Generator.choice` draws from."""
        cands = g.outgoing(cur)
        if not cands:
            raise WanderingError(f"walk from entry {entry} dead-ended at edge {cur}")
        goal_set = g.goals[gi]
        dmap = goal_distance_map(g, goal_set)
        togo = np.array([travel_to_go(g.length, e, goal_set, dmap) for e in cands])
        if self.beta == 0.0:
            weights = np.ones(len(cands))
        else:
            finite = togo[np.isfinite(togo)]
            if finite.size == 0:
                raise WanderingError(f"walk from entry {entry} lost all routes at edge {cur}")
            weights = np.exp(-self.beta * (togo - finite.min()))
        total = weights.sum()
        if total <= 0:
            raise WanderingError(f"walk from entry {entry} lost all routes at edge {cur}")
        return list(cands), choice_cdf(weights / total)


@dataclass(frozen=True)
class SideRoadsStrategy:
    """Shortest route under weights inflated near well-connected junctions.

    An edge weighs length * (1 + penalty * centrality(head)), centrality being
    the head vertex degree normalized by the graph maximum. penalty = 0 is
    exactly the shortest-path strategy.
    """

    penalty: float
    name: str = "side_roads"

    def __post_init__(self):
        if not 0.0 <= self.penalty < math.inf:
            raise ValueError(f"penalty must be finite and >= 0, got {self.penalty}")

    def path(
        self, g: RoadGraph, entry: int, rng: np.random.Generator, goal_index: int | None = None
    ) -> list[int]:
        gi = _draw_goal(g, entry, rng) if goal_index is None else goal_index
        return _cached_route(g, self, entry, gi, self._weight)

    def _weight(self, g: RoadGraph) -> np.ndarray:
        degree = np.bincount(g.tail, minlength=len(g.xy)) + np.bincount(g.head, minlength=len(g.xy))
        max_deg = int(degree.max()) or 1
        return g.length * (1.0 + self.penalty * degree[g.head] / max_deg)


Strategy = ShortestPathStrategy | RandomWalkStrategy | SideRoadsStrategy

_REGISTRY = {
    "shortest": (ShortestPathStrategy, ()),
    "random_walk": (RandomWalkStrategy, ("beta",)),
    "side_roads": (SideRoadsStrategy, ("penalty",)),
}


def make_strategy(name: str, params: dict | None = None) -> Strategy:
    """Build a strategy from its registry name and parameter map."""
    if not isinstance(name, str) or name not in _REGISTRY:
        raise KeyError(f"unknown strategy {name!r} (known: {sorted(_REGISTRY)})")
    cls, wanted = _REGISTRY[name]
    params = dict(params or {})
    unknown = set(params) - set(wanted)
    if unknown:
        raise ValueError(f"strategy {name!r} got unknown parameters {sorted(unknown)}")
    missing = set(wanted) - set(params)
    if missing:
        raise ValueError(f"strategy {name!r} missing parameters {sorted(missing)}")
    return cls(**{k: float(v) for k, v in params.items()})
