"""Target movement strategies: how a road-bound target picks its route.

Each strategy turns (graph, entry edge, rng) into a full edge path, the
ground truth behind both simulated targets and the offline traces models are
compiled from; both use it as returned. A path starts at its entry, takes
only road successors and stops at its first goal edge: a walk starts as
`[entry]` and stops on entering `goal_union`, and `_truncate_at_goal` cuts a
route. The tests hold every strategy to this with `validate_path` in
`tests/oracles.py`. A registry maps names to constructors.

The deterministic strategy, `RouteStrategy`, is `side_roads` and, at
penalty 0, `shortest`. It routes with one `shortest_path` search per
(strategy, entry), which answers every goal set at once; the row of routes
is kept on the graph. Which goal sets an entry reaches is read off the
penalty-0 row. A random walk draws each step from a table built for every
edge at once, one per (strategy, goal set), also kept on the graph; its
steps lean on each edge's travel left, one backward `travel_to_goal` search,
and never take an edge from which the goal set is out of reach.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .rng import Rng
from .road_graph import RoadGraph, shortest_path, travel_to_goal

# A walk longer than this multiple of its entry's shortest route is declared lost rather than
# sampled forever. 200,000 beta = 0 walks spawned as trials spawn them on the bundled refined map
# measured median 34.1, p99 229, p99.99 500, max 766; past 200 the share over a length falls
# about 4.5x per 100, so about one walk in ten million would pass 1,000.
MAX_LENGTH_FACTOR = 1000.0


class UnreachableGoalError(ValueError):
    """No goal edge can be reached from the requested entry."""


class WanderingError(RuntimeError):
    """A stochastic walk exceeded the maximum path length."""


def _truncate_at_goal(g: RoadGraph, path: list[int]) -> list[int]:
    # A target wins on entering any goal edge, so the path ends at the first one.
    for i, eid in enumerate(path):
        if eid in g.goal_union:
            return path[: i + 1]
    return path


def _reachable_goals(g: RoadGraph, entry: int) -> list[int]:
    """The goal indices some walk from `entry` reaches, ascending: those whose
    route under edge lengths exists. Finite weights never change whether a
    route exists, so this is the shortest route's cached row."""
    return [gi for gi, route in enumerate(RouteStrategy()._routes(g, entry)) if route is not None]


def _draw_goal(g: RoadGraph, entry: int, rng: Rng) -> int:
    reachable = _reachable_goals(g, entry)
    if not reachable:
        raise UnreachableGoalError(f"no goal reachable from entry edge {entry}")
    return reachable[rng.integers(len(reachable))]


@dataclass(frozen=True)
class RandomWalkStrategy:
    """Goal-biased random walk.

    At each junction the next edge is drawn with probability proportional to
    exp(-beta * delta), delta being the change in shortest travel-to-goal the
    hop causes; an edge from which the goal set is out of reach weighs 0, its
    limit as beta -> 0+. So beta = 0 is uniform over the edges that still
    reach the drawn goal set, no walk from a live entry dead-ends, and beta ->
    inf recovers the shortest path. A walk longer than MAX_LENGTH_FACTOR
    (1,000) times its shortest route is declared lost: WanderingError. Every
    edge's candidates and their cumulative distribution are built at once per
    (strategy, goal set) and kept on the graph, so a step is one uniform draw.
    """

    beta: float

    def __post_init__(self):
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")

    def path(
        self, g: RoadGraph, entry: int, rng: Rng, goal_index: int | None = None
    ) -> list[int]:
        gi = _draw_goal(g, entry, rng) if goal_index is None else goal_index
        table = g._walk_steps.get((self, gi))
        if table is None:
            table = g._walk_steps[self, gi] = self._table(g, g.goals[gi])
        cands, cdf, starts, togo = table
        base = float(togo[entry]) if 0 <= entry < len(togo) else math.inf
        if base == math.inf:
            raise UnreachableGoalError(f"goal set {gi} unreachable from entry edge {entry}")
        max_travel = MAX_LENGTH_FACTOR * base
        length = g._length

        path = [entry]
        traveled = 0.0
        cur = entry
        while cur not in g.goal_union:
            if traveled > max_travel:
                raise WanderingError(f"walk from entry {entry} exceeded {MAX_LENGTH_FACTOR:g}x the shortest route")
            # The candidate `rng.choice(len(row), p=row_p)` draws, from one uniform.
            cur = cands[bisect.bisect_right(cdf, rng.random(), starts[cur], starts[cur + 1])]
            path.append(cur)
            traveled += length[cur]
        return path

    def _table(self, g: RoadGraph, goal_set: frozenset[int]) -> tuple:
        """Every edge's step on a walk to `goal_set`, flat: the candidates
        (`g._next` of each edge in turn), their cumulative distribution
        `Generator.choice` draws from, each edge's first position in both, and
        each edge's travel left once taken (`travel_to_goal`). A candidate
        with infinite travel left weighs 0; a row with no finite candidate,
        which no walk from a live entry reaches, stays all 0. The distribution
        and the first positions are packed `array('d')` and `array('q')`,
        which `bisect` reads as it reads lists, at 8 bytes a value. Rows of
        one out-degree are computed together, each as the arrays of its step
        alone: padded to a wider row, a row's sum adds in another order."""
        # Imported here: loading its shared library costs every command that
        # builds no walk table about 0.07 MB of peak RSS.
        from array import array

        togo = np.array(travel_to_goal(g, goal_set))
        cands = [e for row in g._next for e in row]
        degree = np.array([len(row) for row in g._next], dtype=np.intp)
        starts = np.concatenate(([0], np.cumsum(degree)))
        cand_togo = togo[np.asarray(cands, dtype=np.intp)]
        cdf = np.zeros(len(cands))
        for d in set(degree.tolist()) - {0}:  # rows are independent: any order
            at = starts[np.flatnonzero(degree == d), None] + np.arange(d)
            t = cand_togo[at]
            live = t.min(axis=1) < math.inf  # a row with no finite candidate stays 0
            at, t = at[live], t[live]
            reach = t < math.inf
            w = np.zeros(t.shape)
            with np.errstate(over="ignore"):  # a product past the largest float weighs exp(-inf) = 0
                w[reach] = np.exp(-self.beta * (t - t.min(axis=1)[:, None])[reach])
            c = np.cumsum(w / w.sum(axis=1)[:, None], axis=1)
            cdf[at] = c / c[:, -1:]
        return cands, array("d", cdf.tobytes()), array("q", starts.astype(np.int64).tobytes()), togo


@dataclass(frozen=True)
class RouteStrategy:
    """Pick a goal uniformly, then follow the minimal route to it under
    weights inflated near well-connected junctions.

    An edge weighs length * (1 + penalty * centrality(head)), centrality being
    the head vertex degree normalized by the graph maximum. At penalty = 0
    every weight is the edge length, bit for bit: the shortest route.
    """

    penalty: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.penalty < math.inf:
            raise ValueError(f"penalty must be finite and >= 0, got {self.penalty}")

    def path(
        self, g: RoadGraph, entry: int, rng: Rng, goal_index: int | None = None
    ) -> list[int]:
        gi = _draw_goal(g, entry, rng) if goal_index is None else goal_index
        route = self._routes(g, entry)[gi]
        if route is None:
            raise UnreachableGoalError(f"goal set {gi} unreachable from entry edge {entry}")
        return list(route)

    def _routes(self, g: RoadGraph, entry: int) -> tuple[tuple[int, ...] | None, ...]:
        """The routes from `entry`, one per goal index (None where
        unreachable), each truncated at the first goal edge. One
        `shortest_path` search per (strategy, entry) answers every goal set,
        and the row is kept on the graph."""
        routes = g._route_cache.get((self, entry))
        if routes is None:
            routes = g._route_cache[self, entry] = tuple(
                None if full is None else tuple(_truncate_at_goal(g, full))
                for full in shortest_path(g, entry, weight=self._weight(g))
            )
        return routes

    def _weight(self, g: RoadGraph) -> np.ndarray:
        degree = np.bincount(g.tail, minlength=len(g.xy)) + np.bincount(g.head, minlength=len(g.xy))
        max_deg = int(degree.max()) or 1
        return g.length * (1.0 + self.penalty * degree[g.head] / max_deg)


Strategy = RouteStrategy | RandomWalkStrategy

_REGISTRY = {
    "shortest": (RouteStrategy, ()),
    "random_walk": (RandomWalkStrategy, ("beta",)),
    "side_roads": (RouteStrategy, ("penalty",)),
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


def check_route_weights(g: RoadGraph, strategies: list[Strategy] | tuple[Strategy, ...], label: str, error=ValueError):
    """The rule for route strategies on `g`: their edge weights sum to a finite
    number, as a route whose weight overflows reads as unreachable. A refusal
    raises `error`, its message starting with `label[i]`."""
    for i, s in enumerate(strategies):
        with np.errstate(over="ignore"):
            if isinstance(s, RouteStrategy) and not s._weight(g).sum() < math.inf:
                raise error(f"{label}[{i}]: penalty {s.penalty:g} overflows this map's route weights: "
                            "their sum must be finite")
