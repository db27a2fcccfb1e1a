"""Target movement strategies: how a road-bound target picks its route.

Each strategy turns (graph, entry edge, rng) into a full edge path, the
ground truth behind simulated targets (`path`, one stream) and the offline
traces models are compiled from (`paths`, many streams); both use it as
returned. A path starts at its entry, takes only road successors and stops
at its first goal edge: a walk starts as `[entry]` and stops on entering
`goal_union`, and `_truncate_at_goal` cuts a route. The tests hold every
strategy to this with `validate_path` in `tests/oracles.py`. A registry
maps names to constructors.

The deterministic strategy, `RouteStrategy`, is `side_roads` and, at
penalty 0, `shortest`. It routes with one `shortest_path` search per
(strategy, entry), which answers every goal set at once; the row of routes
is kept on the graph. Which goal sets an entry reaches is read off the
penalty-0 row. A random walk draws each step from a table built for every
edge at once, one per (strategy, goal set), also kept on the graph; its
steps lean on each edge's travel left, one backward `travel_to_goal` search,
and never take an edge from which the goal set is out of reach. A step has
one rule: draw u, and take the candidate after the row's CDF entries <= u.
Many walks apply it in lanes, one uniform a live lane a step (`_lanes`),
until few are live or a walk outgrows its lane; a walk goes on alone, as a
trial's one walk does, with `bisect_right` over the same row (`_walk`).
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .rng import Lanes, Rng
from .road_graph import ConfigError, RoadGraph, edge_dtype, shortest_path, travel_to_goal

# A walk longer than this multiple of its entry's shortest route is declared lost rather than
# sampled forever. 200,000 beta = 0 walks spawned as trials spawn them on the bundled refined map
# measured median 34.1, p99 229, p99.99 500, max 766; past 200 the share over a length falls
# about 4.5x per 100, so about one walk in ten million would pass 1,000.
MAX_LENGTH_FACTOR = 1000.0

# Walks step in lanes in batches of at most LANE_BATCH, each walk holding at most
# LANE_CELLS // LANE_BATCH = 64 edges there (64 KB of int16 ids on the bundled map, where a
# random_walk:beta=0.01 walk holds at most 45); a longer walk finishes alone. Under LANE_MIN
# live walks the rest finish alone too: a lane step costs about 75 us whatever its lane count,
# a walk's step alone about 1 us, and the benchmark's walks took the same time at any
# LANE_MIN from 8 to 48 (2-CPU host).
LANE_BATCH = 512
LANE_CELLS = 1 << 15
LANE_MIN = 32


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


def _base(table: tuple, entry: int) -> float:
    """The shortest travel to the goal set of `table` from `entry`: inf when unreachable."""
    return float(table[3][entry]) if 0 <= entry < len(table[3]) else math.inf


def _lost(entry: int) -> WanderingError:
    return WanderingError(f"walk from entry {entry} exceeded {MAX_LENGTH_FACTOR:g}x the shortest route")


def _walk(g: RoadGraph, table: tuple, path: list[int], traveled: float, max_travel: float, rng) -> list[int]:
    """Continue `path`, `traveled` meters past its entry, to its first goal edge, one
    `rng.random()` a step: the step rule on one walk, its count of the row's CDF entries <= u
    by `bisect_right`. Past `max_travel` the walk is lost: WanderingError."""
    cands, cdf, first, _ = table
    length, cur = g._length, path[-1]
    while cur not in g.goal_union:
        if traveled > max_travel:
            raise _lost(path[0])
        cur = cands[bisect.bisect_right(cdf, rng.random(), first[cur], first[cur + 1])]
        path.append(cur)
        traveled += length[cur]
    return path


def _lanes(g: RoadGraph, starts: list[tuple[int, int]], tables: dict, bases: np.ndarray, lanes: Lanes) -> tuple:
    """The lane phase of a batch of walks: while at least LANE_MIN walks are live and none
    holds LANE_CELLS // LANE_BATCH edges, every lane draws one uniform a step, and each live
    walk takes `cands[first[cur] + c]`, c the count of its row's CDF entries <= u: the step
    rule of `_walk`, as each row is sorted and ends at 1.0. Returns the (walks x edges) id
    matrix in the graph's `edge_dtype`, and per walk, as lists, the edges it holds, whether it
    is done, whether it is lost and its travel. A reachable walk that is neither goes on alone."""
    n, width = len(starts), LANE_CELLS // LANE_BATCH
    cands, _, first, _ = next(iter(tables.values()))  # the same candidates and rows for every goal set
    cands, first = np.array(cands), np.frombuffer(first, dtype=np.int64)
    degree = np.diff(first)
    cols = np.arange(degree.max(initial=1))
    # Every goal set's CDF in one array, padded so that a row's reads past its end stay in it.
    cdf = np.concatenate([np.frombuffer(tables[gi][1]) for gi in tables] + [np.ones(cols.size)])
    at = {gi: k * cands.size for k, gi in enumerate(tables)}
    offset = np.array([at[gi] for _, gi in starts])
    is_goal = np.zeros(g.n_edges, dtype=bool)
    is_goal[list(g.goal_union)] = True
    limit = MAX_LENGTH_FACTOR * bases
    reach = live = limit < math.inf
    cur = np.where(reach, [entry for entry, _ in starts], 0)
    ids = np.zeros((n, width), dtype=edge_dtype(g.n_edges))
    ids[:, 0] = cur
    held, traveled = np.ones(n, dtype=np.intp), np.zeros(n)
    for t in range(1, width + 1):
        held[live] = t  # a live walk holds columns 0 to t - 1
        live = live & ~is_goal[cur] & ~(traveled > limit)
        if t == width or np.count_nonzero(live) < LANE_MIN:
            break
        u = lanes.random()  # a stopped lane's stream is never read again
        row = first[cur]
        below = (cdf[(offset + row)[:, None] + cols] <= u[:, None]) & (cols < degree[cur][:, None])
        cur = cands.take(row + below.sum(axis=1), mode="clip")
        ids[:, t] = cur
        traveled += g.length[cur]
    done = reach & ~live & is_goal[ids[np.arange(n), held - 1]]
    lost = reach & ~live & ~done
    return ids[:, :held.max()].copy(), held.tolist(), done.tolist(), lost.tolist(), traveled.tolist()


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
    (strategy, goal set) and kept on the graph, so a step is one uniform draw,
    in lanes (`paths`) or on one walk (`path`).
    """

    beta: float

    def __post_init__(self):
        if not 0.0 <= self.beta < math.inf:
            raise ConfigError(f"beta must be finite and >= 0, got {self.beta}")

    def path(
        self, g: RoadGraph, entry: int, rng: Rng, goal_index: int | None = None
    ) -> list[int]:
        gi = _draw_goal(g, entry, rng) if goal_index is None else goal_index
        table = self._steps(g, gi)
        base = _base(table, entry)
        if base == math.inf:
            raise UnreachableGoalError(f"goal set {gi} unreachable from entry edge {entry}")
        return _walk(g, table, [entry], 0.0, MAX_LENGTH_FACTOR * base, rng)

    def paths(self, g: RoadGraph, starts: list[tuple[int, int]], lanes: Lanes) -> Iterator:
        """The walk of each stream `lanes[i]` from its (entry, goal index) `starts[i]`, in
        order: a list, or a row of the lane phase's id matrix; None where the goal set is
        unreachable. Streams walk in batches of at most LANE_BATCH; the first lost walk in
        order raises WanderingError, whichever lane passed its cap first."""
        for a in range(0, len(starts), LANE_BATCH):
            yield from self._batch(g, starts[a:a + LANE_BATCH], lanes[a:a + LANE_BATCH])

    def _batch(self, g: RoadGraph, starts: list[tuple[int, int]], lanes: Lanes) -> Iterator:
        tables = {gi: self._steps(g, gi) for gi in dict.fromkeys(gi for _, gi in starts)}
        bases = [_base(tables[gi], entry) for entry, gi in starts]
        ids, held, done, lost, traveled = _lanes(g, starts, tables, np.array(bases), lanes)
        for i, (entry, gi) in enumerate(starts):
            if bases[i] == math.inf:
                yield None
            elif lost[i]:
                raise _lost(entry)
            elif done[i]:
                yield ids[i, :held[i]]
            else:
                path = ids[i, :held[i]].tolist()
                yield _walk(g, tables[gi], path, traveled[i], MAX_LENGTH_FACTOR * bases[i], lanes[i])

    def _steps(self, g: RoadGraph, gi: int) -> tuple:
        """The step table of a walk to goal set `gi`, built on first use and kept on the graph."""
        table = g._walk_steps.get((self, gi))
        if table is None:
            table = g._walk_steps[self, gi] = self._table(g, g.goals[gi])
        return table

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
            raise ConfigError(f"penalty must be finite and >= 0, got {self.penalty}")

    def path(
        self, g: RoadGraph, entry: int, rng: Rng, goal_index: int | None = None
    ) -> list[int]:
        gi = _draw_goal(g, entry, rng) if goal_index is None else goal_index
        route = self._routes(g, entry)[gi]
        if route is None:
            raise UnreachableGoalError(f"goal set {gi} unreachable from entry edge {entry}")
        return list(route)

    def paths(self, g: RoadGraph, starts: list[tuple[int, int]], lanes: Lanes) -> Iterator:
        """The route from each (entry, goal index) of `starts`, in order, None where
        unreachable: a route draws nothing from its stream in `lanes`."""
        return (self._routes(g, entry)[gi] for entry, gi in starts)

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
    """Build a strategy from its registry name and parameter map; an unknown
    name raises KeyError, a refused parameter ConfigError."""
    if not isinstance(name, str) or name not in _REGISTRY:
        raise KeyError(f"unknown strategy {name!r} (known: {sorted(_REGISTRY)})")
    cls, wanted = _REGISTRY[name]
    params = dict(params or {})
    unknown = set(params) - set(wanted)
    if unknown:
        raise ConfigError(f"strategy {name!r} got unknown parameters {sorted(unknown)}")
    missing = set(wanted) - set(params)
    if missing:
        raise ConfigError(f"strategy {name!r} missing parameters {sorted(missing)}")
    return cls(**{k: float(v) for k, v in params.items()})


def check_route_weights(g: RoadGraph, strategies: list[Strategy] | tuple[Strategy, ...], label: str):
    """The rule for route strategies on `g`: their edge weights sum to a finite
    number, as a route whose weight overflows reads as unreachable. A refusal
    raises ConfigError, its message starting with `label[i]`."""
    for i, s in enumerate(strategies):
        with np.errstate(over="ignore"):
            if isinstance(s, RouteStrategy) and not s._weight(g).sum() < math.inf:
                raise ConfigError(f"{label}[{i}]: penalty {s.penalty:g} overflows this map's route weights: "
                                  "their sum must be finite")
