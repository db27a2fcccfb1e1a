"""Reference oracles the tests check the library against.

`team_gain` and `brute_force_select` are the exhaustive planner: the exact
team entropy gain of a cell set and its argmax over every k-subset.
`default_pool` and `split_pool` build the strategy pool and its disjoint
train / test halves that the unknown-behavior experiments draw from.
`model_from_rows` and `model_rows` convert a movement model to and from the
`{src: ((dst, prob), ...)}` form the model tests write out by hand.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from uav_search.movement import TransitionModel
from uav_search.planner import _check_p, entropy_gain
from uav_search.strategies import RandomWalkStrategy, ShortestPathStrategy, SideRoadsStrategy, Strategy

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
    _check_p(p)
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
    pool: list[Strategy] = [ShortestPathStrategy()]
    pool.extend(RandomWalkStrategy(beta=float(b)) for b in np.geomspace(3e-4, 3e-2, n_walk))
    pool.extend(SideRoadsStrategy(penalty=float(p)) for p in np.linspace(0.25, 4.0, n_side))
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
