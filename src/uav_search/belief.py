"""Per-target probability mass over refined road edges.

A belief is a plain float64 array over refined edge ids; its cell marginal
is a float64 array over cell ids. The belief starts as a delta on the
target's entry edge, is pushed forward one tick at a time through the
target class's transition model (each edge's mass scattered onto its
successors with `np.bincount`), and is renormalized after every fruitless
cell search: mass in searched cells is scaled by (1 - p) and everything is
divided by the probability of the no-detection event. Mass always sums to 1.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .movement import TransitionModel
from .road_graph import GridOverlay, RoadGraph

# Entries below this are treated as numerically extinct and pruned (followed
# by renormalization, so pruning never biases the remaining distribution).
PRUNE_EPS = 1e-15

# eta at or below this means the no-detection event has probability zero.
ETA_TOL = 1e-12


class CertainDetection(RuntimeError):
    """The belief implies the target would certainly have been detected."""


def check_detect_prob(p: float, error: type[ValueError] = ValueError) -> None:
    """The detection-probability rule, p in (0, 1], for every reader of a p;
    a refusal raises `error`, its message starting with the scenario key."""
    if not 0.0 < p <= 1.0:
        raise error(f"detect_prob: must be in (0, 1], got {p}")


def _normalized(mass: np.ndarray) -> np.ndarray:
    """Prune and rescale `mass` in place; callers pass an array they own."""
    np.putmask(mass, mass < PRUNE_EPS, 0.0)
    total = mass.sum()
    if total <= 0.0:
        raise ValueError("belief mass vanished")
    mass /= total
    return mass


def init_belief(g: RoadGraph, entry_edge: int) -> np.ndarray:
    """Delta distribution on the entry edge where the target appeared."""
    if entry_edge not in g.entries:
        raise ValueError(f"edge {entry_edge} is not an entry edge")
    mass = np.zeros(g.n_edges)
    mass[entry_edge] = 1.0
    return mass


def propagate(mass: np.ndarray, model: TransitionModel) -> np.ndarray:
    """Push the belief forward one tick through the movement model: each
    transition's share `prob * mass[src]` is added onto its `dst`, in the
    model's row order."""
    if model.n_edges != mass.size:
        raise ValueError(
            f"model covers {model.n_edges} edges, belief has {mass.size}"
        )
    if model.rowless.size:
        held = model.rowless[mass[model.rowless] > 0]
        if held.size:
            raise ValueError(f"model has no distribution for occupied edge {int(held[0])}")
    return _normalized(np.bincount(model.dst, model.prob * mass[model.src], model.n_edges))


def cell_marginal(mass: np.ndarray, overlay: GridOverlay) -> np.ndarray:
    """Sum edge mass per overlay cell."""
    return np.bincount(overlay.cell_of_edge, weights=mass, minlength=overlay.n_cells)


def negative_update(
    mass: np.ndarray, searched_cells: Iterable[int], detect_prob: float, overlay: GridOverlay
) -> np.ndarray:
    """Condition the belief on a fruitless search of `searched_cells`, any iterable of cell ids.

    Mass on edges inside searched cells is scaled by (1 - p); everything is
    divided by eta = 1 - p * P(searched). Raises CertainDetection when
    eta <= 0, which is only possible at p = 1 with all mass searched: the
    target would certainly have been found. Returns a new array.
    """
    check_detect_prob(detect_prob)
    if not searched_cells:
        return mass.copy()
    searched_edges = overlay.edge_mask(searched_cells)
    searched_mass = float(mass[searched_edges].sum())
    eta = 1.0 - detect_prob * searched_mass
    if eta <= ETA_TOL:
        raise CertainDetection("target certainly detected")
    scaled = np.where(searched_edges, mass * (1.0 - detect_prob), mass) / eta
    return _normalized(scaled)


def entropy(mass: np.ndarray) -> float:
    """Shannon entropy of a distribution (a cell marginal), in bits."""
    pos = mass[mass > 0.0]
    return float(-(pos * np.log2(pos)).sum())

