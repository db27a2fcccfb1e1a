"""Per-target probability mass over refined road edges.

The belief starts as a delta on the target's entry edge, is pushed forward
one tick at a time through the target class's transition model, and is
renormalized after every fruitless cell search: mass in searched cells is
scaled by (1 - p) and everything is divided by the probability of the
no-detection event. Mass always sums to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .movement import TransitionModel
from .road_graph import GridOverlay, RefinedGraph

# Entries below this are treated as numerically extinct and pruned (followed
# by renormalization, so pruning never biases the remaining distribution).
PRUNE_EPS = 1e-15

# eta at or below this means the no-detection event has probability zero.
ETA_TOL = 1e-12


class CertainDetection(RuntimeError):
    """The belief implies the target would certainly have been detected."""


@dataclass(eq=False)
class Belief:
    """Edge-occupancy distribution of one target at tick `t`."""

    target_id: int
    t: int
    mass: np.ndarray  # float64 over refined edge ids, sums to 1

    def total(self) -> float:
        return float(self.mass.sum())


@dataclass(eq=False)
class CellBelief:
    """Cell marginal of a Belief: P(c, t) = sum of edge mass inside c."""

    target_id: int
    t: int
    mass: np.ndarray  # float64 over cell ids, sums to 1


def _normalized(mass: np.ndarray) -> np.ndarray:
    """Prune and rescale `mass` in place; callers pass an array they own."""
    mass[mass < PRUNE_EPS] = 0.0
    total = mass.sum()
    if total <= 0.0:
        raise ValueError("belief mass vanished")
    mass /= total
    return mass


def init_belief(g: RefinedGraph, target_id: int, entry_edge: int) -> Belief:
    """Delta distribution on the entry edge where the target appeared."""
    if entry_edge not in g.entries:
        raise ValueError(f"edge {entry_edge} is not an entry edge")
    mass = np.zeros(g.n_edges)
    mass[entry_edge] = 1.0
    return Belief(target_id, 0, mass)


def propagate(b: Belief, model: TransitionModel) -> Belief:
    """Push the belief forward one tick through the movement model."""
    if model.n_edges != b.mass.size:
        raise ValueError(
            f"model covers {model.n_edges} edges, belief has {b.mass.size}"
        )
    if not model.has_row.all():
        bad = np.flatnonzero((b.mass > 0) & ~model.has_row)
        if bad.size:
            raise ValueError(f"model has no distribution for occupied edge {int(bad[0])}")
    return Belief(b.target_id, b.t + 1, _normalized(model.matrix_T @ b.mass))


def cell_marginal(b: Belief, overlay: GridOverlay) -> CellBelief:
    """Sum edge mass per overlay cell."""
    mass = np.bincount(overlay.cell_of_edge, weights=b.mass, minlength=overlay.n_cells)
    return CellBelief(b.target_id, b.t, mass)


def negative_update(
    b: Belief, searched_cells: set[int] | frozenset[int], detect_prob: float, overlay: GridOverlay
) -> Belief:
    """Condition the belief on a fruitless search of `searched_cells`.

    Mass on edges inside searched cells is scaled by (1 - p); everything is
    divided by eta = 1 - p * P(searched). Raises CertainDetection when
    eta <= 0, which is only possible at p = 1 with all mass searched: the
    target would certainly have been found. The tick index does not change.
    """
    if not (0.0 < detect_prob <= 1.0):
        raise ValueError(f"detection probability must be in (0, 1], got {detect_prob}")
    if not searched_cells:
        return Belief(b.target_id, b.t, b.mass.copy())
    searched_edges = overlay.edge_mask(searched_cells)
    searched_mass = float(b.mass[searched_edges].sum())
    eta = 1.0 - detect_prob * searched_mass
    if eta <= ETA_TOL:
        raise CertainDetection("target certainly detected")
    scaled = np.where(searched_edges, b.mass * (1.0 - detect_prob), b.mass) / eta
    return Belief(b.target_id, b.t, _normalized(scaled))


def entropy(cb: CellBelief | np.ndarray) -> float:
    """Shannon entropy of the cell marginal, in bits."""
    mass = cb.mass if isinstance(cb, CellBelief) else cb
    pos = mass[mass > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def goal_mass(b: Belief, g: RefinedGraph) -> float:
    """Probability mass already absorbed on goal edges."""
    idx = np.fromiter(sorted(g.goal_union), dtype=np.int64)
    return float(b.mass[idx].sum()) if idx.size else 0.0
