"""Cell selection for a UAV team searching probabilistic targets.

Selection maximizes the team entropy gain: the drop between the current
belief entropy and the expected post-search entropy, weighted by the chance
the search comes up empty. Greedy selection exploits the diminishing-returns
structure of entropy: each pick scores every cell for every target at once
from (targets x cells) arrays. On top sit the assignment policies
(per-target coverage, single-entry threshold seeding, adaptive switching) and
the probability baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .belief import CertainDetection, ETA_TOL, entropy
from .road_graph import GridOverlay

DEFAULT_THRESHOLD = 0.2

# Below this eta, candidate_gains uses the explicit-set gain: the closed form
# divides sums of P log2 P by eta, and its error (measured: ~1e-15 / eta bits) grows.
EXACT_GAIN_ETA = 1e-3


@dataclass(frozen=True)
class PolicyConfig:
    """Which cell-selection policy runs, and with what planning constants."""

    policy: str = "adaptive"
    threshold: float = DEFAULT_THRESHOLD
    detect_prob: float | None = None  # None: use the team-minimum p_i

    def __post_init__(self):
        # Messages start with the scenario-file key, so a parser can prefix its path.
        if not isinstance(self.policy, str) or self.policy not in POLICIES:
            raise ValueError(f"name: unknown policy {self.policy!r} (known: {list(POLICIES)})")
        if not self.threshold >= 0.0:
            raise ValueError(f"threshold: must be >= 0.0, got {self.threshold}")
        if self.detect_prob is not None and not (0.0 < self.detect_prob <= 1.0):
            raise ValueError(f"detect_prob: must be in (0, 1], got {self.detect_prob}")


def _check_p(p: float) -> None:
    if not (0.0 < p <= 1.0):
        raise ValueError(f"detection probability must be in (0, 1], got {p}")


def temporal_entropy(cb: np.ndarray, cells: set[int] | frozenset[int], p: float) -> float:
    """Entropy of the belief conditioned on a fruitless search of `cells`.

    Searched cells keep (1 - p) of their mass, everything is renormalized by
    eta = 1 - p * P(searched). Raises CertainDetection at eta <= 0 (only
    possible when p = 1 and the searched cells hold all mass).
    """
    _check_p(p)
    idx = np.fromiter(cells, dtype=np.int64) if cells else np.empty(0, dtype=np.int64)
    eta = 1.0 - p * float(cb[idx].sum())
    if eta <= ETA_TOL:
        raise CertainDetection("target certainly detected")
    temp = cb.copy()
    temp[idx] *= 1.0 - p
    return entropy(temp / eta)


def entropy_gain(cb: np.ndarray, cells: set[int] | frozenset[int], p: float) -> float:
    """Expected entropy drop from searching `cells` simultaneously.

    gain = E - prod_c (1 - p * P(c)) * temporal_entropy(cells). When the
    search is certain to find the target (eta <= 0) the whole entropy is
    gained.
    """
    _check_p(p)
    current = entropy(cb)
    idx = np.fromiter(cells, dtype=np.int64) if cells else np.empty(0, dtype=np.int64)
    weight = float(np.prod(1.0 - p * cb[idx])) if idx.size else 1.0
    try:
        return current - weight * temporal_entropy(cb, cells, p)
    except CertainDetection:
        return current


class _GainKernel:
    """Greedy gain state of a team: rows are targets, columns are cells.

    Per target: entropy E and, over the searched cells, mass T, sum SH of
    P log2 P and product weight W. The gain of (searched + c) follows in
    closed form; below EXACT_GAIN_ETA, `entropy_gain` gives it instead.
    """

    def __init__(self, P: np.ndarray, p: float, seeded: np.ndarray):
        self.p = p
        self.P = P
        self.searched = set(seeded.tolist())
        logP = np.zeros_like(P)
        np.log2(P, out=logP, where=P > 0.0)
        self.PlogP = P * logP
        self.keep = 1.0 - p * P
        # Row sums of C-ordered arrays (`take` keeps C order) add as a 1-D array does.
        self.E = -self.PlogP.sum(axis=1, keepdims=True)
        self.T = P.take(seeded, axis=1).sum(axis=1, keepdims=True)
        self.SH = self.PlogP.take(seeded, axis=1).sum(axis=1, keepdims=True)
        self.W = self.keep.take(seeded, axis=1).prod(axis=1, keepdims=True)

    def candidate_gains(self) -> np.ndarray:
        """Gain of searching (searched cells + c), per target and cell c."""
        p = self.p
        Tn = self.T + self.P
        SHn = self.SH + self.PlogP
        eta = 1.0 - p * Tn
        with np.errstate(divide="ignore", invalid="ignore"):
            log_eta = np.log2(eta)  # may be -inf or nan only where eta <= ETA_TOL: reset below
            # Unsearched cells contribute -(1/eta) * (P log2 P - P log2 eta).
            post = -((-self.E - SHn) - (1.0 - Tn) * log_eta) / eta
            if p < 1.0:
                post += -((1.0 - p) / eta) * (SHn + Tn * (math.log2(1.0 - p) - log_eta))
            gains = self.E - self.W * self.keep * post
        if eta.min() < EXACT_GAIN_ETA:
            # Detection is certain where eta <= ETA_TOL: the full entropy is gained.
            np.copyto(gains, self.E, where=eta <= ETA_TOL)
            near = (eta > ETA_TOL) & (eta < EXACT_GAIN_ETA)
            near[:, list(self.searched)] = False
            for t, c in zip(*np.nonzero(near)):
                gains[t, c] = entropy_gain(self.P[t], self.searched | {int(c)}, p)
        return gains

    def add(self, cell: int) -> None:
        self.searched.add(cell)
        self.T += self.P[:, cell, None]
        self.SH += self.PlogP[:, cell, None]
        self.W *= self.keep[:, cell, None]


def greedy_select(
    cell_beliefs: Sequence[np.ndarray],
    k: int,
    p: float,
    excluded: set[int] | frozenset[int] = frozenset(),
) -> list[int]:
    """Pick k cells by iterated largest marginal team entropy gain.

    A (targets x cells) array of cell beliefs is used without a copy.
    Excluded cells are never picked but do condition the gain (they count as
    already searched in the product weight and the renormalization), which is
    what assignment seeding requires. Ties break toward the lowest cell id.
    """
    _check_p(p)
    if len(cell_beliefs) == 0:
        raise ValueError("need at least one cell belief")
    P = np.ascontiguousarray(cell_beliefs, dtype=float)
    n_cells = P.shape[1]
    if k < 0 or k + len(excluded) > n_cells:
        raise ValueError(f"cannot pick {k} cells with {len(excluded)} excluded out of {n_cells}")
    kernel = _GainKernel(P, p, np.fromiter(excluded, dtype=np.int64))
    chosen: list[int] = []
    for _ in range(k):
        total = np.zeros(n_cells)
        for row in kernel.candidate_gains():  # in target order, as the team gain sums
            total += row
        total[list(kernel.searched)] = -np.inf
        cell = int(np.argmax(total))
        chosen.append(cell)
        kernel.add(cell)
    return chosen


# ---------------------------------------------------------------------------
# Assignment policies


def assign_general(cell_beliefs: Sequence[np.ndarray], m: int, p: float) -> set[int]:
    """Seed with every target's most likely cell, fill the rest greedily.

    With more seeds than UAVs, the m cells with the largest per-target
    probability win. Otherwise the remaining picks maximize marginal team
    entropy gain conditioned on the seeded cells.
    """
    if m == 0:
        return set()
    _check_p(p)
    P = np.asarray(cell_beliefs)
    seeds = set(np.argmax(P, axis=1).tolist())
    if len(seeds) >= m:
        best = P.max(axis=0)
        return set(sorted(seeds, key=lambda c: (-best[c], c))[:m])
    picks = greedy_select(P, m - len(seeds), p, excluded=seeds)
    return seeds | set(picks)


def assign_single_entry(cb: np.ndarray, m: int, p: float, threshold: float = DEFAULT_THRESHOLD) -> set[int]:
    """Single shared belief: seed its peak cell once it clears `threshold`.

    If some cell holds at least `threshold` probability, the largest such
    cell is taken and the remaining m - 1 picks are greedy conditioned on it;
    below the threshold the whole selection is greedy.
    """
    if m == 0:
        return set()
    _check_p(p)
    qualifying = cb >= threshold
    if qualifying.any():
        peak = int(np.argmax(np.where(qualifying, cb, -np.inf)))
        rest = greedy_select([cb], m - 1, p, excluded={peak}) if m > 1 else []
        return {peak} | set(rest)
    return set(greedy_select([cb], m, p))


def _top_m(mass: np.ndarray, m: int) -> set[int]:
    order = np.argsort(-mass, kind="stable")  # stable: ties fall to lower ids
    return set(int(c) for c in order[:m])


def policy_max_prob(cell_beliefs: Sequence[np.ndarray], m: int) -> set[int]:
    """Top-m cells of the per-cell maximum probability over targets."""
    return _top_m(np.max(cell_beliefs, axis=0), m)


def policy_max_avg_prob(cell_beliefs: Sequence[np.ndarray], m: int) -> set[int]:
    """Top-m cells of the per-cell mean probability over targets."""
    return _top_m(np.mean(cell_beliefs, axis=0), m)


def policy_entropy_only(cell_beliefs: Sequence[np.ndarray], m: int, p: float) -> set[int]:
    """Pure greedy entropy-gain selection, no probability seeding."""
    return set(greedy_select(cell_beliefs, m, p))


def policy_adaptive(cell_beliefs: Sequence[np.ndarray], m: int, p: float) -> set[int]:
    """Entropy-first while outnumbered, per-target coverage otherwise.

    With more undetected targets than UAVs the uncertainty-reduction greedy
    runs; otherwise the general per-target assignment takes over.
    """
    if len(cell_beliefs) > m:
        return policy_entropy_only(cell_beliefs, m, p)
    return assign_general(cell_beliefs, m, p)


# Policy name -> selection from (cell beliefs, UAV count, planning p, threshold).
POLICIES = {
    "general": lambda cbs, m, p, threshold: assign_general(cbs, m, p),
    "single_entry": lambda cbs, m, p, threshold: assign_single_entry(np.mean(cbs, axis=0), m, p, threshold),
    "adaptive": lambda cbs, m, p, threshold: policy_adaptive(cbs, m, p),
    "entropy_only": lambda cbs, m, p, threshold: policy_entropy_only(cbs, m, p),
    "max_prob": lambda cbs, m, p, threshold: policy_max_prob(cbs, m),
    "max_avg_prob": lambda cbs, m, p, threshold: policy_max_avg_prob(cbs, m),
}


def select_cells(
    cfg: PolicyConfig,
    cell_beliefs: Sequence[np.ndarray],
    m: int,
    team_detect_prob: float,
) -> set[int]:
    """Dispatch to the configured policy. Planning uses the configured
    detection probability, defaulting to the team minimum."""
    p = cfg.detect_prob if cfg.detect_prob is not None else team_detect_prob
    return POLICIES[cfg.policy](cell_beliefs, m, p, cfg.threshold)


def match_uavs_to_cells(
    positions: dict[int, tuple[float, float]],
    cells: set[int] | frozenset[int],
    overlay: GridOverlay,
) -> dict[int, int]:
    """Pair UAVs with selected cells, globally closest pair first.

    Distance ties break toward the lower UAV id, then the lower cell id.
    Every cell is assigned; surplus UAVs stay unassigned.
    """
    if len(cells) > len(positions):
        raise ValueError(f"{len(cells)} cells for only {len(positions)} UAVs")
    centers = [(cid, *overlay.centers[cid]) for cid in sorted(cells)]
    pairs = [
        (math.hypot(cx - x, cy - y), uid, cid)
        for uid, (x, y) in sorted(positions.items())
        for cid, cx, cy in centers
    ]
    pairs.sort()
    assigned: dict[int, int] = {}
    used: set[int] = set()
    for _, uid, cid in pairs:
        if uid in assigned or cid in used:
            continue
        assigned[uid] = cid
        used.add(cid)
    return assigned
