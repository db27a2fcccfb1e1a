"""Cell selection for a UAV team searching probabilistic targets.

Selection maximizes the team entropy gain: the drop between the current
belief entropy and the expected post-search entropy, weighted by the chance
the search comes up empty. Greedy selection exploits the diminishing-returns
structure of entropy; a brute-force oracle exists for small instances. On
top sit the assignment policies (per-target coverage, single-entry threshold
seeding, adaptive switching) and the plain probability baselines.
"""

from __future__ import annotations

import itertools
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

BRUTE_FORCE_MAX_CELLS = 15
BRUTE_FORCE_MAX_K = 4

POLICIES = (
    "general",
    "single_entry",
    "adaptive",
    "entropy_only",
    "max_prob",
    "max_avg_prob",
)


@dataclass(frozen=True)
class PolicyConfig:
    """Which cell-selection policy runs, and with what planning constants."""

    policy: str = "adaptive"
    threshold: float = DEFAULT_THRESHOLD
    detect_prob: float | None = None  # None: use the team-minimum p_i

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; known: {POLICIES}")
        if not (0.0 <= self.threshold):
            raise ValueError("threshold must be non-negative")
        if self.detect_prob is not None and not (0.0 < self.detect_prob <= 1.0):
            raise ValueError("planning detection probability must be in (0, 1]")


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


def team_gain(cell_beliefs: Sequence[np.ndarray], cells: set[int] | frozenset[int], p: float) -> float:
    """Sum of per-target entropy gains for one shared cell set."""
    return sum(entropy_gain(cb, cells, p) for cb in cell_beliefs)


class _TargetGainState:
    """Per-target running state for incremental greedy gain evaluation.

    Keeps P(searched), sum of P log2 P over searched cells, and the product
    weight, from which the gain of (state + one candidate cell) follows in
    closed form for every candidate at once. Candidates whose eta falls below
    EXACT_GAIN_ETA get the explicit-set `entropy_gain` instead.
    """

    def __init__(self, cb: np.ndarray, p: float, seeded: np.ndarray):
        self.p = p
        self.P = cb
        self.searched = set(seeded.tolist())
        logP = np.zeros_like(self.P)
        np.log2(self.P, out=logP, where=self.P > 0.0)
        self.PlogP = self.P * logP
        self.E = float(-self.PlogP.sum())
        self.T = float(self.P[seeded].sum())
        self.SH = float(self.PlogP[seeded].sum())
        self.W = float(np.prod(1.0 - p * self.P[seeded])) if seeded.size else 1.0

    def candidate_gains(self) -> np.ndarray:
        """Gain of searching (conditioned cells + c), for every cell c."""
        p = self.p
        Tn = self.T + self.P
        SHn = self.SH + self.PlogP
        Wn = self.W * (1.0 - p * self.P)
        eta = 1.0 - p * Tn
        safe = eta > ETA_TOL
        log_eta = np.zeros_like(eta)
        np.log2(eta, out=log_eta, where=safe)
        with np.errstate(divide="ignore", invalid="ignore"):
            # Unsearched cells contribute -(1/eta) * (P log2 P - P log2 eta).
            unsearched = -((-self.E - SHn) - (1.0 - Tn) * log_eta) / eta
            if p < 1.0:
                searched = -((1.0 - p) / eta) * (SHn + Tn * (math.log2(1.0 - p) - log_eta))
            else:
                searched = 0.0
            gains = self.E - Wn * (unsearched + searched)
        gains[~safe] = self.E  # detection certain: the full entropy is gained
        for c in np.flatnonzero(safe & (eta < EXACT_GAIN_ETA)).tolist():
            if c not in self.searched:
                gains[c] = entropy_gain(self.P, self.searched | {c}, p)
        return gains

    def add(self, cell: int) -> None:
        self.searched.add(cell)
        self.T += float(self.P[cell])
        self.SH += float(self.PlogP[cell])
        self.W *= 1.0 - self.p * float(self.P[cell])


def greedy_select(
    cell_beliefs: Sequence[np.ndarray],
    k: int,
    p: float,
    excluded: set[int] | frozenset[int] = frozenset(),
) -> list[int]:
    """Pick k cells by iterated largest marginal team entropy gain.

    Excluded cells are never picked but do condition the gain (they count as
    already searched in the product weight and the renormalization), which is
    what assignment seeding requires. Ties break toward the lowest cell id.
    """
    _check_p(p)
    if not cell_beliefs:
        raise ValueError("need at least one cell belief")
    n_cells = cell_beliefs[0].size
    if k < 0 or k + len(excluded) > n_cells:
        raise ValueError(f"cannot pick {k} cells with {len(excluded)} excluded out of {n_cells}")
    seeded = np.fromiter(excluded, dtype=np.int64) if excluded else np.empty(0, dtype=np.int64)
    states = [_TargetGainState(cb, p, seeded) for cb in cell_beliefs]
    blocked = np.zeros(n_cells, dtype=bool)
    blocked[seeded] = True
    chosen: list[int] = []
    for _ in range(k):
        total = np.zeros(n_cells)
        for st in states:
            total += st.candidate_gains()
        total[blocked] = -np.inf
        cell = int(np.argmax(total))
        chosen.append(cell)
        blocked[cell] = True
        for st in states:
            st.add(cell)
    return chosen


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
    seeds = {int(np.argmax(cb)) for cb in cell_beliefs}
    if len(seeds) >= m:
        best = {c: max(float(cb[c]) for cb in cell_beliefs) for c in seeds}
        return set(sorted(seeds, key=lambda c: (-best[c], c))[:m])
    picks = greedy_select(cell_beliefs, m - len(seeds), p, excluded=seeds)
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


def select_cells(
    cfg: PolicyConfig,
    cell_beliefs: Sequence[np.ndarray],
    m: int,
    team_detect_prob: float,
) -> set[int]:
    """Dispatch to the configured policy. Planning uses the configured
    detection probability, defaulting to the team minimum."""
    p = cfg.detect_prob if cfg.detect_prob is not None else team_detect_prob
    if cfg.policy == "general":
        return assign_general(cell_beliefs, m, p)
    if cfg.policy == "single_entry":
        return assign_single_entry(np.mean(cell_beliefs, axis=0), m, p, cfg.threshold)
    if cfg.policy == "adaptive":
        return policy_adaptive(cell_beliefs, m, p)
    if cfg.policy == "entropy_only":
        return policy_entropy_only(cell_beliefs, m, p)
    if cfg.policy == "max_prob":
        return policy_max_prob(cell_beliefs, m)
    if cfg.policy == "max_avg_prob":
        return policy_max_avg_prob(cell_beliefs, m)
    raise ValueError(f"unknown policy {cfg.policy!r}")


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
    pairs = []
    for uid in sorted(positions):
        x, y = positions[uid]
        for cid in sorted(cells):
            cx, cy = overlay.cell_center(cid)
            pairs.append((math.hypot(cx - x, cy - y), uid, cid))
    pairs.sort()
    assigned: dict[int, int] = {}
    used: set[int] = set()
    for _, uid, cid in pairs:
        if uid in assigned or cid in used:
            continue
        assigned[uid] = cid
        used.add(cid)
    return assigned
