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

from .belief import CertainDetection, ETA_TOL, check_detect_prob, entropy
from .road_graph import GridOverlay

DEFAULT_THRESHOLD = 0.2

# Below this eta, candidate_gains uses the explicit-set gain: the closed form
# divides sums of P log2 P by eta, and its error (measured: ~1e-15 / eta bits) grows.
EXACT_GAIN_ETA = 1e-3

# The policy names PolicyConfig accepts; select_cells runs them.
POLICIES = ("general", "single_entry", "adaptive", "entropy_only", "max_prob", "max_avg_prob")


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
        if self.detect_prob is not None:
            check_detect_prob(self.detect_prob)


def temporal_entropy(cb: np.ndarray, cells: set[int] | frozenset[int], p: float) -> float:
    """Entropy of the belief conditioned on a fruitless search of `cells`.

    Searched cells keep (1 - p) of their mass, everything is renormalized by
    eta = 1 - p * P(searched). Raises CertainDetection at eta <= 0 (only
    possible when p = 1 and the searched cells hold all mass).
    """
    check_detect_prob(p)
    idx = np.fromiter(cells, dtype=np.int64)
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
    current = entropy(cb)
    weight = float(np.prod(1.0 - p * cb[np.fromiter(cells, dtype=np.int64)]))  # 1.0 for no cells
    try:
        return current - weight * temporal_entropy(cb, cells, p)
    except CertainDetection:
        return current


class _GainKernel:
    """Greedy gain state of a team: rows are targets, columns are cells.

    Per target: entropy E and, over the searched cells, mass T, sum SH of
    P log2 P and product weight W. The gain of (searched + c) follows in
    closed form; below EXACT_GAIN_ETA, `entropy_gain` gives it instead.
    Every (targets x cells) array is a row of one block allocated here, and
    each closed-form step writes into it, so `candidate_gains` allocates
    none. Rows that take the same operation are adjacent, so one call serves
    both.
    """

    def __init__(self, P: np.ndarray, p: float, seeded: np.ndarray):
        self.p = p
        self.searched = set(seeded.tolist())
        block = np.empty((11,) + P.shape)
        (self.P, self.PlogP, self.pTn, self.Tn, self.SHn, self.eta, self.one_minus_Tn,
         self.log_eta, self.post, self.w, self.keep) = block
        self.P_PlogP, self.pTn_Tn, self.Tn_SHn = block[0:2], block[2:4], block[3:5]
        self.eta_one_minus_Tn, self.post_w = block[5:7], block[8:10]
        np.copyto(self.P, P)
        self.PlogP.fill(0.0)
        np.log2(P, out=self.PlogP, where=P > 0.0)
        np.multiply(P, self.PlogP, out=self.PlogP)
        np.multiply(p, P, out=self.keep)
        np.subtract(1.0, self.keep, out=self.keep)
        # Row sums of C-ordered arrays (`take` keeps C order) add as a 1-D array does.
        self.sum_PlogP = self.PlogP.sum(axis=1, keepdims=True)
        self.E = -self.sum_PlogP
        if seeded.size:
            self.T_SH = self.P_PlogP.take(seeded, axis=2).sum(axis=2, keepdims=True)
            self.W = self.keep.take(seeded, axis=1).prod(axis=1, keepdims=True)
        else:  # an empty sum is 0.0 and an empty product 1.0
            self.T_SH = np.zeros((2, P.shape[0], 1))
            self.W = np.ones((P.shape[0], 1))

    def candidate_gains(self) -> np.ndarray:
        """Gain of searching (searched cells + c), per target and cell c.

        The array is the kernel's own buffer, valid until the next call."""
        np.add(self.T_SH, self.P_PlogP, out=self.Tn_SHn)  # Tn = T + P, SHn = SH + P log2 P
        np.multiply(self.p, self.Tn, out=self.pTn)
        np.subtract(1.0, self.pTn_Tn, out=self.eta_one_minus_Tn)  # eta = 1 - p Tn, and 1 - Tn
        eta = self.eta
        eta_min = eta.min()
        if eta_min > 0.0:  # log2 and the divisions cannot warn
            gains = self._closed_form()
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = self._closed_form()  # -inf or nan only where eta <= ETA_TOL: reset below
        if eta_min < EXACT_GAIN_ETA:
            # Detection is certain where eta <= ETA_TOL: the full entropy is gained.
            np.copyto(gains, self.E, where=eta <= ETA_TOL)
            near = (eta > ETA_TOL) & (eta < EXACT_GAIN_ETA)
            near[:, list(self.searched)] = False
            for t, c in zip(*np.nonzero(near)):
                gains[t, c] = entropy_gain(self.P[t], self.searched | {int(c)}, self.p)
        return gains

    def _closed_form(self) -> np.ndarray:
        """E - W * keep * post, where post is the entropy after a fruitless
        search of (searched + c), step by step in the kernel's buffers. A
        quotient is negated after the division rather than its dividend
        before: rounding is symmetric, so the bits are the same."""
        p, Tn, SHn, eta, log_eta, post, w = self.p, self.Tn, self.SHn, self.eta, self.log_eta, self.post, self.w
        np.log2(eta, out=log_eta)
        # Unsearched cells contribute -(1/eta) * (P log2 P - P log2 eta):
        # post = -((-E - SHn) - (1 - Tn) * log_eta) / eta.
        np.multiply(self.one_minus_Tn, log_eta, out=self.one_minus_Tn)
        np.subtract(self.sum_PlogP, SHn, out=post)
        np.subtract(post, self.one_minus_Tn, out=post)
        np.divide(post, eta, out=post)
        if p < 1.0:
            # Searched cells: post += -((1 - p) / eta) * (SHn + Tn * (log2(1 - p) - log_eta)).
            np.divide(1.0 - p, eta, out=w)
            np.negative(self.post_w, out=self.post_w)
            np.subtract(math.log2(1.0 - p), log_eta, out=log_eta)
            np.multiply(Tn, log_eta, out=log_eta)
            np.add(SHn, log_eta, out=log_eta)
            np.multiply(w, log_eta, out=w)
            np.add(post, w, out=post)
        else:
            np.negative(post, out=post)
        np.multiply(self.W, self.keep, out=w)
        np.multiply(w, post, out=w)
        return np.subtract(self.E, w, out=w)

    def add(self, cell: int) -> None:
        self.searched.add(cell)
        self.T_SH += self.P_PlogP[:, :, cell, None]  # T += P[:, cell], SH += PlogP[:, cell]
        self.W *= self.keep[:, cell, None]


def greedy_select(
    cell_beliefs: Sequence[np.ndarray],
    k: int,
    p: float,
    excluded: set[int] | frozenset[int] = frozenset(),
) -> list[int]:
    """Pick k cells by iterated largest marginal team entropy gain.

    The cell beliefs, a (targets x cells) array or a list of rows, are
    copied once into the gain kernel.
    Excluded cells are never picked but do condition the gain (they count as
    already searched in the product weight and the renormalization), which is
    what assignment seeding requires. Ties break toward the lowest cell id.
    """
    check_detect_prob(p)
    if len(cell_beliefs) == 0:
        raise ValueError("need at least one cell belief")
    P = np.ascontiguousarray(cell_beliefs, dtype=float)
    n_cells = P.shape[1]
    if k < 0 or k + len(excluded) > n_cells:
        raise ValueError(f"cannot pick {k} cells with {len(excluded)} excluded out of {n_cells}")
    kernel = _GainKernel(P, p, np.fromiter(excluded, dtype=np.int64))
    total = np.empty(n_cells)
    blocked = list(kernel.searched)
    chosen: list[int] = []
    for _ in range(k):
        if chosen:  # the last pick is never added: nothing reads the kernel after it
            kernel.add(chosen[-1])
            blocked.append(chosen[-1])
        total.fill(0.0)
        for row in kernel.candidate_gains():  # in target order, as the team gain sums
            total += row
        total[blocked] = -np.inf
        chosen.append(int(total.argmax()))
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
    check_detect_prob(p)
    P = np.asarray(cell_beliefs)
    seeds = set(P.argmax(axis=1).tolist())
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
    check_detect_prob(p)
    qualifying = cb >= threshold
    if qualifying.any():
        peak = int(np.argmax(np.where(qualifying, cb, -np.inf)))
        rest = greedy_select([cb], m - 1, p, excluded={peak}) if m > 1 else []
        return {peak} | set(rest)
    return set(greedy_select([cb], m, p))


def _top_m(mass: np.ndarray, m: int) -> set[int]:
    order = np.argsort(-mass, kind="stable")  # stable: ties fall to lower ids
    return set(int(c) for c in order[:m])


def select_cells(
    cfg: PolicyConfig,
    cell_beliefs: Sequence[np.ndarray],
    m: int,
    team_detect_prob: float,
) -> set[int]:
    """The cells the configured policy picks for `m` UAVs, planning with the
    configured p or else the team minimum. max_prob and max_avg_prob take the
    top m cells of the per-cell maximum or mean over targets; single_entry
    seeds the targets' mean belief; entropy_only is pure greedy gain; adaptive
    runs it while outnumbered (more targets than UAVs), general otherwise."""
    policy = cfg.policy
    if policy == "max_prob":
        return _top_m(np.max(cell_beliefs, axis=0), m)
    if policy == "max_avg_prob":
        return _top_m(np.mean(cell_beliefs, axis=0), m)
    p = cfg.detect_prob if cfg.detect_prob is not None else team_detect_prob
    if policy == "single_entry":
        return assign_single_entry(np.mean(cell_beliefs, axis=0), m, p, cfg.threshold)
    if policy == "entropy_only" or (policy == "adaptive" and len(cell_beliefs) > m):
        return set(greedy_select(cell_beliefs, m, p))
    return assign_general(cell_beliefs, m, p)


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
