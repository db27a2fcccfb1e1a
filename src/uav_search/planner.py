"""Cell selection for a UAV team searching probabilistic targets.

Selection maximizes the team entropy gain: the drop between the current
belief entropy and the expected post-search entropy, weighted by the chance
the search comes up empty. Greedy selection exploits the diminishing-returns
structure of entropy: each pick scores every cell for every target at once
from (targets x cells) arrays. A fruitless search that keeps eta of a
target's mass leaves it the entropy log2(eta) - N / eta, with N linear in
the searched cells' mass and P log2 P (see _GainKernel), so a pick costs one
add for (eta, N) and six more array passes. On top sit the assignment
policies (per-target coverage, single-entry threshold seeding, adaptive
switching) and the probability baselines.
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
# log2(eta) - N / eta divides N, a sum of P log2 P terms, by eta, so its error
# grows as 1 / eta (measured against entropy_gain over 3,000 random
# instances: at most 4.3e-15 / eta bits, 5.1e-13 bits at eta >= 1e-3).
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

    For one target with belief P, entropy E = -S (S = sum P log2 P), and,
    over the searched cells, mass T, sum SH of P log2 P and product weight
    W of (1 - p P): a fruitless search of (searched + c), c of mass x, keeps
    eta = 1 - p (T + x) of the mass. Searched cells scale by (1 - p) / eta
    and the rest by 1 / eta; their log2(eta) terms weigh the whole scaled
    mass, eta / eta, so the post-search entropy collects to

        H = log2(eta) - N / eta,  N = S - p (SH + x log2 x) + kappa (T + x),

    with kappa = (1 - p) log2(1 - p) (0 at p = 1), and the gain is
    E - W (1 - p x) H. The kernel keeps per target c = 1 - p T and
    a = S - p SH + kappa T, and per cell what adding it adds to them,
    (-p x, kappa x - p x log2 x); one add then gives (eta, N) for every
    cell. Below EXACT_GAIN_ETA, `entropy_gain` gives the gain instead.
    Every (targets x cells) array the kernel writes is a row of one block
    allocated here, so `candidate_gains` allocates none.
    """

    def __init__(self, P: np.ndarray, p: float, seeded: np.ndarray):
        self.P, self.p = P, p
        self.searched = set(seeded.tolist())
        block = np.empty((6,) + P.shape)
        self.step, self.eta_N = block[0:2], block[2:4]  # (-p x, b) and (eta, N), stacked
        self.eta, self.N = self.eta_N
        self.keep, self.gains = block[4], block[5]
        PlogP = self.gains  # scratch until the first candidate_gains
        np.log2(P + (P == 0.0), out=PlogP)  # log2 1 = 0 where P is 0
        np.multiply(P, PlogP, out=PlogP)
        # Row sums of C-ordered arrays (`take` keeps C order) add as a 1-D array does.
        S = PlogP.sum(axis=1, keepdims=True)
        self.E = -S
        neg_px, b = self.step
        np.multiply(-p, P, out=neg_px)
        np.add(1.0, neg_px, out=self.keep)
        np.multiply((1.0 - p) * math.log2(1.0 - p) if p < 1.0 else 0.0, P, out=b)
        np.multiply(p, PlogP, out=PlogP)
        np.subtract(b, PlogP, out=b)  # b = kappa x - p x log2 x
        if seeded.size:
            self.c_a = self.step.take(seeded, axis=2).sum(axis=2, keepdims=True)
            self.W = self.keep.take(seeded, axis=1).prod(axis=1, keepdims=True)
        else:  # an empty sum is 0.0 and an empty product 1.0
            self.c_a = np.zeros((2, P.shape[0], 1))
            self.W = np.ones((P.shape[0], 1))
        self.c_a[0] += 1.0
        self.c_a[1] += S

    def candidate_gains(self) -> np.ndarray:
        """Gain of searching (searched cells + c), per target and cell c.

        The array is the kernel's own buffer, valid until the next call."""
        np.add(self.c_a, self.step, out=self.eta_N)  # eta = c - p x, N = a + b
        eta = self.eta
        eta_min = eta.min()
        if eta_min > 0.0:  # log2 and the division cannot warn
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
        """E - W (1 - p x) (log2(eta) - N / eta), in the kernel's buffers."""
        eta, N, gains = self.eta, self.N, self.gains
        np.divide(N, eta, out=N)
        np.log2(eta, out=gains)
        np.subtract(gains, N, out=gains)
        np.multiply(self.W, self.keep, out=N)
        np.multiply(N, gains, out=gains)
        return np.subtract(self.E, gains, out=gains)

    def add(self, cell: int) -> None:
        self.searched.add(cell)
        self.c_a += self.step[:, :, cell, None]  # c -= p x, a += b of the cell
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
    seeded = np.fromiter(excluded, dtype=np.int64)
    kernel = _GainKernel(P, p, seeded)
    total = np.empty(n_cells)
    blocked = np.zeros(n_cells, dtype=bool)
    blocked[seeded] = True
    chosen: list[int] = []
    for _ in range(k):
        if chosen:  # the last pick is never added: nothing reads the kernel after it
            kernel.add(chosen[-1])
            blocked[chosen[-1]] = True
        # Along axis 0 the rows add one by one in target order, as the team gain sums.
        np.add.reduce(kernel.candidate_gains(), axis=0, out=total)
        np.copyto(total, -np.inf, where=blocked)
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
