"""Entropy-gain math, greedy/brute-force selection, and assignment policies."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uav_search.belief import ETA_TOL, entropy
from uav_search.planner import (
    EXACT_GAIN_ETA,
    POLICIES,
    PolicyConfig,
    _GainKernel,
    assign_general,
    entropy_gain,
    greedy_select,
    match_uavs_to_cells,
    select_cells,
    temporal_entropy,
)

from oracles import assign_single_entry, brute_force_select, team_gain

# Frozen worked example: belief (0.9, 0.1), p = 0.9. Searching the unlikely
# cell wins: its fruitless outcome is near-certain yet collapses the entropy.
E_09 = 0.4689955935892812
TEMP_SEARCH_BIG = 0.9980008838722993
TEMP_SEARCH_SMALL = 0.0872805888836333
GAIN_SEARCH_BIG = 0.2793754256535444
GAIN_SEARCH_SMALL = 0.38957025770517495

# Searching cells {2, 5, 8, 10} at p = 1 keeps eta ~ 1.19e-7 of this belief's
# mass, where the gain is the explicit-set one. Summed in a set's iteration
# order, {2, 5, 10} inserted as 10, 2, 5 and as 2, 5, 10 give gains 2.8e-10
# bits apart, so the planner reads cells in ascending order.
NEAR_CERTAIN_CB = np.array([
    5.184846688204568e-12, 2.3421008708475106e-16, 0.5536658604054407, 1.1417343800254385e-07,
    1.3750486459176036e-15, 4.584748747268178e-22, 2.491641683335077e-11, 4.893111327448007e-09,
    0.021618407871553478, 1.8309208009448147e-18, 0.4247156126263536,
])


def _cb(mass):
    return np.asarray(mass, dtype=float)


def _select(policy, cbs, m, p):
    return select_cells(PolicyConfig(policy), cbs, m, p)


def _top_m(mass, m):
    """The m cells of largest `mass`, ties to the lower id."""
    return set(np.argsort(-mass, kind="stable")[:m].tolist())


def _random_instance(rng, max_cells=12, max_targets=3):
    n = int(rng.integers(3, max_cells + 1))
    n_t = int(rng.integers(1, max_targets + 1))
    cbs = [
        _cb(rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0)))
        for _ in range(n_t)
    ]
    return cbs, n


class TestTemporalEntropy:
    def test_worked_example(self):
        cb = _cb([0.9, 0.1])
        assert temporal_entropy(cb, {0}, 0.9) == pytest.approx(TEMP_SEARCH_BIG, abs=1e-12)
        assert temporal_entropy(cb, {1}, 0.9) == pytest.approx(TEMP_SEARCH_SMALL, abs=1e-12)

    def test_no_cells_is_current_entropy(self):
        cb = _cb([0.5, 0.3, 0.2])
        assert temporal_entropy(cb, set(), 0.7) == pytest.approx(entropy(cb), abs=1e-15)

    def test_certain_detection(self):
        from uav_search.belief import CertainDetection

        with pytest.raises(CertainDetection):
            temporal_entropy(_cb([1.0, 0.0]), {0}, 1.0)

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError, match="must be in"):
            temporal_entropy(_cb([0.5, 0.5]), {0}, p)


class TestEntropyGain:
    def test_worked_example(self):
        cb = _cb([0.9, 0.1])
        assert entropy_gain(cb, {0}, 0.9) == pytest.approx(GAIN_SEARCH_BIG, abs=1e-12)
        assert entropy_gain(cb, {1}, 0.9) == pytest.approx(GAIN_SEARCH_SMALL, abs=1e-12)
        assert abs(GAIN_SEARCH_BIG - 0.28) < 0.005
        assert abs(GAIN_SEARCH_SMALL - 0.39) < 0.005

    def test_empty_search_gains_nothing(self):
        assert entropy_gain(_cb([0.4, 0.6]), set(), 0.9) == pytest.approx(0.0, abs=1e-15)

    def test_certain_detection_gains_all_entropy(self):
        cb = _cb([0.5, 0.5])
        assert entropy_gain(cb, {0, 1}, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert entropy_gain(_cb([1.0, 0.0]), {0}, 1.0) == 0.0

    def test_composition_identity(self):
        """gain = E - prod(1 - p P(c)) * temporal entropy, re-derived."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            cbs, n = _random_instance(rng, max_targets=1)
            cb = cbs[0]
            p = float(rng.uniform(0.2, 0.99))
            size = int(rng.integers(1, n))
            cells = set(rng.choice(n, size=size, replace=False).tolist())
            weight = float(np.prod([1.0 - p * cb[c] for c in cells]))
            expect = entropy(cb) - weight * temporal_entropy(cb, cells, p)
            assert entropy_gain(cb, cells, p) == pytest.approx(expect, abs=1e-12)

    def test_gain_never_negative(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            cbs, n = _random_instance(rng)
            p = float(rng.uniform(0.05, 1.0))
            size = int(rng.integers(1, n + 1))
            cells = set(rng.choice(n, size=size, replace=False).tolist())
            assert team_gain(cbs, cells, p) >= -1e-12

    def test_insertion_order_of_equal_sets_is_irrelevant(self):
        """Equal cell sets give equal gains and entropies bit for bit,
        whatever order their cells were inserted in."""
        cb, late, early = NEAR_CERTAIN_CB, {8} | set([10, 2, 5]), {8} | set([2, 5, 10])
        assert late == early and list(late) != list(early)
        assert entropy_gain(cb, late, 1.0) == entropy_gain(cb, early, 1.0)
        assert temporal_entropy(cb, late, 0.9) == temporal_entropy(cb, early, 0.9)

    def test_team_gain_is_sum(self):
        cb = _cb([0.9, 0.1])
        pair = [cb, _cb([0.9, 0.1])]
        assert team_gain(pair, {1}, 0.9) == pytest.approx(2 * GAIN_SEARCH_SMALL, abs=1e-12)


class _TargetGainState:
    """The greedy gain state of one target: the oracle that each row of the
    batched kernel must reproduce float for float, and greedy_select pick for
    pick. It restates the closed form: eta = c - p x and N = a + b, with
    c = 1 - p T, a = S - p SH + kappa T and b = kappa x - p x log2 x, give
    the post-search entropy log2(eta) - N / eta."""

    def __init__(self, cb, p, seeded):
        self.p = p
        self.P = cb
        self.searched = set(seeded.tolist())
        logP = np.zeros_like(self.P)
        np.log2(self.P, out=logP, where=self.P > 0.0)
        PlogP = self.P * logP
        S = float(PlogP.sum())
        self.E = -S
        kappa = (1.0 - p) * math.log2(1.0 - p) if p < 1.0 else 0.0
        self.neg_px = -p * self.P
        self.keep = 1.0 + self.neg_px
        self.b = kappa * self.P - p * PlogP
        self.c = 1.0 + float(self.neg_px[seeded].sum())
        self.a = S + float(self.b[seeded].sum())
        self.W = float(np.prod(self.keep[seeded])) if seeded.size else 1.0

    def candidate_gains(self):
        eta = self.c + self.neg_px
        N = self.a + self.b
        safe = eta > ETA_TOL
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = self.E - (self.W * self.keep) * (np.log2(eta) - N / eta)
        gains[~safe] = self.E
        for c in np.flatnonzero(safe & (eta < EXACT_GAIN_ETA)).tolist():
            if c not in self.searched:
                gains[c] = entropy_gain(self.P, self.searched | {c}, self.p)
        return gains

    def add(self, cell):
        self.searched.add(cell)
        self.c += float(self.neg_px[cell])
        self.a += float(self.b[cell])
        self.W *= float(self.keep[cell])


def _per_target_greedy(cell_beliefs, k, p, excluded=frozenset()):
    """greedy_select as a loop over per-target states. The excluded cells
    seed in ascending order, as greedy_select sums them: at p = 1 their sum
    order can break exact ties."""
    n_cells = cell_beliefs[0].size
    seeded = np.fromiter(sorted(excluded), dtype=np.int64)
    states = [_TargetGainState(cb, p, seeded) for cb in cell_beliefs]
    blocked = np.zeros(n_cells, dtype=bool)
    blocked[seeded] = True
    chosen = []
    for _ in range(k):
        total = np.zeros(n_cells)
        for state in states:
            total += state.candidate_gains()
        total[blocked] = -np.inf
        cell = int(np.argmax(total))
        chosen.append(cell)
        blocked[cell] = True
        for state in states:
            state.add(cell)
    return chosen


def _draw_belief(draw, rng, n):
    """A cell belief with some zero-mass cells; sometimes one cell holds all
    but about EXACT_GAIN_ETA of the mass, so eta lands near that cut-over."""
    mass = rng.dirichlet(np.full(n, draw(st.sampled_from([0.05, 0.3, 1.0, 3.0]))))
    mass[rng.random(n) < draw(st.floats(0.0, 0.8))] = 0.0
    if mass.sum() <= 0.0:
        mass[int(rng.integers(n))] = 1.0
    mass /= mass.sum()
    if n > 1 and draw(st.booleans()):
        rest = draw(st.floats(0.2 * EXACT_GAIN_ETA, 3.0 * EXACT_GAIN_ETA))
        mass *= rest
        mass[int(rng.integers(n))] += 1.0 - rest
    return mass


_DETECT_PROBS = st.one_of(
    st.just(1.0),
    st.floats(1.0 - EXACT_GAIN_ETA, 1.0),
    st.floats(0.0, 1.0, exclude_min=True),
)


@st.composite
def _gain_instances(draw):
    """1-4 targets' cell beliefs on shared cells, a seeded set and p in (0, 1]."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beliefs = np.array([_draw_belief(draw, rng, n) for _ in range(draw(st.integers(1, 4)))])
    seeded = set(rng.choice(n, size=draw(st.integers(0, n - 1)), replace=False).tolist())
    return beliefs, seeded, draw(_DETECT_PROBS)


@st.composite
def _greedy_instances(draw):
    """1-6 targets, excluded cells, and a pick count that fits. Sometimes the
    targets' beliefs are cyclic shifts of one belief: then, with nothing
    searched yet, every cell's team gain sums the same terms in another
    order, the cells tie in exact arithmetic, and the pick hangs on the
    float order of the row sum."""
    n_targets = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = n_targets
        base = _draw_belief(draw, rng, n)
        beliefs = [np.roll(base, -t) for t in range(n_targets)]
    else:
        n = draw(st.integers(1, 14))
        beliefs = [_draw_belief(draw, rng, n) for _ in range(n_targets)]
    excluded = set(rng.choice(n, size=draw(st.integers(0, n - 1)), replace=False).tolist())
    k = draw(st.integers(0, n - len(excluded)))
    return beliefs, k, draw(_DETECT_PROBS), excluded


class TestGainKernelProperties:
    @settings(max_examples=300, deadline=None)
    @given(_gain_instances())
    @example((np.array([np.full(11, 1.0 / 11), NEAR_CERTAIN_CB]), set([10, 2, 5]), 1.0))
    def test_candidate_gains_match_entropy_gain(self, instance):
        """The closed-form gain of (seeded + c) equals the explicit-set gain
        for every target and every unseeded cell c."""
        beliefs, seeded, p = instance
        gains = _GainKernel(beliefs, p, np.array(sorted(seeded), dtype=np.int64)).candidate_gains()
        assert gains.shape == beliefs.shape
        for t, cb in enumerate(beliefs):
            for c in range(cb.size):
                if c in seeded:
                    continue
                expect = entropy_gain(cb, seeded | {c}, p)
                assert gains[t, c] == pytest.approx(expect, abs=1e-11), (t, c)

    @pytest.mark.parametrize(
        "mass,seeded",
        [
            ([0.5, 0.5 - 1e-11, 1e-11], [0]),
            ([0.3, 0.3, 0.4 - 1.2e-11, 1.2e-11], [0, 1]),
            ([0.25, 0.25, 0.25, 0.25 - 1e-11, 1e-11], [0, 1, 2]),
        ],
    )
    def test_candidate_gain_near_certain_detection(self, mass, seeded):
        """At p = 1 with eta near 1e-11 the closed form alone is off by
        6e-7 to 4e-5 bits; the candidate gain must still be the exact one.
        The near-certain target is the second row, behind a uniform one."""
        cb = np.array(mass)
        c = len(seeded)
        assert 0.0 < 1.0 - cb[: c + 1].sum() < 2e-11
        beliefs = np.array([np.full(cb.size, 1.0 / cb.size), cb])
        gains = _GainKernel(beliefs, 1.0, np.array(seeded, dtype=np.int64)).candidate_gains()
        assert gains[1, c] == pytest.approx(entropy_gain(cb, set(seeded) | {c}, 1.0), abs=1e-11)

    @settings(max_examples=200, deadline=None)
    @given(_gain_instances(), st.data())
    def test_kernel_rows_equal_per_target_states(self, instance, data):
        """Row t of the kernel's gains is the per-target state's gains of
        target t, float for float, after every added cell."""
        beliefs, seeded, p = instance
        order = np.array(sorted(seeded), dtype=np.int64)
        kernel = _GainKernel(beliefs, p, order)
        states = [_TargetGainState(cb, p, order) for cb in beliefs]
        free = [c for c in range(beliefs.shape[1]) if c not in seeded]
        for cell in data.draw(st.permutations(free)):
            for row, state in zip(kernel.candidate_gains(), states):
                assert np.array_equal(row, state.candidate_gains())
            kernel.add(cell)
            for state in states:
                state.add(cell)

    @settings(max_examples=300, deadline=None)
    @given(_greedy_instances())
    @example(([np.array([0.0, 0.049983950472606654, 0.13206370225813388, 0.059292481910882086,
                         0.40066662519147694, 0.0, 0.0, 0.10035902129395205, 0.208329783389174, 0.0,
                         0.04930443548377444])], 4, 1.0, {2, 7, 8}))
    def test_greedy_select_matches_per_target_loop(self, instance):
        """The batched kernel picks exactly what the per-target loop picks,
        from a list of beliefs and from the same beliefs stacked."""
        beliefs, k, p, excluded = instance
        expect = _per_target_greedy(beliefs, k, p, excluded)
        assert greedy_select(beliefs, k, p, excluded) == expect
        assert greedy_select(np.array(beliefs), k, p, excluded) == expect


class TestGreedySelect:
    def test_perfect_sensor_takes_most_probable(self):
        assert greedy_select([_cb([0.5, 0.3, 0.2])], 1, 1.0) == [0]

    def test_imperfect_sensor_prefers_cheap_certainty(self):
        # 0.39 bits for the small cell beats 0.28 for the big one
        assert greedy_select([_cb([0.9, 0.1])], 1, 0.9) == [1]

    def test_each_pick_maximizes_composed_gain(self):
        """Every greedy pick reaches the best team_gain(prefix + c) over
        remaining cells, re-derived from the non-incremental formula."""
        rng = np.random.default_rng(21)
        for _ in range(200):
            cbs, n = _random_instance(rng)
            p = float(rng.uniform(0.3, 1.0))
            k = min(n - 1, int(rng.integers(1, 4)))
            chosen = greedy_select(cbs, k, p)
            assert len(set(chosen)) == k
            prefix: set[int] = set()
            for c in chosen:
                best = max(
                    team_gain(cbs, prefix | {x}, p) for x in range(n) if x not in prefix
                )
                assert team_gain(cbs, prefix | {c}, p) == pytest.approx(best, abs=1e-9)
                prefix.add(c)

    def test_excluded_cells_condition_but_never_appear(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            cbs, n = _random_instance(rng)
            p = float(rng.uniform(0.3, 1.0))
            excluded = set(rng.choice(n, size=int(rng.integers(1, n - 1)), replace=False).tolist())
            k = int(rng.integers(1, n - len(excluded) + 1))
            chosen = greedy_select(cbs, k, p, excluded=excluded)
            assert not set(chosen) & excluded
            # first conditioned pick maximizes gain given the seeds
            best = max(
                team_gain(cbs, excluded | {x}, p)
                for x in range(n)
                if x not in excluded
            )
            assert team_gain(cbs, excluded | {chosen[0]}, p) == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize(
        "beliefs,p,seeded,eta_positive",
        [
            # a search of cell 2 finds target 1 for certain: eta = 0
            ([[0.7, 0.3, 0.0], [0.0, 0.0, 1.0]], 1.0, [], False),
            # every eta > 0
            ([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]], 0.8, [], True),
            # seeded cell 0 holds 0.7 > 1 / (2 p) of target 0: its blocked
            # column counts the cell twice, eta = 1 - 2 p 0.7 < 0, and log2 is nan
            ([[0.7, 0.2, 0.1], [0.2, 0.3, 0.5]], 0.8, [0], False),
        ],
    )
    def test_no_floating_point_warning(self, beliefs, p, seeded, eta_positive):
        """log2 and the division at eta <= 0 stay silent, and with every
        eta > 0 nothing can warn, though the kernel enters no errstate then."""
        P = np.array(beliefs)
        kernel = _GainKernel(P, p, np.array(seeded, dtype=np.int64))
        kernel.candidate_gains()
        assert (kernel.eta.min() > 0.0) == eta_positive
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            picks = greedy_select(P, 2, p, excluded=set(seeded))
        assert picks == _per_target_greedy(list(P), 2, p, set(seeded))

    def test_tie_breaks_to_lowest_id(self):
        assert greedy_select([_cb([0.25] * 4)], 2, 0.8) == [0, 1]

    def test_zero_k(self):
        assert greedy_select([_cb([0.6, 0.4])], 0, 0.9) == []

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="cannot pick"):
            greedy_select([_cb([0.5, 0.5])], 2, 0.9, excluded={0})

    def test_empty_beliefs_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            greedy_select([], 1, 0.9)


class TestBruteForce:
    def test_size_limits(self):
        with pytest.raises(ValueError, match="too large"):
            brute_force_select([_cb(np.full(16, 1 / 16))], 1, 0.9)
        with pytest.raises(ValueError, match="too large"):
            brute_force_select([_cb([0.2] * 5)], 5, 0.9)

    def test_k1_is_argmax_of_single_cell_gain(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            cbs, n = _random_instance(rng, max_cells=10)
            p = float(rng.uniform(0.3, 1.0))
            [got] = brute_force_select(cbs, 1, p)
            gains = [team_gain(cbs, {c}, p) for c in range(n)]
            assert gains[got] == max(gains)

    def test_lexicographic_tie(self):
        # uniform belief: every pair gains the same, the first pair wins
        assert brute_force_select([_cb([0.25] * 4)], 2, 0.8) == [0, 1]

    def test_greedy_within_optimality_bound(self):
        """Greedy keeps at least (1 - 1/e) of the exhaustive optimum and
        never exceeds it."""
        rng = np.random.default_rng(34)
        bound = 1.0 - 1.0 / math.e
        for _ in range(20):
            cbs, n = _random_instance(rng, max_cells=10)
            p = float(rng.choice([0.5, 0.7, 0.9, 1.0]))
            k = int(rng.integers(1, 4))
            got = team_gain(cbs, set(greedy_select(cbs, k, p)), p)
            best = team_gain(cbs, set(brute_force_select(cbs, k, p)), p)
            assert got <= best + 1e-9
            if best > 1e-15:
                assert got / best >= bound


def _assign_general_per_row(cell_beliefs, m, p):
    """assign_general as it was before it worked on whole arrays: an argmax
    per row, and a Python max over the rows per seed."""
    if m == 0:
        return set()
    seeds = {int(np.argmax(cb)) for cb in cell_beliefs}
    if len(seeds) >= m:
        best = {c: max(float(cb[c]) for cb in cell_beliefs) for c in seeds}
        return set(sorted(seeds, key=lambda c: (-best[c], c))[:m])
    picks = greedy_select(cell_beliefs, m - len(seeds), p, excluded=seeds)
    return seeds | set(picks)


@st.composite
def _assign_instances(draw):
    """Beliefs from small integer weights, so a row often has several
    argmax cells and seeds often tie on their best probability; some rows
    repeat an earlier one."""
    n = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        if rows and draw(st.booleans()):
            rows.append(rows[draw(st.integers(0, len(rows) - 1))].copy())
            continue
        w = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
        if w.sum() == 0:
            w[draw(st.integers(0, n - 1))] = 1.0
        rows.append(w / w.sum())
    return rows, draw(st.integers(0, n)), draw(st.sampled_from([0.3, 0.8, 1.0]))


class TestAssignGeneral:
    @settings(max_examples=300, deadline=None)
    @given(_assign_instances())
    def test_matches_per_row_version(self, instance):
        """The same picks as the per-row loops, on a list of rows and on
        the stacked array alike."""
        rows, m, p = instance
        expected = _assign_general_per_row(rows, m, p)
        assert assign_general(rows, m, p) == expected
        assert assign_general(np.array(rows), m, p) == expected

    def test_seeds_then_greedy_continuation(self):
        """One target, three UAVs: the argmax cell is seeded and the two
        follow-up picks each maximize the conditioned gain."""
        cb = _cb([0.4, 0.3, 0.2, 0.1])
        p = 0.8
        got = assign_general([cb], 3, p)
        assert 0 in got and len(got) == 3
        first = max(
            (c for c in range(4) if c != 0),
            key=lambda c: (team_gain([cb], {0, c}, p), -c),
        )
        assert first in got
        second = max(
            (c for c in range(4) if c not in {0, first}),
            key=lambda c: (team_gain([cb], {0, first, c}, p), -c),
        )
        assert got == {0, first, second}

    def test_disjoint_argmaxes_cover_each_target(self):
        cbs = [_cb([0.7, 0.2, 0.1, 0.0]), _cb([0.0, 0.1, 0.2, 0.7])]
        assert assign_general(cbs, 2, 0.9) == {0, 3}

    def test_surplus_seeds_ranked_by_probability(self):
        cbs = [
            _cb([0.9, 0.1, 0.0, 0.0, 0.0, 0.0]),
            _cb([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
            _cb([0.0, 0.0, 0.7, 0.3, 0.0, 0.0]),
        ]
        # seed probabilities: 0.9 @ c0, 1.0 @ c5, 0.7 @ c2
        assert assign_general(cbs, 2, 0.9) == {0, 5}
        assert assign_general(cbs, 1, 0.9) == {5}

    def test_seed_ranking_tie_prefers_lower_cell(self):
        cbs = [
            _cb([0.0, 0.8, 0.2, 0.0]),
            _cb([0.0, 0.0, 0.2, 0.8]),
        ]
        assert assign_general(cbs, 1, 0.9) == {1}

    def test_zero_uavs(self):
        assert assign_general([_cb([1.0])], 0, 0.9) == set()

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5, float("nan")])
    def test_bad_p_refused_for_every_m(self, m, p):
        """The detection-probability rule holds with no UAV to place too, as
        in greedy_select and single_entry."""
        with pytest.raises(ValueError, match=r"detect_prob: must be in \(0, 1\]"):
            assign_general([_cb([0.6, 0.4])], m, p)


@st.composite
def _single_entry_instances(draw):
    """1-5 targets over up to 8 cells, with zero-mass and tied cells, a team
    of 0 to every cell, p of 1, 1 - 1e-3 or any in (0, 1], and a threshold
    of 0, exactly the mean's peak, one ulp above it, uniform, or inf."""
    n = draw(st.integers(1, 8))
    weight = st.integers(0, 3).map(float) | st.floats(0.0, 1.0)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        w = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
        if w.sum() == 0:
            w[draw(st.integers(0, n - 1))] = 1.0
        rows.append(w / w.sum())
    P = np.array(rows)
    p = draw(st.sampled_from([1.0, 1.0 - 1e-3]) | st.floats(0.0, 1.0, exclude_min=True))
    peak = float(P.mean(axis=0).max())
    threshold = draw(st.sampled_from([0.0, peak, float(np.nextafter(peak, np.inf)), math.inf]) | st.floats(0.0, 1.0))
    return P, draw(st.integers(0, n)), p, threshold


class TestAssignSingleEntry:
    """The single_entry policy equals the oracle on the targets' mean belief.
    The unit cases pass one target's belief, whose mean is that belief bit
    for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_single_entry_instances())
    def test_equals_oracle_on_mean_belief(self, instance):
        P, m, p, threshold = instance
        got = select_cells(PolicyConfig("single_entry", threshold), P, m, p)
        assert got == assign_single_entry(np.mean(P, axis=0), m, p, threshold)

    def test_peak_seeded_when_threshold_cleared(self):
        assert select_cells(PolicyConfig("single_entry", threshold=0.2), [_cb([0.5, 0.3, 0.2])], 1, 0.8) == {0}

    def test_remaining_picks_condition_on_seed(self):
        cb = _cb([0.5, 0.3, 0.2])
        got = select_cells(PolicyConfig("single_entry", threshold=0.2), [cb], 2, 0.8)
        rest = max((1, 2), key=lambda c: team_gain([cb], {0, c}, 0.8))
        assert got == {0, rest}
        assert got == {0, 2}  # the smaller cell pairs better with the seed

    def test_below_threshold_is_pure_greedy(self):
        cb = _cb([0.18, 0.17, 0.17, 0.16, 0.16, 0.16])
        got = select_cells(PolicyConfig("single_entry", threshold=0.2), [cb], 2, 0.9)
        assert got == set(greedy_select([cb], 2, 0.9))

    def test_zero_threshold_always_seeds(self):
        cb = _cb([0.9, 0.1])
        assert select_cells(PolicyConfig("single_entry", threshold=0.0), [cb], 1, 0.9) == {0}

    def test_unreachable_threshold_never_seeds(self):
        cb = _cb([0.9, 0.1])
        got = select_cells(PolicyConfig("single_entry", threshold=0.95), [cb], 1, 0.9)
        assert got == {1} == set(greedy_select([cb], 1, 0.9))

    def test_threshold_boundary_is_inclusive(self):
        cb = _cb([0.2, 0.8])
        assert select_cells(PolicyConfig("single_entry", threshold=0.8), [cb], 1, 0.9) == {1}

    def test_zero_uavs(self):
        assert select_cells(PolicyConfig("single_entry"), [_cb([1.0])], 0, 0.9) == set()


class TestPolicies:
    def test_perfect_sensor_policies_coincide(self):
        """With one target and p = 1 every policy hunts the argmax cell."""
        cbs = [_cb([0.5, 0.3, 0.2])]
        for policy in ("general", "single_entry", "adaptive", "entropy_only", "max_prob", "max_avg_prob"):
            cfg = PolicyConfig(policy=policy)
            assert select_cells(cfg, cbs, 1, 1.0) == {0}, policy

    def test_probability_vs_entropy_divergence(self):
        cbs = [_cb([0.9, 0.1])]
        assert _select("max_prob", cbs, 1, 0.9) == {0}
        assert _select("entropy_only", cbs, 1, 0.9) == {1}

    def test_avg_prob_merges_targets(self):
        cbs = [_cb([0.6, 0.4, 0.0]), _cb([0.0, 0.4, 0.6])]
        # average (0.3, 0.4, 0.3); the 0.3 tie falls to cell 0
        assert _select("max_avg_prob", cbs, 2, 0.9) == {0, 1}
        # maximum (0.6, 0.4, 0.6); the 0.6 tie falls to cell 0
        assert _select("max_prob", cbs, 1, 0.9) == {0}

    def test_adaptive_outnumbered_reduces_uncertainty(self):
        cbs = [_cb([0.9, 0.1]), _cb([0.9, 0.1])]
        assert _select("adaptive", cbs, 1, 0.9) == _select("entropy_only", cbs, 1, 0.9) == {1}
        assert assign_general(cbs, 1, 0.9) == {0}  # the branches truly differ

    def test_adaptive_matched_covers_targets(self):
        cbs = [_cb([0.9, 0.1])]
        # 1 target, 1 UAV: not outnumbered, per-target coverage wins
        assert _select("adaptive", cbs, 1, 0.9) == assign_general(cbs, 1, 0.9) == {0}
        assert _select("entropy_only", cbs, 1, 0.9) == {1}

    def test_adaptive_equal_counts_take_general_branch(self):
        rng = np.random.default_rng(40)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(4, 8))
            cbs = [_cb(rng.dirichlet(np.ones(n) * 0.5)) for _ in range(2)]
            general = assign_general(cbs, 2, 0.7)
            if general == _select("entropy_only", cbs, 2, 0.7):
                continue  # uninformative instance
            assert _select("adaptive", cbs, 2, 0.7) == general
            checked += 1
        assert checked > 50


class TestSelectCells:
    def test_dispatch_matches_direct_calls(self):
        cbs = [_cb([0.5, 0.2, 0.2, 0.1]), _cb([0.1, 0.2, 0.2, 0.5])]
        p = 0.8
        cases = {
            "general": assign_general(cbs, 2, p),
            "adaptive": assign_general(cbs, 2, p),  # 2 targets, 2 UAVs: not outnumbered
            "entropy_only": set(greedy_select(cbs, 2, p)),
            "max_prob": _top_m(np.max(cbs, axis=0), 2),
            "max_avg_prob": _top_m(np.mean(cbs, axis=0), 2),
        }
        for policy, expect in cases.items():
            assert select_cells(PolicyConfig(policy=policy), cbs, 2, p) == expect, policy

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_policy_dispatches_to_its_function(self, data):
        """For every name in POLICIES, in order, select_cells equals the direct
        call to the policy's helper, or for single_entry its pick on the
        targets' mean belief as one row, with the configured threshold and at
        the planning p: the configured one, else the team's. adaptive is drawn both
        outnumbered (more targets than UAVs), where it is greedy, and not,
        where it is general."""
        outnumbered = data.draw(st.booleans(), label="outnumbered")
        n_targets = data.draw(st.integers(2, 4) if outnumbered else st.integers(1, 3), label="targets")
        n = data.draw(st.integers(max(2, n_targets), 6), label="cells")
        m = data.draw(st.integers(1, n_targets - 1) if outnumbered else st.integers(n_targets, n), label="m")
        weights = st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)
        rows = data.draw(st.lists(weights, min_size=n_targets, max_size=n_targets))
        cbs = np.array([np.divide(w, sum(w)) for w in rows])
        team_p = data.draw(st.floats(0.05, 1.0), label="team p")
        override = data.draw(st.none() | st.floats(0.05, 1.0), label="detect_prob")
        threshold = data.draw(st.floats(0.0, 1.0), label="threshold")
        p = team_p if override is None else override
        greedy = set(greedy_select(cbs, m, p))
        expect = {
            "general": assign_general(cbs, m, p),
            "single_entry": select_cells(PolicyConfig("single_entry", threshold=threshold), [cbs.mean(axis=0)], m, p),
            "adaptive": greedy if outnumbered else assign_general(cbs, m, p),
            "entropy_only": greedy,
            "max_prob": _top_m(cbs.max(axis=0), m),
            "max_avg_prob": _top_m(cbs.mean(axis=0), m),
        }
        assert tuple(expect) == POLICIES
        for policy in POLICIES:
            assert select_cells(PolicyConfig(policy, threshold, override), cbs, m, team_p) == expect[policy], policy

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("n_targets", [1, 2, 4])
    def test_team_larger_than_the_grid_gets_every_cell(self, policy, n_targets):
        """Six UAVs over a three-cell grid: every policy picks all three
        cells, so the surplus UAVs idle."""
        rng = np.random.default_rng(n_targets)
        cbs = [_cb(rng.dirichlet(np.ones(3))) for _ in range(n_targets)]
        assert select_cells(PolicyConfig(policy), cbs, 6, 0.8) == {0, 1, 2}, policy

    def test_greedy_keeps_its_refusal(self):
        with pytest.raises(ValueError, match="cannot pick 4 cells with 0 excluded out of 3"):
            greedy_select([_cb([0.5, 0.3, 0.2])], 4, 0.8)

    def test_name_outside_the_table_raises(self):
        """A policy name PolicyConfig would refuse never falls through to general."""
        cfg = PolicyConfig()
        object.__setattr__(cfg, "policy", "bogus")
        with pytest.raises(KeyError, match="bogus"):
            select_cells(cfg, [_cb([0.5, 0.5])], 1, 0.9)

    def test_single_entry_merges_before_seeding(self):
        cbs = [_cb([0.6, 0.4, 0.0]), _cb([0.2, 0.4, 0.4])]
        shared = _cb([0.4, 0.4, 0.2])
        cfg = PolicyConfig(policy="single_entry", threshold=0.3)
        expect = select_cells(cfg, [shared], 2, 0.9)
        assert select_cells(cfg, cbs, 2, 0.9) == expect

    def test_planning_probability_override(self):
        # at p = 1 the 0.85 cell wins outright; at the team minimum 0.9 the
        # cheap-certainty 0.1 cell edges it out
        cbs = [_cb([0.85, 0.1, 0.05])]
        cfg = PolicyConfig(policy="entropy_only", detect_prob=1.0)
        assert select_cells(cfg, cbs, 1, 0.9) == {0}
        cfg = PolicyConfig(policy="entropy_only")
        assert select_cells(cfg, cbs, 1, 0.9) == {1}


class TestPolicyConfig:
    def test_defaults(self):
        cfg = PolicyConfig()
        assert cfg.policy == "adaptive"
        assert cfg.threshold == 0.2
        assert cfg.detect_prob is None

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            PolicyConfig(policy="bogus")

    def test_negative_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            PolicyConfig(threshold=-0.1)

    @pytest.mark.parametrize("p", [0.0, 1.5])
    def test_bad_planning_probability(self, p):
        with pytest.raises(ValueError, match=r"detect_prob: must be in \(0, 1\]"):
            PolicyConfig(detect_prob=p)


def _match_from_formula(positions, cells, overlay):
    """match_uavs_to_cells as it was before GridOverlay kept a centre table:
    every pair recomputes the cell centre from the grid. The cell of each
    UAV by index, None for a surplus UAV."""
    pairs = []
    for uid, (x, y) in enumerate(positions):
        for cid in sorted(cells):
            row, col = divmod(cid, overlay.n_cols)
            cx = overlay.origin[0] + (col + 0.5) * overlay.cell_side
            cy = overlay.origin[1] + (row + 0.5) * overlay.cell_side
            pairs.append((math.hypot(cx - x, cy - y), uid, cid))
    pairs.sort()
    assigned = [None] * len(positions)
    used = set()
    for _, uid, cid in pairs:
        if assigned[uid] is not None or cid in used:
            continue
        assigned[uid] = cid
        used.add(cid)
    return assigned


@st.composite
def _match_instances(draw, overlay):
    """UAVs on cell centres (distance ties), midway between two centres, or
    anywhere around the grid, and at most as many cells as UAVs."""
    n_uavs = draw(st.integers(1, 6))
    centers = st.sampled_from(overlay.centers)
    positions = []
    for _ in range(n_uavs):
        kind = draw(st.sampled_from(["center", "between", "anywhere"]))
        if kind == "center":
            positions.append(draw(centers))
        elif kind == "between":
            (ax, ay), (bx, by) = draw(centers), draw(centers)
            positions.append(((ax + bx) / 2, (ay + by) / 2))
        else:
            positions.append((draw(st.floats(-2e3, 1e4)), draw(st.floats(-2e3, 1.4e4))))
    cells = draw(st.sets(st.integers(0, overlay.n_cells - 1), max_size=n_uavs))
    return positions, cells


class TestMatchUavsToCells:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_formula_implementation(self, border_refined, data):
        """The same cell per UAV index as recomputing every centre."""
        _, overlay = border_refined
        positions, cells = data.draw(_match_instances(overlay))
        assert match_uavs_to_cells(positions, cells, overlay) == _match_from_formula(positions, cells, overlay)

    def test_globally_closest_first(self, border_refined):
        _, overlay = border_refined
        ca, cb_ = 10, 20
        positions = [overlay.centers[cb_], overlay.centers[ca]]
        assert match_uavs_to_cells(positions, {ca, cb_}, overlay) == [cb_, ca]

    def test_distance_tie_prefers_lower_uav_then_cell(self, border_refined):
        _, overlay = border_refined
        center = overlay.centers[7]
        positions = [center, center]
        assert match_uavs_to_cells(positions, {7}, overlay) == [7, None]
        # same point, two equidistant cells: lower uav takes lower cell
        mid_x = (overlay.centers[5][0] + overlay.centers[6][0]) / 2
        y = overlay.centers[5][1]
        positions = [(mid_x, y), (mid_x, y)]
        assert match_uavs_to_cells(positions, {5, 6}, overlay) == [5, 6]

    def test_one_ulp_distance_order_is_pinned(self, border_refined):
        """Distances are math.hypot: cell 238 is one ulp closer to UAV 0
        than cell 122, so UAV 0 takes it. np.hypot ties the two distances,
        and the tie would hand UAV 0 cell 122."""
        _, overlay = border_refined
        x, y = 10053.710817432398, 15553.570598786275
        positions = [(x, y), (x + 1e6, y + 1e6)]
        assert match_uavs_to_cells(positions, {122, 238}, overlay) == [238, 122]

    def test_surplus_uavs_stay_free(self, border_refined):
        _, overlay = border_refined
        positions = [overlay.centers[i] for i in range(4)]
        assert match_uavs_to_cells(positions, {0, 1}, overlay) == [0, 1, None, None]

    def test_too_many_cells(self, border_refined):
        _, overlay = border_refined
        with pytest.raises(ValueError, match="cells for only"):
            match_uavs_to_cells([(0.0, 0.0)], {1, 2}, overlay)

    def test_no_cells(self, border_refined):
        _, overlay = border_refined
        assert match_uavs_to_cells([(0.0, 0.0)], set(), overlay) == [None]
