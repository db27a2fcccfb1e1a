"""Entropy-gain math, greedy/brute-force selection, and assignment policies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uav_search.belief import entropy
from uav_search.planner import (
    PolicyConfig,
    _TargetGainState,
    assign_general,
    assign_single_entry,
    brute_force_select,
    entropy_gain,
    greedy_select,
    match_uavs_to_cells,
    policy_adaptive,
    policy_entropy_only,
    policy_max_avg_prob,
    policy_max_prob,
    select_cells,
    team_gain,
    temporal_entropy,
)

# Frozen worked example: belief (0.9, 0.1), p = 0.9. Searching the unlikely
# cell wins: its fruitless outcome is near-certain yet collapses the entropy.
E_09 = 0.4689955935892812
TEMP_SEARCH_BIG = 0.9980008838722993
TEMP_SEARCH_SMALL = 0.0872805888836333
GAIN_SEARCH_BIG = 0.2793754256535444
GAIN_SEARCH_SMALL = 0.38957025770517495


def _cb(mass):
    return np.asarray(mass, dtype=float)


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

    def test_team_gain_is_sum(self):
        cb = _cb([0.9, 0.1])
        pair = [cb, _cb([0.9, 0.1])]
        assert team_gain(pair, {1}, 0.9) == pytest.approx(2 * GAIN_SEARCH_SMALL, abs=1e-12)


@st.composite
def _gain_instances(draw):
    """A cell belief with some zero-mass cells, a seeded set and p in (0, 1]."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mass = rng.dirichlet(np.full(n, draw(st.sampled_from([0.05, 0.3, 1.0, 3.0]))))
    mass[rng.random(n) < draw(st.floats(0.0, 0.8))] = 0.0
    if mass.sum() <= 0.0:
        mass[int(rng.integers(n))] = 1.0
    mass /= mass.sum()
    seeded = set(rng.choice(n, size=draw(st.integers(0, n - 1)), replace=False).tolist())
    p = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)))
    return mass, seeded, p


class TestGainKernelProperties:
    @settings(max_examples=300, deadline=None)
    @given(_gain_instances())
    def test_candidate_gains_match_entropy_gain(self, instance):
        """The closed-form gain of (seeded + c) equals the explicit-set gain
        for every unseeded cell c."""
        cb, seeded, p = instance
        gains = _TargetGainState(cb, p, np.array(sorted(seeded), dtype=np.int64)).candidate_gains()
        for c in range(cb.size):
            if c in seeded:
                continue
            expect = entropy_gain(cb, seeded | {c}, p)
            assert gains[c] == pytest.approx(expect, abs=1e-11), c

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
        6e-7 to 4e-5 bits; the candidate gain must still be the exact one."""
        cb = np.array(mass)
        c = len(seeded)
        assert 0.0 < 1.0 - cb[: c + 1].sum() < 2e-11
        gains = _TargetGainState(cb, 1.0, np.array(seeded, dtype=np.int64)).candidate_gains()
        assert gains[c] == pytest.approx(entropy_gain(cb, set(seeded) | {c}, 1.0), abs=1e-11)


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


class TestAssignGeneral:
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


class TestAssignSingleEntry:
    def test_peak_seeded_when_threshold_cleared(self):
        assert assign_single_entry(_cb([0.5, 0.3, 0.2]), 1, 0.8, threshold=0.2) == {0}

    def test_remaining_picks_condition_on_seed(self):
        cb = _cb([0.5, 0.3, 0.2])
        got = assign_single_entry(cb, 2, 0.8, threshold=0.2)
        rest = max((1, 2), key=lambda c: team_gain([cb], {0, c}, 0.8))
        assert got == {0, rest}
        assert got == {0, 2}  # the smaller cell pairs better with the seed

    def test_below_threshold_is_pure_greedy(self):
        cb = _cb([0.18, 0.17, 0.17, 0.16, 0.16, 0.16])
        got = assign_single_entry(cb, 2, 0.9, threshold=0.2)
        assert got == set(greedy_select([cb], 2, 0.9))

    def test_zero_threshold_always_seeds(self):
        cb = _cb([0.9, 0.1])
        assert assign_single_entry(cb, 1, 0.9, threshold=0.0) == {0}

    def test_unreachable_threshold_never_seeds(self):
        cb = _cb([0.9, 0.1])
        got = assign_single_entry(cb, 1, 0.9, threshold=0.95)
        assert got == {1} == set(greedy_select([cb], 1, 0.9))

    def test_threshold_boundary_is_inclusive(self):
        cb = _cb([0.2, 0.8])
        assert assign_single_entry(cb, 1, 0.9, threshold=0.8) == {1}

    def test_zero_uavs(self):
        assert assign_single_entry(_cb([1.0]), 0, 0.9) == set()


class TestPolicies:
    def test_perfect_sensor_policies_coincide(self):
        """With one target and p = 1 every policy hunts the argmax cell."""
        cbs = [_cb([0.5, 0.3, 0.2])]
        for policy in ("general", "single_entry", "adaptive", "entropy_only", "max_prob", "max_avg_prob"):
            cfg = PolicyConfig(policy=policy)
            assert select_cells(cfg, cbs, 1, 1.0) == {0}, policy

    def test_probability_vs_entropy_divergence(self):
        cbs = [_cb([0.9, 0.1])]
        assert policy_max_prob(cbs, 1) == {0}
        assert policy_entropy_only(cbs, 1, 0.9) == {1}

    def test_avg_prob_merges_targets(self):
        cbs = [_cb([0.6, 0.4, 0.0]), _cb([0.0, 0.4, 0.6])]
        # average (0.3, 0.4, 0.3); the 0.3 tie falls to cell 0
        assert policy_max_avg_prob(cbs, 2) == {0, 1}
        # maximum (0.6, 0.4, 0.6); the 0.6 tie falls to cell 0
        assert policy_max_prob(cbs, 1) == {0}

    def test_adaptive_outnumbered_reduces_uncertainty(self):
        cbs = [_cb([0.9, 0.1]), _cb([0.9, 0.1])]
        assert policy_adaptive(cbs, 1, 0.9) == policy_entropy_only(cbs, 1, 0.9) == {1}
        assert assign_general(cbs, 1, 0.9) == {0}  # the branches truly differ

    def test_adaptive_matched_covers_targets(self):
        cbs = [_cb([0.9, 0.1])]
        # 1 target, 1 UAV: not outnumbered, per-target coverage wins
        assert policy_adaptive(cbs, 1, 0.9) == assign_general(cbs, 1, 0.9) == {0}
        assert policy_entropy_only(cbs, 1, 0.9) == {1}

    def test_adaptive_equal_counts_take_general_branch(self):
        rng = np.random.default_rng(40)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(4, 8))
            cbs = [_cb(rng.dirichlet(np.ones(n) * 0.5)) for _ in range(2)]
            general = assign_general(cbs, 2, 0.7)
            if general == policy_entropy_only(cbs, 2, 0.7):
                continue  # uninformative instance
            assert policy_adaptive(cbs, 2, 0.7) == general
            checked += 1
        assert checked > 50


class TestSelectCells:
    def test_dispatch_matches_direct_calls(self):
        cbs = [_cb([0.5, 0.2, 0.2, 0.1]), _cb([0.1, 0.2, 0.2, 0.5])]
        p = 0.8
        cases = {
            "general": assign_general(cbs, 2, p),
            "adaptive": policy_adaptive(cbs, 2, p),
            "entropy_only": policy_entropy_only(cbs, 2, p),
            "max_prob": policy_max_prob(cbs, 2),
            "max_avg_prob": policy_max_avg_prob(cbs, 2),
        }
        for policy, expect in cases.items():
            assert select_cells(PolicyConfig(policy=policy), cbs, 2, p) == expect, policy

    def test_single_entry_merges_before_seeding(self):
        cbs = [_cb([0.6, 0.4, 0.0]), _cb([0.2, 0.4, 0.4])]
        shared = _cb([0.4, 0.4, 0.2])
        expect = assign_single_entry(shared, 2, 0.9, threshold=0.3)
        cfg = PolicyConfig(policy="single_entry", threshold=0.3)
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
        with pytest.raises(ValueError, match="planning detection probability"):
            PolicyConfig(detect_prob=p)


class TestMatchUavsToCells:
    def test_globally_closest_first(self, border_refined):
        _, overlay = border_refined
        ca, cb_ = 10, 20
        positions = {0: overlay.cell_center(cb_), 1: overlay.cell_center(ca)}
        assert match_uavs_to_cells(positions, {ca, cb_}, overlay) == {0: cb_, 1: ca}

    def test_distance_tie_prefers_lower_uav_then_cell(self, border_refined):
        _, overlay = border_refined
        center = overlay.cell_center(7)
        positions = {0: center, 1: center}
        assert match_uavs_to_cells(positions, {7}, overlay) == {0: 7}
        # same point, two equidistant cells: lower uav takes lower cell
        mid_x = (overlay.cell_center(5)[0] + overlay.cell_center(6)[0]) / 2
        y = overlay.cell_center(5)[1]
        positions = {0: (mid_x, y), 1: (mid_x, y)}
        assert match_uavs_to_cells(positions, {5, 6}, overlay) == {0: 5, 1: 6}

    def test_surplus_uavs_stay_free(self, border_refined):
        _, overlay = border_refined
        positions = {i: overlay.cell_center(i) for i in range(4)}
        assigned = match_uavs_to_cells(positions, {0, 1}, overlay)
        assert set(assigned.values()) == {0, 1}
        assert len(assigned) == 2

    def test_too_many_cells(self, border_refined):
        _, overlay = border_refined
        with pytest.raises(ValueError, match="cells for only"):
            match_uavs_to_cells({0: (0.0, 0.0)}, {1, 2}, overlay)

    def test_no_cells(self, border_refined):
        _, overlay = border_refined
        assert match_uavs_to_cells({0: (0.0, 0.0)}, set(), overlay) == {}
