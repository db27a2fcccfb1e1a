"""Belief initialization, propagation, negative updates, and entropy."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from uav_search.belief import (
    ETA_TOL,
    PRUNE_EPS,
    CertainDetection,
    _normalized,
    cell_marginal,
    entropy,
    init_belief,
    negative_update,
    propagate,
)
from uav_search.movement import TransitionModel
from uav_search.road_graph import overlay_grid

CELL_30 = 30.0 / np.sqrt(2.0)


@pytest.fixture
def two_cell_overlay():
    """Two disconnected 10 m edges in different grid cells."""
    from uav_search.road_graph import RoadGraph

    g = RoadGraph([(5.0, 5.0), (15.0, 5.0), (40.0, 5.0), (50.0, 5.0)], [0, 2], [1, 3])
    refined, overlay = overlay_grid(g, CELL_30)
    assert refined.n_edges == 2
    c0, c1 = int(overlay.cell_of_edge[0]), int(overlay.cell_of_edge[1])
    assert c0 != c1
    return overlay, c0, c1


def _line_model(rows):
    n = max(max(src for src in rows), max(d for r in rows.values() for d, _ in r)) + 1
    return TransitionModel("t", 1.0, n, rows)


class TestInit:
    def test_delta_on_entry(self, border_refined):
        refined, _ = border_refined
        entry = min(refined.entries)
        b = init_belief(refined, entry)
        assert b.sum() == 1.0
        assert b[entry] == 1.0
        assert np.count_nonzero(b) == 1

    def test_rejects_non_entry(self, border_refined):
        refined, _ = border_refined
        non_entry = next(e for e in range(refined.n_edges) if e not in refined.entries)
        with pytest.raises(ValueError, match="not an entry edge"):
            init_belief(refined, non_entry)


class TestPropagate:
    def test_certain_hop(self):
        model = _line_model({0: ((1, 1.0),), 1: ((1, 1.0),)})
        b = np.array([1.0, 0.0])
        out = propagate(b, model)
        assert out.tolist() == [0.0, 1.0]

    def test_even_split(self):
        model = _line_model({0: ((0, 0.5), (1, 0.5)), 1: ((1, 1.0),)})
        out = propagate(np.array([1.0, 0.0]), model)
        assert out.tolist() == [0.5, 0.5]

    def test_mass_conserved_over_long_run(self, border_refined, border_model):
        refined, _ = border_refined
        b = init_belief(refined, min(refined.entries))
        for _ in range(100):
            b = propagate(b, border_model)
            assert b.sum() == pytest.approx(1.0, abs=1e-12)

    def test_goal_mass_never_decreases(self, border_refined, border_model):
        refined, _ = border_refined
        goals = sorted(refined.goal_union)
        b = init_belief(refined, min(refined.entries))
        prev = float(b[goals].sum())
        assert prev == 0.0
        for _ in range(400):
            b = propagate(b, border_model)
            cur = float(b[goals].sum())
            assert cur >= prev - 1e-9
            prev = cur
        assert prev > 0.9  # nearly everything is absorbed by 400 ticks

    def test_size_mismatch(self):
        model = _line_model({0: ((0, 1.0),), 1: ((1, 1.0),), 2: ((2, 1.0),)})
        with pytest.raises(ValueError, match="model covers 3 edges"):
            propagate(np.array([1.0, 0.0]), model)

    def test_occupied_edge_without_row(self):
        model = TransitionModel("t", 1.0, 2, {0: ((0, 1.0),)})
        with pytest.raises(ValueError, match="no distribution for occupied edge 1"):
            propagate(np.array([0.0, 1.0]), model)
        # unoccupied rows may be missing
        out = propagate(np.array([1.0, 0.0]), model)
        assert out.tolist() == [1.0, 0.0]

    def test_vanished_mass(self):
        model = TransitionModel("t", 1.0, 2, {0: ((1, 0.0),), 1: ((1, 1.0),)})
        with pytest.raises(ValueError, match="belief mass vanished"):
            propagate(np.array([1.0, 0.0]), model)


class TestNegativeUpdate:
    def test_bayes_posterior(self, two_cell_overlay):
        """Fruitless search of the 0.9 cell at p=0.9: eta = 0.19 and the
        posterior is 9/19 searched, 10/19 elsewhere."""
        overlay, c0, _ = two_cell_overlay
        b = np.array([0.9, 0.1])
        out = negative_update(b, {c0}, 0.9, overlay)
        assert out[0] == pytest.approx(9.0 / 19.0, abs=1e-12)
        assert out[1] == pytest.approx(10.0 / 19.0, abs=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_no_cells_is_identity(self, two_cell_overlay):
        overlay, _, _ = two_cell_overlay
        b = np.array([0.7, 0.3])
        out = negative_update(b, set(), 0.5, overlay)
        assert out is not b
        assert out.tolist() == b.tolist()

    def test_perfect_sensor_clears_cell(self, two_cell_overlay):
        overlay, c0, _ = two_cell_overlay
        out = negative_update(np.array([0.5, 0.5]), {c0}, 1.0, overlay)
        assert out.tolist() == [0.0, 1.0]

    def test_certain_detection(self, two_cell_overlay):
        overlay, c0, _ = two_cell_overlay
        with pytest.raises(CertainDetection):
            negative_update(np.array([1.0, 0.0]), {c0}, 1.0, overlay)

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.1])
    def test_rejects_bad_probability(self, two_cell_overlay, p):
        overlay, c0, _ = two_cell_overlay
        with pytest.raises(ValueError, match="must be in \\(0, 1\\]"):
            negative_update(np.array([0.5, 0.5]), {c0}, p, overlay)

    def test_tiny_residue_pruned(self, two_cell_overlay):
        overlay, c0, _ = two_cell_overlay
        b = np.array([1e-4, 1.0 - 1e-4])
        out = negative_update(b, {c0}, 1.0 - 1e-13, overlay)
        assert out[0] == 0.0
        assert out[1] == 1.0

    def test_repeated_updates_stay_normalized(self, border_refined, border_model):
        refined, overlay = border_refined
        rng = np.random.default_rng(17)
        b = init_belief(refined, min(refined.entries))
        for _ in range(200):
            b = propagate(b, border_model)
            cells = set(rng.choice(overlay.n_cells, size=3, replace=False).tolist())
            b = negative_update(b, cells, 0.8, overlay)
            assert b.sum() == pytest.approx(1.0, abs=1e-12)
            assert (b >= 0.0).all()


class TestMarginalAndEntropy:
    def test_cell_marginal_sums_edges(self, border_refined, border_model):
        refined, overlay = border_refined
        b = init_belief(refined, min(refined.entries))
        for _ in range(10):
            b = propagate(b, border_model)
        cb = cell_marginal(b, overlay)
        assert cb.sum() == pytest.approx(1.0, abs=1e-12)
        for c in (0, 37, 100, overlay.n_cells - 1):
            edges = overlay.cell_of_edge == c
            assert cb[c] == pytest.approx(float(b[edges].sum()), abs=1e-15)

    def test_entropy_worked_example(self):
        assert entropy(np.array([0.9, 0.1])) == pytest.approx(0.4689955935892812, abs=1e-14)

    def test_entropy_uniform_and_delta(self):
        assert entropy(np.array([0.25] * 4)) == pytest.approx(2.0, abs=1e-14)
        assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_entropy_ignores_zeros(self):
        assert entropy(np.array([0.5, 0.5, 0.0])) == pytest.approx(1.0, abs=1e-14)


def _scatter_matrix(model):
    """M itself, row src -> dst: `mass @ M` is the reference propagation step."""
    rows, cols, data = [], [], []
    for src, dists in model.transitions.items():
        for dst, p in dists:
            rows.append(src)
            cols.append(dst)
            data.append(p)
    return sparse.csr_array(
        (np.array(data), (np.array(rows), np.array(cols))), shape=(model.n_edges, model.n_edges)
    )


@st.composite
def _small_models(draw):
    """A random row-stochastic model on up to 8 edges, rows and destinations
    listed in arbitrary order, plus a normalized belief over it."""
    n = draw(st.integers(1, 8))
    transitions = {}
    for src in draw(st.permutations(range(n))):
        dsts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(dsts), max_size=len(dsts)))
        total = sum(weights)
        transitions[src] = tuple((d, w / total) for d, w in zip(dsts, weights))
    mass = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    assume(mass.sum() > 0.0)
    return TransitionModel("t", 1.0, n, transitions), mass / mass.sum()


_PROPERTY = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestKernelProperties:
    """The transposed-CSR kernel against the scatter formula, and the
    negative update against Bayes' rule written out edge by edge."""

    @_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), support=st.floats(0.0, 1.0), alpha=st.floats(0.01, 2.0))
    def test_propagate_bit_identical_to_scatter_on_bundled_model(
        self, border_model, seed, support, alpha
    ):
        rng = np.random.default_rng(seed)
        n = border_model.n_edges
        mass = np.zeros(n)
        idx = rng.choice(n, size=max(1, int(support * n)), replace=False)
        mass[idx] = rng.dirichlet(np.full(idx.size, alpha))
        assume(mass.sum() > 0.0)
        before = mass.copy()
        out = propagate(mass, border_model)
        assert np.array_equal(out, _normalized(mass @ _scatter_matrix(border_model)))
        assert np.array_equal(mass, before)  # the input belief is untouched

    @_PROPERTY
    @given(_small_models())
    def test_propagate_bit_identical_to_scatter_on_random_models(self, model_and_mass):
        model, mass = model_and_mass
        out = propagate(mass, model)
        assert np.array_equal(out, _normalized(mass @ _scatter_matrix(model)))

    @_PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
        n_cells=st.integers(0, 40),
        inside_only=st.booleans(),
    )
    def test_negative_update_is_bayes_rule(self, border_refined, seed, p, n_cells, inside_only):
        refined, overlay = border_refined
        rng = np.random.default_rng(seed)
        cells = set(rng.integers(0, overlay.n_cells, size=n_cells).tolist())
        cell_of = overlay.cell_of_edge.tolist()
        support = [e for e in range(refined.n_edges) if cell_of[e] in cells or not inside_only]
        assume(support)
        mass = np.zeros(refined.n_edges)
        mass[support] = rng.dirichlet(np.full(len(support), 0.5))
        before = mass.copy()

        joint = [m * ((1.0 - p) if cell_of[e] in cells else 1.0) for e, m in enumerate(mass)]
        evidence = math.fsum(joint)
        assume(abs(evidence - ETA_TOL) > 1e-10)
        if evidence <= ETA_TOL:
            with pytest.raises(CertainDetection):
                negative_update(mass, cells, p, overlay)
            return
        out = negative_update(mass, cells, p, overlay)
        # Sums run in another order than fsum and entries below PRUNE_EPS are
        # dropped: 1e-12 is about 739 float64 roundings (2.2e-16 each) x 6.
        np.testing.assert_allclose(out, [j / evidence for j in joint],
                                   rtol=1e-12, atol=2 * PRUNE_EPS)
        assert np.array_equal(mass, before)
