"""Seeded streams against NumPy's own SeedSequence, PCG64 and Generator,
and no command loading `numpy.random`."""

import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uav_search import rng as rng_module
from uav_search.config import scenario_from_dict
from uav_search.movement import KMH_TO_MS
from uav_search.rng import Rng, trial_seed
from uav_search.simulator import _spawn_targets, build_world

# Entropy 0, one 32-bit word, two words and more than 64 bits.
_ENTROPY = st.one_of(
    st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**300))
# Spawn keys: empty, holding zeros, small, and of several words.
_SPAWN_KEY = st.lists(st.one_of(st.just(0), st.integers(1, 9), st.integers(0, 2**96)), max_size=6).map(tuple)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _numpy_rng(entropy, spawn_key):
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=spawn_key))


class TestSeeds:
    @settings(max_examples=300, deadline=None)
    @given(_ENTROPY, _SPAWN_KEY)
    @example(0, ())
    @example(5, (0, 0))
    @example(2**64, (0,))
    @example(2**200 + 7, (0, 2**40, 0))
    def test_state_words_match_seed_sequence(self, entropy, spawn_key):
        """NumPy pads the run entropy to four words only when a spawn key
        follows; the words agree either way."""
        expect = np.random.SeedSequence(entropy, spawn_key=spawn_key).generate_state(4, np.uint64).tolist()
        assert rng_module._state_words(entropy, rng_module._words(*spawn_key), 4) == expect

    @settings(max_examples=300, deadline=None)
    @given(_ENTROPY, st.one_of(st.just(0), st.integers(1, 2**70)))
    @example(0, 0)
    def test_trial_seed_matches_seed_sequence(self, entropy, index):
        expect = np.random.SeedSequence(entropy, spawn_key=(index,)).generate_state(1, np.uint64)
        assert trial_seed(entropy, index) == int(expect[0])

    @pytest.mark.parametrize("entropy,index", [(-1, 0), (3, -2)])
    def test_negative_words_rejected(self, entropy, index):
        """NumPy refuses both with the same ValueError."""
        with pytest.raises(ValueError, match="non-negative"):
            Rng(entropy, (0, index))
        with pytest.raises(ValueError, match="non-negative"):
            trial_seed(entropy, index)


# Batches of keys: key items above 2**32, mixed word counts, the empty key and repeats.
_KEYS = st.lists(st.one_of(_SPAWN_KEY, st.sampled_from([(), (0,), (2**32, 1), (2**64 - 1,)])), max_size=12)


class TestSpawn:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_ENTROPY, st.integers(2**128, 2**200)), _KEYS)
    @example(2**200 + 7, [(0, 2**40, 0), (), (1, 2, 3), (1, 2, 3), (2**33,), (5,)])
    @example(0, [])
    def test_spawn_equals_one_rng_per_key(self, entropy, keys):
        """Each stream equals `Rng(entropy, key)` and NumPy's SeedSequence,
        whatever the batch around it; integer lanes raise no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rngs = rng_module.spawn(entropy, keys)
        assert len(rngs) == len(keys)
        for ours, key in zip(rngs, keys):
            one = Rng(entropy, key)
            assert (ours._state, ours._inc, ours._half) == (one._state, one._inc, None)
            w0, w1, w2, w3 = np.random.SeedSequence(entropy, spawn_key=key).generate_state(4, np.uint64).tolist()
            inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
            assert (ours._state, ours._inc) == (((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128, inc)

    def test_negative_key_item_rejected(self):
        """As `Rng` and NumPy refuse it."""
        with pytest.raises(ValueError, match="non-negative"):
            rng_module.spawn(3, [(0, 1), (0, -2)])

    def test_one_stream_builds_no_array(self, monkeypatch):
        """Only `spawn` reaches NumPy; a trial's streams are plain Python."""
        expect = Rng(2**200 + 7, (0, 2**40))._state
        monkeypatch.setattr(rng_module, "np", None)
        assert Rng(2**200 + 7, (0, 2**40))._state == expect
        seed = np.random.SeedSequence(2**200 + 7, spawn_key=(3,)).generate_state(1, np.uint64)[0]
        assert trial_seed(2**200 + 7, 3) == int(seed)


class TestPcg64:
    @settings(max_examples=100, deadline=None)
    @given(_ENTROPY, _SPAWN_KEY)
    def test_seeding_and_outputs_match_pcg64(self, entropy, spawn_key):
        """generate_state(4, uint64) gives w0..w3; state = w0 << 64 | w1 and
        inc = w2 << 64 | w3 go through PCG's srandom, and each output is
        XSL-RR of the state after its step."""
        w0, w1, w2, w3 = np.random.SeedSequence(entropy, spawn_key=spawn_key).generate_state(4, np.uint64).tolist()
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        state = (0 * _PCG_MULT + inc) & _MASK128  # srandom: a step from state 0, add the seed, a step
        state = ((state + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
        ours = Rng(entropy, spawn_key)
        theirs = np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=spawn_key))
        assert theirs.state["state"] == {"state": state, "inc": inc}
        for raw in theirs.random_raw(8).tolist():
            state = (state * _PCG_MULT + inc) & _MASK128
            x = ((state >> 64) ^ state) & (2**64 - 1)
            rot = state >> 122
            assert raw == ((x >> rot) | (x << (64 - rot))) & (2**64 - 1) == ours._next64()


# Lane batches: one key or several, empty keys and keys of several words among them.
_LANE_KEYS = st.lists(st.one_of(_SPAWN_KEY, st.sampled_from([(), (0,), (2**32, 1), (2**64 - 1,)])),
                      min_size=1, max_size=9)


class TestLanes:
    @settings(max_examples=200, deadline=None)
    @given(_ENTROPY, _LANE_KEYS, st.integers(0, 60), st.data())
    @example(0, [()], 1, None)
    @example(2**64 - 1, [(0, 2**40, 0), (1,)], 300, None)
    def test_lanes_equal_rng_streams(self, entropy, keys, draws, data):
        """n lanes, n = 1 included, draw bit for bit what n `Rng` streams draw,
        over any number of draws, with no warning: a lane step runs on arrays,
        whose uint64 products wrap silently. A lane handed to `Rng` mid-stream
        continues its stream, 32-bit draws included."""
        rngs = [Rng(entropy, key) for key in keys]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lanes = rng_module.spawn(entropy, keys)
            assert len(lanes) == len(keys)
            for _ in range(draws):
                got = lanes.random()
                assert got.dtype == np.float64 and got.tolist() == [rng.random() for rng in rngs]
        i = 0 if data is None else data.draw(st.integers(0, len(keys) - 1))
        handed = lanes[i]
        for name, *args in [("random",), ("integers", 7), ("uniform", -2.0, 3.0), ("integers", 2**32)]:
            assert getattr(handed, name)(*args) == getattr(rngs[i], name)(*args)

    @settings(max_examples=100, deadline=None)
    @given(_ENTROPY, _LANE_KEYS, st.integers(0, 20), st.floats(-1e6, 1e6), st.floats(0.0, 1e6))
    def test_lanes_equal_numpy_pcg64(self, entropy, keys, draws, low, width):
        """Each lane draws what NumPy's PCG64 Generator of its key draws,
        `random` and then `uniform`."""
        lanes, theirs = rng_module.spawn(entropy, keys), [_numpy_rng(entropy, key) for key in keys]
        for _ in range(draws):
            assert lanes.random().tolist() == [gen.random() for gen in theirs]
        assert lanes.uniform(low, low + width).tolist() == [gen.uniform(low, low + width) for gen in theirs]

    def test_slice_draws_advance_its_lanes_in_place(self):
        """`lanes[a:b]` draws from lanes a to b of its parent: the parent's
        other lanes stay where they were."""
        keys = [(k,) for k in range(6)]
        lanes, rngs = rng_module.spawn(3, keys), [Rng(3, key) for key in keys]
        assert lanes[2:5].random().tolist() == [rng.random() for rng in rngs[2:5]]
        assert lanes.random().tolist() == [rng.random() for rng in rngs[:2]] + [
            rng.random() for rng in rngs[2:5]] + [rngs[5].random()]

    def test_empty_spawn_has_no_lanes(self):
        lanes = rng_module.spawn(5, [])
        assert len(lanes) == 0 and lanes.random().tolist() == []


# One call of a mixed stream: ("random",), ("uniform", low, high) or ("integers", n).
_CALLS = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("uniform"), st.floats(-1e6, 1e6), st.floats(0.0, 1e6)).map(
        lambda c: (c[0], c[1], c[1] + c[2])),
    st.tuples(st.just("integers"), st.one_of(
        st.integers(1, 3), st.integers(1, 1000), st.integers(2**31, 2**32), st.just(2**32))),
)


class TestDraws:
    @settings(max_examples=400, deadline=None)
    @given(_ENTROPY, _SPAWN_KEY, st.lists(_CALLS, max_size=40))
    @example(7, (1,), [("integers", 5), ("random",), ("integers", 5), ("integers", 5)])
    @example(7, (1,), [("integers", 1), ("random",), ("integers", 1), ("integers", 2**32)])
    def test_mixed_stream_matches_generator(self, entropy, spawn_key, calls):
        """`integers(1)` draws nothing; `integers` takes 32 bits at a time,
        and the upper half of a 64-bit output stays buffered across later
        `random()` calls until the next `integers` consumes it."""
        ours, theirs = Rng(entropy, spawn_key), _numpy_rng(entropy, spawn_key)
        for name, *args in calls:
            got, expect = getattr(ours, name)(*args), getattr(theirs, name)(*args)
            assert got == expect and type(got) is (int if name == "integers" else float), (name, args)

    def test_lemire_rejection_redraws(self):
        """n = 3 * 2**30 rejects a quarter of its draws: many redraws, all as NumPy's."""
        ours, theirs = Rng(11, (0,)), _numpy_rng(11, (0,))
        assert [ours.integers(3 * 2**30) for _ in range(2000)] == theirs.integers(3 * 2**30, size=2000).tolist()

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
    def test_integer_bounds_rejected(self, n):
        with pytest.raises(ValueError, match="1 <= n <= 2"):
            Rng(1, ()).integers(n)


def test_spawn_draws_entry_speed_strategy_goal(border_graph_path, border_model_path):
    """A spawned target is NumPy's stream drawn in this order: entry, speed,
    strategy, then the strategy's goal and steps. From a pool of one the
    strategy's pick is `integers(1)`, which draws nothing."""
    pool = [{"name": "shortest"}, {"name": "random_walk", "beta": 0.01}, {"name": "side_roads", "penalty": 1.5}]
    sc = scenario_from_dict({
        "graph": border_graph_path,
        "grid_radius": 500.0,
        "uavs": [{"depot": [4500.0, 12100.0], "velocity_kmh": 30.0, "detect_radius": 500.0, "detect_prob": 0.8}],
        "classes": {"runner": {"velocity_kmh": [8.0, 12.0], "strategies": pool, "model": border_model_path}},
        "targets": [{"class": "runner"}] * 3,
        "tick_seconds": 20.0,
    }, base_dir=REPO_ROOT)
    world = build_world(sc)
    starts = list(world.start_of_parent.values())
    runner = sc.class_named("runner")
    walk_only = dataclasses.replace(sc, classes=(dataclasses.replace(runner, strategies=runner.strategies[1:2]),))
    for scenario in (sc, walk_only):
        strategies = scenario.class_named("runner").strategies
        for seed in (trial_seed(5, i) for i in range(8)):
            for j, tg in enumerate(_spawn_targets(scenario, world, seed)):
                theirs = _numpy_rng(seed, (0, j))
                entry = starts[int(theirs.integers(len(starts)))]
                assert tg.velocity_ms == theirs.uniform(8.0, 12.0) * KMH_TO_MS
                strategy = strategies[int(theirs.integers(len(strategies)))]
                assert tg.path == strategy.path(world.refined, entry, theirs)


_GUARDED = "import sys; sys.modules['numpy.random'] = None; from uav_search.cli import main; sys.exit(main(sys.argv[1:]))"


class TestNoCommandLoadsNumpyRandom:
    def test_every_command_runs_with_numpy_random_unimportable(self, tmp_path):
        """Every subcommand, `sweep` and `threshold-scan` through the pool
        at `--jobs 2`, exits 0 when `import numpy.random` raises."""
        src = os.path.join(REPO_ROOT, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        scenario = os.path.join(REPO_ROOT, "scenarios", "border.yaml")
        (tmp_path / "sweep.yaml").write_text(f'base: "{scenario}"\ntrials: 2\nseed: 1\naxes:\n  n_uavs: [2, 3]\n')
        commands = [
            ["compile-model", os.path.join(REPO_ROOT, "maps", "border.graph"), "--strategies",
             "shortest,random_walk:beta=0.01", "--radius", "500", "--tick", "20", "--runs-per-pair", "1",
             "--out", str(tmp_path / "walk.model")],
            ["run", scenario, "--trials", "2", "--out", str(tmp_path / "run.csv")],
            ["sweep", str(tmp_path / "sweep.yaml"), "--jobs", "2", "--out", str(tmp_path / "sweep")],
            ["threshold-scan", scenario, "--thresholds", "0.1,0.2", "--trials", "2", "--jobs", "2",
             "--out", str(tmp_path / "scan")],
            ["dump-belief", scenario, "--ticks", "3", "--out", str(tmp_path / "belief.csv")],
        ]
        for argv in commands:
            proc = subprocess.run([sys.executable, "-c", _GUARDED, *argv], capture_output=True, text=True,
                                  env=env, cwd=tmp_path)
            assert proc.returncode == 0, (argv[0], proc.stderr)
