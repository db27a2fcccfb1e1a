"""End-to-end command-line checks: every verb, exit codes, byte-stable output."""

import concurrent.futures
import csv
import hashlib
import io
import math
import os
import subprocess
import sys

import pytest
import yaml

import uav_search
import uav_search.cli as cli
import uav_search.movement as movement
import uav_search.simulator as simulator
from uav_search.belief import propagate
from uav_search.cli import main
from uav_search.config import ConfigError, scenario_from_dict
from uav_search.road_graph import load_graph, overlay_grid
from uav_search.simulator import trial_seed
from uav_search.strategies import make_strategy

TINY_GRAPH = """\
#vertices
0 0 0
1 400 0
2 800 0
3 1200 0
4 0 400
5 400 400
#edges
0 0 1
1 1 2
2 2 3
3 4 5
4 5 2
#entries
0
3
#goals
0 2
"""

# Three 100 m edges; at 10 km/h a 200 s tick moves 555 m and hops straight
# from the first edge onto the goal edge, skipping the middle one.
CHAIN_GRAPH = """\
#vertices
0 0 0
1 100 0
2 200 0
3 300 0
#edges
0 0 1
1 1 2
2 2 3
#entries
0
#goals
0 2
"""


# SHA-256 of the trial CSV of `run scenarios/border.yaml --trials 6 --seed 0`,
# recorded before the transposed-matrix propagation and the route cache. Speed
# work must not change a byte of it, at any --jobs.
BORDER_RUN_SHA256 = "dda55d7b65d11b1c517110655b642a0beefaa1a66e61eeb2edfc0cf8a41766fa"

# SHA-256 of the trial CSV of `run perfbench/scenarios/pursuit.yaml --trials 6
# --seed 0`, recorded before trials shared each target's belief through the
# world until its first search. Pursuit has no head start, so every tick of it
# replans on beliefs.
PURSUIT_RUN_SHA256 = "c71d3e149d87530a0ea85c655a6cc2fa903645f5f52394dc495cb4998ba36402"

# SHA-256 of the trial CSV of the same run with `policy.name: single_entry`,
# recorded while that policy had its own seeding function. Its 6 trials make
# 99 picks whose mean belief clears the 0.2 threshold and 1,409 that do not,
# so both the seeded and the purely greedy branch run.
SINGLE_ENTRY_RUN_SHA256 = "a12f49b7317961bbc3d5e79d84c17cbafc5447884b056c9f0c94c9fccd713b68"

# SHA-256 of (threshold_grid.csv, threshold_best.csv) of `threshold-scan
# scenarios/border.yaml --trials 3 --seed 2` plus these flags, and of the CSV
# of `dump-belief scenarios/border.yaml --ticks 50 --entry 3`, recorded before
# threshold-scan ran through the sweep loop and dump-belief through
# World.frozen_belief.
THRESHOLD_SCAN_SHA256 = {
    "--thresholds 0.1,0.3 --detect-probs 0.7,1.0": (
        "7291394f971414c00c0a310f1b23b3a66cb948f6def403d643a62e971ff50192",
        "62a3951c968df817deb741988a0ebefd358bce4ab62717980c2eee7718ecf909",
    ),
    "--thresholds 0.2,0.4": (
        "926f3f486dd4ee4a396c41603b8ed90153cc21fa9a98496c7a3e783db5998979",
        "6d164c7961074e6fa3ea0979147b7a3c3fc922dbe22e1b368757761e667e09df",
    ),
}
DUMP_BELIEF_SHA256 = "864f76a5058ee653410402be2da9a047e55a8a5fcbf080e68125d6a28f5e53dd"

# SHA-256 of sweep.csv of a sweep over scenarios/border.yaml with 3 trials and
# the axes n_targets [2, 3] x delay_km [0.0, 7.0] at the default seed,
# recorded while every point still built its own world and pool.
GRID_SWEEP_SHA256 = "72073d4a132a656ad431bd861e1c2afbdb27886745b43cecc547f2704bb0edc6"

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BORDER_YAML = os.path.join(REPO_ROOT, "scenarios", "border.yaml")


def _compile_args(root, out="models/tiny.model", seed="5"):
    return [
        "compile-model", str(root / "tiny.graph"),
        "--strategies", "shortest",
        "--radius", "500", "--tick", "20",
        "--velocity", "8:12", "--runs-per-pair", "2",
        "--seed", seed, "--out", str(root / out),
    ]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "tiny.graph").write_text(TINY_GRAPH)
    (root / "chain.graph").write_text(CHAIN_GRAPH)
    assert main(_compile_args(root)) == 0
    scenario = {
        "graph": "tiny.graph",
        "uavs": [
            {"depot": [700.0, 100.0], "velocity_kmh": 40.0,
             "detect_radius": 500.0, "detect_prob": 0.9}
        ],
        "classes": {
            "default": {
                "velocity_kmh": [8.0, 12.0],
                "strategies": [{"name": "shortest"}],
                "model": "models/tiny.model",
            }
        },
        "targets": [{"class": "default"}, {"class": "default"}],
        "policy": {"name": "general", "threshold": 0.2},
        "tick_seconds": 20.0,
        "max_ticks": 60,
        "grid_radius": 500.0,
    }
    (root / "tiny.yaml").write_text(yaml.safe_dump(scenario))
    return root


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestCompileModel:
    def test_recompile_is_byte_identical(self, work, capsys):
        assert main(_compile_args(work, out="models/again.model")) == 0
        assert "wrote" in capsys.readouterr().out
        a = (work / "models" / "tiny.model").read_bytes()
        b = (work / "models" / "again.model").read_bytes()
        assert a == b

    @pytest.mark.parametrize(
        "patch,needle",
        [
            ({"--strategies": ","}, "need at least one strategy"),
            ({"--strategies": "warp"}, "unknown strategy"),
            ({"--strategies": "random_walk:beta=x"}, "bad number"),
            ({"--strategies": "random_walk:beta"}, "expected key=value"),
            ({"--velocity": "8"}, "expected LO:HI"),
            ({"--velocity": "12:8"}, "--velocity: need 0 < low <= high < inf, got [12.0, 8.0]"),
            ({"--velocity": "0:8"}, "--velocity: need 0 < low <= high < inf, got [0.0, 8.0]"),
            ({"--strategies": "side_roads:penalty=nan"}, "penalty must be finite and >= 0, got nan"),
            ({"--strategies": "side_roads:penalty=-2"}, "penalty must be finite and >= 0, got -2.0"),
            ({"--strategies": "random_walk:beta=-1"}, "beta must be finite and >= 0, got -1.0"),
            ({"--strategies": "random_walk:beta=nan"}, "beta must be finite and >= 0, got nan"),
            ({"--strategies": "random_walk:beta=inf"}, "beta must be finite and >= 0, got inf"),
            ({"--velocity": "5e-324:5e-324"}, "--velocity: low 5e-324 km/h moves 0 m in a tick of 20.0 s"),
            ({"--velocity": "1e-300:1", "--tick": "1e-30"}, "--velocity: low 1e-300 km/h moves 0 m in a tick of 1e-30 s"),
        ],
    )
    def test_flag_validation(self, work, capsys, patch, needle):
        args = _compile_args(work, out="models/scratch.model")
        for flag, value in patch.items():
            args[args.index(flag) + 1] = value
        assert main(args) == 1
        assert needle in capsys.readouterr().err

    def test_missing_graph_file(self, work, capsys):
        args = _compile_args(work)
        args[1] = str(work / "no_such.graph")
        assert main(args) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("#vertices\n0 0 0\n2 100 0\n#edges\n0 0 2\n", "vertex id 1 is missing"),
            ("#vertices\n0 0 0\n1 100 0\n#edges\n1 0 1\n", "edge id 0 is missing"),
        ],
    )
    def test_graph_id_gap_exits_1(self, work, capsys, text, needle):
        (work / "gap.graph").write_text(text)
        args = _compile_args(work)
        args[1] = str(work / "gap.graph")
        assert main(args) == 1
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("respell", ["0_1", "١", "１"])
    def test_graph_python_numeric_syntax_exits_1(self, work, capsys, respell):
        """Vertex id 1 in a spelling int() reads as 1 is refused, with its
        file and line."""
        lines = (work / "tiny.graph").read_text().splitlines()
        at = lines.index("#vertices") + 2
        vid, *rest = lines[at].split()
        assert vid == "1"
        lines[at] = " ".join([respell, *rest])
        (work / "respelled.graph").write_text("\n".join(lines) + "\n")
        args = _compile_args(work)
        args[1] = str(work / "respelled.graph")
        assert main(args) == 1
        assert f"respelled.graph:{at + 1}: malformed vertices line" in capsys.readouterr().err

    def test_undersampled_tick_exits_1_before_sampling(self, work, capsys, monkeypatch):
        """A tick that passes a whole edge is refused from the flags and the
        graph, before any trace is sampled."""
        sampled = []
        monkeypatch.setattr("uav_search.cli.traces_for_strategies", lambda *a: sampled.append(a))
        rc = main([
            "compile-model", str(work / "chain.graph"),
            "--strategies", "shortest", "--radius", "500",
            "--tick", "200", "--velocity", "10:10",
            "--runs-per-pair", "1", "--out", str(work / "models/chain.model"),
        ])
        assert rc == 1 and sampled == []
        err = capsys.readouterr().err
        assert "--tick 200 s at the top --velocity 10 km/h moves 555.556 m per tick" in err
        assert "more than the shortest refined edge" in err and "runtime error" not in err

    def test_missing_out_exits_1_before_sampling(self, work, capsys, monkeypatch):
        """A model has no printed form: without --out the command is refused
        at parsing, before any trace is sampled."""
        sampled = []
        monkeypatch.setattr("uav_search.cli.traces_for_strategies", lambda *a: sampled.append(a))
        args = _compile_args(work)
        at = args.index("--out")
        del args[at:at + 2]
        assert main(args) == 1 and sampled == []
        err = capsys.readouterr().err
        assert "error: the following arguments are required: --out" in err and "runtime error" not in err

    @pytest.mark.parametrize("name", ["fast runner", "", "runner\t"])
    def test_target_class_not_one_word_exits_1_before_sampling(self, work, capsys, monkeypatch, name):
        """The class is one token of the model header. A name with whitespace
        does not come back (`fast runner` writes a model no loader accepts,
        `runner\t` reads back as `runner`) and an empty one names no class,
        so each is refused at parsing, naming the flag, before any trace."""
        sampled = []
        monkeypatch.setattr("uav_search.cli.traces_for_strategies", lambda *a: sampled.append(a))
        out = work / "models" / "two_words.model"
        assert main([*_compile_args(work, out="models/two_words.model"), "--target-class", name]) == 1
        assert sampled == [] and not out.exists()
        assert "argument --target-class: must be one word, without whitespace" in capsys.readouterr().err

    @pytest.mark.parametrize("penalty", ["1e305", "1e308"])
    def test_overflowing_penalty_exits_1_before_sampling(self, tmp_path, capsys, monkeypatch, penalty):
        """A side_roads penalty whose route weights on the map sum past the
        largest float is refused, naming the flag item, before any trace. At
        1e305 every route used to read as unreachable, so the strategy
        trained on nothing without a word; at 1e308 numpy warned of overflow."""
        sampled = []
        monkeypatch.setattr("uav_search.cli.traces_for_strategies", lambda *a: sampled.append(a))
        assert main(["compile-model", os.path.join(REPO_ROOT, "maps", "border.graph"),
                     "--strategies", f"shortest,side_roads:penalty={penalty}", "--radius", "500", "--tick", "20",
                     "--velocity", "8:12", "--runs-per-pair", "1", "--out", str(tmp_path / "big.model")]) == 1
        assert sampled == []
        assert capsys.readouterr().err == (
            f"error: --strategies[1]: penalty {float(penalty):g} overflows this map's route weights: "
            "their sum must be finite\n")

    @pytest.mark.parametrize("penalty", ["1.5", "1e300"])
    def test_large_finite_penalty_trains(self, tmp_path, capsys, penalty):
        """Below the overflow, side_roads trains on every pair: 70 traces
        beside shortest's 70 on the bundled map, with nothing on stderr."""
        assert main(["compile-model", os.path.join(REPO_ROOT, "maps", "border.graph"),
                     "--strategies", f"shortest,side_roads:penalty={penalty}", "--radius", "500", "--tick", "20",
                     "--velocity", "8:12", "--runs-per-pair", "1", "--out", str(tmp_path / "side.model")]) == 0
        out, err = capsys.readouterr()
        assert out.endswith("from 140 traces\n") and err == ""

    def test_dead_entry_warns_and_exits_0(self, work, tmp_path, capsys, dead_entry_scenario):
        """A map whose entry edge 2 reaches no goal set compiles, as a model
        for targets with a fixed live entry, with one warning on stderr that
        names the graph and the edge; the model's bytes are those the library
        writes. A map with no dead entry compiles without a warning."""
        files = dead_entry_scenario([])
        graph, expected = files["graph"], files["classes"]["runner"]["model"]
        out = tmp_path / "dead.model"
        assert main(["compile-model", graph, "--strategies", "shortest", "--radius", "500", "--tick", "20",
                     "--velocity", "8:12", "--runs-per-pair", "1", "--seed", "0", "--target-class", "runner",
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert _warnings(err) == [f"warning: {graph}: entry edge 2 reaches no goal set; a scenario on this map "
                                  "must fix every target's entry to another edge"]
        with open(expected, "rb") as fh:
            assert out.read_bytes() == fh.read()
        assert main(_compile_args(work, out="models/live.model")) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("entries,goals", [("0\n3\n", ""), ("", "0 2\n")], ids=["no_goal_set", "no_entry_edge"])
    def test_nothing_to_train_on_exits_1_before_sampling(self, tmp_path, capsys, monkeypatch, entries, goals):
        """The tiny map without its goal set, or without its entry edges:
        no entry edge reaches a goal set, so there is no trace to sample.
        The map is refused, naming the graph, before any trace, where it used
        to write a uniform model from 0 traces and exit 0."""
        sampled = []
        monkeypatch.setattr("uav_search.cli.traces_for_strategies", lambda *a: sampled.append(a))
        graph, out = tmp_path / "bare.graph", tmp_path / "bare.model"
        graph.write_text(TINY_GRAPH.split("#entries")[0] + f"#entries\n{entries}#goals\n{goals}")
        assert main(["compile-model", str(graph), "--strategies", "shortest", "--radius", "500", "--tick", "20",
                     "--velocity", "8:12", "--runs-per-pair", "1", "--out", str(out)]) == 1
        assert sampled == [] and not out.exists()
        assert capsys.readouterr().err == (f"error: {graph}: no entry edge reaches a goal set, "
                                           "so there is no route to train on\n")


class _Sampled(Exception):
    """Raised in place of sampling traces: the speed rule let the range through."""


def _refuse_sampling(*args, **kwargs):
    raise _Sampled


def _refusal(read, *args) -> str | None:
    """The message of the ConfigError that `read(*args)` raises; None if it returns or reaches sampling."""
    try:
        read(*args)
    except ConfigError as exc:
        return str(exc)
    except _Sampled:
        pass
    return None


class TestOneSpeedRule:
    """A scenario class, `traces_for_strategies` and compile-model's flags
    read a target speed range by one rule, `check_velocity_range`: they
    accept and refuse the same (low, high, tick), with the same message after
    their labels, and compile-model refuses before any trace."""

    @pytest.mark.parametrize(
        "low,high,tick,refusal",
        [
            (5e-324, 5e-324, 20.0, "low 5e-324 km/h moves 0 m in a tick of 20.0 s"),
            (1e-300, 1.0, 1e-30, "low 1e-300 km/h moves 0 m in a tick of 1e-30 s"),
            (2.0, 1.0, 20.0, "need 0 < low <= high < inf, got [2.0, 1.0]"),
            (8.0, math.inf, 20.0, "need 0 < low <= high < inf, got [8.0, inf]"),
            (math.nan, 12.0, 20.0, "need 0 < low <= high < inf, got [nan, 12.0]"),
            (8.0, 12.0, 20.0, None),
            (1e-300, 1.0, 20.0, None),
        ],
    )
    def test_every_reader_applies_it_alike(self, work, monkeypatch, capsys, low, high, tick, refusal):
        scenario = yaml.safe_load((work / "tiny.yaml").read_text())
        scenario["classes"]["default"]["velocity_kmh"] = [low, high]
        scenario["tick_seconds"] = tick
        refined, _ = overlay_grid(load_graph(str(work / "tiny.graph")), 500.0)
        args = _compile_args(work, out="models/scratch.model")
        args[args.index("--velocity") + 1] = f"{low!r}:{high!r}"
        args[args.index("--tick") + 1] = repr(tick)
        monkeypatch.setattr(cli, "traces_for_strategies", _refuse_sampling)
        monkeypatch.setattr(movement, "sample_traces", _refuse_sampling)

        messages = [
            _refusal(scenario_from_dict, scenario),
            _refusal(movement.traces_for_strategies, refined, [make_strategy("shortest")], tick, (low, high), 1, 0),
        ]
        code = main(args)
        err = capsys.readouterr().err
        assert code == (1 if refusal else 2)  # 2: compile-model reached its traces
        messages.append(err.strip().removeprefix("error: ") if code == 1 else None)
        labels = ["classes.default.velocity_kmh", "velocity_range_kmh", "--velocity"]
        assert messages == [refusal and f"{label}: {refusal}" for label in labels]


class TestRun:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_non_stochastic_model_exits_1(self, work, capsys, jobs):
        lines = (work / "models" / "tiny.model").read_text().splitlines()
        src = lines[-1].split()[0]
        lines = [ln for ln in lines if ln.split()[0] != src] + [f"{src} {src} 0.9"]
        (work / "models" / "bad.model").write_text("\n".join(lines) + "\n")
        scenario = yaml.safe_load((work / "tiny.yaml").read_text())
        scenario["classes"]["default"]["model"] = "models/bad.model"
        (work / "bad.yaml").write_text(yaml.safe_dump(scenario))
        assert main(["run", str(work / "bad.yaml"), "--trials", "2", "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert "bad.model" in err and f"edge {src}: row sums to 0.9" in err

    @pytest.mark.parametrize(
        "token,needle",
        [("edges=many", "edges=many is not a non-negative integer"), ("edges=3", "out of range for edges=3")],
    )
    def test_bad_edges_header_exits_1(self, work, capsys, token, needle):
        first, *rows = (work / "models" / "tiny.model").read_text().splitlines()
        (work / "models" / "edges.model").write_text("\n".join([f"{first} {token}", *rows]) + "\n")
        scenario = yaml.safe_load((work / "tiny.yaml").read_text())
        scenario["classes"]["default"]["model"] = "models/edges.model"
        (work / "edges.yaml").write_text(yaml.safe_dump(scenario))
        assert main(["run", str(work / "edges.yaml"), "--trials", "2"]) == 1
        assert needle in capsys.readouterr().err

    @staticmethod
    def _run_with_model(work, name, lines):
        """`run` on the tiny scenario with its model replaced by `lines`."""
        (work / "models" / f"{name}.model").write_text("\n".join(lines) + "\n")
        scenario = yaml.safe_load((work / "tiny.yaml").read_text())
        scenario["classes"]["default"]["model"] = f"models/{name}.model"
        (work / f"{name}.yaml").write_text(yaml.safe_dump(scenario))
        return main(["run", str(work / f"{name}.yaml"), "--trials", "2"])

    def test_non_numeric_tick_exits_1(self, work, capsys):
        first, *rows = (work / "models" / "tiny.model").read_text().splitlines()
        header = " ".join("tick=abc" if tok.startswith("tick=") else tok for tok in first.split())
        assert self._run_with_model(work, "badtick", [header, *rows]) == 1
        assert "badtick.model: header tick=abc is not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("respell", ["0_0", "٠", "０"])
    def test_model_python_numeric_syntax_exits_1(self, work, capsys, respell):
        """Source edge 0 in a spelling int() reads as 0 is refused, with its
        file and line."""
        first, *rows = (work / "models" / "tiny.model").read_text().splitlines()
        src, dst, p = rows[0].split()
        assert src == "0"
        rows[0] = f"{respell} {dst} {p}"
        assert self._run_with_model(work, "respelled", [first, *rows]) == 1
        assert "respelled.model:2: malformed transition line" in capsys.readouterr().err

    def test_negative_edge_id_exits_1(self, work, capsys):
        first, *rows = (work / "models" / "tiny.model").read_text().splitlines()
        last = rows[-1].split()[0]
        rows = [ln for ln in rows if ln.split()[0] != last] + ["-1 -1 1.0"]
        assert self._run_with_model(work, "negative", [first, *rows]) == 1
        assert f"negative.model:{len(rows) + 1}: negative edge id" in capsys.readouterr().err

    def test_repeated_transition_exits_1(self, work, capsys):
        first, *rows = (work / "models" / "tiny.model").read_text().splitlines()
        src, dst, p = rows[0].split()
        half = repr(float(p) / 2)  # the two halves still sum to the row's total
        rows = [f"{src} {dst} {half}", f"{src} {dst} {half}", *rows[1:]]
        assert self._run_with_model(work, "repeated", [first, *rows]) == 1
        assert f"repeated.model:3: repeated transition {src} -> {dst}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,needle",
        [
            (("uavs", 0, "velocity_kmh"), "velocity_kmh: must be positive, got nan"),
            (("uavs", 0, "detect_radius"), "detect_radius: must be positive, got nan"),
            (("delay_km",), "delay_km: must be >= 0.0, got nan"),
            (("tick_seconds",), "tick_seconds: must be positive, got nan"),
            (("grid_radius",), "grid_radius: must be positive, got nan"),
        ],
    )
    def test_nan_field_exits_1(self, work, capsys, field, needle):
        scenario = yaml.safe_load((work / "tiny.yaml").read_text())
        *parents, key = field
        record = scenario
        for part in parents:
            record = record[part]
        record[key] = float("nan")
        (work / "nan.yaml").write_text(yaml.safe_dump(scenario))
        assert main(["run", str(work / "nan.yaml"), "--trials", "2"]) == 1
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["velocity_kmh", "detect_radius"])
    def test_infinite_uav_speed_or_radius_exits_1(self, work, capsys, field):
        """An infinite detection radius used to exit 2 in a trial, and an
        infinite speed to run and win every trial; both are refused at load."""
        scenario = yaml.safe_load((work / "tiny.yaml").read_text())
        scenario["uavs"][0][field] = math.inf
        (work / "infinite.yaml").write_text(yaml.safe_dump(scenario))
        assert main(["run", str(work / "infinite.yaml"), "--trials", "2"]) == 1
        err = capsys.readouterr().err
        assert f"{work / 'infinite.yaml'}: uavs[0].{field}: must be finite, got inf" in err, err

    def test_infinite_delay_exits_1(self, tmp_path, capsys):
        """An infinite head start used to load, and the team never flew:
        border.yaml at `delay_km: .inf` ran every trial and won none."""
        path = _scenario_copy(tmp_path, delay_km=math.inf)
        assert main(["run", path, "--trials", "3"]) == 1
        assert capsys.readouterr().err == f"error: {path}: delay_km: must be finite, got inf\n"

    def test_infinite_grid_radius_without_uavs_exits_1(self, work, capsys):
        """It used to exit 2 when the grid was built: cannot convert float NaN to integer."""
        scenario = yaml.safe_load((work / "tiny.yaml").read_text())
        scenario.update(uavs=[], grid_radius=math.inf)
        (work / "infinite.yaml").write_text(yaml.safe_dump(scenario))
        assert main(["run", str(work / "infinite.yaml"), "--trials", "2"]) == 1
        assert f"{work / 'infinite.yaml'}: grid_radius: must be finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change,needle",
        [
            ({"depot": [math.nan, 12100.0]}, "uavs[0].depot: must be two finite numbers, got [nan, 12100.0]"),
            ({"depot": [math.inf, 12100.0]}, "uavs[0].depot: must be two finite numbers, got [inf, 12100.0]"),
            ({"beta": math.nan}, "strategies[0]: beta must be finite and >= 0, got nan"),
            ({"beta": -1.0}, "strategies[0]: beta must be finite and >= 0, got -1.0"),
        ],
    )
    def test_bad_depot_or_strategy_parameter_exits_1(self, work, capsys, change, needle):
        """A UAV depot or a route strategy's weight that is not a finite
        number is refused at load, naming the file, not when a trial uses it."""
        scenario = yaml.safe_load((work / "tiny.yaml").read_text())
        if "depot" in change:
            scenario["uavs"][0].update(change)
        else:
            scenario["classes"]["default"]["strategies"] = [{"name": "random_walk", **change}]
        (work / "escape.yaml").write_text(yaml.safe_dump(scenario))
        assert main(["run", str(work / "escape.yaml"), "--trials", "2"]) == 1
        err = capsys.readouterr().err
        assert f"{work / 'escape.yaml'}: " in err and needle in err and "runtime error" not in err

    @pytest.mark.parametrize(
        "field,needle",
        [("prob", "row sums to nan"), ("tick", "model tick nan s does not match")],
    )
    def test_nan_model_field_exits_1(self, work, capsys, field, needle):
        first, *rows = (work / "models" / "tiny.model").read_text().splitlines()
        if field == "tick":
            first = " ".join("tick=nan" if tok.startswith("tick=") else tok for tok in first.split())
        else:
            src, dst, _ = rows[0].split()
            rows[0] = f"{src} {dst} nan"
        assert self._run_with_model(work, f"nan_{field}", [first, *rows]) == 1
        assert needle in capsys.readouterr().err

    def test_edge_id_beyond_any_index_exits_1(self, work, capsys):
        """The case the `load_model` fuzz finds: without the loader's size
        check, building the id arrays raises OverflowError (exit 2)."""
        first, *rows = (work / "models" / "tiny.model").read_text().splitlines()
        assert self._run_with_model(work, "huge", [first, "0 99999999999999999999 1.0", *rows]) == 1
        assert "huge.model: edge id 99999999999999999999 is too large" in capsys.readouterr().err

    def test_trial_csv(self, work, capsys):
        out = work / "out" / "trials.csv"
        rc = main(["run", str(work / "tiny.yaml"), "--trials", "8", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        assert "success rate" in capsys.readouterr().out
        text = out.read_text()
        header = text.splitlines()[0]
        assert header == "trial,seed,outcome,ticks,losing_target,timeout,det_0,det_1"
        rows = _rows(out)
        assert len(rows) == 8
        for i, row in enumerate(rows):
            assert int(row["trial"]) == i
            assert int(row["seed"]) == trial_seed(3, i)
            dets = [int(row["det_0"]), int(row["det_1"])]
            if row["outcome"] == "win":
                assert all(1 <= d <= int(row["ticks"]) for d in dets)
                assert row["losing_target"] == "-1" and row["timeout"] == "0"
            else:
                assert -1 in dets
                assert (row["losing_target"] != "-1") != (row["timeout"] == "1")

    def test_reruns_and_jobs_are_byte_identical(self, work):
        paths = [work / "out" / f"t{i}.csv" for i in range(3)]
        jobs = ["1", "1", "2"]
        for p, j in zip(paths, jobs):
            assert main(["run", str(work / "tiny.yaml"), "--trials", "6",
                         "--seed", "9", "--jobs", j, "--out", str(p)]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_zero_trials(self, work, capsys):
        assert main(["run", str(work / "tiny.yaml"), "--trials", "0"]) == 1
        assert "--trials: must be >= 1, got 0" in capsys.readouterr().err

    def test_missing_scenario(self, work, capsys):
        assert main(["run", str(work / "nope.yaml")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario_names_field(self, work, capsys):
        bad = work / "bad.yaml"
        bad.write_text(yaml.safe_dump({"targets": [{"class": "default"}]}))
        assert main(["run", str(bad)]) == 1
        assert "graph: required" in capsys.readouterr().err


class TestNonUtf8Input:
    """A byte that is not UTF-8 in any input file exits 1 and names the file."""

    NEEDLE = "not UTF-8 text: byte 0xff (invalid start byte)"

    def test_model_file(self, work, capsys):
        text = (work / "models" / "tiny.model").read_bytes()
        (work / "models" / "latin.model").write_bytes(text.rstrip(b"\n") + b"\xff\n")
        scenario = yaml.safe_load((work / "tiny.yaml").read_text())
        scenario["classes"]["default"]["model"] = "models/latin.model"
        (work / "latin_model.yaml").write_text(yaml.safe_dump(scenario))
        assert main(["run", str(work / "latin_model.yaml"), "--trials", "1"]) == 1
        assert f"{work / 'models' / 'latin.model'}: {self.NEEDLE}" in capsys.readouterr().err

    def test_graph_file(self, work, capsys):
        (work / "latin.graph").write_bytes(TINY_GRAPH.encode() + b"\xff")
        args = _compile_args(work, out="models/latin_graph.model")
        args[1] = str(work / "latin.graph")
        assert main(args) == 1
        assert f"{work / 'latin.graph'}: {self.NEEDLE}" in capsys.readouterr().err

    def test_scenario_file(self, work, capsys):
        (work / "latin.yaml").write_bytes(b"# caf\xff\n" + (work / "tiny.yaml").read_bytes())
        assert main(["run", str(work / "latin.yaml"), "--trials", "1"]) == 1
        assert f"{work / 'latin.yaml'}: {self.NEEDLE}" in capsys.readouterr().err


# YAML 1.1 integers that are not base-10 digits: `_` separated, base 60,
# hexadecimal and binary. A scenario or sweep file keeps them as strings.
NOT_DECIMAL = ("1_0", "1:30", "0x1A", "0b101")


class TestYamlNumbers:
    """Scenario and sweep files follow the flags' number rule, and give each
    key once: anything else exits 1 naming the file and the key. A YAML
    error's marks name the file, at the line and column of the fault."""

    @pytest.mark.parametrize("token", NOT_DECIMAL)
    def test_scenario_number_exits_1(self, work, capsys, token):
        path = work / "number_token.yaml"
        path.write_text((work / "tiny.yaml").read_text().replace("max_ticks: 60", f"max_ticks: {token}"))
        assert main(["run", str(path), "--trials", "1"]) == 1
        assert f"error: {path}: max_ticks: expected an integer, got '{token}'" in capsys.readouterr().err

    @pytest.mark.parametrize("token", NOT_DECIMAL)
    def test_sweep_number_exits_1(self, work, capsys, token):
        path = work / "number_token_sweep.yaml"
        path.write_text(f"base: tiny.yaml\ntrials: {token}\naxes:\n  n_uavs: [1]\n")
        assert main(["sweep", str(path), "--out", str(work / "number_token_out")]) == 1
        assert f"error: {path}: trials: expected an integer, got '{token}'" in capsys.readouterr().err
        assert not (work / "number_token_out").exists()

    def test_repeated_scenario_key_exits_1(self, work, capsys):
        path = work / "repeated_key.yaml"
        path.write_text((work / "tiny.yaml").read_text() + "tick_seconds: 5.0\n")
        line = path.read_text().splitlines().index("tick_seconds: 5.0") + 1
        assert main(["run", str(path), "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: invalid YAML: repeated key 'tick_seconds'" in err
        assert f'in "{path}", line {line}, column 1' in err

    def test_repeated_sweep_key_exits_1(self, work, capsys):
        path = work / "repeated_key_sweep.yaml"
        path.write_text("base: tiny.yaml\ntrials: 2\naxes:\n  n_uavs: [1]\n  n_uavs: [2]\n")
        assert main(["sweep", str(path), "--out", str(work / "repeated_key_out")]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: invalid YAML: repeated key 'n_uavs'" in err
        assert f'in "{path}", line 5, column 3' in err

    def test_unclosed_bracket_exits_1(self, work, capsys):
        """A YAML syntax error's marks name the file too, not the text's
        in-memory copy."""
        path = work / "unclosed.yaml"
        path.write_text("graph: [tiny.graph\nmax_ticks: 60\n")
        assert main(["run", str(path), "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: invalid YAML: while parsing a flow sequence" in err
        assert f'in "{path}", line 1, column 8' in err and f'in "{path}", line 2, column 10' in err
        assert "<unicode string>" not in err


class TestSweep:
    def test_sweep_csv(self, work, capsys):
        sweep = work / "team.yaml"
        sweep.write_text(yaml.safe_dump(
            {"base": "tiny.yaml", "trials": 4, "seed": 2, "axes": {"n_uavs": [0, 1, 2]}},
            sort_keys=False,
        ))
        out_dir = work / "sweep_out"
        assert main(["sweep", str(sweep), "--out", str(out_dir)]) == 0
        assert "wrote" in capsys.readouterr().out
        text = (out_dir / "sweep.csv").read_text()
        assert text.splitlines()[0] == "n_uavs,success_rate,ci_low,ci_high,trials"
        rows = _rows(out_dir / "sweep.csv")
        assert [r["n_uavs"] for r in rows] == ["0", "1", "2"]
        for r in rows:
            rate = float(r["success_rate"])
            assert float(r["ci_low"]) <= rate <= float(r["ci_high"])
            assert r["trials"] == "4"
        assert float(rows[0]["success_rate"]) == 0.0  # no UAVs, no wins

    @pytest.mark.parametrize("base", ["missing.yaml", ""])
    def test_unreadable_base_exits_1(self, work, capsys, base):
        """A base scenario that is missing, or a directory, exits 1 with an
        error naming the sweep file and the base."""
        sweep = work / "unreadable_base.yaml"
        sweep.write_text(yaml.safe_dump({"base": base, "trials": 1, "axes": {"n_uavs": [1]}}))
        assert main(["sweep", str(sweep), "--out", str(work / "unreadable_out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sweep}: {os.path.normpath(os.path.join(work, base))}: cannot read: "), err

    def test_error_names_a_sweep_whose_path_prefixes_its_base(self, work, capsys):
        """The sweep `prefix` and its base `prefix2.yaml`, which has no graph:
        the error starts with the sweep's path, then the base's."""
        sweep, base = work / "prefix", work / "prefix2.yaml"
        base.write_text("tick_seconds: 20\n")
        sweep.write_text(yaml.safe_dump({"base": base.name, "trials": 1, "axes": {"n_uavs": [1]}}))
        assert main(["sweep", str(sweep), "--out", str(work / "prefix_out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sweep}: {base}: graph: required"), err

    def test_jobs_do_not_change_bytes(self, work):
        sweep = work / "delay.yaml"
        sweep.write_text(yaml.safe_dump(
            {"base": "tiny.yaml", "trials": 4, "seed": 0, "axes": {"delay_km": [0.0, 1.0]}},
            sort_keys=False,
        ))
        a, b = work / "sw_serial", work / "sw_parallel"
        assert main(["sweep", str(sweep), "--out", str(a), "--jobs", "1"]) == 0
        assert main(["sweep", str(sweep), "--out", str(b), "--jobs", "2"]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_bad_sweep_file(self, work, capsys):
        bad = work / "bad_sweep.yaml"
        bad.write_text(yaml.safe_dump({"base": "tiny.yaml", "trials": 4}))
        assert main(["sweep", str(bad)]) == 1
        assert "axes" in capsys.readouterr().err

    def test_one_world_and_one_pool(self, work, monkeypatch, capsys):
        built, pools = [], []
        real_build, real_pool = simulator.build_world, concurrent.futures.ProcessPoolExecutor

        class CountingPool(real_pool):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulator, "build_world", lambda sc: built.append(sc) or real_build(sc))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        sweep = work / "grid.yaml"
        sweep.write_text(yaml.safe_dump(
            {"base": "tiny.yaml", "trials": 2, "axes": {"n_uavs": [1, 2], "delay_km": [0.0, 1.0]}},
            sort_keys=False,
        ))
        assert main(["sweep", str(sweep), "--jobs", "2", "--out", str(work / "grid_out")]) == 0
        assert "4 points x 2 trials" in capsys.readouterr().out
        assert len(built) == 1 and pools == [2]

    def test_no_pool_worker_without_a_trial(self, work, monkeypatch):
        """A pool has no more workers than trials to run: one trial at
        --jobs 2 runs in-process, with no pool, and writes the --jobs 1 bytes."""
        pools = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        class CountingPool(real_pool):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        serial, pooled = work / "one_serial.csv", work / "one_pooled.csv"
        assert main(["run", str(work / "tiny.yaml"), "--trials", "1", "--jobs", "1", "--out", str(serial)]) == 0
        assert main(["run", str(work / "tiny.yaml"), "--trials", "1", "--jobs", "2", "--out", str(pooled)]) == 0
        assert pools == [] and pooled.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "second,needle",
        [
            ({"class": "default", "entry": 99}, "targets[1].entry: edge 99 is not an entry edge"),
            ({"class": "broken"}, "broken.model: not a valid movement model"),
        ],
    )
    def test_bad_later_point_exits_before_any_trial(self, work, monkeypatch, capsys, jobs, second, needle):
        """Point 0 is fine; point 1 adds a target with a bad entry edge or a
        class with a broken model. Every world is built before any trial."""
        ran = []
        monkeypatch.setattr(simulator, "run_trial", lambda *args: ran.append(args))
        lines = (work / "models" / "tiny.model").read_text().splitlines()
        src = lines[-1].split()[0]
        lines = [ln for ln in lines if ln.split()[0] != src] + [f"{src} {src} 0.9"]
        (work / "models" / "broken.model").write_text("\n".join(lines) + "\n")
        scenario = yaml.safe_load((work / "tiny.yaml").read_text())
        scenario["classes"]["broken"] = {**scenario["classes"]["default"], "model": "models/broken.model"}
        scenario["targets"] = [{"class": "default"}, second]
        (work / "later.yaml").write_text(yaml.safe_dump(scenario))
        sweep = work / "later_sweep.yaml"
        sweep.write_text(yaml.safe_dump({"base": "later.yaml", "trials": 2, "axes": {"n_targets": [1, 2]}}))
        out_dir = work / "later_out"
        assert main(["sweep", str(sweep), "--jobs", jobs, "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert needle in captured.err, captured.err
        assert ran == [] and captured.out == "" and not out_dir.exists()


class TestThresholdScan:
    def test_grid_and_best(self, work, capsys):
        out_dir = work / "scan"
        rc = main([
            "threshold-scan", str(work / "tiny.yaml"),
            "--thresholds", "0.1,0.3", "--detect-probs", "0.7,1.0",
            "--trials", "4", "--seed", "2", "--out", str(out_dir),
        ])
        assert rc == 0
        capsys.readouterr()
        grid = _rows(out_dir / "threshold_grid.csv")
        best = _rows(out_dir / "threshold_best.csv")
        assert len(grid) == 4 and len(best) == 2
        assert [r["detect_prob"] for r in best] == ["0.7", "1.0"]
        for brow in best:
            block = [r for r in grid if r["detect_prob"] == brow["detect_prob"]]
            assert [r["threshold"] for r in block] == ["0.1", "0.3"]
            rates = [float(r["success_rate"]) for r in block]
            assert float(brow["success_rate"]) == max(rates)
            first_argmax = block[rates.index(max(rates))]["threshold"]
            assert brow["best_threshold"] == first_argmax

    def test_scenario_probability_is_the_default(self, work):
        out_dir = work / "scan_default"
        rc = main([
            "threshold-scan", str(work / "tiny.yaml"),
            "--thresholds", "0.2", "--trials", "2", "--out", str(out_dir),
        ])
        assert rc == 0
        grid = _rows(out_dir / "threshold_grid.csv")
        assert [r["detect_prob"] for r in grid] == ["0.9"]

    def test_scenario_without_uavs(self, work, capsys):
        scenario = yaml.safe_load((work / "tiny.yaml").read_text())
        scenario["uavs"] = []
        (work / "no_uavs.yaml").write_text(yaml.safe_dump(scenario))
        rc = main(["threshold-scan", str(work / "no_uavs.yaml"), "--thresholds", "0.2", "--trials", "2"])
        assert rc == 1
        assert "threshold-scan needs at least one UAV" in capsys.readouterr().err

    def test_zero_trials(self, work, capsys):
        rc = main(["threshold-scan", str(work / "tiny.yaml"), "--thresholds", "0.2", "--trials", "0"])
        assert rc == 1
        assert "--trials: must be >= 1, got 0" in capsys.readouterr().err

    def test_empty_threshold_list(self, work, capsys):
        rc = main(["threshold-scan", str(work / "tiny.yaml"), "--thresholds", ",",
                   "--trials", "2"])
        assert rc == 1
        assert "need at least one value" in capsys.readouterr().err


def _border_with_policy(tmp_path, policy: str) -> str:
    """A copy of border.yaml under `policy`, its graph and model paths made absolute."""
    data = yaml.safe_load(open(BORDER_YAML).read())
    data["graph"] = os.path.join(REPO_ROOT, "maps", "border.graph")
    data["classes"]["runner"]["model"] = os.path.join(REPO_ROOT, "models", "border_shortest.model")
    data["policy"]["name"] = policy
    path = tmp_path / f"border_{policy}.yaml"
    path.write_text(yaml.safe_dump(data))
    return str(path)


def _warnings(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith("warning:")]


class TestUnreadThreshold:
    """Only single_entry reads threshold. A threshold scan, or a sweep with a
    threshold axis, under another policy prints one warning line on stderr
    naming the file and the policy, and still runs and exits 0."""

    @pytest.mark.parametrize("policy", ["adaptive", "general", "single_entry"])
    def test_threshold_scan(self, tmp_path, capsys, policy):
        scenario = BORDER_YAML if policy == "adaptive" else _border_with_policy(tmp_path, policy)
        rc = main(["threshold-scan", scenario, "--thresholds", "0.1,0.2", "--trials", "1", "--out", str(tmp_path)])
        assert rc == 0
        expect = [] if policy == "single_entry" else [
            f"warning: {scenario}: policy {policy!r} never reads threshold; only single_entry does, "
            "so the threshold points differ only in their seeds"
        ]
        assert _warnings(capsys.readouterr().err) == expect

    @pytest.mark.parametrize("policy,axis,warned", [
        ("adaptive", "threshold", True),
        ("adaptive", "delay_km", False),
        ("single_entry", "threshold", False),
    ])
    def test_sweep(self, tmp_path, capsys, policy, axis, warned):
        base = BORDER_YAML if policy == "adaptive" else _border_with_policy(tmp_path, policy)
        sweep = tmp_path / "sweep.yaml"
        sweep.write_text(yaml.safe_dump({"base": base, "trials": 1, "axes": {axis: [0.2]}}))
        assert main(["sweep", str(sweep), "--out", str(tmp_path)]) == 0
        warnings = _warnings(capsys.readouterr().err)
        assert len(warnings) == warned
        assert all(w.startswith(f"warning: {sweep}: policy {policy!r} never reads threshold") for w in warnings)


class TestBadAxisValues:
    """A bad axis value fails before any trial runs: the whole grid is
    expanded, and so checked, before the first run_batch."""

    @pytest.fixture
    def no_batches(self, monkeypatch):
        calls = []
        monkeypatch.setattr("uav_search.cli.run_batch", lambda *a, **k: calls.append(a))
        return calls

    @pytest.mark.parametrize(
        "axes,needles",
        [
            ({"threshold": [0.2, -0.1]}, ["axes.threshold", "threshold: must be >= 0.0"]),
            ({"n_uavs": [1, 0]}, ["axes.n_uavs", "grid_radius: required"]),
            ({"delay_km": [0.0, -5.0]}, ["axes.delay_km", "delay_km: must be >= 0.0"]),
            ({"delay_km": [0.0, math.inf]}, ["axes.delay_km", "delay_km: must be finite, got inf"]),
        ],
    )
    def test_sweep(self, tmp_path, capsys, no_batches, axes, needles):
        sweep = tmp_path / "bad.yaml"
        sweep.write_text(yaml.safe_dump({"base": BORDER_YAML, "trials": 2, "axes": axes}))
        assert main(["sweep", str(sweep), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sweep}: axes."), err
        assert all(n in err for n in needles), err
        assert no_batches == []

    @pytest.mark.parametrize(
        "flags,needles",
        [
            (["--thresholds", "0.2,-0.1"], ["--thresholds: threshold: must be >= 0.0, got -0.1"]),
            (["--thresholds", "0.2", "--detect-probs", "0.8,1.5"],
             ["--detect-probs: detect_prob: must be in (0, 1], got 1.5"]),
        ],
    )
    def test_threshold_scan(self, tmp_path, capsys, no_batches, flags, needles):
        rc = main(["threshold-scan", BORDER_YAML, *flags, "--trials", "2", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --"), err
        assert all(n in err for n in needles), err
        assert no_batches == []


class TestDumpBelief:
    def test_mass_conserved_per_tick(self, work):
        out = work / "belief.csv"
        rc = main(["dump-belief", str(work / "tiny.yaml"), "--ticks", "4",
                   "--out", str(out)])
        assert rc == 0
        rows = _rows(out)
        by_tick = {}
        for r in rows:
            by_tick.setdefault(int(r["tick"]), []).append(float(r["mass"]))
        assert set(by_tick) == {0, 1, 2, 3, 4}
        assert by_tick[0] == [1.0]
        for masses in by_tick.values():
            assert sum(masses) == pytest.approx(1.0, abs=1e-9)

    def test_writes_to_stdout_by_default(self, work, capsys):
        assert main(["dump-belief", str(work / "tiny.yaml"), "--ticks", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("tick,edge,mass")

    def test_explicit_entry(self, work):
        assert main(["dump-belief", str(work / "tiny.yaml"), "--ticks", "0",
                     "--entry", "3", "--out", str(work / "b3.csv")]) == 0

    @pytest.mark.parametrize(
        "extra,needle",
        [
            (["--entry", "99"], "--entry: edge 99 is not an entry edge"),
            (["--target-class", "ghost"], "--target-class"),
            (["--ticks", "-1"], "--ticks: must be >= 0"),
            (["--target-class", ""], "--target-class: '' has no model"),
        ],
    )
    def test_validation(self, work, capsys, extra, needle):
        assert main(["dump-belief", str(work / "tiny.yaml"), *extra]) == 1
        assert needle in capsys.readouterr().err


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "compile-model" in capsys.readouterr().out

    def test_missing_command(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["fly"]) == 1
        capsys.readouterr()

    def test_unknown_flag(self, work, capsys):
        assert main(["run", str(work / "tiny.yaml"), "--warp", "9"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["compile-model", "run", "sweep", "threshold-scan", "dump-belief"])
    def test_shared_flags_lead_every_usage_line(self, capsys, command):
        """dump-belief draws nothing and runs no trials: it takes --out alone.
        compile-model writes a model, which has no printed form: its --out is required."""
        assert main([command, "--help"]) == 0
        out = "--out OUT" if command == "compile-model" else "[--out OUT]"
        shared = out if command == "dump-belief" else f"[--seed SEED] [--jobs JOBS] {out}"
        assert f"usage: uav-search {command} [-h] {shared}" in capsys.readouterr().out


class TestDefaultSeed:
    """No `--seed` is `--seed 0`, but in `sweep`, where it is the file's seed."""

    @pytest.mark.parametrize("command,source,flags,outputs", [
        ("run", "tiny.yaml", ["--trials", "3", "--out", "{out}/trials.csv"], ["trials.csv"]),
        ("compile-model", "tiny.graph", ["--strategies", "shortest,random_walk:beta=0.01", "--radius", "500",
                                         "--tick", "20", "--runs-per-pair", "2", "--out", "{out}/m.model"],
         ["m.model"]),
        # The bundled scenario, as the tiny one wins alike at every seed.
        ("threshold-scan", BORDER_YAML, ["--thresholds", "0.2", "--trials", "2", "--out", "{out}"],
         ["threshold_grid.csv", "threshold_best.csv"]),
    ])
    def test_no_seed_writes_the_bytes_of_seed_0(self, work, tmp_path, capsys, command, source, flags, outputs):
        for name, seed in (("default", []), ("zero", ["--seed", "0"])):
            out = tmp_path / name
            assert main([command, os.path.join(work, source), *(f.format(out=out) for f in flags), *seed]) == 0
        capsys.readouterr()
        for output in outputs:
            assert (tmp_path / "default" / output).read_bytes() == (tmp_path / "zero" / output).read_bytes()

    def test_sweep_without_seed_uses_the_file_seed(self, work, tmp_path, monkeypatch, capsys):
        seeds = []  # the trial seed of each point, per command
        real_run_batch = cli.run_batch

        def run_batch(seeded, *args, **kwargs):
            seeds.append([seed for _, seed in seeded])
            return real_run_batch(seeded, *args, **kwargs)

        monkeypatch.setattr(cli, "run_batch", run_batch)
        sweep = work / "seeded_sweep.yaml"
        sweep.write_text(yaml.safe_dump({"base": "tiny.yaml", "trials": 3, "seed": 4, "axes": {"n_uavs": [1, 2]}}))
        for name, seed in (("default", []), ("four", ["--seed", "4"]), ("zero", ["--seed", "0"])):
            assert main(["sweep", str(sweep), "--out", str(tmp_path / name), *seed]) == 0
        capsys.readouterr()
        assert seeds[0] == seeds[1] == [trial_seed(4, 0), trial_seed(4, 1)] != seeds[2]
        assert (tmp_path / "default" / "sweep.csv").read_bytes() == (tmp_path / "four" / "sweep.csv").read_bytes()


# Per command: its positional argument (a file name under the `work`
# fixture) and the flags that make it a milliseconds-long command; `--out`
# is relative to the test's own directory.
CHEAP_COMMANDS = {
    "compile-model": ("tiny.graph", {"--strategies": "shortest", "--radius": "500", "--tick": "20",
                                     "--velocity": "8:12", "--runs-per-pair": "1", "--out": "m.model"}),
    "run": ("tiny.yaml", {"--trials": "1"}),
    "sweep": ("tiny_sweep.yaml", {"--out": "."}),
    "threshold-scan": ("tiny.yaml", {"--thresholds": "0.2", "--trials": "1", "--out": "."}),
    "dump-belief": ("tiny.yaml", {"--ticks": "1", "--out": "b.csv"}),
}

# Rows of NUMERIC_FLAGS whose command does not take the flag: dump-belief
# draws nothing and runs no trials, so it refuses --seed and --jobs by name,
# exit 1, whatever the value.
NOT_TAKEN = {("dump-belief", "--seed"), ("dump-belief", "--jobs")}

# (command, flag, value with `{}` where the token goes): every numeric flag,
# and every number inside a flag's text.
NUMERIC_FLAGS = [
    *((command, flag, "{}") for command in CHEAP_COMMANDS for flag in ("--seed", "--jobs")),
    ("compile-model", "--radius", "{}"),
    ("compile-model", "--tick", "{}"),
    ("compile-model", "--runs-per-pair", "{}"),
    ("compile-model", "--smoothing", "{}"),
    ("compile-model", "--velocity", "8:{}"),
    ("compile-model", "--velocity", "{}:12"),
    ("compile-model", "--strategies", "random_walk:beta={}"),
    ("compile-model", "--strategies", "side_roads:penalty={}"),
    ("run", "--trials", "{}"),
    ("threshold-scan", "--trials", "{}"),
    ("threshold-scan", "--thresholds", "{}"),
    ("threshold-scan", "--detect-probs", "{}"),
    ("dump-belief", "--ticks", "{}"),
    ("dump-belief", "--entry", "{}"),
]

# Tokens int() or float() reads that the file formats refuse, and the empty value.
NOT_PLAIN = ("1_0", "\u0663", "")


def _cheap_command(work, out_dir, command: str, flag: str, value: str) -> list[str]:
    positional, flags = CHEAP_COMMANDS[command]
    flags = {**flags, flag: value}
    # `--flag=value`, so that argparse reads a value such as `-inf` as the flag's.
    return [command, str(work / positional), *(f"{k}={out_dir / v if k == '--out' else v}" for k, v in flags.items())]


class TestNumericFlags:
    """Every numeric flag and every number inside a flag, given a token that
    is not a finite positive plain number, exits 0 or 1, never 2, and a
    refusal names the flag in its last line."""

    @pytest.fixture(scope="class")
    def flag_work(self, work):
        (work / "tiny_sweep.yaml").write_text(yaml.safe_dump({"base": "tiny.yaml", "trials": 1,
                                                               "axes": {"threshold": [0.2]}}))
        return work

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "-1", "0", *NOT_PLAIN])
    @pytest.mark.parametrize("command,flag,value", NUMERIC_FLAGS)
    def test_exits_0_or_1(self, flag_work, tmp_path, capsys, command, flag, value, token):
        rc = main(_cheap_command(flag_work, tmp_path, command, flag, value.format(token)))
        err = capsys.readouterr().err
        assert rc in (0, 1), err
        if token in NOT_PLAIN or (command, flag) in NOT_TAKEN:
            assert rc == 1, f"{flag}={value.format(token)!r} was accepted"
        if rc == 1:
            assert flag in err.strip().splitlines()[-1], err

    @pytest.mark.parametrize(
        "command,flag,value,needle",
        [
            ("compile-model", "--radius", "0", "--radius: must be positive and finite, got 0"),
            ("compile-model", "--radius", "-5", "--radius: must be positive and finite, got -5"),
            ("compile-model", "--radius", "nan", "--radius: must be positive and finite, got nan"),
            ("compile-model", "--radius", "inf", "--radius: must be positive and finite, got inf"),
            ("compile-model", "--tick", "0", "--tick: must be positive and finite, got 0"),
            ("compile-model", "--tick", "-1", "--tick: must be positive and finite, got -1"),
            ("compile-model", "--smoothing", "-1", "--smoothing: must be finite and >= 0, got -1"),
            ("compile-model", "--smoothing", "nan", "--smoothing: must be finite and >= 0, got nan"),
            ("compile-model", "--smoothing", "inf", "--smoothing: must be finite and >= 0, got inf"),
            ("compile-model", "--runs-per-pair", "0", "--runs-per-pair: must be >= 1, got 0"),
            ("compile-model", "--runs-per-pair", "-1", "--runs-per-pair: must be >= 1, got -1"),
            ("compile-model", "--velocity", "8:inf", "--velocity: need 0 < low <= high < inf, got [8.0, inf]"),
            ("run", "--seed", "-1", "--seed: must be >= 0, got -1"),
            ("sweep", "--seed", "-1", "--seed: must be >= 0, got -1"),
            ("run", "--jobs", "0", "--jobs: must be >= 1, got 0"),
            ("run", "--jobs", "-1", "--jobs: must be >= 1, got -1"),
            ("run", "--trials", "1_0", "--trials: expected int, got '1_0'"),
            ("run", "--seed", "\u0663", "--seed: expected int, got '\u0663'"),
            ("compile-model", "--velocity", "8:1_2", "--velocity: expected LO:HI km/h, got '8:1_2'"),
            ("compile-model", "--strategies", "side_roads:penalty=1_5", "--strategies: bad number '1_5'"),
            ("threshold-scan", "--thresholds", "0.2,\u0660.\u0663", "--thresholds: expected comma-separated numbers"),
        ],
    )
    def test_escape_exits_1(self, flag_work, tmp_path, capsys, command, flag, value, needle):
        """The flag values that ran, or exited 2, before flags followed the
        file formats' number rule and had bounds. Nothing is written."""
        assert main(_cheap_command(flag_work, tmp_path, command, flag, value)) == 1
        err = capsys.readouterr().err
        assert needle in err and "runtime error" not in err, err
        assert list(tmp_path.iterdir()) == []

    def test_infinite_threshold_still_runs(self, flag_work, tmp_path):
        """The policy record owns the threshold's range, and it takes inf."""
        assert main(_cheap_command(flag_work, tmp_path, "threshold-scan", "--thresholds", "inf")) == 0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_border_run_bytes_are_pinned(tmp_path, jobs):
    out = tmp_path / "trials.csv"
    scenario = os.path.join(REPO_ROOT, "scenarios", "border.yaml")
    rc = main(["run", scenario, "--trials", "6", "--seed", "0", "--jobs", jobs, "--out", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BORDER_RUN_SHA256


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_pursuit_run_bytes_are_pinned(tmp_path, jobs):
    out = tmp_path / "trials.csv"
    scenario = os.path.join(REPO_ROOT, "perfbench", "scenarios", "pursuit.yaml")
    rc = main(["run", scenario, "--trials", "6", "--seed", "0", "--jobs", jobs, "--out", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PURSUIT_RUN_SHA256


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_single_entry_run_bytes_are_pinned(tmp_path, jobs):
    pursuit = os.path.join(REPO_ROOT, "perfbench", "scenarios", "pursuit.yaml")
    path = _scenario_copy(tmp_path, "pursuit_single_entry.yaml", pursuit,
                          policy={"name": "single_entry", "threshold": 0.2})
    out = tmp_path / "trials.csv"
    rc = main(["run", path, "--trials", "6", "--seed", "0", "--jobs", jobs, "--out", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SINGLE_ENTRY_RUN_SHA256


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_grid_sweep_bytes_are_pinned(tmp_path, capsys, jobs):
    sweep = tmp_path / "grid.yaml"
    sweep.write_text(yaml.safe_dump(
        {"base": BORDER_YAML, "trials": 3, "axes": {"n_targets": [2, 3], "delay_km": [0.0, 7.0]}},
        sort_keys=False,
    ))
    assert main(["sweep", str(sweep), "--jobs", jobs, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == GRID_SWEEP_SHA256


# The address space and CPU seconds a command refusing an oversized grid runs
# under: enough to import numpy and PyYAML and load the map, far less than the
# ~5 GB the 47.9 million centre tuples of a 1 m grid on the bundled map would
# take, or the minutes its edge cutting would. A regression then fails its
# test with a MemoryError or a CPU-limit kill instead of exhausting the
# machine.
GRID_REFUSAL_ADDRESS_SPACE = 1 << 30
GRID_REFUSAL_CPU_S = 20


def _capped_cli(args: list[str]) -> subprocess.CompletedProcess:
    """`uav-search ARGS` in a fresh interpreter under the limits above."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (GRID_REFUSAL_ADDRESS_SPACE, GRID_REFUSAL_ADDRESS_SPACE))
        resource.setrlimit(resource.RLIMIT_CPU, (GRID_REFUSAL_CPU_S, GRID_REFUSAL_CPU_S))

    src = os.path.dirname(os.path.dirname(uav_search.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, uav_search.cli; sys.exit(uav_search.cli.main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, preexec_fn=cap, timeout=120)


class TestGridSizeLimit:
    """A detection radius far too small for the map is refused, exit 1 and
    naming where the radius came from, before any grid cell or cut is made."""

    @pytest.mark.parametrize("radius", ["1", "0.1", "1e-300"])
    def test_compile_radius_exits_1(self, tmp_path, radius):
        proc = _capped_cli(["compile-model", os.path.join(REPO_ROOT, "maps", "border.graph"),
                            "--strategies", "shortest", "--radius", radius, "--tick", "0.01",
                            "--velocity", "8:12", "--out", str(tmp_path / "m.model")])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"error: --radius: detection radius {float(radius):g} m asks for a grid of")
        assert "the limit is 1,000,000" in proc.stderr
        assert not (tmp_path / "m.model").exists()

    @pytest.mark.parametrize("key", ["detect_radius", "grid_radius"])
    def test_scenario_radius_exits_1(self, tmp_path, key):
        with open(BORDER_YAML) as fh:
            scenario = yaml.safe_load(fh)
        base = os.path.dirname(BORDER_YAML)
        scenario["graph"] = os.path.normpath(os.path.join(base, scenario["graph"]))
        scenario["classes"]["runner"]["model"] = os.path.normpath(
            os.path.join(base, scenario["classes"]["runner"]["model"]))
        if key == "grid_radius":
            scenario["grid_radius"] = 1.0
        else:
            scenario["uavs"][1]["detect_radius"] = 1.0
        path = tmp_path / "tiny_cells.yaml"
        path.write_text(yaml.safe_dump(scenario))
        sweep = tmp_path / "tiny_cells_sweep.yaml"
        sweep.write_text(yaml.safe_dump({"base": path.name, "trials": 1, "axes": {"n_targets": [1]}}))
        for args, source in (
            (["run", str(path), "--trials", "1"], path),
            (["sweep", str(sweep), "--out", str(tmp_path)], sweep),
            (["dump-belief", str(path), "--ticks", "1"], path),
        ):
            proc = _capped_cli(args)
            assert proc.returncode == 1, proc.stderr
            assert proc.stderr.startswith(f"error: {source}: detection radius 1 m asks for a grid of"), proc.stderr


def _scenario_copy(tmp_path, name="border.yaml", source=BORDER_YAML, **changes) -> str:
    """The scenario `source` (scenarios/border.yaml by default) written to
    `tmp_path / name` with absolute graph and runner model paths, its
    top-level keys updated by `changes`."""
    with open(source) as fh:
        scenario = yaml.safe_load(fh)
    base = os.path.dirname(source)
    scenario["graph"] = os.path.normpath(os.path.join(base, scenario["graph"]))
    runner = scenario["classes"]["runner"]
    runner["model"] = os.path.normpath(os.path.join(base, runner["model"]))
    scenario.update(changes)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(scenario))
    return str(path)


class TestBuildErrorsNameTheirSource:
    """An error raised while a world is built names the scenario, or the
    sweep, that the world came from before the input at fault."""

    BAD_ENTRY = [{"class": "runner", "entry": 99}, {"class": "runner"}]

    @pytest.mark.parametrize("command", [["run", "--trials", "1"], ["threshold-scan", "--thresholds", "0.2"],
                                         ["dump-belief", "--ticks", "1"]])
    def test_bad_entry_names_the_scenario(self, tmp_path, capsys, command):
        path = _scenario_copy(tmp_path, targets=self.BAD_ENTRY)
        extra = ["--out", str(tmp_path / "out")] if command[0] == "threshold-scan" else []
        assert main([command[0], path, *command[1:], *extra]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: targets[0].entry: edge 99 is not an entry edge\n", err

    def test_missing_graph_names_the_scenario(self, tmp_path, capsys):
        path = _scenario_copy(tmp_path, graph=str(tmp_path / "nope.graph"))
        assert main(["run", path, "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {tmp_path / 'nope.graph'}: cannot read: "), err

    @pytest.mark.parametrize("command", [["run", "--trials", "1"], ["dump-belief", "--ticks", "1"]])
    def test_model_for_another_class_names_the_scenario(self, tmp_path, capsys, command):
        """The runner class pointed at a model compiled for walkers exits 1."""
        model = tmp_path / "walker.model"
        with open(os.path.join(REPO_ROOT, "models", "border_shortest.model")) as fh:
            model.write_text(fh.read().replace("class=runner", "class=walker", 1))
        with open(BORDER_YAML) as fh:
            classes = yaml.safe_load(fh)["classes"]
        classes["runner"]["model"] = str(model)
        path = _scenario_copy(tmp_path, classes=classes)
        out = tmp_path / "out.csv"
        assert main([command[0], path, *command[1:], "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: {model}: model was compiled for class 'walker', not for scenario class 'runner'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run", "--trials", "10"], ["dump-belief", "--ticks", "1"]])
    def test_dead_entry_names_the_scenario(self, tmp_path, capsys, dead_entry_scenario, command):
        """A uniform target on a map whose entry edge 2 leads nowhere exits 1,
        naming the scenario, the target and the file's edge id, before any
        trial; it once exited 2 mid-trial, naming the refined id."""
        path = tmp_path / "dead.yaml"
        path.write_text(yaml.safe_dump(dead_entry_scenario([{"class": "runner"}])))
        out = tmp_path / "out.csv"
        assert main([command[0], str(path), *command[1:], "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {path}: targets[0]: entry edge 2 reaches no goal set, "
                       "and a target without a fixed entry may enter on any entry edge\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run", "--trials", "1"], ["dump-belief", "--ticks", "1"]])
    def test_overflowing_penalty_names_the_scenario(self, tmp_path, capsys, command):
        """A runner class whose side_roads penalty overflows its route
        weights exits 1 before any trial, naming the scenario and the
        strategy; `run` once exited 2 mid-trial on an unreachable goal set."""
        with open(BORDER_YAML) as fh:
            classes = yaml.safe_load(fh)["classes"]
        classes["runner"].update(model=os.path.join(REPO_ROOT, "models", "border_shortest.model"),
                                 strategies=[{"name": "shortest"}, {"name": "side_roads", "penalty": 1e305}])
        path = _scenario_copy(tmp_path, classes=classes)
        out = tmp_path / "out.csv"
        assert main([command[0], path, *command[1:], "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: classes.runner.strategies[1]: penalty 1e+305 overflows this map's route weights: "
            "their sum must be finite\n")
        assert not out.exists()

    def test_bad_base_entry_names_the_sweep(self, tmp_path, capsys):
        _scenario_copy(tmp_path, targets=self.BAD_ENTRY)
        sweep = tmp_path / "sweep.yaml"
        sweep.write_text(yaml.safe_dump({"base": "border.yaml", "trials": 1, "axes": {"n_uavs": [1]}}))
        assert main(["sweep", str(sweep), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sweep}: targets[0].entry: edge 99 "), err


class TestOutPath:
    """An --out naming an existing path of the wrong kind, a directory where
    the command writes a file or a file where it writes a directory, is
    refused by name, exit 1, before any input is read."""

    @pytest.mark.parametrize("command", list(CHEAP_COMMANDS))
    def test_wrong_kind_is_refused_before_any_work(self, work, tmp_path, monkeypatch, capsys, command):
        read = []
        for name in ("load_graph", "load_scenario", "load_sweep"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: read.append(name))
        writes_dir = command in ("sweep", "threshold-scan")
        out = tmp_path / "taken"
        if writes_dir:
            out.write_text("kept\n")
        else:
            out.mkdir()
        positional, flags = CHEAP_COMMANDS[command]
        argv = [command, str(work / positional), *(f"{k}={v}" for k, v in flags.items() if k != "--out")]
        assert main([*argv, f"--out={out}"]) == 1
        rule = "must be a directory or a new path" if writes_dir else "must not be an existing directory"
        assert capsys.readouterr().err.endswith(f"error: argument --out: {rule}, got {out}\n")
        assert read == []
        assert (out.read_text() == "kept\n") if writes_dir else (list(out.iterdir()) == [])

    @pytest.mark.parametrize("command,case", [
        *((command, "under_a_file") for command in CHEAP_COMMANDS),
        *((command, "trailing_separator") for command in ("compile-model", "run", "dump-belief")),
    ])
    def test_unwritable_path_is_refused_before_any_work(self, work, tmp_path, monkeypatch, capsys, command, case):
        """An --out under an existing file, or a file --out that ends in a
        path separator, is refused the same way, and nothing is created."""
        read = []
        for name in ("load_graph", "load_scenario", "load_sweep"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: read.append(name))
        (tmp_path / "file").write_text("kept\n")
        if case == "under_a_file":
            out, rule = os.path.join(tmp_path, "file", "new", "x"), "must not lie under a file"
        else:
            out, rule = os.path.join(tmp_path, "new", ""), "must end in a file name"
        positional, flags = CHEAP_COMMANDS[command]
        argv = [command, str(work / positional), *(f"{k}={v}" for k, v in flags.items() if k != "--out")]
        assert main([*argv, f"--out={out}"]) == 1
        assert capsys.readouterr().err.endswith(f"error: argument --out: {rule}, got {out}\n")
        assert read == []
        assert sorted(os.listdir(tmp_path)) == ["file"] and (tmp_path / "file").read_text() == "kept\n"


def test_write_failure_after_the_run_exits_2(work, monkeypatch, capsys):
    """An --out that passes parsing but cannot be written is a runtime error."""
    def refuse(path, lines):
        raise PermissionError(13, "Permission denied", path)
    monkeypatch.setattr(cli, "write_lines", refuse)
    assert main(["dump-belief", str(work / "tiny.yaml"), "--ticks", "1", "--out", str(work / "b.csv")]) == 2
    assert capsys.readouterr().err == f"runtime error: [Errno 13] Permission denied: '{work / 'b.csv'}'\n"


def test_run_never_imports_scipy(tmp_path):
    """The runtime needs only numpy and PyYAML; scipy is a test-only oracle.
    A `--jobs 1` run also starts without the process pool's modules."""
    code = (
        "import sys, uav_search.cli; "
        f"rc = uav_search.cli.main(['run', {BORDER_YAML!r}, '--trials', '1', '--out', sys.argv[1]]); "
        "print(rc, [m for m in ('scipy', 'multiprocessing', 'logging', 'socket') if m in sys.modules])"
    )
    src = os.path.dirname(os.path.dirname(uav_search.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "trials.csv")],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stdout + proc.stderr


@pytest.mark.parametrize("flags", sorted(THRESHOLD_SCAN_SHA256))
def test_threshold_scan_bytes_are_pinned(tmp_path, capsys, flags):
    rc = main(["threshold-scan", BORDER_YAML, *flags.split(), "--trials", "3", "--seed", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("threshold_grid.csv", "threshold_best.csv"))
    assert got == THRESHOLD_SCAN_SHA256[flags]


def test_dump_belief_bytes_are_pinned(tmp_path):
    out = tmp_path / "belief.csv"
    assert main(["dump-belief", BORDER_YAML, "--ticks", "50", "--entry", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DUMP_BELIEF_SHA256


@pytest.mark.parametrize("ticks", [0, 1, 50])
def test_dump_belief_propagates_once_per_tick(tmp_path, monkeypatch, ticks):
    """`--ticks N` makes N propagate calls, however the world's checkpoints fall."""
    calls = []

    def counting(mass, model):
        calls.append(1)
        return propagate(mass, model)

    monkeypatch.setattr("uav_search.simulator.propagate", counting)
    out = tmp_path / "belief.csv"
    assert main(["dump-belief", BORDER_YAML, "--ticks", str(ticks), "--entry", "3", "--out", str(out)]) == 0
    assert len(calls) == ticks


def test_readme_dump_belief_command_runs(tmp_path, monkeypatch, capsys):
    """The dump-belief example in README.md runs as written, from the repo root."""
    with open(os.path.join(REPO_ROOT, "README.md")) as fh:
        [line] = [ln.split() for ln in fh if ln.startswith("uav-search dump-belief ")]
    argv = line[1:]
    argv[argv.index("--out") + 1] = str(tmp_path / "belief.csv")
    monkeypatch.chdir(REPO_ROOT)
    assert main(argv) == 0, capsys.readouterr().err
    assert (tmp_path / "belief.csv").read_text().startswith("tick,edge,mass\n0,")


# SHA-256 of the model written by `compile-model maps/border.graph
# --strategies shortest,random_walk:beta=0.01,side_roads:penalty=1.5
# --runs-per-pair 1 --seed 5` with the README's radius, tick, velocity and
# class, recorded while traces were sampled tick by tick, hops counted in
# dicts and every walk step drawn with `rng.choice`.
STOCHASTIC_COMPILE_SHA256 = "3b5bca6dd0b4139964196151bcde3b91808136afd0afeb584ee795b91ed4e53c"


def test_stochastic_compile_bytes_are_pinned(tmp_path):
    out = tmp_path / "pooled.model"
    rc = main([
        "compile-model", os.path.join(REPO_ROOT, "maps", "border.graph"),
        "--strategies", "shortest,random_walk:beta=0.01,side_roads:penalty=1.5", "--radius", "500",
        "--tick", "20", "--velocity", "8:12", "--runs-per-pair", "1", "--seed", "5",
        "--target-class", "runner", "--out", str(out),
    ])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STOCHASTIC_COMPILE_SHA256


# SHA-256 of the model written by `compile-model maps/border.graph
# --strategies random_walk:beta=0,random_walk:beta=1e308 --runs-per-pair 2
# --seed 11` with the README's radius, tick, velocity and class, recorded
# while every walk step was drawn by one scalar `Rng` per stream, before walks
# stepped in lanes: beta = 0 walks run long past the lanes' 64 edges and end
# on scalar steps, and beta = 1e308 walks are shortest routes.
UNIFORM_WALK_COMPILE_SHA256 = "480c32fa54aedc37d03bd471004c23d49b3d1b652fd6abe83dc9f80b2724472b"


def test_uniform_walk_compile_bytes_are_pinned(tmp_path):
    out = tmp_path / "uniform.model"
    rc = main([
        "compile-model", os.path.join(REPO_ROOT, "maps", "border.graph"),
        "--strategies", "random_walk:beta=0,random_walk:beta=1e308", "--radius", "500",
        "--tick", "20", "--velocity", "8:12", "--runs-per-pair", "2", "--seed", "11",
        "--target-class", "runner", "--out", str(out),
    ])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == UNIFORM_WALK_COMPILE_SHA256


def test_readme_compile_command_reproduces_bundled_model(tmp_path):
    out = tmp_path / "border_shortest.model"
    rc = main([
        "compile-model", os.path.join(REPO_ROOT, "maps", "border.graph"),
        "--strategies", "shortest", "--radius", "500", "--tick", "20", "--velocity", "8:12",
        "--runs-per-pair", "3", "--seed", "7", "--target-class", "runner", "--out", str(out),
    ])
    assert rc == 0
    with open(os.path.join(REPO_ROOT, "models", "border_shortest.model"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_compile_never_imports_pyyaml(tmp_path):
    """`compile-model` reads no YAML: importing the CLI leaves PyYAML
    unloaded, and with PyYAML unimportable the README command still exits 0
    and writes the bundled model's bytes."""
    out = tmp_path / "border_shortest.model"
    code = (
        "import sys, uav_search.cli; loaded = 'yaml' in sys.modules; sys.modules['yaml'] = None; "
        "rc = uav_search.cli.main(sys.argv[1:]); print(rc, loaded)"
    )
    args = [
        "compile-model", os.path.join(REPO_ROOT, "maps", "border.graph"),
        "--strategies", "shortest", "--radius", "500", "--tick", "20", "--velocity", "8:12",
        "--runs-per-pair", "3", "--seed", "7", "--target-class", "runner", "--out", str(out),
    ]
    src = os.path.dirname(os.path.dirname(uav_search.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stdout + proc.stderr
    with open(os.path.join(REPO_ROOT, "models", "border_shortest.model"), "rb") as fh:
        assert out.read_bytes() == fh.read()
