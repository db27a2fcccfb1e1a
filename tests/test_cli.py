"""End-to-end command-line checks: every verb, exit codes, byte-stable output."""

import csv
import hashlib
import io
import os

import pytest
import yaml

from uav_search.cli import main
from uav_search.simulator import trial_seed

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

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
            ({"--velocity": "12:8"}, "need 0 < LO <= HI"),
            ({"--velocity": "0:8"}, "need 0 < LO <= HI"),
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

    def test_undersampled_tick_is_runtime_error(self, work, capsys):
        rc = main([
            "compile-model", str(work / "chain.graph"),
            "--strategies", "shortest", "--radius", "500",
            "--tick", "200", "--velocity", "10:10",
            "--runs-per-pair", "1", "--out", str(work / "models/chain.model"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "runtime error" in err and "skips road edges" in err


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
        assert "--trials: need at least 1" in capsys.readouterr().err

    def test_missing_scenario(self, work, capsys):
        assert main(["run", str(work / "nope.yaml")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario_names_field(self, work, capsys):
        bad = work / "bad.yaml"
        bad.write_text(yaml.safe_dump({"targets": [{"class": "default"}]}))
        assert main(["run", str(bad)]) == 1
        assert "graph: required" in capsys.readouterr().err


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

    def test_empty_threshold_list(self, work, capsys):
        rc = main(["threshold-scan", str(work / "tiny.yaml"), "--thresholds", ",",
                   "--trials", "2"])
        assert rc == 1
        assert "need at least one value" in capsys.readouterr().err


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_border_run_bytes_are_pinned(tmp_path, jobs):
    out = tmp_path / "trials.csv"
    scenario = os.path.join(REPO_ROOT, "scenarios", "border.yaml")
    rc = main(["run", scenario, "--trials", "6", "--seed", "0", "--jobs", jobs, "--out", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BORDER_RUN_SHA256
